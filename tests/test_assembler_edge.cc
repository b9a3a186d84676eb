/**
 * @file
 * Assembler edge cases: displacement-size selection at exact
 * boundaries, immediate sizing by operand type, index-prefix
 * encoding, and error paths.
 */

#include <gtest/gtest.h>

#include <thread>

#include "arch/assembler.hh"
#include "arch/disasm.hh"

namespace vax::test
{

using Op = Operand;

namespace
{

std::vector<uint8_t>
assembleOne(uint8_t opcode, const std::vector<Operand> &ops)
{
    Assembler a(0x1000);
    a.instr(opcode, ops);
    return a.finish();
}

/** How labelProgram() names its labels. */
enum class Naming { Names, Ids, Mixed };

/**
 * One small program with forward and backward byte and word branches,
 * PC-relative, deferred, immediate and absolute label references, a
 * case table and a data fixup -- written with string names, with
 * label ids, or half and half.
 */
std::vector<uint8_t>
labelProgram(Naming naming)
{
    Assembler a(0x1000);
    auto make = [&](const char *name, bool mixed_id) -> LabelRef {
        if (naming == Naming::Names ||
            (naming == Naming::Mixed && !mixed_id))
            return name;
        return a.newLabel();
    };
    LabelRef top = make("top", true), skip = make("skip", false);
    LabelRef c0 = make("c0", true), data = make("data", false);
    LabelRef ptr = make("ptr", true);
    a.label(top);
    a.instr(op::MOVL, {Op::immAddr(data), Op::reg(R1)});
    a.instr(op::BEQL, {Op::branch(skip)});
    a.instr(op::CASEL, {Op::reg(R0), Op::lit(0), Op::lit(1)});
    a.caseTable({c0, skip});
    a.label(c0);
    a.instr(op::TSTL, {Op::rel(data)});
    a.instr(op::JMP, {Op::absoluteLabel(top)});
    a.label(skip);
    a.instr(op::MOVL, {Op::relDef(ptr), Op::reg(R2)});
    a.instr(op::BRW, {Op::branch(top)});
    a.align(4);
    a.label(data);
    a.lword(0x12345678);
    a.label(ptr);
    a.addrLong(data);
    return a.finish();
}

} // anonymous namespace

TEST(AssemblerLabels, IdsNamesAndMixesAssembleAlike)
{
    // The bytes the string-keyed assembler produced for this program.
    const std::vector<uint8_t> expect = {
        0xD0, 0x8F, 0x24, 0x10, 0x00, 0x00, 0x51, 0x13, 0x12, 0xCF, 0x50,
        0x00, 0x01, 0x04, 0x00, 0x0E, 0x00, 0xD5, 0xCF, 0x0F, 0x00, 0x17,
        0x9F, 0x00, 0x10, 0x00, 0x00, 0xD0, 0xDF, 0x09, 0x00, 0x52, 0x31,
        0xDD, 0xFF, 0x00, 0x78, 0x56, 0x34, 0x12, 0x24, 0x10, 0x00, 0x00,
    };
    EXPECT_EQ(labelProgram(Naming::Names), expect);
    EXPECT_EQ(labelProgram(Naming::Ids), expect);
    EXPECT_EQ(labelProgram(Naming::Mixed), expect);
}

TEST(AssemblerLabels, StringOperandsResolveToTheInternedId)
{
    Assembler a(0x400);
    Label fwd = a.labelId("fwd");
    a.instr(op::BRB, {Op::branch("fwd")}); // by name, before placement
    a.instr(op::BRB, {Op::branch(fwd)});   // by id
    a.label("fwd");
    EXPECT_TRUE(a.hasLabel("fwd"));
    EXPECT_EQ(a.addrOf(fwd), 0x404u);
    EXPECT_EQ(a.addrOf("fwd"), 0x404u);
    auto img = a.finish();
    EXPECT_EQ(img[1], 0x02); // 0x404 - 0x402
    EXPECT_EQ(img[3], 0x00); // 0x404 - 0x404
    EXPECT_EQ(a.addrOf(fwd), 0x404u); // labels outlive finish()
}

TEST(AssemblerLabels, ReferencedButUnplacedIsNotDefined)
{
    Assembler a(0);
    a.instr(op::BRB, {Op::branch("later")});
    EXPECT_FALSE(a.hasLabel("later")); // interned, not placed
    EXPECT_FALSE(a.hasLabel("never"));
    a.label("later");
    EXPECT_TRUE(a.hasLabel("later"));
}

TEST(AssemblerLabels, DuplicateAndUndefinedLabelsNameTheLabel)
{
    EXPECT_DEATH({
        Assembler a(0);
        a.label("twice");
        a.label("twice");
    }, "duplicate label 'twice'");
    EXPECT_DEATH({
        Assembler a(0);
        Label l = a.newLabel();
        a.label(l);
        a.label(l);
    }, "duplicate label '#0'");
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::BRB, {Op::branch("nowhere")});
        a.finish();
    }, "undefined label 'nowhere'");
    EXPECT_DEATH({
        Assembler a(0);
        a.newLabel();
        a.instr(op::BRB, {Op::branch(a.newLabel())});
        a.finish();
    }, "undefined label '#1'");
    EXPECT_DEATH({
        Assembler a(0);
        a.caseTable({a.newLabel()});
        a.finish();
    }, "undefined label '#0'");
    EXPECT_DEATH({
        Assembler a(0);
        a.addrOf("missing");
    }, "undefined label 'missing'");
    EXPECT_DEATH({
        Assembler a(0);
        Label far = a.labelId("far");
        a.instr(op::BRB, {Op::branch(far)});
        a.space(200);
        a.label(far);
        a.finish();
    }, "byte branch to 'far' out of range");
}

TEST(AssemblerLabels, LabelsArePerAssembler)
{
    // The same name in two assemblers is two labels, and an id means
    // nothing to an assembler that did not make it.
    Assembler a(0x100), b(0x200);
    a.label("x");
    b.byte(0);
    b.label("x");
    EXPECT_EQ(a.addrOf("x"), 0x100u);
    EXPECT_EQ(b.addrOf("x"), 0x201u);
    EXPECT_DEATH({
        Assembler c(0);
        Assembler d(0);
        c.newLabel();
        Label foreign = c.newLabel();
        d.label(foreign);
    }, "assertion");
}

TEST(AssemblerLabels, ConcurrentAssemblersShareNothing)
{
    // Pool workers assemble machines at the same time; each image must
    // come out as if built alone.
    const std::vector<uint8_t> expect = labelProgram(Naming::Mixed);
    std::vector<std::vector<uint8_t>> got(4);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < got.size(); ++t)
        workers.emplace_back([&got, t] {
            for (int i = 0; i < 200; ++i)
                got[t] = labelProgram(static_cast<Naming>(i % 3));
        });
    for (std::thread &w : workers)
        w.join();
    for (const auto &img : got)
        EXPECT_EQ(img, expect);
}

TEST(AssemblerEdge, QuadImmediateDisassemblesWhole)
{
    // MOVQ I^#0x1122334455667788, R2: eight immediate bytes.
    const std::vector<uint8_t> img = {0x7D, 0x8F, 0x88, 0x77, 0x66, 0x55,
                                      0x44, 0x33, 0x22, 0x11, 0x52};
    auto d = disassemble(0, [&](VirtAddr va) { return img.at(va); });
    EXPECT_TRUE(d.valid);
    EXPECT_EQ(d.length, img.size());
    EXPECT_EQ(d.text, "MOVQ I^#0x1122334455667788, R2");
}

TEST(AssemblerEdge, DisplacementSizeBoundaries)
{
    // 127 fits in a byte displacement (mode 0xA).
    auto img = assembleOne(op::MOVL, {Op::disp(127, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xA2);
    EXPECT_EQ(img.size(), 4u); // opcode + spec byte + disp + reg

    // 128 needs a word displacement (mode 0xC).
    img = assembleOne(op::MOVL, {Op::disp(128, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xC2);

    // -128 still fits in a byte.
    img = assembleOne(op::MOVL, {Op::disp(-128, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xA2);
    EXPECT_EQ(img[2], 0x80);

    // -129 needs a word.
    img = assembleOne(op::MOVL, {Op::disp(-129, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xC2);

    // 32767 fits in a word; 32768 needs a longword (mode 0xE).
    img = assembleOne(op::MOVL, {Op::disp(32767, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xC2);
    img = assembleOne(op::MOVL, {Op::disp(32768, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xE2);
}

TEST(AssemblerEdge, DeferredUsesBMode)
{
    auto img = assembleOne(op::MOVL,
                           {Op::dispDef(8, R3), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xB3);
    img = assembleOne(op::MOVL, {Op::dispDef(300, R3), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xD3);
}

TEST(AssemblerEdge, ImmediateSizeFollowsOperandType)
{
    // MOVB immediate: one data byte after 0x8F.
    auto img = assembleOne(op::MOVB, {Op::imm(0x12), Op::reg(R1)});
    EXPECT_EQ(img[1], 0x8F);
    EXPECT_EQ(img.size(), 1u + 2u + 1u);
    // MOVW: two bytes; MOVL: four.
    img = assembleOne(op::MOVW, {Op::imm(0x1234), Op::reg(R1)});
    EXPECT_EQ(img.size(), 1u + 3u + 1u);
    img = assembleOne(op::MOVL, {Op::imm(0x12345678), Op::reg(R1)});
    EXPECT_EQ(img.size(), 1u + 5u + 1u);
}

TEST(AssemblerEdge, IndexPrefixPrecedesBase)
{
    auto img = assembleOne(op::MOVL,
                           {Op::disp(4, R2).idx(R5), Op::reg(R1)});
    EXPECT_EQ(img[1], 0x45); // index prefix, Rx = R5
    EXPECT_EQ(img[2], 0xA2); // byte displacement off R2
}

TEST(AssemblerEdge, RegisterModesEncode)
{
    EXPECT_EQ(assembleOne(op::TSTL, {Op::reg(R9)})[1], 0x59);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::regDef(R9)})[1], 0x69);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::autoDec(R9)})[1], 0x79);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::autoInc(R9)})[1], 0x89);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::autoIncDef(R9)})[1], 0x99);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::absolute(0x100)})[1], 0x9F);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::lit(63)})[1], 0x3F);
}

TEST(AssemblerEdge, ErrorPathsAreFatal)
{
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::MOVL, {Op::lit(1), Op::lit(2)}); // literal dest
        a.finish();
    }, "literal");
    EXPECT_DEATH({
        Assembler a(0);
        a.label("x");
        a.label("x"); // duplicate
    }, "duplicate");
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::BRB, {Op::branch("far")});
        a.space(200);
        a.label("far");
        a.finish(); // byte branch out of range
    }, "out of range");
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::BRB, {Op::branch("nowhere")});
        a.finish();
    }, "undefined label");
}

TEST(AssemblerEdge, RelativeDisassemblesToTarget)
{
    Assembler a(0x2000);
    a.instr(op::TSTL, {Op::rel("target")});
    a.label("target");
    a.lword(1);
    auto img = a.finish();
    auto d = disassemble(0x2000, [&](VirtAddr va) {
        return img.at(va - 0x2000);
    });
    // Word PC-relative: mode 0xCF.
    EXPECT_EQ(img[1], 0xCF);
    EXPECT_TRUE(d.valid);
    EXPECT_EQ(d.length, 4u);
}

TEST(AssemblerEdge, EntryMaskAndSpaceFill)
{
    Assembler a(0);
    a.entryMask(0x0C);
    a.space(3, 0xEE);
    auto img = a.finish();
    ASSERT_EQ(img.size(), 5u);
    EXPECT_EQ(img[0], 0x0C);
    EXPECT_EQ(img[1], 0x00);
    EXPECT_EQ(img[2], 0xEE);
}

} // namespace vax::test
