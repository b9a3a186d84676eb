/**
 * @file
 * Instruction-semantics tests: every execute flow is exercised end to
 * end on the full machine, with parameterized sweeps over addressing
 * modes and ALU operations.
 */

#include <gtest/gtest.h>

#include "arch/decimal.hh"
#include "arch/ffloat.hh"
#include "tests/sim_test_util.hh"

namespace vax::test
{

using Op = Operand;

// ---------------- addressing-mode matrix ----------------

/** Each case loads the value 0x11223344 into R1 via a different
 *  source addressing mode. */
struct ModeCase
{
    const char *name;
    void (*build)(Assembler &);
};

// Print a case by its name.  gtest's default dumps the struct's bytes,
// pointers included; that text lands in the ctest test names, which
// would then change with every build's load address.
void PrintTo(const ModeCase &c, std::ostream *os) { *os << c.name; }

class AddressingModeTest : public ::testing::TestWithParam<ModeCase>
{
};

TEST_P(AddressingModeTest, LoadsValue)
{
    BareMachine m;
    auto &a = m.asmblr;
    // Common data the cases reference.
    GetParam().build(a);
    a.instr(op::HALT);
    a.align(4);
    a.label("val");
    a.lword(0x11223344);
    a.label("ptr");
    a.addrLong("val");
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 0x11223344u) << GetParam().name;
}

static const ModeCase mode_cases[] = {
    {"register", [](Assembler &a) {
         a.instr(op::MOVL, {Op::imm(0x11223344), Op::reg(R2)});
         a.instr(op::MOVL, {Op::reg(R2), Op::reg(R1)});
     }},
    {"immediate", [](Assembler &a) {
         a.instr(op::MOVL, {Op::imm(0x11223344), Op::reg(R1)});
     }},
    {"register_deferred", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R2)});
         a.instr(op::MOVL, {Op::regDef(R2), Op::reg(R1)});
     }},
    {"byte_displacement", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R2)});
         a.instr(op::SUBL2, {Op::imm(8), Op::reg(R2)});
         a.instr(op::MOVL, {Op::disp(8, R2), Op::reg(R1)});
     }},
    {"word_displacement", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R2)});
         a.instr(op::SUBL2, {Op::imm(0x300), Op::reg(R2)});
         a.instr(op::MOVL, {Op::disp(0x300, R2), Op::reg(R1)});
     }},
    {"long_displacement", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R2)});
         a.instr(op::SUBL2, {Op::imm(0x10000), Op::reg(R2)});
         a.instr(op::MOVL, {Op::disp(0x10000, R2), Op::reg(R1)});
     }},
    {"autoincrement", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R2)});
         a.instr(op::MOVL, {Op::autoInc(R2), Op::reg(R1)});
         // R2 must have advanced by 4.
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R3)});
         a.instr(op::SUBL2, {Op::reg(R3), Op::reg(R2)});
         a.instr(op::CMPL, {Op::reg(R2), Op::imm(4)});
         a.instr(op::BEQL, {Op::branch("okinc")});
         a.instr(op::CLRL, {Op::reg(R1)}); // poison on failure
         a.label("okinc");
     }},
    {"autodecrement", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R2)});
         a.instr(op::ADDL2, {Op::imm(4), Op::reg(R2)});
         a.instr(op::MOVL, {Op::autoDec(R2), Op::reg(R1)});
     }},
    {"autoincrement_deferred", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("ptr"), Op::reg(R2)});
         a.instr(op::MOVL, {Op::autoIncDef(R2), Op::reg(R1)});
     }},
    {"displacement_deferred", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("ptr"), Op::reg(R2)});
         a.instr(op::MOVL, {Op::dispDef(0, R2), Op::reg(R1)});
     }},
    {"relative", [](Assembler &a) {
         a.instr(op::MOVL, {Op::rel("val"), Op::reg(R1)});
     }},
    {"relative_deferred", [](Assembler &a) {
         a.instr(op::MOVL, {Op::relDef("ptr"), Op::reg(R1)});
     }},
    {"indexed", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("val"), Op::reg(R2)});
         a.instr(op::SUBL2, {Op::imm(12), Op::reg(R2)});
         a.instr(op::MOVL, {Op::imm(3), Op::reg(R4)});
         a.instr(op::MOVL, {Op::disp(0, R2).idx(R4), Op::reg(R1)});
     }},
    {"indexed_deferred", [](Assembler &a) {
         a.instr(op::MOVAB, {Op::rel("ptr"), Op::reg(R2)});
         a.instr(op::MOVL, {Op::imm(1), Op::reg(R4)});
         // @-4(R2)[R4]: pointer at R2-4+... deferred: pointer value
         // then + R4*4; point one long below val.
         a.instr(op::MOVL, {Op::dispDef(0, R2), Op::reg(R3)});
         a.instr(op::SUBL2, {Op::imm(4), Op::regDef(R2)});
         a.instr(op::MOVL, {Op::dispDef(0, R2).idx(R4),
                            Op::reg(R1)});
     }},
};

INSTANTIATE_TEST_SUITE_P(
    Modes, AddressingModeTest, ::testing::ValuesIn(mode_cases),
    [](const ::testing::TestParamInfo<ModeCase> &info) {
        return info.param.name;
    });

// ---------------- ALU sweep ----------------

struct AluCase
{
    const char *name;
    uint8_t opcode;
    uint32_t src, dst, expect;
};

void PrintTo(const AluCase &c, std::ostream *os) { *os << c.name; }

class AluInstrTest : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluInstrTest, TwoOperandForm)
{
    const AluCase &c = GetParam();
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(c.dst), Op::reg(R1)});
    a.instr(c.opcode, {Op::imm(c.src), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    unsigned bytes = dataTypeBytes(opcodeInfo(c.opcode).sizeLatch());
    uint32_t mask = bytes >= 4 ? ~0u : ((1u << (8 * bytes)) - 1);
    EXPECT_EQ(m.gpr(R1) & mask, c.expect & mask) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluInstrTest,
    ::testing::Values(
        AluCase{"addl2", op::ADDL2, 5, 7, 12},
        AluCase{"addw2", op::ADDW2, 0xFFFF, 2, 1},
        AluCase{"addb2", op::ADDB2, 0x7F, 1, 0x80},
        AluCase{"subl2", op::SUBL2, 5, 7, 2},
        AluCase{"subb2", op::SUBB2, 1, 0, 0xFF},
        AluCase{"bisl2", op::BISL2, 0xF0, 0x0F, 0xFF},
        AluCase{"bicl2", op::BICL2, 0x0F, 0xFF, 0xF0},
        AluCase{"xorl2", op::XORL2, 0xFF, 0x0F, 0xF0},
        AluCase{"mull2", op::MULL2, 7, 6, 42},
        AluCase{"divl2", op::DIVL2, 7, 42, 6},
        AluCase{"divl2_negative", op::DIVL2,
                static_cast<uint32_t>(-7), 42,
                static_cast<uint32_t>(-6)}),
    [](const ::testing::TestParamInfo<AluCase> &info) {
        return info.param.name;
    });

TEST(Instr, ThreeOperandAlu)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(100), Op::reg(R2)});
    a.instr(op::SUBL3, {Op::imm(42), Op::reg(R2), Op::reg(R3)});
    a.instr(op::ADDL3, {Op::reg(R2), Op::reg(R3), Op::rel("out")});
    a.instr(op::HALT);
    a.align(4);
    a.label("out");
    a.lword(0);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R3), 58u);
    EXPECT_EQ(m.readLong(m.asmblr.addrOf("out")), 158u);
}

TEST(Instr, IncDecTstClrMcomBit)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(5), Op::reg(R1)});
    a.instr(op::INCL, {Op::reg(R1)});
    a.instr(op::INCL, {Op::reg(R1)});
    a.instr(op::DECL, {Op::reg(R1)});
    a.instr(op::MCOML, {Op::reg(R1), Op::reg(R2)});
    a.instr(op::CLRL, {Op::reg(R3)});
    a.instr(op::TSTL, {Op::reg(R3)});
    a.instr(op::BEQL, {Op::branch("z")});
    a.instr(op::MOVL, {Op::imm(999), Op::reg(R4)});
    a.label("z");
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 6u);
    EXPECT_EQ(m.gpr(R2), ~6u);
    EXPECT_EQ(m.gpr(R4), 0u);
}

TEST(Instr, AshlRotl)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(0x1234), Op::reg(R1)});
    a.instr(op::ASHL, {Op::lit(8), Op::reg(R1), Op::reg(R2)});
    a.instr(op::ROTL, {Op::lit(16), Op::reg(R1), Op::reg(R3)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R2), 0x123400u);
    EXPECT_EQ(m.gpr(R3), 0x12340000u);
}

TEST(Instr, MovqClrq)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVQ, {Op::rel("q"), Op::reg(R2)}); // -> R2, R3
    a.instr(op::MOVQ, {Op::reg(R2), Op::rel("out")});
    a.instr(op::CLRQ, {Op::reg(R4)});
    a.instr(op::HALT);
    a.align(4);
    a.label("q");
    a.lword(0x11111111);
    a.lword(0x22222222);
    a.label("out");
    a.space(8);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R2), 0x11111111u);
    EXPECT_EQ(m.gpr(R3), 0x22222222u);
    EXPECT_EQ(m.readLong(a.addrOf("out")), 0x11111111u);
    EXPECT_EQ(m.readLong(a.addrOf("out") + 4), 0x22222222u);
    EXPECT_EQ(m.gpr(R4), 0u);
    EXPECT_EQ(m.gpr(R5), 0u);
}

// ---------------- field instructions ----------------

TEST(Instr, ExtvExtzvRegisterAndMemory)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(0xF0F0A5C3), Op::reg(R2)});
    a.instr(op::EXTZV, {Op::lit(4), Op::lit(8), Op::reg(R2),
                        Op::reg(R1)});
    a.instr(op::EXTV, {Op::lit(12), Op::lit(4), Op::rel("w"),
                       Op::reg(R3)});
    a.instr(op::HALT);
    a.align(4);
    a.label("w");
    a.lword(0x0000F000);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 0x5Cu);
    EXPECT_EQ(m.gpr(R3), 0xFFFFFFFFu); // sign-extended 0xF
}

TEST(Instr, ExtvSpanningTwoLongwords)
{
    BareMachine m;
    auto &a = m.asmblr;
    // Field at bit offset 28, 8 bits: spans w[0] and w[1].
    a.instr(op::EXTZV, {Op::imm(28), Op::lit(8), Op::rel("w"),
                        Op::reg(R1)});
    a.instr(op::HALT);
    a.align(4);
    a.label("w");
    a.lword(0xA0000000);
    a.lword(0x0000005B);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 0xBAu);
}

TEST(Instr, InsvRegisterAndMemory)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::CLRL, {Op::reg(R2)});
    a.instr(op::MOVL, {Op::imm(0x5), Op::reg(R1)});
    a.instr(op::INSV, {Op::reg(R1), Op::lit(8), Op::lit(4),
                       Op::reg(R2)});
    a.instr(op::INSV, {Op::imm(0xAB), Op::lit(4), Op::lit(8),
                       Op::rel("w")});
    a.instr(op::HALT);
    a.align(4);
    a.label("w");
    a.lword(0);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R2), 0x500u);
    EXPECT_EQ(m.readLong(a.addrOf("w")), 0xAB0u);
}

TEST(Instr, FfsFindsFirstSet)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(0x40), Op::reg(R2)});
    a.instr(op::FFS, {Op::lit(0), Op::lit(32), Op::reg(R2),
                      Op::reg(R1)});
    // Not found case: Z set, result = pos+size.
    a.instr(op::CLRL, {Op::reg(R3)});
    a.instr(op::FFS, {Op::lit(0), Op::lit(16), Op::reg(R3),
                      Op::reg(R4)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 6u);
    EXPECT_EQ(m.gpr(R4), 16u);
}

TEST(Instr, BitBranchesTestAndModify)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(0x4), Op::reg(R2)});
    a.instr(op::BBS, {Op::lit(2), Op::reg(R2), Op::branch("was_set")});
    a.instr(op::HALT); // wrong path
    a.label("was_set");
    // BBSC: branch on set and clear it.
    a.instr(op::BBSC, {Op::lit(2), Op::reg(R2),
                       Op::branch("clearing")});
    a.instr(op::HALT); // wrong path
    a.label("clearing");
    // Now bit 2 is clear: BBC should branch; BBSS on memory.
    a.instr(op::BBC, {Op::lit(2), Op::reg(R2), Op::branch("go")});
    a.instr(op::HALT);
    a.label("go");
    a.instr(op::BBSS, {Op::lit(0), Op::rel("flag"),
                       Op::branch("bad")});
    a.instr(op::MOVL, {Op::imm(1), Op::reg(R6)});
    a.label("bad");
    a.instr(op::HALT);
    a.align(4);
    a.label("flag");
    a.lword(0); // bit clear: BBSS does not branch but sets it
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R2), 0u);
    EXPECT_EQ(m.gpr(R6), 1u);
    EXPECT_EQ(m.readLong(a.addrOf("flag")) & 1u, 1u);
}

// ---------------- float / integer multiply-divide ----------------

TEST(Instr, FloatArithmetic)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVF, {Op::imm(doubleToF(2.5)), Op::reg(R2)});
    a.instr(op::ADDF2, {Op::imm(doubleToF(1.25)), Op::reg(R2)});
    a.instr(op::MULF2, {Op::imm(doubleToF(4.0)), Op::reg(R2)});
    a.instr(op::DIVF2, {Op::imm(doubleToF(3.0)), Op::reg(R2)});
    a.instr(op::SUBF3, {Op::imm(doubleToF(1.0)), Op::reg(R2),
                        Op::reg(R3)});
    a.instr(op::MNEGF, {Op::reg(R3), Op::reg(R4)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_NEAR(fToDouble(m.gpr(R2)), 5.0, 1e-5);
    EXPECT_NEAR(fToDouble(m.gpr(R3)), 4.0, 1e-5);
    EXPECT_NEAR(fToDouble(m.gpr(R4)), -4.0, 1e-5);
}

TEST(Instr, FloatCompareAndConvert)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVF, {Op::imm(doubleToF(2.0)), Op::reg(R2)});
    a.instr(op::CMPF, {Op::reg(R2), Op::imm(doubleToF(3.0))});
    a.instr(op::BLSS, {Op::branch("less")});
    a.instr(op::HALT);
    a.label("less");
    a.instr(op::CVTLF, {Op::imm(100), Op::reg(R3)});
    a.instr(op::CVTFL, {Op::reg(R3), Op::reg(R4)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R4), 100u);
}

TEST(Instr, EmulEdiv)
{
    BareMachine m;
    auto &a = m.asmblr;
    // EMUL: 100000 * 100000 + 5 = 10^10 + 5 -> quad in R2/R3.
    a.instr(op::EMUL, {Op::imm(100000), Op::imm(100000), Op::lit(5),
                       Op::reg(R2)});
    // EDIV: quad R2/R3 divided by 100000 -> quotient R4, rem R5.
    a.instr(op::EDIV, {Op::imm(100000), Op::reg(R2), Op::reg(R4),
                       Op::reg(R5)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    uint64_t prod = m.gpr(R2) | (uint64_t(m.gpr(R3)) << 32);
    EXPECT_EQ(prod, 10000000000ULL + 5);
    EXPECT_EQ(m.gpr(R4), 100000u);
    EXPECT_EQ(m.gpr(R5), 5u);
}

// ---------------- queue instructions ----------------

TEST(Instr, InsqueRemque)
{
    BareMachine m;
    auto &a = m.asmblr;
    // Insert e1 then e2 at head; remove from head twice.
    a.instr(op::INSQUE, {Op::rel("e1"), Op::rel("hdr")});
    a.instr(op::INSQUE, {Op::rel("e2"), Op::rel("hdr")});
    a.instr(op::REMQUE, {Op::relDef("hdr"), Op::reg(R1)});
    a.instr(op::REMQUE, {Op::relDef("hdr"), Op::reg(R2)});
    a.instr(op::HALT);
    a.align(4);
    a.label("hdr");
    a.addrLong("hdr");
    a.addrLong("hdr");
    a.label("e1");
    a.lword(0);
    a.lword(0);
    a.label("e2");
    a.lword(0);
    a.lword(0);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), a.addrOf("e2")); // LIFO at head
    EXPECT_EQ(m.gpr(R2), a.addrOf("e1"));
    // Queue empty again: header self-linked.
    EXPECT_EQ(m.readLong(a.addrOf("hdr")), a.addrOf("hdr"));
    EXPECT_EQ(m.readLong(a.addrOf("hdr") + 4), a.addrOf("hdr"));
}

// ---------------- character instructions ----------------

TEST(Instr, Movc5TruncateAndFill)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVC5, {Op::imm(4), Op::rel("src"), Op::lit(42),
                        Op::imm(8), Op::rel("dst")});
    a.instr(op::HALT);
    a.align(4);
    a.label("src");
    a.ascii("ABCDEFGH");
    a.label("dst");
    a.space(8, 0xFF);
    ASSERT_TRUE(m.run());
    auto &phys = m.cpu->mem().phys();
    uint32_t dst = a.addrOf("dst");
    EXPECT_EQ(phys.readByte(dst + 0), 'A');
    EXPECT_EQ(phys.readByte(dst + 3), 'D');
    for (unsigned i = 4; i < 8; ++i)
        EXPECT_EQ(phys.readByte(dst + i), 42u); // fill
}

TEST(Instr, Cmpc3EqualAndUnequal)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::CMPC3, {Op::imm(5), Op::rel("s1"), Op::rel("s2")});
    a.instr(op::BEQL, {Op::branch("eq")});
    a.instr(op::HALT);
    a.label("eq");
    a.instr(op::CMPC3, {Op::imm(5), Op::rel("s1"), Op::rel("s3")});
    a.instr(op::BNEQ, {Op::branch("ne")});
    a.instr(op::HALT);
    a.label("ne");
    a.instr(op::MOVL, {Op::imm(1), Op::reg(R6)});
    a.instr(op::HALT);
    a.align(4);
    a.label("s1");
    a.ascii("hello");
    a.label("s2");
    a.ascii("hello");
    a.label("s3");
    a.ascii("help!");
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R6), 1u);
}

TEST(Instr, LoccSkpcScancSpanc)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::LOCC, {Op::lit(' '), Op::imm(11), Op::rel("s")});
    a.instr(op::MOVL, {Op::reg(R0), Op::reg(R6)}); // remaining
    a.instr(op::MOVL, {Op::reg(R1), Op::reg(R7)}); // location
    a.instr(op::SKPC, {Op::imm('a'), Op::imm(4), Op::rel("aaa")});
    a.instr(op::MOVL, {Op::reg(R0), Op::reg(R8)});
    a.instr(op::SCANC, {Op::imm(11), Op::rel("s"), Op::rel("tbl"),
                        Op::lit(1)});
    a.instr(op::MOVL, {Op::reg(R0), Op::reg(R9)});
    a.instr(op::HALT);
    a.align(4);
    a.label("s");
    a.ascii("hello world");
    a.label("aaa");
    a.ascii("aaab");
    a.align(4);
    a.label("tbl");
    for (unsigned i = 0; i < 256; ++i)
        a.byte(i == 'w' ? 1 : 0);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R6), 6u); // " world" remains at the blank
    EXPECT_EQ(m.gpr(R7), a.addrOf("s") + 5);
    EXPECT_EQ(m.gpr(R8), 1u); // 'b' is the 4th char
    EXPECT_EQ(m.gpr(R9), 5u); // "world" remains at 'w'
}

// ---------------- decimal instructions ----------------

TEST(Instr, DecimalAddSubCompare)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::ADDP4, {Op::imm(9), Op::rel("p1"), Op::imm(9),
                        Op::rel("p2")});
    a.instr(op::CMPP3, {Op::imm(9), Op::rel("p2"), Op::rel("p3")});
    a.instr(op::BEQL, {Op::branch("ok")});
    a.instr(op::HALT);
    a.label("ok");
    a.instr(op::SUBP4, {Op::imm(9), Op::rel("p1"), Op::imm(9),
                        Op::rel("p2")});
    a.instr(op::MOVL, {Op::imm(1), Op::reg(R6)});
    a.instr(op::HALT);
    a.align(4);
    a.label("p1");
    for (uint8_t b : intToPacked(111, 9))
        a.byte(b);
    a.label("p2");
    for (uint8_t b : intToPacked(222, 9))
        a.byte(b);
    a.label("p3");
    for (uint8_t b : intToPacked(333, 9))
        a.byte(b);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R6), 1u);
    // p2 is back to 222 after the subtract.
    std::vector<uint8_t> p2;
    for (unsigned i = 0; i < packedBytes(9); ++i)
        p2.push_back(m.cpu->mem().phys().readByte(a.addrOf("p2") + i));
    EXPECT_EQ(packedToInt(p2, 9), 222);
}

TEST(Instr, DecimalConvertAndShift)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::CVTLP, {Op::imm(12345), Op::imm(9), Op::rel("p")});
    a.instr(op::CVTPL, {Op::imm(9), Op::rel("p"), Op::reg(R6)});
    // ASHP by +2: multiply by 100.
    a.instr(op::ASHP, {Op::lit(2), Op::imm(9), Op::rel("p"),
                       Op::lit(0), Op::imm(9), Op::rel("p2")});
    a.instr(op::CVTPL, {Op::imm(9), Op::rel("p2"), Op::reg(R7)});
    a.instr(op::HALT);
    a.align(4);
    a.label("p");
    a.space(16);
    a.label("p2");
    a.space(16);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R6), 12345u);
    EXPECT_EQ(m.gpr(R7), 1234500u);
}

// ---------------- CALL/RET details ----------------

TEST(Instr, CallgWithArgList)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::CALLG, {Op::rel("args"), Op::rel("proc")});
    a.instr(op::HALT);
    a.label("proc");
    a.entryMask(0);
    a.instr(op::MOVL, {Op::disp(4, AP), Op::reg(R6)});
    a.instr(op::ADDL2, {Op::disp(8, AP), Op::reg(R6)});
    a.instr(op::RET);
    a.align(4);
    a.label("args");
    a.lword(2); // argument count
    a.lword(30);
    a.lword(12);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R6), 42u);
    EXPECT_EQ(m.gpr(SP), 0x20000u); // CALLG pops no args
}

TEST(Instr, NestedCallsPreserveRegisters)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(0x1111), Op::reg(R2)});
    a.instr(op::MOVL, {Op::imm(0x2222), Op::reg(R3)});
    a.instr(op::CALLS, {Op::lit(0), Op::rel("outer")});
    a.instr(op::HALT);
    a.label("outer");
    a.entryMask((1u << 2) | (1u << 3));
    a.instr(op::MOVL, {Op::imm(7), Op::reg(R2)});
    a.instr(op::CALLS, {Op::lit(0), Op::rel("inner")});
    a.instr(op::MOVL, {Op::reg(R2), Op::reg(R7)}); // still 7?
    a.instr(op::RET);
    a.label("inner");
    a.entryMask(1u << 2);
    a.instr(op::MOVL, {Op::imm(99), Op::reg(R2)});
    a.instr(op::RET);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R2), 0x1111u);
    EXPECT_EQ(m.gpr(R3), 0x2222u);
    EXPECT_EQ(m.gpr(R7), 7u);
}

TEST(Instr, PushrPoprRoundTrip)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(11), Op::reg(R2)});
    a.instr(op::MOVL, {Op::imm(22), Op::reg(R5)});
    a.instr(op::MOVL, {Op::imm(33), Op::reg(R7)});
    a.instr(op::PUSHR, {Op::imm((1u << 2) | (1u << 5) | (1u << 7))});
    a.instr(op::CLRL, {Op::reg(R2)});
    a.instr(op::CLRL, {Op::reg(R5)});
    a.instr(op::CLRL, {Op::reg(R7)});
    a.instr(op::POPR, {Op::imm((1u << 2) | (1u << 5) | (1u << 7))});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R2), 11u);
    EXPECT_EQ(m.gpr(R5), 22u);
    EXPECT_EQ(m.gpr(R7), 33u);
    EXPECT_EQ(m.gpr(SP), 0x20000u);
}

// ---------------- loop and case flows ----------------

TEST(Instr, AoblssAobleqAcbl)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::CLRL, {Op::reg(R1)});
    a.instr(op::CLRL, {Op::reg(R2)});
    a.label("l1");
    a.instr(op::INCL, {Op::reg(R1)});
    a.instr(op::AOBLSS, {Op::imm(5), Op::reg(R2),
                         Op::branch("l1")});
    // ACBL with step 2 up to 10.
    a.instr(op::CLRL, {Op::reg(R3)});
    a.instr(op::CLRL, {Op::reg(R4)});
    a.label("l2");
    a.instr(op::INCL, {Op::reg(R4)});
    a.instr(op::ACBL, {Op::imm(10), Op::imm(2), Op::reg(R3),
                       Op::branch("l2")});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 5u);
    EXPECT_EQ(m.gpr(R2), 5u);
    EXPECT_EQ(m.gpr(R4), 6u); // 0,2,4,6,8,10: six passes
}

TEST(Instr, CaseFallThrough)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(9), Op::reg(R0)}); // beyond limit
    a.instr(op::CASEL, {Op::reg(R0), Op::lit(0), Op::lit(1)});
    a.caseTable({"c0", "c1"});
    a.instr(op::MOVL, {Op::imm(77), Op::reg(R1)}); // fall-through
    a.instr(op::HALT);
    a.label("c0");
    a.instr(op::HALT);
    a.label("c1");
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 77u);
}

TEST(Instr, JmpAndJsbThroughMemory)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::JSB, {Op::rel("sub")});
    a.instr(op::JMP, {Op::rel("end")});
    a.instr(op::HALT); // skipped
    a.label("sub");
    a.instr(op::MOVL, {Op::imm(3), Op::reg(R6)});
    a.instr(op::RSB);
    a.label("end");
    a.instr(op::MOVL, {Op::imm(4), Op::reg(R7)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R6), 3u);
    EXPECT_EQ(m.gpr(R7), 4u);
}

// ---------------- unaligned access ----------------

TEST(Instr, UnalignedLongReadWrite)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVAB, {Op::rel("buf"), Op::reg(R2)});
    a.instr(op::MOVL, {Op::imm(0xCAFEBABE), Op::disp(1, R2)});
    a.instr(op::MOVL, {Op::disp(1, R2), Op::reg(R1)});
    a.instr(op::HALT);
    a.align(4);
    a.label("buf");
    a.space(12);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 0xCAFEBABEu);
    EXPECT_EQ(m.cpu->hw().unalignedRefs, 2u);
    // Byte-precise placement.
    EXPECT_EQ(m.cpu->mem().phys().readByte(a.addrOf("buf") + 1),
              0xBEu);
    EXPECT_EQ(m.cpu->mem().phys().readByte(a.addrOf("buf") + 4),
              0xCAu);
}

TEST(Instr, MovabPushab)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVAB, {Op::rel("spot"), Op::reg(R1)});
    a.instr(op::PUSHAB, {Op::rel("spot")});
    a.instr(op::MOVL, {Op::autoInc(SP), Op::reg(R2)});
    a.instr(op::HALT);
    a.label("spot");
    a.byte(0);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), a.addrOf("spot"));
    EXPECT_EQ(m.gpr(R2), a.addrOf("spot"));
}

} // namespace vax::test
