/**
 * @file
 * The per-instruction characterization suite: corpus coverage
 * (no-silent-skips contract), assembler<->disassembler round-trip over
 * the full generated opcode x specifier product, serial-vs-pooled
 * determinism, baseline JSON round-trip, and the zero-tolerance
 * comparer failing on a perturbed microword count.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "arch/disasm.hh"
#include "arch/opcodes.hh"
#include "driver/sim_pool.hh"
#include "upc/ucharacterize.hh"
#include "workload/uchar_corpus.hh"

namespace vax::test
{

namespace
{

/** Small corpus + short loop so suite-running tests stay fast. */
UcharParams
smallParams()
{
    UcharParams p;
    p.iters = 4;
    return p;
}

UcharSuiteOptions
smallOpts()
{
    UcharSuiteOptions o;
    o.opcodeFilter = "MOVL,ADDL3,JMP,CALLS,RET,SOBGTR,EXTV,INSQUE";
    return o;
}

/** The small-corpus serial run, computed once for the whole file. */
const UcharReport &
smallReport()
{
    static const UcharReport rep =
        runUcharSuite(smallParams(), {}, smallOpts());
    return rep;
}

} // anonymous namespace

TEST(Ucharacterize, CorpusCoversEveryImplementedOpcode)
{
    auto variants = ucharEnumerate(UcharParams{});

    // Every implemented opcode appears in the product, and every cell
    // is either runnable or carries a reason -- nothing vanishes.
    std::set<std::string> seen;
    for (const auto &v : variants) {
        seen.insert(v.op);
        if (v.runnable) {
            EXPECT_FALSE(v.prog.image.empty()) << v.op << " " << v.mode;
            EXPECT_FALSE(v.prog.targetOffsets.empty())
                << v.op << " " << v.mode;
            EXPECT_GT(v.prog.expectedInstructions, 0u)
                << v.op << " " << v.mode;
        } else {
            EXPECT_FALSE(v.skipReason.empty()) << v.op << " " << v.mode;
        }
    }
    for (unsigned opc = 0; opc < 256; ++opc) {
        const OpcodeInfo &info = opcodeInfo(static_cast<uint8_t>(opc));
        if (info.valid) {
            EXPECT_TRUE(seen.count(info.mnemonic))
                << info.mnemonic << " missing from the product";
        }
    }
}

TEST(Ucharacterize, DisasmRoundTripOverFullCorpus)
{
    auto variants = ucharEnumerate(UcharParams{});
    size_t checked = 0;
    for (const auto &v : variants) {
        if (!v.runnable)
            continue;
        const UcharProgram &prog = v.prog;
        ByteReader read = [&prog](VirtAddr addr) -> uint8_t {
            uint64_t off = addr - prog.base;
            return off < prog.image.size() ? prog.image[off] : 0;
        };
        // Every measured-instruction copy must disassemble back to
        // the mnemonic the generator intended to emit there.
        for (uint32_t off : prog.targetOffsets) {
            DisasmResult d = disassemble(prog.base + off, read);
            ASSERT_TRUE(d.valid) << v.op << " " << v.mode
                                 << " @+" << off;
            ASSERT_GT(d.length, 0u) << v.op << " " << v.mode;
            bool match = d.text == v.op ||
                d.text.compare(0, v.op.size() + 1, v.op + " ") == 0;
            EXPECT_TRUE(match)
                << v.op << " " << v.mode << " disassembled as '"
                << d.text << "'";
            ++checked;
        }
    }
    // The product is in the thousands of cells; make sure the loop
    // actually exercised it rather than vacuously passing.
    EXPECT_GT(checked, 1000u);
}

TEST(Ucharacterize, DeterminismSerialVsPooled)
{
    const UcharReport &serial = smallReport();

    SimPool pool(4);
    ParallelFor pf = [&pool](size_t n,
                             const std::function<void(size_t)> &fn) {
        pool.forEach(n, fn);
    };
    UcharReport pooled = runUcharSuite(smallParams(), pf, smallOpts());

    EXPECT_EQ(ucharJson(serial), ucharJson(pooled));
    EXPECT_EQ(ucharText(serial), ucharText(pooled));
    EXPECT_EQ(ucharCsv(serial), ucharCsv(pooled));
}

TEST(Ucharacterize, BaselineJsonRoundTrip)
{
    const UcharReport &rep = smallReport();
    ASSERT_FALSE(rep.rows.empty());

    std::string json = ucharJson(rep);
    UcharReport parsed;
    std::string err;
    ASSERT_TRUE(ucharParseJson(json, &parsed, &err)) << err;

    // Parse -> re-serialize is byte-identical, and the comparer agrees
    // the round-tripped report is the same report.
    EXPECT_EQ(json, ucharJson(parsed));
    EXPECT_TRUE(ucharCompare(rep, parsed).ok());
    EXPECT_TRUE(ucharCompare(parsed, rep).ok());

    // Every escaped string comes back exact, control characters too.
    UcharReport odd = rep;
    odd.skipped.push_back({"MOVL", "(Rn)", "\"q\" \\ \n\t\r\x01\x1f end"});
    ASSERT_TRUE(ucharParseJson(ucharJson(odd), &parsed, &err)) << err;
    ASSERT_EQ(parsed.skipped.size(), odd.skipped.size());
    EXPECT_EQ(parsed.skipped.back().reason, odd.skipped.back().reason);
}

TEST(Ucharacterize, PerturbedUwordCountFailsCompare)
{
    const UcharReport &rep = smallReport();
    ASSERT_FALSE(rep.rows.empty());

    UcharReport perturbed = rep;
    perturbed.rows[0].run.uwords += 8;

    UcharDiff diff = ucharCompare(rep, perturbed);
    ASSERT_FALSE(diff.ok());
    ASSERT_EQ(diff.messages.size(), 1u);
    // The failure names the opcode and the field, so a CI log is
    // actionable without rerunning anything.
    EXPECT_NE(diff.messages[0].find(rep.rows[0].op), std::string::npos)
        << diff.messages[0];
    EXPECT_NE(diff.messages[0].find("uwords"), std::string::npos)
        << diff.messages[0];
}

TEST(Ucharacterize, MissingAndExtraRowsAreNamed)
{
    const UcharReport &rep = smallReport();
    ASSERT_GE(rep.rows.size(), 2u);

    UcharReport current = rep;
    UcharRow dropped = current.rows.front();
    current.rows.erase(current.rows.begin());

    UcharDiff diff = ucharCompare(rep, current);
    ASSERT_FALSE(diff.ok());
    bool named = false;
    for (const auto &m : diff.messages)
        if (m.find(dropped.op) != std::string::npos)
            named = true;
    EXPECT_TRUE(named) << "dropped row " << dropped.op
                       << " not named in the diff";
}

} // namespace vax::test
