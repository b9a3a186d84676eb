/**
 * @file
 * The per-instruction characterization suite: corpus coverage
 * (no-silent-skips contract), shared region images, the identities a
 * row's reduction rests on, assembler<->disassembler round-trip over
 * the full generated opcode x specifier product, serial-vs-pooled
 * determinism, baseline JSON round-trip and its integer range, and
 * the zero-tolerance comparer failing on a perturbed microword count
 * or a duplicated key.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/disasm.hh"
#include "arch/opcodes.hh"
#include "cpu/cpu.hh"
#include "driver/sim_pool.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
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

TEST(Ucharacterize, CorpusSharesItsRegionImages)
{
    // Both fill regions of a data flavour hold the same pattern, so
    // the corpus builds one image per flavour and every program points
    // at it instead of carrying its own 16 KB.
    std::map<std::pair<uint32_t, uint32_t>,
             std::set<std::pair<const void *, const void *>>>
        fillsAt;
    std::set<const void *> distinct;
    size_t bytes = 0;
    for (const auto &v : ucharEnumerate(UcharParams{})) {
        if (!v.runnable)
            continue;
        std::vector<const UcharPoke *> fills;
        for (const UcharPoke &poke : v.prog.pokes) {
            if (distinct.insert(poke.bytes.get()).second)
                bytes += poke.bytes->size();
            if (poke.bytes->size() >= 0x1000)
                fills.push_back(&poke);
        }
        ASSERT_EQ(fills.size(), 2u) << v.op << " " << v.mode;
        fillsAt[{fills[0]->addr, fills[1]->addr}].insert(
            {fills[0]->bytes.get(), fills[1]->bytes.get()});
    }
    // One pair of regions for integer data, one for F_floating, and
    // each flavour's programs all share one pair of buffers.
    ASSERT_EQ(fillsAt.size(), 2u);
    for (const auto &[addrs, buffers] : fillsAt)
        EXPECT_EQ(buffers.size(), 1u)
            << "regions at " << addrs.first << "/" << addrs.second;
    EXPECT_NE(fillsAt.begin()->second, fillsAt.rbegin()->second);
    EXPECT_LT(bytes, size_t{1} << 20);
}

TEST(Ucharacterize, RowReductionIdentitiesHoldOnEveryVariant)
{
    // A row reads its microword count as the Compute + Read + Write
    // column sum and trusts the analyzer's classified total.  Both are
    // exact only if every cycle lands on a control-store word and
    // every normal cycle lands in one of those three columns; check
    // that on the machine itself, for the calibration loop and every
    // runnable variant.
    const UcharParams params;
    std::vector<UcharProgram> progs{ucharCalibration(params)};
    for (auto &v : ucharEnumerate(params))
        if (v.runnable)
            progs.push_back(std::move(v.prog));
    for (const UcharProgram &prog : progs) {
        Cpu780 cpu;
        cpu.mem().setMapEnable(false);
        UpcMonitor monitor;
        cpu.setCycleSink(&monitor);
        for (const UcharPoke &poke : prog.pokes)
            cpu.mem().phys().load(poke.addr, *poke.bytes);
        cpu.mem().phys().load(prog.base, prog.image);
        cpu.reset(prog.base);
        cpu.ebox().setGpr(SP, prog.sp);
        ASSERT_TRUE(cpu.run(params.maxCycles))
            << prog.op << " " << prog.mode;

        const Histogram &hist = monitor.histogram();
        HistogramAnalyzer an(cpu.controlStore(), hist);
        EXPECT_EQ(an.totalCycles(), cpu.cycles())
            << prog.op << " " << prog.mode;
        uint64_t crw = 0;
        for (size_t r = 0; r < static_cast<size_t>(Row::NumRows); ++r)
            for (TimeCol c :
                 {TimeCol::Compute, TimeCol::Read, TimeCol::Write})
                crw += an.cellCycles(static_cast<Row>(r), c);
        EXPECT_EQ(crw, hist.normalCycles()) << prog.op << " " << prog.mode;

        // The row itself reports the same machine.
        UcharOutcome row = runUcharProgram(prog, params);
        ASSERT_TRUE(row.ok) << prog.op << " " << prog.mode << ": "
                            << row.reason;
        EXPECT_EQ(row.run.cycles, cpu.cycles());
        EXPECT_EQ(row.run.uwords, hist.normalCycles());
    }
    EXPECT_GT(progs.size(), 2000u);
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

TEST(Ucharacterize, DuplicateRowsAndSkipsAreNamed)
{
    // Reports are keyed by "op mode"; a repeated key must not hide its
    // other entry, on either side.
    const UcharReport &rep = smallReport();
    ASSERT_FALSE(rep.rows.empty());
    ASSERT_FALSE(rep.skipped.empty());
    const std::string row = rep.rows[0].op + " " + rep.rows[0].mode;
    const std::string skip =
        rep.skipped[0].op + " " + rep.skipped[0].mode;

    UcharReport doubled = rep;
    doubled.rows.push_back(rep.rows[0]);
    doubled.rows.back().run.cycles += 1000;
    doubled.skipped.push_back(rep.skipped[0]);

    using Messages = std::vector<std::string>;
    EXPECT_EQ(ucharCompare(doubled, rep).messages,
              (Messages{"duplicate row in baseline: " + row,
                        "duplicate skip in baseline: " + skip}));
    EXPECT_EQ(ucharCompare(rep, doubled).messages,
              (Messages{"duplicate row in current: " + row,
                        "duplicate skip in current: " + skip}));
}

TEST(Ucharacterize, IntegersOutOfRangeFailToParse)
{
    UcharReport rep;
    rep.calibration.cycles = 817;
    rep.rows.push_back({"NOP", "none", 1, {}});
    const std::string json = ucharJson(rep);
    auto withField = [&](const std::string &field, const std::string &digits) {
        std::string s = json;
        size_t at = s.find(field);
        EXPECT_NE(at, std::string::npos) << field;
        s.replace(at + field.size(), s.find(',', at) - at - field.size(),
                  digits);
        return s;
    };

    UcharReport parsed;
    std::string err;
    ASSERT_TRUE(ucharParseJson(
        withField("\"cycles\": ", "18446744073709551615"), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.calibration.cycles, UINT64_MAX);
    // Unchecked, each would wrap to a plausible value (0 or 817
    // cycles, 16 iterations, 1 instruction per copy) and compare equal
    // to a real report.
    const struct
    {
        const char *field;
        const char *digits;
        const char *why;
    } bad[] = {
        {"\"cycles\": ", "18446744073709551616", "above 2^64-1"},
        {"\"cycles\": ", "18446744073709552433", "above 2^64-1"},
        {"\"iters\": ", "4294967312", "above 2^32-1"},
        {"\"ipc\": ", "4294967297", "above 2^32-1"},
    };
    for (const auto &b : bad) {
        err.clear();
        EXPECT_FALSE(
            ucharParseJson(withField(b.field, b.digits), &parsed, &err))
            << b.field << b.digits;
        EXPECT_NE(err.find(b.why), std::string::npos) << err;
    }
}

} // namespace vax::test
