/**
 * @file
 * The static cycle-bound analyzer, exercised three ways: the
 * production ROM must bound clean, hand-built mini-ROMs must fire
 * exactly the diagnostic their planted defect belongs to (unannotated
 * micro-loop, no reachable exit, measurement outside bounds), and a
 * generated microbenchmark's dynamic cycle count must actually fall
 * inside the statically composed [bcc, wcc] envelope.
 */

#include <gtest/gtest.h>

#include "analysis/ubound.hh"
#include "arch/opcodes.hh"
#include "support/stats.hh"
#include "ucode/rom.hh"
#include "upc/ucharacterize.hh"
#include "workload/uchar_corpus.hh"

using namespace vax;

namespace
{

/** Minimal control store the bound analyzer accepts (same shape as
 *  ulint's MiniRom): every entry slot filled, every flow a short
 *  terminating word.  Tests graft loops or stalls onto one execute
 *  flow to get exact, hand-computable bounds. */
struct MiniRom
{
    ControlStore cs;
    MicroAssembler as{cs};

    UAddr
    word(Row row, const char *name, UFlow f,
         UMemKind mem = UMemKind::None, bool ib = false)
    {
        UAnnotation a;
        a.row = row;
        a.name = name;
        a.mem = mem;
        a.ibRequest = ib;
        return as.emit(a, std::move(f), [](Ebox &) {});
    }

    MiniRom()
    {
        EntryPoints &ep = cs.entries;
        ep.iid = word(Row::Decode, "IID", flowDispatch(),
                      UMemKind::None, true);
        ep.specWait[0] =
            word(Row::Spec1, "SPEC1.wait", flowDispatch());
        ep.specWait[1] =
            word(Row::Spec26, "SPEC26.wait", flowDispatch());
        ep.abort = word(Row::Abort, "ABORT", flowReserved());
        ep.tbMissD =
            word(Row::MemMgmt, "TB.d", flowTrapRet(), UMemKind::Read);
        ep.tbMissI =
            word(Row::MemMgmt, "TB.i", flowTrapRet(), UMemKind::Read);
        ep.alignRead = word(Row::MemMgmt, "ALIGN.r", flowTrapRet(),
                            UMemKind::Read);
        ep.alignWrite = word(Row::MemMgmt, "ALIGN.w", flowTrapRet(),
                             UMemKind::Write);
        ep.interrupt = word(Row::IntExcept, "INT", flowEnd());
        ep.exception = word(Row::IntExcept, "EXC", flowEnd());
        ep.machineCheck = word(Row::IntExcept, "MCHK", flowEnd());
        ep.indexPrefix[0] = word(Row::Spec1, "SPEC1.idx", flowSpec26());
        ep.indexPrefix[1] =
            word(Row::Spec26, "SPEC26.idx", flowSpec26());

        UAddr s1 = word(Row::Spec1, "SPEC1.any", flowDispatch());
        UAddr s26 = word(Row::Spec26, "SPEC26.any", flowDispatch());
        for (size_t m = 0;
             m < static_cast<size_t>(AddrMode::NumModes); ++m) {
            for (size_t c = 0;
                 c < static_cast<size_t>(SpecAccClass::NumClasses);
                 ++c) {
                ep.spec[m][0][c] = s1;
                ep.spec[m][1][c] = s26;
            }
        }

        UAddr ex = word(Row::ExecSimple, "EXEC.any", flowEnd());
        for (size_t f = 1;
             f < static_cast<size_t>(ExecFlow::NumFlows); ++f)
            ep.exec[f] = ex;
    }

    /** Point the Mov execute entry at a grafted flow. */
    void
    setMovExec(UAddr a)
    {
        cs.entries.exec[static_cast<size_t>(ExecFlow::Mov)] = a;
    }
};

const UFlowBound *
findFlow(const UBoundReport &rep, const std::string &name)
{
    for (const UFlowBound &f : rep.flows)
        if (f.name == name)
            return &f;
    return nullptr;
}

/** Word-for-word equality of two built control stores. */
void
expectSameRom(const ControlStore &a, const ControlStore &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(a.entries == b.entries);
    for (UAddr w = 0; w < a.size(); ++w) {
        const UAnnotation &x = a.annotation(w);
        const UAnnotation &y = b.annotation(w);
        EXPECT_STREQ(x.name, y.name) << "uPC " << w;
        EXPECT_EQ(x.row, y.row) << x.name;
        EXPECT_EQ(x.mem, y.mem) << x.name;
        EXPECT_EQ(x.ibRequest, y.ibRequest) << x.name;
        EXPECT_EQ(x.mark, y.mark) << x.name;
        EXPECT_EQ(x.specMode, y.specMode) << x.name;
        EXPECT_EQ(x.spec1, y.spec1) << x.name;
        EXPECT_EQ(x.flow, y.flow) << x.name;
        EXPECT_EQ(x.pck, y.pck) << x.name;
        EXPECT_EQ(a.successors(w), b.successors(w)) << x.name;
        EXPECT_EQ(a.decodedTable()[w].fn, b.decodedTable()[w].fn)
            << x.name;
    }
}

} // anonymous namespace

TEST(UBound, ProductionRomIsFullyBounded)
{
    ControlStore cs;
    buildMicrocodeRom(cs);
    UBoundReport rep = uboundAnalyze(cs);
    EXPECT_TRUE(rep.clean()) << rep.text();
    EXPECT_GT(rep.flows.size(), 20u);
    for (const UFlowBound &f : rep.flows) {
        EXPECT_TRUE(f.bounded) << f.name;
        EXPECT_GE(f.lo, 1u) << f.name;
        EXPECT_GE(f.hi, f.lo) << f.name;
    }
    // The ROM's annotated micro-loops (multiply/divide steps, string
    // moves, stack scans) must be visible as cyclic SCCs somewhere.
    uint32_t loops = 0;
    for (const UFlowBound &f : rep.flows)
        loops += f.loopSccs;
    EXPECT_GT(loops, 0u);
}

TEST(UBound, ReportsAreDeterministic)
{
    // A second private build and the process-wide ROM are the same
    // ROM, word for word, and bound to identical reports.
    ControlStore cs1, cs2;
    buildMicrocodeRom(cs1);
    buildMicrocodeRom(cs2);
    UBoundReport a = uboundAnalyze(cs1);
    const ControlStore *others[] = {&cs2, &microcodeRom()};
    for (const ControlStore *cs : others) {
        expectSameRom(cs1, *cs);
        UBoundReport b = uboundAnalyze(*cs);
        EXPECT_EQ(a.text(), b.text());
        EXPECT_EQ(a.csv(), b.csv());
        EXPECT_EQ(a.json(), b.json());
    }
}

TEST(UBound, MiniRomIsClean)
{
    MiniRom mini;
    UBoundReport rep = uboundAnalyze(mini.cs);
    EXPECT_TRUE(rep.clean()) << rep.text();
    const UFlowBound *iid = findFlow(rep, "iid");
    ASSERT_NE(iid, nullptr);
    EXPECT_EQ(iid->lo, 1u);
    // IID carries an IB request: ceiling is the word plus the refill
    // slack.
    EXPECT_EQ(iid->hi, 1u + UBoundParams{}.ibStallCeil);
}

TEST(UBound, UnannotatedLoopIsDiagnosed)
{
    MiniRom mini;
    ULabel top = mini.as.newLabel();
    mini.as.bind(top);
    UAddr head = mini.word(Row::ExecSimple, "MOV.spin",
                           flowTo(top).orEnd());
    mini.setMovExec(head);
    UBoundReport rep = uboundAnalyze(mini.cs);
    ASSERT_EQ(rep.countFor(UBoundCheck::UnboundedLoop), 1u)
        << rep.text();
    const UBoundDiag *diag = nullptr;
    for (const UBoundDiag &d : rep.diags)
        if (d.check == UBoundCheck::UnboundedLoop)
            diag = &d;
    ASSERT_NE(diag, nullptr);
    EXPECT_EQ(diag->addr, head);
    EXPECT_EQ(diag->where, "exec:MOV");
    EXPECT_NE(diag->message.find("MOV.spin"), std::string::npos);
    const UFlowBound *f = findFlow(rep, "exec:MOV");
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->bounded);
    EXPECT_EQ(f->loopSccs, 1u);
}

TEST(UBound, AnnotatedLoopGetsExactBounds)
{
    MiniRom mini;
    ULabel top = mini.as.newLabel();
    mini.as.bind(top);
    UAddr head = mini.word(Row::ExecSimple, "MOV.step",
                           flowTo(top).orEnd().withLoopBound(4));
    mini.setMovExec(head);
    UBoundReport rep = uboundAnalyze(mini.cs);
    EXPECT_TRUE(rep.clean()) << rep.text();
    const UFlowBound *f = findFlow(rep, "exec:MOV");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->bounded);
    EXPECT_EQ(f->loopSccs, 1u);
    // Best case: fall out of the loop on the first pass.  Worst case:
    // the one-word body spins to its annotated bound.
    EXPECT_EQ(f->lo, 1u);
    EXPECT_EQ(f->hi, 4u);
}

TEST(UBound, MemoryWordCarriesTheStallCeiling)
{
    MiniRom mini;
    UAddr head = mini.word(Row::ExecSimple, "MOV.ld", flowFall(),
                           UMemKind::Read);
    mini.word(Row::ExecSimple, "MOV.done", flowEnd());
    mini.setMovExec(head);
    UBoundParams p;
    p.alignTraps = false; // isolate the raw stall ceiling
    UBoundReport rep = uboundAnalyze(mini.cs, p);
    EXPECT_TRUE(rep.clean()) << rep.text();
    const UFlowBound *f = findFlow(rep, "exec:MOV");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->lo, 2u);
    EXPECT_EQ(f->hi, 2u + p.readStallCeil);

    // With alignment traps on, the ceiling also pays the abort, the
    // read service (one read word: 1 + readStallCeil), the resume and
    // the re-issued stall.
    UBoundReport rep2 = uboundAnalyze(mini.cs);
    const UFlowBound *f2 = findFlow(rep2, "exec:MOV");
    ASSERT_NE(f2, nullptr);
    UBoundParams d;
    uint64_t svc = 1 + d.readStallCeil;
    EXPECT_EQ(f2->hi,
              2u + d.readStallCeil + 1 + svc + 1 + d.readStallCeil);
}

TEST(UBound, ExitlessFlowIsDiagnosed)
{
    MiniRom mini;
    ULabel top = mini.as.newLabel();
    mini.as.bind(top);
    UAddr head =
        mini.word(Row::ExecSimple, "MOV.noexit", flowTo(top));
    mini.setMovExec(head);
    UBoundReport rep = uboundAnalyze(mini.cs);
    ASSERT_EQ(rep.countFor(UBoundCheck::NoExit), 1u) << rep.text();
    const UFlowBound *f = findFlow(rep, "exec:MOV");
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->bounded);
}

TEST(UBound, MeasuredOutsideBoundsIsANamedDiagnostic)
{
    std::vector<UBoundDiag> diags;
    EXPECT_TRUE(uboundCheckMeasured("MOVL (Rn)", 25, 10, 40, &diags));
    EXPECT_TRUE(diags.empty());
    EXPECT_FALSE(uboundCheckMeasured("MOVL (Rn)", 50, 10, 40, &diags));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, UBoundCheck::Baseline);
    EXPECT_EQ(diags[0].where, "MOVL (Rn)");
    EXPECT_NE(diags[0].message.find("outside static bounds [10, 40]"),
              std::string::npos);
    EXPECT_FALSE(uboundCheckMeasured("MOVL (Rn)", 5, 10, 40, &diags));
    EXPECT_EQ(diags.size(), 2u);
}

TEST(UBound, InstrRangeValidatesItsInputs)
{
    ControlStore cs;
    buildMicrocodeRom(cs);
    UBoundAnalysis ub(cs);

    // MOVL Rn, Rn: two register specifiers.
    std::vector<UBoundAnalysis::SpecUse> two(2);
    auto r = ub.instrRange(0xD0, two);
    ASSERT_TRUE(r.valid);
    EXPECT_GE(r.lo, 3u); // IID + two specs + execute, at least
    EXPECT_GT(r.hi, r.lo);

    // Indexed specifier costs at least the base form.
    std::vector<UBoundAnalysis::SpecUse> idx(2);
    idx[0].mode = AddrMode::RegDeferred;
    idx[0].indexed = true;
    auto ri = ub.instrRange(0xD0, idx);
    ASSERT_TRUE(ri.valid);
    EXPECT_GT(ri.lo, r.lo);

    // Wrong specifier count and unimplemented opcodes are invalid.
    EXPECT_FALSE(ub.instrRange(0xD0, {}).valid);
    EXPECT_FALSE(ub.instrRange(0xFF, {}).valid);
}

TEST(UBound, DynamicRunFallsInsideStaticEnvelope)
{
    ControlStore cs;
    buildMicrocodeRom(cs);
    UBoundAnalysis ub(cs);

    UcharParams params;
    UcharSuiteOptions opts;
    opts.opcodeFilter = "MOVL";
    std::vector<UcharVariant> variants = ucharEnumerate(params, opts);
    ASSERT_FALSE(variants.empty());
    size_t checked = 0;
    for (const UcharVariant &v : variants) {
        if (!v.runnable)
            continue;
        UcharOutcome out = runUcharProgram(v.prog, params);
        if (!out.ok)
            continue;
        uint64_t lo = 0, hi = 0;
        bool valid = true;
        for (const UcharProfileEntry &e : v.prog.profile) {
            std::vector<UBoundAnalysis::SpecUse> specs;
            for (const UcharSpecUse &s : e.specs)
                specs.push_back({s.mode, s.indexed});
            auto r = ub.instrRange(e.opcode, specs);
            valid = valid && r.valid;
            lo += e.count * r.lo;
            hi += e.count * r.hi;
        }
        ASSERT_TRUE(valid) << v.op << " " << v.mode;
        std::vector<UBoundDiag> diags;
        EXPECT_TRUE(uboundCheckMeasured(v.op + " " + v.mode,
                                        out.run.cycles, lo, hi,
                                        &diags))
            << v.op << " " << v.mode << ": " << out.run.cycles
            << " not in [" << lo << ", " << hi << "]";
        ++checked;
    }
    EXPECT_GT(checked, 5u);
}

TEST(UBound, ProfileCountsSumToExpectedRetires)
{
    UcharParams params;
    UcharSuiteOptions opts;
    opts.opcodeFilter = "ADDL2,PUSHL";
    for (const UcharVariant &v : ucharEnumerate(params, opts)) {
        if (!v.runnable)
            continue;
        uint64_t sum = 0;
        for (const UcharProfileEntry &e : v.prog.profile)
            sum += e.count;
        EXPECT_EQ(sum, v.prog.expectedInstructions)
            << v.op << " " << v.mode;
    }
}

TEST(UBound, RowAttributionCoversTheRom)
{
    ControlStore cs;
    buildMicrocodeRom(cs);
    UBoundReport rep = uboundAnalyze(cs);
    uint32_t words = 0;
    for (const URowCost &rc : rep.rows)
        words += rc.words;
    // Every reachable word lands in exactly one Table 8 row; only the
    // reserved guard words stay out.
    EXPECT_GT(words, 0u);
    EXPECT_LE(words, cs.size());
    EXPECT_GE(words + 8, static_cast<uint32_t>(cs.size()));
    EXPECT_GT(rep.rows[static_cast<size_t>(Row::Decode)].ibWords, 0u);
}

TEST(UBound, RenderingsNameTheChecks)
{
    MiniRom mini;
    ULabel top = mini.as.newLabel();
    mini.as.bind(top);
    mini.setMovExec(mini.word(Row::ExecSimple, "MOV.spin",
                              flowTo(top).orEnd()));
    UBoundReport rep = uboundAnalyze(mini.cs);
    ASSERT_FALSE(rep.clean());
    std::string text = rep.text();
    EXPECT_NE(text.find("error: [unbounded-loop]"), std::string::npos)
        << text;
    EXPECT_NE(text.find("UNBOUNDED"), std::string::npos);
    std::string json = rep.json();
    EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
    EXPECT_NE(json.find("\"unbounded-loop\": 1"), std::string::npos);
    std::string csv = rep.csv();
    EXPECT_NE(csv.find("flow,entry,lo,hi,words,loops,bounded\n"),
              std::string::npos);
}

TEST(UBound, StatsSection)
{
    ControlStore cs;
    buildMicrocodeRom(cs);
    UBoundReport rep = uboundAnalyze(cs);
    stats::Registry reg;
    regUBoundStats(rep, reg);
    ASSERT_NE(reg.find("ubound.flows"), nullptr);
    EXPECT_EQ(reg.find("ubound.flows")->asScalar(), rep.flows.size());
    ASSERT_NE(reg.find("ubound.unbounded"), nullptr);
    EXPECT_EQ(reg.find("ubound.unbounded")->asScalar(), 0u);
    EXPECT_EQ(reg.find("ubound.diags"), nullptr); // clean: no section

    MiniRom mini;
    ULabel top = mini.as.newLabel();
    mini.as.bind(top);
    mini.setMovExec(mini.word(Row::ExecSimple, "MOV.spin",
                              flowTo(top).orEnd()));
    stats::Registry dirty;
    regUBoundStats(uboundAnalyze(mini.cs), dirty);
    ASSERT_NE(dirty.find("ubound.diags"), nullptr);
    EXPECT_GE(dirty.find("ubound.diags")->asScalar(), 1u);
    ASSERT_NE(dirty.find("ubound.unbounded-loop"), nullptr);
}

TEST(UBound, BoundsRoundTripThroughUcharJson)
{
    UcharReport rep;
    rep.calibration.cycles = 100;
    UcharRow row;
    row.op = "MOVL";
    row.mode = "Rn";
    row.run.cycles = 500;
    row.bcc = 400;
    row.wcc = 900;
    row.hasBounds = true;
    rep.rows.push_back(row);
    UcharRow bare;
    bare.op = "CLRL";
    bare.mode = "Rn";
    bare.run.cycles = 300;
    rep.rows.push_back(bare);

    std::string json = ucharJson(rep);
    UcharReport back;
    std::string err;
    ASSERT_TRUE(ucharParseJson(json, &back, &err)) << err;
    ASSERT_EQ(back.rows.size(), 2u);
    EXPECT_TRUE(back.rows[0].hasBounds);
    EXPECT_EQ(back.rows[0].bcc, 400u);
    EXPECT_EQ(back.rows[0].wcc, 900u);
    EXPECT_FALSE(back.rows[1].hasBounds);

    // Bounds are derived data: comparison must ignore them.
    UcharReport stripped = back;
    stripped.rows[0].hasBounds = false;
    stripped.rows[0].bcc = stripped.rows[0].wcc = 0;
    EXPECT_TRUE(ucharCompare(back, stripped).ok());

    stats::Registry reg;
    regUcharBounds(reg, "uchar.", back);
    ASSERT_NE(reg.find("uchar.bounds.rows"), nullptr);
    EXPECT_EQ(reg.find("uchar.bounds.rows")->asScalar(), 1u);
    ASSERT_NE(reg.find("uchar.bounds.violations"), nullptr);
    EXPECT_EQ(reg.find("uchar.bounds.violations")->asScalar(), 0u);
}
