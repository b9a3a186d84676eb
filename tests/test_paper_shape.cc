/**
 * @file
 * Paper-shape gate: the shape statements EXPERIMENTS.md reports as
 * holding, checked at its documented budget of 4M cycles per workload.
 *
 * Absolute agreement with the 1984 machine is not claimed, so these
 * are not exact pins (COMPOSITE_golden.json is).  Each claim instead
 * names the quantity it rests on and the range in which that quantity
 * supports it.  A failure names the claim the counters refute, so a
 * change that shifts Tables 1-9 out of the paper's shape says which
 * statement in EXPERIMENTS.md has stopped being true.
 *
 * Claims EXPERIMENTS.md reports as refuted (Table 1's rank order,
 * CALL/RET as the largest execute row, Table 9's two orders of
 * magnitude) are deliberately absent, as are Table 9's per-member
 * figures, which hold only at the edges of their stated ranges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

/** EXPERIMENTS.md's budget: 4M cycles (0.8 simulated s) per workload. */
constexpr uint64_t kCyclesPerPart = 4'000'000;

/** Upper bound of a one-sided claim ("more than", "the largest"). */
constexpr double kNoLimit = std::numeric_limits<double>::infinity();

struct Claim
{
    const char *where;    ///< the EXPERIMENTS.md section stating it
    const char *claim;    ///< the statement, as written there
    const char *quantity; ///< what is measured to test it
    double lo, hi;        ///< the claim holds iff lo <= quantity <= hi
    double (*measure)(const HistogramAnalyzer &);
};

double
ratio(double num, double den)
{
    return num / den; // 0/0 is NaN, which refutes every claim
}

/** Memory references per instruction issued by a Table 8 row. */
double
memRefs(const HistogramAnalyzer &an, Row r)
{
    return an.readsPerInstr(r) + an.writesPerInstr(r);
}

const Claim kClaims[] = {
    {"Table 2", "loop branches are taken about 9 times out of 10",
     "taken fraction of loop branches", 0.85, 0.95,
     [](const HistogramAnalyzer &an) {
         return an.takenFraction(PcChangeKind::LoopBranch);
     }},
    {"Table 4", "register is the most common specifier mode",
     "register share over the next most common mode", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         double next = 0.0;
         for (size_t c = 1;
              c < static_cast<size_t>(SpecCategory::NumCategories); ++c)
             next = std::max(next, an.specCategoryFraction(
                                       static_cast<SpecCategory>(c), 2));
         return ratio(an.specCategoryFraction(SpecCategory::Register, 2),
                      next);
     }},
    {"Table 4", "register mode is markedly more common after the first "
                "specifier",
     "register share in SPEC2-6 over its share in SPEC1", 1.2, kNoLimit,
     [](const HistogramAnalyzer &an) {
         return ratio(an.specCategoryFraction(SpecCategory::Register, 1),
                      an.specCategoryFraction(SpecCategory::Register, 0));
     }},
    {"Table 4", "short literals are more common as the first specifier",
     "short-literal share in SPEC1 over its share in SPEC2-6", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         return ratio(
             an.specCategoryFraction(SpecCategory::ShortLiteral, 0),
             an.specCategoryFraction(SpecCategory::ShortLiteral, 1));
     }},
    {"Table 5", "D-stream reads outnumber writes about 2:1",
     "reads per write", 1.5, 2.5,
     [](const HistogramAnalyzer &an) {
         return ratio(an.totalReadsPerInstr(), an.totalWritesPerInstr());
     }},
    {"Table 5", "CALL/RET is the largest memory consumer among the "
                "execute rows",
     "CALL/RET row references over the next execute row's", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         double next = 0.0;
         for (Row r : {Row::ExecSimple, Row::ExecField, Row::ExecFloat,
                       Row::ExecSystem, Row::ExecCharacter,
                       Row::ExecDecimal})
             next = std::max(next, memRefs(an, r));
         return ratio(memRefs(an, Row::ExecCallRet), next);
     }},
    {"Table 7", "software interrupt request headway matches the paper "
                "(2539)",
     "headway over the paper's, within 25%", 0.75, 1.25,
     [](const HistogramAnalyzer &an) {
         return an.headwaySwIntRequests() / 2539.0;
     }},
    {"Table 7", "interrupt headway matches the paper (637)",
     "headway over the paper's, within 25%", 0.75, 1.25,
     [](const HistogramAnalyzer &an) {
         return an.headwayInterrupts() / 637.0;
     }},
    {"Table 7", "context-switch headway matches the paper (6418)",
     "headway over the paper's, within 25%", 0.75, 1.25,
     [](const HistogramAnalyzer &an) {
         return an.headwayContextSwitches() / 6418.0;
     }},
    {"Table 8", "the average instruction is on the order of 10 cycles",
     "cycles per instruction", 5.0, 20.0,
     [](const HistogramAnalyzer &an) {
         return an.instructions() ? an.cyclesPerInstruction() : 0.0;
     }},
    {"Table 8", "Decode compute is exactly 1.000 (one non-overlapped "
                "decode cycle per instruction)",
     "Decode compute cycles per instruction", 1.0, 1.0,
     [](const HistogramAnalyzer &an) {
         return ratio(static_cast<double>(
                          an.cellCycles(Row::Decode, TimeCol::Compute)),
                      static_cast<double>(an.instructions()));
     }},
    {"Table 8", "decode + specifier processing is almost half of all "
                "time",
     "Decode, SPEC1, SPEC2-6 and B-DISP rows' share of all cycles", 0.4,
     0.6,
     [](const HistogramAnalyzer &an) {
         return ratio(an.rowTotal(Row::Decode) + an.rowTotal(Row::Spec1) +
                          an.rowTotal(Row::Spec26) +
                          an.rowTotal(Row::Bdisp),
                      an.cyclesPerInstruction());
     }},
    {"Table 8", "most IB stall is at the initial decode",
     "Decode row's share of the IB-stall column", 0.5, 1.0,
     [](const HistogramAnalyzer &an) {
         return ratio(an.cell(Row::Decode, TimeCol::IbStall),
                      an.colTotal(TimeCol::IbStall));
     }},
    {"Table 8", "memory management shows more read stall than read "
                "cycles",
     "Mem Mgmt R-Stall over Read", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         return ratio(an.cell(Row::MemMgmt, TimeCol::RStall),
                      an.cell(Row::MemMgmt, TimeCol::Read));
     }},
    {"Table 8", "CHARACTER shows almost no write stall",
     "CHARACTER W-Stall as a share of the CHARACTER row", 0.0, 0.01,
     [](const HistogramAnalyzer &an) {
         return ratio(an.cell(Row::ExecCharacter, TimeCol::WStall),
                      an.rowTotal(Row::ExecCharacter));
     }},
};

/** One message per refuted claim, naming it; empty when all hold. */
std::vector<std::string>
refutedClaims(const HistogramAnalyzer &an)
{
    std::vector<std::string> refuted;
    for (const Claim &c : kClaims) {
        double v = c.measure(an);
        if (v >= c.lo && v <= c.hi)
            continue;
        char range[96];
        std::snprintf(range, sizeof range, "%.4g, not in [%g, %g]", v,
                      c.lo, c.hi);
        refuted.push_back(std::string(c.where) + ": refuted \"" +
                          c.claim + "\": " + c.quantity + " = " + range);
    }
    return refuted;
}

} // anonymous namespace

TEST(PaperShape, HoldsAtTheDocumentedBudget)
{
    CompositeResult comp = runComposite(kCyclesPerPart);
    HistogramAnalyzer an(microcodeRom(), comp.hist);
    for (const std::string &r : refutedClaims(an))
        ADD_FAILURE() << r;
}

TEST(PaperShape, EmptyHistogramRefutesEveryClaimByName)
{
    Histogram empty;
    HistogramAnalyzer an(microcodeRom(), empty);
    std::vector<std::string> refuted = refutedClaims(an);
    ASSERT_EQ(refuted.size(), std::size(kClaims));
    for (size_t i = 0; i < refuted.size(); ++i)
        EXPECT_NE(refuted[i].find(kClaims[i].claim), std::string::npos)
            << refuted[i];
}

} // namespace vax::test
