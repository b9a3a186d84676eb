/**
 * @file
 * Paper-shape gate: the shape statements EXPERIMENTS.md reports as
 * holding (paper::claims(), in upc/paper.cc), checked at its
 * documented budget of 4M cycles per workload.
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

#include <span>
#include <string>
#include <vector>

#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
#include "upc/paper.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

/** EXPERIMENTS.md's budget: 4M cycles (0.8 simulated s) per workload. */
constexpr uint64_t kCyclesPerPart = 4'000'000;

/** One message per refuted claim, naming it; empty when all hold. */
std::vector<std::string>
refutedClaims(const HistogramAnalyzer &an)
{
    std::vector<std::string> refuted;
    for (const paper::Claim &c : paper::claims()) {
        double v = c.measure(an);
        if (!c.holds(v))
            refuted.push_back(std::string(c.where) + ": " +
                              paper::verdict(c, v));
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
    std::span<const paper::Claim> claims = paper::claims();
    ASSERT_EQ(refuted.size(), claims.size());
    for (size_t i = 0; i < refuted.size(); ++i)
        EXPECT_NE(refuted[i].find(claims[i].claim), std::string::npos)
            << refuted[i];
}

} // namespace vax::test
