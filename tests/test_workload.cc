/**
 * @file
 * Workload-layer tests: generator determinism and validity, profile
 * sanity, experiment invariants, and composite accounting.
 */

#include <gtest/gtest.h>

#include "driver/sim_pool.hh"
#include "upc/analyzer.hh"
#include "workload/codegen.hh"
#include "workload/experiments.hh"

namespace vax::test
{

TEST(Codegen, Deterministic)
{
    WorkloadProfile p = educationalProfile();
    CodeGenerator g1(p, 42), g2(p, 42);
    UserProgram a = g1.generate(0), b = g2.generate(0);
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(a.image, b.image);
}

TEST(Codegen, SeedsChangePrograms)
{
    WorkloadProfile p = educationalProfile();
    CodeGenerator g1(p, 1), g2(p, 2);
    EXPECT_NE(g1.generate(0).image, g2.generate(0).image);
}

TEST(Codegen, ImageFitsProcessRegion)
{
    for (const auto &p : allProfiles()) {
        CodeGenerator gen(p, p.seed);
        UserProgram prog = gen.generate(0);
        // Must fit under the user stack in the default P0 region.
        VmsConfig vc;
        EXPECT_LT(prog.image.size(),
                  static_cast<size_t>(vc.userP0Pages) * pageBytes -
                      0x4000)
            << p.name;
        EXPECT_GT(prog.image.size(), 10000u) << p.name;
        EXPECT_LT(prog.entry, prog.image.size());
    }
}

class ProfileRunTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(ProfileRunTest, RunsWithoutFaulting)
{
    auto profiles = allProfiles();
    WorkloadProfile prof = profiles[GetParam()];
    prof.numUsers = 4; // keep the test fast
    ExperimentResult r = runExperiment(prof, 150000);
    Cpu780 ref;
    HistogramAnalyzer an(ref.controlStore(), r.hist);
    EXPECT_GT(an.instructions(), 5000u) << prof.name;
    EXPECT_GT(an.cyclesPerInstruction(), 4.0);
    EXPECT_LT(an.cyclesPerInstruction(), 25.0);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileRunTest,
                         ::testing::Range(0, 5));

TEST(Experiments, CompositeSumsParts)
{
    CompositeResult comp = runComposite(60000);
    ASSERT_EQ(comp.parts.size(), 5u);
    uint64_t part_cycles = 0;
    for (const auto &p : comp.parts)
        part_cycles += p.hist.cycles();
    EXPECT_EQ(comp.hist.cycles(), part_cycles);
    uint64_t part_instr = 0;
    for (const auto &p : comp.parts)
        part_instr += p.hw.counters.instructions;
    EXPECT_EQ(comp.hw.counters.instructions, part_instr);
}

TEST(Experiments, MixLandsInPaperBands)
{
    // Coarse acceptance bands around Table 1 for the composite.
    CompositeResult comp = runComposite(400000);
    Cpu780 ref;
    HistogramAnalyzer an(ref.controlStore(), comp.hist);
    double simple = an.groupFraction(Group::Simple);
    EXPECT_GT(simple, 0.75);
    EXPECT_LT(simple, 0.92);
    EXPECT_GT(an.groupFraction(Group::Field), 0.02);
    EXPECT_GT(an.groupFraction(Group::Float), 0.01);
    EXPECT_GT(an.groupFraction(Group::CallRet), 0.01);
    EXPECT_GT(an.groupFraction(Group::System), 0.005);
    EXPECT_GT(an.groupFraction(Group::Character), 0.0);
    EXPECT_GT(an.groupFraction(Group::Decimal), 0.0);
    // Group fractions sum to ~1: every decoded instruction reaches an
    // execute flow, except the handful cut off when the cycle budget
    // expires mid-instruction (one per experiment).
    double sum = 0.0;
    for (unsigned g = 0; g < static_cast<unsigned>(Group::NumGroups);
         ++g)
        sum += an.groupFraction(static_cast<Group>(g));
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Experiments, TimingShapeMatchesPaper)
{
    CompositeResult comp = runComposite(400000);
    Cpu780 ref;
    HistogramAnalyzer an(ref.controlStore(), comp.hist);
    // On the order of 10 cycles per instruction.
    EXPECT_GT(an.cyclesPerInstruction(), 7.0);
    EXPECT_LT(an.cyclesPerInstruction(), 14.0);
    // Decode + specifier processing is close to half of all time.
    double front = an.rowTotal(Row::Decode) +
        an.rowTotal(Row::Spec1) + an.rowTotal(Row::Spec26) +
        an.rowTotal(Row::Bdisp);
    EXPECT_GT(front / an.cyclesPerInstruction(), 0.33);
    EXPECT_LT(front / an.cyclesPerInstruction(), 0.60);
    // CALL/RET is the largest execute row despite low frequency.
    for (Row r : {Row::ExecField, Row::ExecFloat, Row::ExecSystem,
                  Row::ExecCharacter, Row::ExecDecimal}) {
        EXPECT_GT(an.rowTotal(Row::ExecCallRet), an.rowTotal(r));
    }
    // Reads outnumber writes roughly 2:1.
    double ratio =
        an.totalReadsPerInstr() / an.totalWritesPerInstr();
    EXPECT_GT(ratio, 1.4);
    EXPECT_LT(ratio, 3.0);
}

TEST(Experiments, DeterministicAcrossRuns)
{
    ExperimentResult a = runExperiment(commercialProfile(), 80000);
    ExperimentResult b = runExperiment(commercialProfile(), 80000);
    EXPECT_EQ(a.hw.counters.instructions, b.hw.counters.instructions);
    EXPECT_EQ(a.hist.cycles(), b.hist.cycles());
    for (size_t i = 0; i < a.hist.normal.size(); i += 37)
        ASSERT_EQ(a.hist.normal[i], b.hist.normal[i]) << i;
}

TEST(Experiments, InstructionConservation)
{
    ExperimentResult r = runExperiment(timesharingLightProfile(),
                                       150000);
    Cpu780 ref;
    HistogramAnalyzer an(ref.controlStore(), r.hist);
    // IID counts (histogram) vs retired count (hardware): the
    // histogram misses only the instructions executed while the
    // monitor was gated off for the Null process.
    EXPECT_LE(an.instructions(), r.hw.counters.instructions);
    EXPECT_GT(an.instructions(),
              r.hw.counters.instructions / 2);
}

class SeedFuzzTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SeedFuzzTest, RandomProgramsRunCleanly)
{
    // Different seeds produce entirely different programs; all must
    // boot, timeshare and measure without faulting.
    WorkloadProfile prof = allProfiles()[GetParam() % 5];
    prof.seed = 0xF00D + 7919u * static_cast<unsigned>(GetParam());
    prof.numUsers = 3;
    ExperimentResult r = runExperiment(prof, 100000);
    Cpu780 ref;
    HistogramAnalyzer an(ref.controlStore(), r.hist);
    EXPECT_GT(an.instructions(), 3000u);
    EXPECT_GT(an.cyclesPerInstruction(), 3.0);
    EXPECT_LT(an.cyclesPerInstruction(), 30.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedFuzzTest, ::testing::Range(0, 10));

TEST(Experiments, BenchCyclesEnvOverride)
{
    unsetenv("UPC780_CYCLES");
    EXPECT_EQ(benchCycles(123), 123u);
    setenv("UPC780_CYCLES", "4567", 1);
    EXPECT_EQ(benchCycles(123), 4567u);
    unsetenv("UPC780_CYCLES");
}

} // namespace vax::test
