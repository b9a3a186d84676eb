/**
 * @file
 * Parallel-driver and merge-layer tests: SimPool determinism against
 * the serial composite, merge-order independence, the weighted merge
 * operators, histogram CSV round-trips (including empty-name and
 * maximum-upc rows), physical-access alignment symmetry, the
 * fatal-on-garbage worker and cycle-count inputs, and the one reading
 * of UPC780_STRICT.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "driver/sim_pool.hh"
#include "mem/mem_system.hh"
#include "support/sim_error.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/hist_io.hh"
#include "upc/monitor.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

/** Cycles per experiment: small enough to keep the suite fast, large
 *  enough that every workload boots and schedules real work. */
constexpr uint64_t kCycles = 150'000;

void
expectHistogramsEqual(const Histogram &a, const Histogram &b)
{
    ASSERT_EQ(a.normal.size(), b.normal.size());
    EXPECT_TRUE(a.normal == b.normal);
    EXPECT_TRUE(a.stalled == b.stalled);
}

std::string
tempCsvPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "upc780_" + tag +
        ".csv";
}

} // anonymous namespace

// Declared ahead of the merge-layer tests so that, in a process that
// runs SimPool* and MergeLayer* together (pool_determinism_tsan), it
// builds the first machine: the workers race into microcodeRom()'s
// first-use initialization.
TEST(SimPool, WorkersRaceToBuildTheFirstMachine)
{
    constexpr size_t kMachines = 8;
    std::vector<const ControlStore *> seen(kMachines, nullptr);
    SimPool(4).forEach(kMachines, [&seen](size_t i) {
        Cpu780 cpu;
        seen[i] = &cpu.controlStore();
    });
    for (const ControlStore *cs : seen)
        EXPECT_EQ(cs, &microcodeRom());
}

// ===================== merge layer =====================

TEST(MergeLayer, HistogramWeightedMerge)
{
    Histogram a, b;
    a.normal[3] = 7;
    a.stalled[3] = 2;
    b.normal[3] = 1;
    b.stalled[9] = 5;
    a.merge(b, 3);
    EXPECT_EQ(a.normal[3], 10u);
    EXPECT_EQ(a.stalled[3], 2u);
    EXPECT_EQ(a.stalled[9], 15u);
}

TEST(MergeLayer, WeightedCompositeOneCall)
{
    Histogram a, b;
    a.normal[1] = 2;
    b.normal[1] = 5;
    b.stalled[2] = 1;
    Histogram total = weightedComposite({&a, &b}, {2, 1});
    EXPECT_EQ(total.normal[1], 9u);
    EXPECT_EQ(total.stalled[2], 1u);
    // Missing weights default to 1; null parts are skipped.
    Histogram total2 = weightedComposite({&a, nullptr, &b});
    EXPECT_EQ(total2.normal[1], 7u);
}

TEST(MergeLayer, StatsAccumulateOperators)
{
    CacheStats c1, c2;
    c1.readRefsD = 10;
    c2.readRefsD = 5;
    c2.writeHits = 3;
    c1 += c2;
    EXPECT_EQ(c1.readRefsD, 15u);
    EXPECT_EQ(c1.writeHits, 3u);

    TbStats t1, t2;
    t1.missesI = 4;
    t2.missesI = 2;
    t2.processFlushes = 7;
    t1 += t2;
    EXPECT_EQ(t1.missesI, 6u);
    EXPECT_EQ(t1.processFlushes, 7u);

    HwCounters h1, h2;
    h1.instructions = 100;
    h2.instructions = 11;
    h2.contextSwitches = 2;
    h1 += h2;
    EXPECT_EQ(h1.instructions, 111u);
    EXPECT_EQ(h1.contextSwitches, 2u);

    // Weighted accumulate scales every field.
    HwCounters h3;
    h3.accumulate(h2, 5);
    EXPECT_EQ(h3.instructions, 55u);
    EXPECT_EQ(h3.contextSwitches, 10u);
}

TEST(MergeLayer, AnalyzerWeightedCompositeMatchesManualMerge)
{
    Cpu780 ref;
    const ControlStore &cs = ref.controlStore();
    Histogram a, b;
    a.normal[cs.entries.iid] = 100;
    b.normal[cs.entries.iid] = 50;

    HistogramAnalyzer an(cs, {&a, &b}, {1, 2});
    EXPECT_EQ(an.instructions(), 200u);

    Histogram manual;
    manual.merge(a, 1);
    manual.merge(b, 2);
    HistogramAnalyzer an2(cs, manual);
    EXPECT_EQ(an2.instructions(), an.instructions());
    EXPECT_DOUBLE_EQ(an2.cyclesPerInstruction(),
                     an.cyclesPerInstruction());
}

// ===================== histogram CSV =====================

TEST(HistIo, RoundTripRealHistogram)
{
    Cpu780 ref;
    ExperimentResult r =
        runExperiment(timesharingLightProfile(), kCycles);
    ASSERT_GT(r.hist.cycles(), 0u);

    std::string path = tempCsvPath("roundtrip");
    ASSERT_TRUE(saveHistogramCsv(path, r.hist, ref.controlStore()));
    Histogram reloaded;
    ASSERT_TRUE(loadHistogramCsv(path, &reloaded));
    expectHistogramsEqual(r.hist, reloaded);
    std::remove(path.c_str());
}

TEST(HistIo, LoadsEmptyNameAndMaxUpcRows)
{
    // The default annotation name is "", so a histogram containing an
    // unannotated micro-address saves as "upc,,row,...".  The old
    // sscanf("%[^,]") parser refused the empty field; the split-based
    // parser must accept it, along with the largest legal upc.
    std::string path = tempCsvPath("emptyname");
    FILE *f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fprintf(f, "upc,name,row,mem,ib,normal,stalled\n");
    fprintf(f, "5,,EXEC SIMPLE,none,0,3,1\n");          // empty name
    fprintf(f, "7,IID,DECODE,none,1,40,2\n");           // old format
    fprintf(f, "%u,,EXEC SIMPLE,none,0,9,4\n",
            ControlStore::capacity - 1);                // max upc
    fclose(f);

    Histogram h;
    ASSERT_TRUE(loadHistogramCsv(path, &h));
    EXPECT_EQ(h.normal[5], 3u);
    EXPECT_EQ(h.stalled[5], 1u);
    EXPECT_EQ(h.normal[7], 40u);
    EXPECT_EQ(h.stalled[7], 2u);
    EXPECT_EQ(h.normal[ControlStore::capacity - 1], 9u);
    EXPECT_EQ(h.stalled[ControlStore::capacity - 1], 4u);
    std::remove(path.c_str());
}

TEST(HistIo, RejectsMalformedAndOutOfRangeRows)
{
    std::string path = tempCsvPath("badrows");
    Histogram h;

    FILE *f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fprintf(f, "upc,name,row,mem,ib,normal,stalled\n");
    fprintf(f, "1,NOP,EXEC SIMPLE,none,0,3\n"); // six fields
    fclose(f);
    EXPECT_FALSE(loadHistogramCsv(path, &h));

    f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fprintf(f, "upc,name,row,mem,ib,normal,stalled\n");
    fprintf(f, "%u,NOP,EXEC SIMPLE,none,0,3,0\n",
            ControlStore::capacity); // out of range
    fclose(f);
    EXPECT_FALSE(loadHistogramCsv(path, &h));

    f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fprintf(f, "upc,name,row,mem,ib,normal,stalled\n");
    fprintf(f, "2,NOP,EXEC SIMPLE,none,0,x,0\n"); // non-numeric count
    fclose(f);
    EXPECT_FALSE(loadHistogramCsv(path, &h));

    std::remove(path.c_str());
}

// ===================== physical-access symmetry =====================

TEST(MemSystemAlignment, PhysReadRejectsLongwordCrossing)
{
    // physWrite always asserted !crossesLongword; physRead silently
    // straddled a cache-block boundary instead.  The paths must be
    // symmetric.
    MemConfig cfg;
    EXPECT_DEATH(
        {
            MemSystem mem(cfg, 1);
            mem.physRead(0x1002);
        },
        "crossesLongword");
}

TEST(MemSystemAlignment, AlignedPhysAccessesStillWork)
{
    MemConfig cfg;
    MemSystem mem(cfg, 1);
    MemResult r = mem.physRead(0x1000);
    EXPECT_TRUE(r.status == MemStatus::Ok ||
                r.status == MemStatus::Stall);
}

// ===================== the pool =====================

TEST(SimPool, ResultsComeBackInJobOrder)
{
    auto profiles = allProfiles();
    std::vector<SimJob> jobs;
    for (const auto &p : profiles)
        jobs.push_back(SimJob::forProfile(p, 20'000));
    std::vector<ExperimentResult> results = SimPool(4).run(jobs);
    ASSERT_EQ(results.size(), profiles.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].name, profiles[i].name);
        EXPECT_GT(results[i].wallSeconds, 0.0);
    }
}

TEST(SimPool, FourJobPoolMatchesSerialCompositeBitForBit)
{
    // The acceptance contract: a pooled composite is byte-identical
    // to the serial path, at any worker count, merged in any order.
    CompositeResult serial = runComposite(kCycles);
    CompositeResult pooled = runCompositePooled(kCycles, 4);

    ASSERT_EQ(serial.parts.size(), pooled.parts.size());
    expectHistogramsEqual(serial.hist, pooled.hist);
    EXPECT_EQ(serial.hw.counters.instructions,
              pooled.hw.counters.instructions);
    EXPECT_EQ(serial.hw.counters.cycles, pooled.hw.counters.cycles);
    EXPECT_EQ(serial.hw.cache.readMissesD,
              pooled.hw.cache.readMissesD);
    EXPECT_EQ(serial.hw.tb.missesI, pooled.hw.tb.missesI);
    EXPECT_EQ(serial.hw.terminalLinesIn, pooled.hw.terminalLinesIn);
    EXPECT_EQ(serial.hw.diskTransfers, pooled.hw.diskTransfers);
    for (size_t i = 0; i < serial.parts.size(); ++i) {
        expectHistogramsEqual(serial.parts[i].hist,
                              pooled.parts[i].hist);
    }

    // Merge the pooled parts in reverse order: counter sums are
    // commutative, so the bits cannot change.
    Histogram reversed;
    for (size_t i = pooled.parts.size(); i-- > 0;)
        reversed.merge(pooled.parts[i].hist);
    expectHistogramsEqual(serial.hist, reversed);

    // And the Table 8 numbers derived from them agree exactly.
    Cpu780 ref;
    HistogramAnalyzer a(ref.controlStore(), serial.hist);
    HistogramAnalyzer b(ref.controlStore(), pooled.hist);
    EXPECT_EQ(a.instructions(), b.instructions());
    EXPECT_EQ(a.totalCycles(), b.totalCycles());
    for (unsigned r = 0; r < static_cast<unsigned>(Row::NumRows);
         ++r) {
        for (unsigned c = 0;
             c < static_cast<unsigned>(TimeCol::NumCols); ++c) {
            EXPECT_DOUBLE_EQ(
                a.cell(static_cast<Row>(r), static_cast<TimeCol>(c)),
                b.cell(static_cast<Row>(r), static_cast<TimeCol>(c)));
        }
    }
}

TEST(SimPool, WorkerCountDoesNotChangeResults)
{
    std::vector<SimJob> jobs = compositeJobs(40'000);
    std::vector<ExperimentResult> one = SimPool(1).run(jobs);
    std::vector<ExperimentResult> three = SimPool(3).run(jobs);
    ASSERT_EQ(one.size(), three.size());
    for (size_t i = 0; i < one.size(); ++i)
        expectHistogramsEqual(one[i].hist, three[i].hist);
}

namespace
{

/** parseJobsFlag over a mutable copy of @p args (after "prog"). */
unsigned
jobsFrom(std::initializer_list<const char *> args, unsigned def = 7)
{
    std::vector<std::string> strings = {"prog"};
    strings.insert(strings.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : strings)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int argc = static_cast<int>(strings.size());
    return parseJobsFlag(&argc, argv.data(), def);
}

} // anonymous namespace

TEST(PoolFlags, WorkerAndCycleInputsParse)
{
    EXPECT_EQ(jobsFrom({}), 7u);
    EXPECT_EQ(jobsFrom({"--jobs", "3"}), 3u);
    EXPECT_EQ(jobsFrom({"--jobs=0"}), 0u); // one worker per core
    setenv("UPC780_JOBS", "", 1);          // empty means unset
    EXPECT_EQ(envJobs(5), 5u);
    setenv("UPC780_JOBS", "2", 1);
    EXPECT_EQ(envJobs(5), 2u);
    unsetenv("UPC780_JOBS");
    setenv("UPC780_CYCLES", "", 1);
    EXPECT_EQ(benchCycles(123), 123u);
    unsetenv("UPC780_CYCLES");
}

TEST(PoolFlags, BadWorkerAndCycleInputsAreFatal)
{
    EXPECT_DEATH(jobsFrom({"--jobs=abc"}), "--jobs: 'abc' is not");
    EXPECT_DEATH(jobsFrom({"--jobs=2x"}), "--jobs: '2x' is not");
    EXPECT_DEATH(jobsFrom({"--jobs"}), "--jobs requires a value");
    EXPECT_DEATH(
        {
            setenv("UPC780_JOBS", "banana", 1);
            envJobs();
        },
        "UPC780_JOBS: 'banana' is not");
    EXPECT_DEATH(
        {
            setenv("UPC780_CYCLES", "20k", 1);
            benchCycles();
        },
        "UPC780_CYCLES: '20k' is not a positive count");
}

TEST(PoolFlags, StrictEnvironmentIsReadOneWay)
{
    // The machine's lint and flow check and the pool's fail-fast mode
    // read UPC780_STRICT alike: only a non-empty value other than "0"
    // turns strict mode on.
    const char *prev = std::getenv("UPC780_STRICT");
    const std::string saved = prev ? prev : "";
    const struct
    {
        const char *value; ///< nullptr: unset
        bool strict;
    } cases[] = {{nullptr, false}, {"", false}, {"0", false}, {"1", true}};
    for (const auto &c : cases) {
        if (c.value)
            setenv("UPC780_STRICT", c.value, 1);
        else
            unsetenv("UPC780_STRICT");
        const char *shown = c.value ? c.value : "(unset)";
        EXPECT_EQ(envStrict(), c.strict) << shown;
        EXPECT_EQ(Cpu780().ebox().flowCheck(), c.strict) << shown;
        EXPECT_EQ(SimPool(1).strict(), c.strict) << shown;
    }
    if (prev)
        setenv("UPC780_STRICT", saved.c_str(), 1);
    else
        unsetenv("UPC780_STRICT");
}

} // namespace vax::test
