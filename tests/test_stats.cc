/**
 * @file
 * Observability tests: the stats registry (registration, lookup,
 * deterministic dumps, CSV/JSON rendering), the trace channels
 * (runtime enable/disable, buffering sinks, flag parsing), and the
 * pool telemetry (monotonic aggregates, Chrome trace export).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "driver/sim_pool.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "tests/sim_test_util.hh"
#include "workload/experiments.hh"
#include "workload/profile.hh"

namespace vax::test
{

namespace
{

constexpr uint64_t kCycles = 150'000;

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "upc780_stats_" + tag;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Restore the process-wide trace mask when a test is done with it. */
struct ScopedTraceMask
{
    uint32_t saved = trace::g_mask;
    ~ScopedTraceMask() { trace::g_mask = saved; }
};

} // anonymous namespace

// ===================== registry basics =====================

TEST(StatsRegistry, RegisterAndLookup)
{
    stats::Registry r;
    uint64_t counter = 41;
    r.addScalar("cpu.cycles", "machine cycles", &counter);
    r.addScalar("cpu.twice", "computed scalar",
                [&counter] { return counter * 2; });
    r.addFormula("cpu.ratio", "a ratio",
                 [&counter] { return counter / 2.0; });
    r.addVector("cpu.modes", "cycles by mode",
                {{"kernel", &counter}, {"user", &counter}});

    EXPECT_EQ(r.size(), 5u);
    ASSERT_NE(r.find("cpu.cycles"), nullptr);
    EXPECT_EQ(r.find("cpu.cycles")->asScalar(), 41u);
    EXPECT_EQ(r.find("cpu.twice")->asScalar(), 82u);
    EXPECT_DOUBLE_EQ(r.find("cpu.ratio")->asDouble(), 20.5);
    ASSERT_NE(r.find("cpu.modes.kernel"), nullptr);
    EXPECT_EQ(r.find("cpu.modes.user")->asScalar(), 41u);
    EXPECT_EQ(r.find("absent"), nullptr);

    // A dump always reflects the live counter, not a snapshot.
    counter = 100;
    EXPECT_EQ(r.find("cpu.cycles")->asScalar(), 100u);
}

TEST(StatsRegistry, DuplicateNamePanics)
{
    stats::Registry r;
    uint64_t c = 0;
    r.addScalar("x", "", &c);
    EXPECT_DEATH(r.addScalar("x", "", &c), "duplicate");
}

TEST(StatsRegistry, DumpFormats)
{
    stats::Registry r;
    uint64_t c = 7;
    r.addScalar("b.count", "a counter, with comma", &c);
    r.addFormula("a.rate", "a \"rate\"", [] { return 0.25; });

    // Text: name-sorted, aligned, described.
    std::string text = r.dumpText();
    EXPECT_NE(text.find("a.rate"), std::string::npos);
    EXPECT_LT(text.find("a.rate"), text.find("b.count"));
    EXPECT_NE(text.find("# a counter, with comma"),
              std::string::npos);

    // CSV: header plus one row per stat, quoted descriptions.
    std::string csv = r.dumpCsv();
    EXPECT_NE(csv.find("name,value,desc\n"), std::string::npos);
    EXPECT_NE(csv.find("b.count,7,\"a counter, with comma\"\n"),
              std::string::npos);

    // JSON: escaped quotes, parseable values.
    std::string json = r.dumpJson();
    EXPECT_NE(json.find("\"name\": \"a.rate\", \"value\": 0.25"),
              std::string::npos);
    EXPECT_NE(json.find("a \\\"rate\\\""), std::string::npos);
}

TEST(StatsRegistry, JsonEscapesControlCharacters)
{
    // A raw control character inside a JSON string is invalid JSON.
    stats::Registry r;
    uint64_t c = 1;
    r.addScalar("ctl", "a\x01" "b\rc", &c);
    EXPECT_NE(r.dumpJson().find("\"desc\": \"a\\u0001b\\rc\"}"),
              std::string::npos)
        << r.dumpJson();
}

TEST(StatsRegistry, SaveRoundTrip)
{
    stats::Registry r;
    uint64_t c = 123456789;
    r.addScalar("deep.nested.counter", "", &c);
    std::string path = tempPath("roundtrip.json");
    ASSERT_TRUE(r.saveJson(path));
    EXPECT_EQ(slurp(path), r.dumpJson());
    std::string csv_path = tempPath("roundtrip.csv");
    ASSERT_TRUE(r.saveCsv(csv_path));
    EXPECT_EQ(slurp(csv_path), r.dumpCsv());
    std::remove(path.c_str());
    std::remove(csv_path.c_str());
}

TEST(StatsRegistry, ParseStatsJsonFlag)
{
    const char *argv_in[] = {"prog", "--stats-json", "out.json",
                             "other", "--stats-json=two.json",
                             nullptr};
    char *argv[6];
    for (int i = 0; i < 5; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[5] = nullptr;
    int argc = 5;
    bench::Options o;
    std::string operand;
    std::vector<cli::Entry> table = o.flags();
    table.push_back(cli::text("operand", "", "", &operand));
    cli::CommandLine("", table).parse(&argc, argv);
    std::string path = o.statsPath;
    EXPECT_EQ(path, "two.json"); // last flag wins
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "other");
}

// ===================== machine mirroring =====================

TEST(StatsRegistry, MachineRegistrationCoversSubsystems)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Operand::imm(40), Operand::reg(R3)});
    a.label("l");
    a.instr(op::SOBGTR, {Operand::reg(R3), Operand::branch("l")});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());

    stats::Registry r;
    m.cpu->regStats(r, "cpu");
    m.monitor.regStats(r, "cpu.upc");

    // One live registry spanning CPU, memory subsystem and monitor.
    ASSERT_NE(r.find("cpu.cycles"), nullptr);
    EXPECT_EQ(r.find("cpu.cycles")->asScalar(), m.cpu->cycles());
    EXPECT_EQ(r.find("cpu.instructions")->asScalar(),
              m.cpu->hw().instructions);
    ASSERT_NE(r.find("cpu.mem.cache.readRefsI"), nullptr);
    ASSERT_NE(r.find("cpu.mem.tb.lookupsD"), nullptr);
    ASSERT_NE(r.find("cpu.mem.wbuf.writesAccepted"), nullptr);
    ASSERT_NE(r.find("cpu.mem.sbi.transactions"), nullptr);
    EXPECT_EQ(r.find("cpu.upc.cycles")->asScalar(),
              m.monitor.histogram().cycles());
    EXPECT_GT(r.find("cpu.cpi")->asDouble(), 1.0);
}

// ===================== dump determinism =====================

TEST(StatsDeterminism, SameSeedSameJson)
{
    WorkloadProfile prof = allProfiles()[0];
    ExperimentResult r1 = runExperiment(prof, kCycles);
    ExperimentResult r2 = runExperiment(prof, kCycles);

    stats::Registry reg1, reg2;
    r1.hw.regStats(reg1, "sim");
    r1.hist.regStats(reg1, "sim.upc");
    r2.hw.regStats(reg2, "sim");
    r2.hist.regStats(reg2, "sim.upc");

    EXPECT_EQ(reg1.dumpJson(), reg2.dumpJson());
    EXPECT_EQ(reg1.dumpCsv(), reg2.dumpCsv());
    EXPECT_EQ(reg1.dumpText(), reg2.dumpText());
}

TEST(StatsDeterminism, SerialAndPooledDumpsAreByteIdentical)
{
    std::vector<SimJob> jobs = compositeJobs(kCycles);
    CompositeResult serial = SimPool(1).runComposite(jobs);
    CompositeResult pooled = SimPool(4).runComposite(jobs);

    stats::Registry reg_s, reg_p;
    registerCompositeStats(reg_s, serial);
    registerCompositeStats(reg_p, pooled);

    EXPECT_EQ(reg_s.size(), reg_p.size());
    // Wall-clock stays out of the registry, so the full dump -- per
    // part and composite -- must match byte for byte.
    EXPECT_EQ(reg_s.dumpJson(), reg_p.dumpJson());
}

// ===================== trace channels =====================

TEST(TraceChannels, EnableDisable)
{
    ScopedTraceMask restore;
    trace::disableAll();
    EXPECT_FALSE(trace::anyEnabled());
    trace::enable(trace::Channel::Cache);
    EXPECT_TRUE(trace::enabled(trace::Channel::Cache));
    EXPECT_FALSE(trace::enabled(trace::Channel::Tb));
    trace::disable(trace::Channel::Cache);
    EXPECT_FALSE(trace::anyEnabled());

    EXPECT_TRUE(trace::enableList("cache,tb"));
    EXPECT_TRUE(trace::enabled(trace::Channel::Cache));
    EXPECT_TRUE(trace::enabled(trace::Channel::Tb));
    trace::disableAll();
    EXPECT_TRUE(trace::enableList("all"));
    EXPECT_TRUE(trace::enabled(trace::Channel::Pool));
    trace::disableAll();
    EXPECT_FALSE(trace::enableList("nonsense"));
}

TEST(TraceChannels, EmitGoesToThreadSinkWithCycleStamp)
{
    ScopedTraceMask restore;
    trace::disableAll();
    trace::BufferSink buf;
    trace::ScopedSink scoped(&buf);

    // Disabled channel: the macro must not emit.
    TRACE(Cache, "should not appear %d", 1);
    EXPECT_TRUE(buf.text().empty());

    trace::enable(trace::Channel::Cache);
    uint64_t cycle = 1234;
    trace::setCycleCounter(&cycle);
    TRACE(Cache, "read miss pa=%06x", 0x1040u);
    trace::setCycleCounter(nullptr);
    EXPECT_EQ(buf.text(), "1234:cache: read miss pa=001040\n");
}

TEST(TraceChannels, MachineEmitsCacheLines)
{
    ScopedTraceMask restore;
    trace::disableAll();
    trace::BufferSink buf;
    {
        trace::ScopedSink scoped(&buf);
        trace::enableList("cache");
        BareMachine m;
        auto &a = m.asmblr;
        a.instr(op::MOVL, {Operand::imm(7), Operand::reg(R1)});
        a.instr(op::HALT);
        ASSERT_TRUE(m.run());
    }
    // Every line is cycle-stamped "N:cache: ...".
    EXPECT_NE(buf.text().find(":cache: "), std::string::npos);
    std::istringstream lines(buf.text());
    std::string line;
    while (std::getline(lines, line))
        EXPECT_NE(line.find(":cache: "), std::string::npos) << line;
}

TEST(TraceChannels, ParseTraceFlagStripsArgv)
{
    ScopedTraceMask restore;
    trace::disableAll();
    const char *argv_in[] = {"prog", "--trace", "tb", "keep",
                             "--trace=os", nullptr};
    char *argv[6];
    for (int i = 0; i < 5; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[5] = nullptr;
    int argc = 5;
    std::string operand;
    cli::CommandLine("", {trace::flag(),
                          cli::text("operand", "", "", &operand)})
        .parse(&argc, argv);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "keep");
    EXPECT_TRUE(trace::enabled(trace::Channel::Tb));
    EXPECT_TRUE(trace::enabled(trace::Channel::Os));
    EXPECT_FALSE(trace::enabled(trace::Channel::Cache));
}

// ===================== pool telemetry =====================

TEST(PoolTelemetry, AggregateIsMonotonic)
{
    std::vector<SimJob> jobs = compositeJobs(20'000);
    std::vector<ExperimentResult> results = SimPool(2).run(jobs);
    PoolTelemetry tele = computeTelemetry(results);

    ASSERT_EQ(tele.jobs.size(), jobs.size());
    double max_wall = 0;
    uint64_t cycles = 0;
    for (const auto &j : tele.jobs) {
        EXPECT_GE(j.wallSeconds, 0.0);
        EXPECT_GE(j.startSeconds, 0.0);
        EXPECT_LT(j.worker, 2u);
        max_wall = std::max(max_wall, j.wallSeconds);
        cycles += j.simCycles;
    }
    // The aggregate span covers every job.
    EXPECT_GE(tele.wallSeconds, max_wall);
    EXPECT_EQ(tele.simCycles, cycles);
    EXPECT_GT(tele.instructions, 0u);
    if (tele.wallSeconds > 0) {
        EXPECT_GT(tele.cyclesPerSecond(), 0.0);
    }
    EXPECT_FALSE(tele.summary().empty());
}

TEST(PoolTelemetry, ChromeTraceExport)
{
    std::vector<SimJob> jobs = compositeJobs(20'000);
    std::vector<ExperimentResult> results = SimPool(2).run(jobs);
    std::string path = tempPath("timeline.json");
    ASSERT_TRUE(writeChromeTrace(path, results));
    std::string text = slurp(path);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    for (const auto &r : results)
        EXPECT_NE(text.find("\"name\":\"" + r.name + "\""),
                  std::string::npos);
    std::remove(path.c_str());
}

TEST(PoolTelemetry, PooledTraceLinesDoNotInterleave)
{
    // With tracing on, each pooled job buffers its lines and flushes
    // once; within this test we only assert the pool channel works
    // end to end under threads (TSan covers the data-race side).
    ScopedTraceMask restore;
    trace::disableAll();
    trace::enableList("pool");
    std::vector<SimJob> jobs = compositeJobs(5'000);
    std::vector<ExperimentResult> results = SimPool(4).run(jobs);
    trace::disableAll();
    EXPECT_EQ(results.size(), jobs.size());
    for (const auto &r : results)
        EXPECT_GT(r.hw.counters.cycles, 0u);
}

} // namespace vax::test
