/**
 * @file
 * Shared plumbing for the table benches: run the composite of the five
 * workloads once, analyze, and print measured values beside the
 * paper's published numbers.
 *
 * Simulated length per experiment defaults to 2,000,000 cycles
 * (0.4 simulated seconds); override with the UPC780_CYCLES environment
 * variable for longer, more stable runs.
 */

#ifndef UPC780_BENCH_BENCH_UTIL_HH
#define UPC780_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "driver/sim_pool.hh"
#include "support/faultinject.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/trace.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/selfcheck.hh"
#include "workload/experiments.hh"

namespace vax::bench
{

/** The shared bench command-line surface, for --help and bad args. */
inline void
printBenchUsage(const char *prog, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "  --jobs N           worker threads, 0 = one per core"
        " (also UPC780_JOBS)\n"
        "  --trace LIST       trace channels, e.g. cache,fault"
        " (also UPC780_TRACE)\n"
        "  --stats-json PATH  write the composite stats registry as"
        " JSON\n"
        "  --faults SPEC      deterministic fault injection, e.g.\n"
        "                     parity=1e-4,tb=5e-5,seed=7"
        " (also UPC780_FAULTS)\n"
        "  --strict           fail fast on the first job error"
        " (also UPC780_STRICT)\n"
        "  --selfcheck        verify accounting identities after the"
        " run\n"
        "  --watchdog-cycles N\n"
        "                     forward-progress watchdog window per"
        " job\n"
        "  --job-timeout S    wall-clock budget per job in seconds\n"
        "  --help             this message\n"
        "Cycles per experiment come from UPC780_CYCLES"
        " (default 2000000).\n",
        prog);
}

/**
 * After every known flag has been stripped from argv, anything left
 * is a typo; print usage and exit non-zero rather than silently
 * running a different experiment than the user asked for.
 *
 * @param positional How many positional operands are legitimate.
 */
inline void
rejectUnknownArgs(int argc, char **argv, int positional = 0)
{
    if (argc <= 1 + positional)
        return;
    std::fprintf(stderr, "%s: unrecognized argument '%s'\n\n", argv[0],
                 argv[1 + positional]);
    printBenchUsage(argv[0], stderr);
    std::exit(2);
}

/** Everything a table bench needs. */
struct BenchRun
{
    CompositeResult composite;
    std::unique_ptr<HistogramAnalyzer> analyzer;

    const HistogramAnalyzer &an() const { return *analyzer; }
};

/**
 * Run the composite for a table bench, honoring the shared
 * command-line surface (flags are stripped from argv):
 *
 *   --jobs N            worker threads (also UPC780_JOBS)
 *   --trace LIST        trace channels (also UPC780_TRACE)
 *   --stats-json PATH   write the composite's stats registry as JSON
 *   --faults SPEC       deterministic fault injection (UPC780_FAULTS)
 *   --strict            fail fast on the first job error
 *   --selfcheck         run the accounting self-check after the run
 *
 * Unrecognized arguments print the usage and exit(2).  A failed
 * --stats-json write or a self-check violation is fatal, so scripted
 * callers see a non-zero exit instead of a silently missing file.
 */
inline BenchRun
runBench(int *argc, char **argv, const char *title)
{
    if (parseBoolFlag(argc, argv, "help")) {
        printBenchUsage(argv[0], stdout);
        std::exit(0);
    }
    trace::parseTraceFlag(argc, argv);
    unsigned jobs = parseJobsFlag(argc, argv, envJobs());
    std::string stats_path = stats::parseStatsJsonFlag(argc, argv);
    FaultConfig faults = FaultConfig::parseFlag(argc, argv);
    RunLimits limits = parseLimitsFlags(argc, argv);
    bool strict = parseBoolFlag(argc, argv, "strict");
    bool selfcheck = parseBoolFlag(argc, argv, "selfcheck");
    rejectUnknownArgs(*argc, argv);
    uint64_t cycles = benchCycles();
    interrupt::install();
    SimPool pool(jobs);
    if (strict)
        pool.setStrict(true);
    std::printf("upc780 bench: %s\n", title);
    std::printf("(composite of 5 workloads, %llu cycles each, "
                "%u worker threads; set UPC780_CYCLES / UPC780_JOBS "
                "to change)\n\n",
                static_cast<unsigned long long>(cycles),
                pool.workers());
    BenchRun r;
    std::vector<SimJob> jobs_list = compositeJobs(cycles);
    for (SimJob &j : jobs_list) {
        if (faults.enabled())
            j.sim.mem.faults = faults;
        if (limits.watchdogCycles)
            j.limits.watchdogCycles = limits.watchdogCycles;
        if (limits.timeoutSeconds > 0.0)
            j.limits.timeoutSeconds = limits.timeoutSeconds;
    }
    r.composite = pool.runComposite(jobs_list);
    r.analyzer = std::make_unique<HistogramAnalyzer>(
        microcodeRom(), r.composite.hist);
    PoolTelemetry tele = computeTelemetry(r.composite.parts);
    for (const auto &j : tele.jobs) {
        std::string marks;
        if (j.retries) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "  %u retried",
                          j.retries);
            marks += buf;
        }
        if (j.failed)
            marks += "  FAILED";
        if (j.interrupted)
            marks += "  INTERRUPTED";
        std::printf("  %-22s %9.2fs wall, %6.2f Msimcycles/s "
                    "(worker %u)%s\n",
                    j.name.c_str(), j.wallSeconds,
                    j.wallSeconds > 0
                        ? j.simCycles / j.wallSeconds * 1e-6
                        : 0.0,
                    j.worker, marks.c_str());
    }
    std::printf("pool: %s\n", tele.summary().c_str());
    std::printf("composite: %llu instructions, %llu cycles, "
                "%.2f cycles/instruction\n\n",
                static_cast<unsigned long long>(
                    r.analyzer->instructions()),
                static_cast<unsigned long long>(
                    r.analyzer->totalCycles()),
                r.analyzer->cyclesPerInstruction());
    if (interrupt::requested()) {
        // Partial stats were printed above.  Exit with the
        // conventional 128+SIGINT status so scripts can tell an
        // interrupted run from a finished one.
        std::exit(interrupt::reportInterrupted(
            "composite above is partial", tele.interruptedJobs,
            false));
    }
    if (selfcheck) {
        std::vector<uint64_t> weights;
        for (const SimJob &j : jobs_list)
            weights.push_back(j.weight);
        SelfCheckReport rep =
            selfCheckComposite(microcodeRom(), r.composite, weights);
        std::printf("%s\n\n", rep.summary().c_str());
        if (!rep.ok())
            fatal("self-check failed (%zu violations)",
                  rep.violations.size());
    }
    if (!stats_path.empty()) {
        stats::Registry reg;
        registerCompositeStats(reg, r.composite);
        if (!reg.saveJson(stats_path))
            fatal("cannot write stats JSON to '%s'",
                  stats_path.c_str());
        std::printf("stats: wrote %zu stats to %s\n\n", reg.size(),
                    stats_path.c_str());
    }
    return r;
}

/** "paper X / measured Y" cell helpers. */
inline std::string
pvm(double paper, double measured, int decimals = 2)
{
    return TextTable::num(paper, decimals) + " / " +
        TextTable::num(measured, decimals);
}

} // namespace vax::bench

#endif // UPC780_BENCH_BENCH_UTIL_HH
