/**
 * @file
 * Shared plumbing for the table benches: run the composite of the five
 * workloads once and analyze it.  The tables themselves, paper beside
 * measured, are rendered by upc/paper.hh.
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

#include "analysis/ulint.hh"
#include "driver/sim_pool.hh"
#include "support/faultinject.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/parse.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/trace.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/paper.hh"
#include "upc/selfcheck.hh"
#include "workload/experiments.hh"

namespace vax::bench
{

/**
 * The shared bench command-line surface, for --help and bad args.
 *
 * @param cycles_operand The binary takes the cycle budget as its one
 *                       positional operand instead of UPC780_CYCLES.
 */
inline void
printBenchUsage(const char *prog, std::FILE *out,
                bool cycles_operand = false)
{
    std::fprintf(
        out,
        "usage: %s [options]%s\n"
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
        "  --selfcheck        verify the accounting identities and"
        " the\n"
        "                     control store after the run\n"
        "  --watchdog-cycles N\n"
        "                     forward-progress watchdog window per"
        " job\n"
        "  --job-timeout S    wall-clock budget per job in seconds\n"
        "  --help             this message\n"
        "Cycles per experiment come from %s (default 2000000).\n",
        prog, cycles_operand ? " [cycles-per-experiment]" : "",
        cycles_operand ? "the operand" : "UPC780_CYCLES");
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
    printBenchUsage(argv[0], stderr, positional > 0);
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
 * command-line surface printBenchUsage() lists (flags are stripped
 * from argv).
 *
 * Unrecognized arguments print the usage and exit(2).  A failed
 * --stats-json write, a self-check violation or a static-verifier
 * diagnostic is fatal, so scripted callers see a non-zero exit
 * instead of a silently missing file.
 *
 * @param cycles_operand Take the cycle budget from the one positional
 *                       operand (default 2,000,000), not UPC780_CYCLES.
 */
inline BenchRun
runBench(int *argc, char **argv, const std::string &title,
         bool cycles_operand = false)
{
    if (parseBoolFlag(argc, argv, "help")) {
        printBenchUsage(argv[0], stdout, cycles_operand);
        std::exit(0);
    }
    trace::parseTraceFlag(argc, argv);
    unsigned jobs = parseJobsFlag(argc, argv, envJobs());
    std::string stats_path = stats::parseStatsJsonFlag(argc, argv);
    FaultConfig faults = FaultConfig::parseFlag(argc, argv);
    RunLimits limits = parseLimitsFlags(argc, argv);
    bool strict = parseBoolFlag(argc, argv, "strict");
    bool selfcheck = parseBoolFlag(argc, argv, "selfcheck");
    rejectUnknownArgs(*argc, argv, cycles_operand ? 1 : 0);
    uint64_t cycles = cycles_operand ? 2'000'000 : benchCycles();
    if (cycles_operand && *argc > 1) {
        std::optional<uint64_t> v = parseCount(argv[1], UINT64_MAX);
        if (!v || !*v) {
            std::fprintf(stderr, "%s: bad cycle count '%s'\n\n",
                         argv[0], argv[1]);
            printBenchUsage(argv[0], stderr, cycles_operand);
            std::exit(2);
        }
        cycles = *v;
    }
    interrupt::install();
    SimPool pool(jobs);
    if (strict)
        pool.setStrict(true);
    std::printf("upc780 bench: %s\n", title.c_str());
    std::printf("(composite of 5 workloads, %llu cycles each, "
                "%u worker threads)\n\n",
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
    // The static verifier runs over the same control store the
    // analyzer classifies with; its findings join the self-check and
    // (when any exist) the stats dump.
    LintReport lint = lintControlStore(microcodeRom());
    if (selfcheck) {
        std::vector<uint64_t> weights;
        for (const SimJob &j : jobs_list)
            weights.push_back(j.weight);
        SelfCheckReport rep =
            selfCheckComposite(microcodeRom(), r.composite, weights);
        std::printf("%s\n", rep.summary().c_str());
        if (lint.clean())
            std::printf("static verifier: clean (%zu microwords, "
                        "%zu reachable)\n\n",
                        lint.words, lint.reachable);
        else
            std::printf("static verifier: %zu diagnostic(s)\n%s\n",
                        lint.diags.size(), lint.text().c_str());
        if (!rep.ok() || !lint.clean())
            fatal("self-check failed (%zu violations, %zu static "
                  "diagnostics)",
                  rep.violations.size(), lint.diags.size());
    }
    if (!stats_path.empty()) {
        stats::Registry reg;
        registerCompositeStats(reg, r.composite);
        regLintStats(lint, reg);
        if (!reg.saveJson(stats_path))
            fatal("cannot write stats JSON to '%s'",
                  stats_path.c_str());
        std::printf("stats: wrote %zu stats to %s\n\n", reg.size(),
                    stats_path.c_str());
    }
    return r;
}

/** A table bench's whole main: run the composite, print its table. */
inline int
tableMain(int argc, char **argv, const paper::Table &table)
{
    BenchRun r = runBench(&argc, argv,
                          std::string(table.where) + " -- " + table.title);
    std::fputs(table.render(r.an(), r.composite).c_str(), stdout);
    return 0;
}

} // namespace vax::bench

#endif // UPC780_BENCH_BENCH_UTIL_HH
