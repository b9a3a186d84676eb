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
#include <optional>
#include <string>
#include <vector>

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
 * The shared command line of every runBench binary: the eight flags,
 * named once, and where each value goes.
 */
struct Options
{
    std::optional<unsigned> jobs;      ///< absent: UPC780_JOBS
    std::string statsPath;
    std::optional<std::string> faults; ///< absent: UPC780_FAULTS
    RunLimits limits;                  ///< zero fields: flag absent
    bool strict = false;
    bool selfcheck = false;

    std::vector<cli::Entry>
    flags()
    {
        return {
            jobsFlag(&jobs),
            trace::flag(),
            cli::text("--stats-json", "PATH",
                      "write the composite stats registry as JSON",
                      &statsPath),
            cli::text("--faults", "SPEC",
                      "deterministic fault injection, e.g.\n"
                      "parity=1e-4,tb=5e-5,seed=7 (also UPC780_FAULTS)",
                      &faults),
            cli::flag("--strict",
                      "fail fast on the first job error (also "
                      "UPC780_STRICT)",
                      &strict),
            cli::flag("--selfcheck",
                      "verify the accounting identities and the\n"
                      "control store after the run",
                      &selfcheck),
            cli::count("--watchdog-cycles", "N",
                       "forward-progress watchdog window per job",
                       &limits.watchdogCycles, 1, UINT64_MAX),
            cli::seconds("--job-timeout", "S",
                         "wall-clock budget per job in seconds",
                         &limits.timeoutSeconds),
        };
    }
};

/** Everything a table bench needs. */
struct BenchRun
{
    CompositeResult composite;
    std::unique_ptr<HistogramAnalyzer> analyzer;

    const HistogramAnalyzer &an() const { return *analyzer; }
};

/**
 * Run the composite for a table bench, honoring the shared command
 * line (Options; the flags are stripped from argv).
 *
 * A bad command line prints the usage and exits 2.  A failed
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
    Options o;
    uint64_t cycles = 2'000'000;
    std::vector<cli::Entry> table = o.flags();
    if (cycles_operand)
        table.push_back(cli::count("cycles", "",
                                   "machine cycles per experiment "
                                   "(default 2000000)",
                                   &cycles, 1, UINT64_MAX));
    cli::CommandLine(title, std::move(table),
                     cycles_operand
                         ? ""
                         : "Cycles per experiment come from "
                           "UPC780_CYCLES (default 2000000).")
        .parse(argc, argv);
    if (!cycles_operand)
        cycles = benchCycles();
    FaultConfig faults = o.faults ? FaultConfig::parse(*o.faults)
                                  : FaultConfig::fromEnv();
    interrupt::install();
    SimPool pool(o.jobs.value_or(envJobs()));
    if (o.strict)
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
        if (o.limits.watchdogCycles)
            j.limits.watchdogCycles = o.limits.watchdogCycles;
        if (o.limits.timeoutSeconds > 0.0)
            j.limits.timeoutSeconds = o.limits.timeoutSeconds;
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
    if (o.selfcheck) {
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
    if (!o.statsPath.empty()) {
        stats::Registry reg;
        registerCompositeStats(reg, r.composite);
        regLintStats(lint, reg);
        if (!reg.saveJson(o.statsPath))
            fatal("cannot write stats JSON to '%s'",
                  o.statsPath.c_str());
        std::printf("stats: wrote %zu stats to %s\n\n", reg.size(),
                    o.statsPath.c_str());
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
