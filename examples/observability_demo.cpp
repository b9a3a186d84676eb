/**
 * @file
 * Observability tour: the three instruments this repo layers over the
 * simulator, on one composite run.
 *
 *  1. The stats registry: every component's counters under one
 *     hierarchical namespace, dumped as text/CSV/JSON.  Same seed in,
 *     byte-identical dump out -- serial or pooled.
 *  2. Cycle-stamped trace channels: TRACE(...) lines gated per
 *     channel at run time (--trace LIST or UPC780_TRACE), free when
 *     off.
 *  3. Pool telemetry: per-job and aggregate wall-clock/throughput,
 *     plus a Chrome-trace-event timeline loadable in Perfetto.
 *
 * Usage: observability_demo [--jobs N] [--trace LIST]
 *                           [--stats-json PATH] [--perfetto PATH]
 */

#include <cstdio>
#include <string>

#include "cpu/cpu.hh"
#include "driver/sim_pool.hh"
#include "support/interrupt.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "workload/experiments.hh"

using namespace vax;

int
main(int argc, char **argv)
{
    std::optional<unsigned> jobs;
    std::string stats_path, perfetto_path;
    cli::CommandLine(
        "Tour the stats registry, the trace channels and the pool "
        "telemetry on\none composite run.",
        {jobsFlag(&jobs), trace::flag(),
         cli::text("--stats-json", "PATH",
                   "write the composite stats registry as JSON",
                   &stats_path),
         cli::text("--perfetto", "PATH",
                   "write the job timeline as a Chrome trace",
                   &perfetto_path)},
        "Cycles per experiment come from UPC780_CYCLES (default 500000).")
        .parse(&argc, argv);

    SimPool pool(jobs.value_or(envJobs()));
    uint64_t cycles = benchCycles(500'000);
    std::printf("upc780 observability demo "
                "(%llu cycles per experiment)\n\n",
                (unsigned long long)cycles);

    // ---- 1+3. A pooled composite with telemetry. ----
    interrupt::install();
    pool.setProgress(true); // heartbeat on stderr as jobs finish
    std::vector<SimJob> job_list = compositeJobs(cycles);
    std::vector<ExperimentResult> results = pool.run(job_list);

    PoolTelemetry tele = computeTelemetry(results);
    std::printf("pool (%u workers): %s\n", pool.workers(),
                tele.summary().c_str());
    for (const auto &j : tele.jobs) {
        std::printf("  %-22s worker %u  +%6.2fs  %6.2fs wall  "
                    "%6.1f kIPS%s\n",
                    j.name.c_str(), j.worker, j.startSeconds,
                    j.wallSeconds,
                    j.wallSeconds > 0
                        ? j.instructions / j.wallSeconds / 1e3
                        : 0.0,
                    j.failed          ? "  FAILED"
                    : j.interrupted ? "  INTERRUPTED"
                                    : "");
    }
    if (interrupt::requested())
        return interrupt::reportInterrupted(
            "telemetry above is partial", tele.interruptedJobs, false);

    CompositeResult comp = mergeComposite(job_list, std::move(results));

    // ---- 2. The registry over the composite. ----
    stats::Registry reg;
    registerCompositeStats(reg, comp);
    std::printf("\nregistry: %zu stats; a few of them:\n",
                reg.size());
    for (const char *name :
         {"composite.cycles", "composite.instructions",
          "composite.cache.readMissesD", "composite.tb.missesD",
          "composite.upc.stallFraction"}) {
        const auto *s = reg.find(name);
        if (s)
            std::printf("  %-32s %s\n", name,
                        stats::formatValue(*s).c_str());
    }

    // A demo that claims to have written a file the caller cannot
    // find is worse than one that fails loudly: I/O failures here
    // propagate to a non-zero exit.
    if (!stats_path.empty()) {
        if (!reg.saveJson(stats_path)) {
            std::fprintf(stderr,
                         "error: cannot write stats JSON to '%s'\n",
                         stats_path.c_str());
            return 1;
        }
        std::printf("wrote stats JSON: %s\n", stats_path.c_str());
    }
    if (!perfetto_path.empty()) {
        if (!writeChromeTrace(perfetto_path, comp.parts)) {
            std::fprintf(stderr,
                         "error: cannot write Perfetto trace to "
                         "'%s'\n",
                         perfetto_path.c_str());
            return 1;
        }
        std::printf("wrote Perfetto timeline: %s "
                    "(load at ui.perfetto.dev)\n",
                    perfetto_path.c_str());
    }

    // ---- A taste of the trace channels, self-enabled. ----
    if (!trace::anyEnabled()) {
        std::printf("\ntrace channels (first lines of 'cache,tb' on "
                    "a fresh machine; use --trace to pick your "
                    "own):\n");
        trace::BufferSink buf;
        {
            trace::ScopedSink scoped(&buf);
            trace::enableList("cache,tb");
            ExperimentResult r =
                runExperiment(allProfiles()[0], 20'000);
            trace::disableAll();
        }
        // Print the first few captured lines.
        const std::string &text = buf.text();
        size_t pos = 0;
        for (int line = 0; line < 8 && pos < text.size(); ++line) {
            size_t nl = text.find('\n', pos);
            if (nl == std::string::npos)
                break;
            std::printf("  %.*s\n", int(nl - pos), text.c_str() + pos);
            pos = nl + 1;
        }
    }
    return 0;
}
