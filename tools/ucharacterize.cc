/**
 * @file
 * ucharacterize -- generate and run the per-opcode x specifier-mode
 * characterization suite, and publish the table.
 *
 * Every implemented opcode is crossed with every legal specifier
 * class, each cell runs as a steady-state microbenchmark through the
 * UPC monitor, and the per-instruction metrics (cycles, microwords,
 * stall anatomy, throughput) are printed as text (default), CSV or
 * JSON.  The JSON form is the committed-baseline format consumed by
 * uchar_compare; all three forms are byte-identical for a given
 * corpus regardless of --jobs.
 */

#include <cstdio>
#include <string>

#include "driver/sim_pool.hh"
#include "support/parse.hh"
#include "support/stats.hh"
#include "upc/ucharacterize.hh"
#include "workload/uchar_corpus.hh"

int
main(int argc, char **argv)
{
    using namespace vax;

    bool json = false, csv = false, smoke = false;
    std::optional<unsigned> jobs;
    std::string statsPath, out_path;
    uint32_t iters = 0, unroll = 0; // 0: not given
    UcharParams params;
    UcharSuiteOptions opts;
    cli::CommandLine cl(
        "Run the per-opcode x specifier-mode characterization suite.",
        {cli::flag("--json", "emit the report as JSON (baseline format)",
                   &json),
         cli::flag("--csv", "emit the report as CSV", &csv),
         cli::text("--out", "FILE",
                   "write the report to FILE instead of stdout",
                   &out_path),
         jobsFlag(&jobs, "worker threads (0 = one per core; output\n"
                         "is byte-identical at any worker count)"),
         cli::text("--opcode", "LIST",
                   "only the comma-separated mnemonics",
                   &opts.opcodeFilter),
         cli::flag("--smoke",
                   "small corpus (a fixed opcode subset) with\n"
                   "a short loop -- the ctest smoke entry",
                   &smoke),
         cli::count("--iters", "N",
                    "steady-state loop iterations (default 16)", &iters,
                    1, UINT32_MAX),
         cli::count("--unroll", "N", "copies per iteration (default 8)",
                    &unroll, 1, UINT32_MAX),
         cli::text("--stats-json", "FILE",
                   "also dump suite stats (uchar.* registry)",
                   &statsPath)});
    cl.parse(&argc, argv);
    if (json && csv)
        cl.fail("pick one of --json / --csv");
    if (smoke) {
        params.iters = 4;
        if (opts.opcodeFilter.empty())
            opts.opcodeFilter = "MOVL,ADDL3,CMPB,JMP,CALLS,RET,"
                                "SOBGTR,EXTV,MULF2,MOVC3,ADDP4,"
                                "INSQUE,MTPR";
    }
    if (iters)
        params.iters = iters;
    if (unroll)
        params.unroll = unroll;

    SimPool pool(jobs.value_or(envJobs()));
    ParallelFor pf = [&pool](size_t n,
                             const std::function<void(size_t)> &fn) {
        pool.forEach(n, fn);
    };
    UcharReport rep = runUcharSuite(params, pf, opts);

    std::string text = json ? ucharJson(rep)
        : csv             ? ucharCsv(rep)
                          : ucharText(rep);
    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        bool ok = f && std::fputs(text.c_str(), f) >= 0;
        if (f && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                         out_path.c_str());
            return 1;
        }
    }

    if (!statsPath.empty()) {
        stats::Registry reg;
        regUcharStats(reg, "uchar.", rep);
        if (!reg.saveJson(statsPath))
            return 1;
    }
    return 0;
}
