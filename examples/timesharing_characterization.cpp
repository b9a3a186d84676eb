/**
 * @file
 * The paper's experiment in miniature: boot VMS-lite with a
 * timesharing workload, let the RTE drive the terminals, and print
 * the Table 8 timing decomposition -- for one workload, or for the
 * full five-workload composite run in parallel on a SimPool.
 *
 * Usage: timesharing_characterization [--jobs N] [cycles]
 *                                     [profile 0-4 | all]
 *   "all" runs the paper's five-workload composite, one job per
 *   workload, on up to N worker threads (default: one per core;
 *   UPC780_JOBS also sets it).
 */

#include <cstdio>
#include <optional>
#include <string>

#include "driver/sim_pool.hh"
#include "support/parse.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/paper.hh"
#include "workload/experiments.hh"

using namespace vax;

int
main(int argc, char **argv)
{
    // "all" is the paper's composite; a profile number runs that
    // workload alone, as a composite of one.
    auto profiles = allProfiles();
    std::optional<unsigned> jobs;
    uint64_t cycles = 2'000'000;
    uint64_t which = 0;
    bool all = false;
    cli::CommandLine(
        "Run one workload, or the five-workload composite, and print "
        "its Table 8.",
        {jobsFlag(&jobs),
         cli::count("cycles", "", "cycles per workload (default 2000000)",
                    &cycles, 1, UINT64_MAX),
         cli::handler("profile", "",
                      "workload profile index 0-4, or all for the\n"
                      "composite (default 0)",
                      [&](const std::string &v) {
                          std::optional<uint64_t> n =
                              parseCount(v, profiles.size() - 1);
                          all = v == "all";
                          which = n.value_or(0);
                          return all || n ? std::string()
                                          : "'" + v + "' is neither a "
                                            "profile index nor all";
                      })})
        .parse(&argc, argv);

    SimPool pool(jobs.value_or(envJobs()));
    std::vector<SimJob> job_list;
    if (all) {
        std::printf("characterizing the five-workload composite "
                    "(%llu cycles each, %u worker threads)\n\n",
                    (unsigned long long)cycles, pool.workers());
        job_list = compositeJobs(cycles);
    } else {
        const WorkloadProfile &prof = profiles[which];
        std::printf("characterizing '%s' (%u simulated users, "
                    "%llu cycles = %.2f simulated seconds)\n\n",
                    prof.name.c_str(), prof.numUsers,
                    (unsigned long long)cycles, cycles * 200e-9);
        job_list.push_back(SimJob::forProfile(prof, cycles));
    }
    CompositeResult comp = pool.runComposite(job_list);
    for (const auto &part : comp.parts) {
        std::printf("  %-22s lines in/out %llu/%llu   %6.2fs wall\n",
                    part.name.c_str(),
                    (unsigned long long)part.hw.terminalLinesIn,
                    (unsigned long long)part.hw.terminalLinesOut,
                    part.wallSeconds);
    }
    HistogramAnalyzer an(microcodeRom(), comp.hist);
    std::printf("\ninstructions: %llu  cycles/instruction: %.2f\n\n",
                (unsigned long long)an.instructions(),
                an.cyclesPerInstruction());
    std::fputs(paper::kTable8Render.render(an, comp).c_str(), stdout);
    return 0;
}
