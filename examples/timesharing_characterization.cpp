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
#include <cstring>

#include "driver/sim_pool.hh"
#include "support/parse.hh"
#include "support/table.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "workload/experiments.hh"

using namespace vax;

namespace
{

void
printTable8(const HistogramAnalyzer &an)
{
    TextTable t("Cycles per average instruction");
    t.addRow({"Activity", "Compute", "Read", "R-Stall", "Write",
              "W-Stall", "IB-Stall", "Total"});
    for (unsigned i = 0; i < static_cast<unsigned>(Row::NumRows);
         ++i) {
        Row row = static_cast<Row>(i);
        std::vector<std::string> line{rowName(row)};
        for (unsigned c = 0;
             c < static_cast<unsigned>(TimeCol::NumCols); ++c) {
            line.push_back(TextTable::num(
                an.cell(row, static_cast<TimeCol>(c)), 3));
        }
        line.push_back(TextTable::num(an.rowTotal(row), 3));
        t.addRow(line);
    }
    t.rule();
    std::vector<std::string> total{"TOTAL"};
    for (unsigned c = 0; c < static_cast<unsigned>(TimeCol::NumCols);
         ++c) {
        total.push_back(TextTable::num(
            an.colTotal(static_cast<TimeCol>(c)), 3));
    }
    total.push_back(TextTable::num(an.cyclesPerInstruction(), 3));
    t.addRow(total);
    std::printf("%s\n", t.str().c_str());

    std::printf("group mix: ");
    for (unsigned g = 0; g < static_cast<unsigned>(Group::NumGroups);
         ++g) {
        std::printf("%s %.1f%%  ", groupName(static_cast<Group>(g)),
                    100.0 * an.groupFraction(static_cast<Group>(g)));
    }
    std::printf("\n");
}

int
usageError(const char *prog, const char *what, const char *arg)
{
    std::fprintf(stderr,
                 "%s: %s '%s'\n\n"
                 "usage: %s [--jobs N] [cycles] [profile 0-4 | all]\n",
                 prog, what, arg, prog);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    unsigned jobs = parseJobsFlag(&argc, argv, envJobs());
    if (argc > 3)
        return usageError(argv[0], "unrecognized argument", argv[3]);
    uint64_t cycles = 2'000'000;
    if (argc > 1) {
        std::optional<uint64_t> v = parseCount(argv[1], UINT64_MAX);
        if (!v || !*v)
            return usageError(argv[0], "bad cycle count", argv[1]);
        cycles = *v;
    }
    const char *which_arg = argc > 2 ? argv[2] : "0";

    if (std::strcmp(which_arg, "all") == 0) {
        SimPool pool(jobs);
        std::printf("characterizing the five-workload composite "
                    "(%llu cycles each, %u worker threads)\n\n",
                    (unsigned long long)cycles, pool.workers());
        CompositeResult comp =
            pool.runComposite(compositeJobs(cycles));
        for (const auto &part : comp.parts) {
            std::printf("  %-22s lines in/out %llu/%llu   "
                        "%6.2fs wall\n",
                        part.name.c_str(),
                        (unsigned long long)part.hw.terminalLinesIn,
                        (unsigned long long)part.hw.terminalLinesOut,
                        part.wallSeconds);
        }
        HistogramAnalyzer an(microcodeRom(), comp.hist);
        std::printf("\ninstructions: %llu  cycles/instruction: "
                    "%.2f\n\n",
                    (unsigned long long)an.instructions(),
                    an.cyclesPerInstruction());
        printTable8(an);
        return 0;
    }

    auto profiles = allProfiles();
    std::optional<uint64_t> which =
        parseCount(which_arg, profiles.size() - 1);
    if (!which)
        return usageError(argv[0], "bad profile", which_arg);
    const WorkloadProfile &prof = profiles[*which];

    std::printf("characterizing '%s' (%u simulated users, "
                "%llu cycles = %.2f simulated seconds)\n\n",
                prof.name.c_str(), prof.numUsers,
                (unsigned long long)cycles, cycles * 200e-9);

    ExperimentResult r = runJob(SimJob::forProfile(prof, cycles));
    HistogramAnalyzer an(microcodeRom(), r.hist);

    std::printf("instructions: %llu  cycles/instruction: %.2f  "
                "(%.2fs wall)\n",
                (unsigned long long)an.instructions(),
                an.cyclesPerInstruction(), r.wallSeconds);
    std::printf("terminal lines in/out: %llu / %llu\n\n",
                (unsigned long long)r.hw.terminalLinesIn,
                (unsigned long long)r.hw.terminalLinesOut);

    printTable8(an);
    return 0;
}
