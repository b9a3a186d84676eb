/**
 * @file
 * The "general resource" use of the UPC histogram the paper's
 * conclusion advertises: the same raw histogram answers many
 * questions.  This example profiles a workload and prints the
 * hottest control-store locations, their activity rows, and how the
 * time at each splits between useful cycles and stalls.
 *
 * Usage: microcode_hotspots [cycles] [profile 0-4] [topN]
 */

#include <cstdio>
#include <string>

#include "support/parse.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "workload/experiments.hh"

using namespace vax;

int
main(int argc, char **argv)
{
    auto profiles = allProfiles();
    uint64_t cycles = 1'000'000;
    uint64_t which = 2; // educational
    size_t topn = 24;
    const std::string profile_help = "workload profile index 0-" +
        std::to_string(profiles.size() - 1) + " (default 2)";
    cli::CommandLine(
        "Profile a workload and print its hottest control-store "
        "locations.",
        {cli::count("cycles", "",
                    "simulated cycles to profile (default 1000000)",
                    &cycles, 1, UINT64_MAX),
         cli::count("profile", "", profile_help.c_str(), &which, 0,
                    profiles.size() - 1),
         cli::count("topN", "", "hottest locations to print (default 24)",
                    &topn, 1, UINT64_MAX)})
        .parse(&argc, argv);

    const WorkloadProfile &prof = profiles[which];
    std::printf("profiling '%s' for %llu cycles...\n\n",
                prof.name.c_str(), (unsigned long long)cycles);

    ExperimentResult r = runExperiment(prof, cycles);
    const ControlStore &cs = microcodeRom();
    HistogramAnalyzer an(cs, r.hist);

    uint64_t total = an.totalCycles();
    std::printf("%-5s %-20s %-10s %9s %9s %6s\n", "uPC", "microword",
                "row", "cycles", "stalled", "%time");
    double cum = 0.0;
    for (const auto &h : an.hottest(topn)) {
        const UAnnotation &ann = cs.annotation(h.addr);
        uint64_t stalled = r.hist.stalled[h.addr];
        double pct = 100.0 * h.cycles / total;
        cum += pct;
        std::printf("%-5u %-20s %-10s %9llu %9llu %5.1f%%\n", h.addr,
                    h.name, rowName(ann.row),
                    (unsigned long long)h.cycles,
                    (unsigned long long)stalled, pct);
    }
    std::printf("\ntop %zu locations cover %.1f%% of all cycles "
                "(control store holds %u microwords).\n",
                topn, cum, cs.size());

    std::printf("\ninterpretation hints (as the paper's analysts "
                "had):\n"
                "  IID is the once-per-instruction decode cycle; its "
                "stalled count is Decode-row IB stall.\n"
                "  SPECn.* words are operand-specifier flows; their "
                "stalled counts are operand read stalls.\n"
                "  MM.* words are the TB-miss service; their entry "
                "counts are the TB miss rate.\n");
    return 0;
}
