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
#include <cstdlib>

#include "support/parse.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "workload/experiments.hh"

using namespace vax;

namespace
{

void
printUsage(const char *prog, std::FILE *out, size_t nprofiles)
{
    std::fprintf(out,
                 "usage: %s [cycles] [profile 0-%zu] [topN]\n"
                 "  cycles   simulated cycles to profile (default "
                 "1000000)\n"
                 "  profile  workload profile index (default 2)\n"
                 "  topN     hottest locations to print (default "
                 "24)\n",
                 prog, nprofiles - 1);
}

/** Strict non-negative integer (parseCount); usage + exit(2) on
 *  garbage. */
uint64_t
countArg(const char *prog, const char *what, const char *s,
         size_t nprofiles)
{
    std::optional<uint64_t> v = parseCount(s, UINT64_MAX);
    if (!v) {
        std::fprintf(stderr, "%s: bad %s '%s' (non-negative "
                             "integer expected)\n\n",
                     prog, what, s);
        printUsage(prog, stderr, nprofiles);
        std::exit(2);
    }
    return *v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    auto profiles = allProfiles();

    if (argc > 4) {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n\n",
                     argv[0], argv[4]);
        printUsage(argv[0], stderr, profiles.size());
        return 2;
    }

    uint64_t cycles = argc > 1
        ? countArg(argv[0], "cycles", argv[1], profiles.size())
        : 1'000'000;
    uint64_t which = argc > 2
        ? countArg(argv[0], "profile", argv[2], profiles.size())
        : 2; // educational
    size_t topn = argc > 3
        ? static_cast<size_t>(
              countArg(argv[0], "topN", argv[3], profiles.size()))
        : 24;

    if (cycles == 0 || topn == 0) {
        std::fprintf(stderr, "%s: cycles and topN must be "
                             "positive\n\n", argv[0]);
        printUsage(argv[0], stderr, profiles.size());
        return 2;
    }
    if (which >= profiles.size()) {
        std::fprintf(stderr, "%s: profile %llu out of range "
                             "(0-%zu)\n\n",
                     argv[0], (unsigned long long)which,
                     profiles.size() - 1);
        printUsage(argv[0], stderr, profiles.size());
        return 2;
    }

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
