/**
 * @file
 * The histogram as a database (the paper's concluding point): collect
 * once, save the raw counts, and answer new questions later without
 * re-running the workload.
 *
 * Usage: histogram_database [cycles] [csv-path]
 *   With an existing CSV produced earlier, analyses it instead of
 *   running a new measurement.  An existing file that does not load
 *   is an error (exit 1), and is left as it was.
 */

#include <cstdio>
#include <filesystem>

#include "support/parse.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/hist_io.hh"
#include "workload/experiments.hh"

using namespace vax;

namespace
{

int
usageError(const char *prog, const char *what, const char *arg)
{
    std::fprintf(stderr, "%s: %s '%s'\n\nusage: %s [cycles] [csv-path]\n",
                 prog, what, arg, prog);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 3)
        return usageError(argv[0], "unrecognized argument", argv[3]);
    uint64_t cycles = 1'000'000;
    if (argc > 1) {
        std::optional<uint64_t> v = parseCount(argv[1], UINT64_MAX);
        if (!v || !*v)
            return usageError(argv[0], "bad cycle count", argv[1]);
        cycles = *v;
    }
    const char *path = argc > 2 ? argv[2] : "upc780_histogram.csv";

    Histogram hist;

    if (argc > 2 && std::filesystem::exists(path)) {
        // The file was named to be read: one that does not load is
        // reported, never replaced by a fresh measurement.
        if (!loadHistogramCsv(path, &hist) || !hist.cycles()) {
            std::fprintf(stderr, "%s: '%s' holds no histogram; left as "
                         "it is\n", argv[0], path);
            return 1;
        }
        std::printf("loaded existing histogram '%s' (%llu cycles)\n",
                    path, (unsigned long long)hist.cycles());
    } else {
        std::printf("measuring 'commercial' for %llu cycles...\n",
                    (unsigned long long)cycles);
        ExperimentResult r = runExperiment(commercialProfile(),
                                           cycles);
        hist = r.hist;
        if (saveHistogramCsv(path, hist, microcodeRom()))
            std::printf("saved raw histogram to '%s'\n", path);
    }

    // "Additional interpretation of the raw histogram data": three
    // different questions against the same counts.
    HistogramAnalyzer an(microcodeRom(), hist);

    std::printf("\nQ1: how fast is the machine?\n");
    std::printf("    %.2f cycles/instruction over %llu "
                "instructions\n",
                an.cyclesPerInstruction(),
                (unsigned long long)an.instructions());

    std::printf("\nQ2: where does decimal arithmetic spend time?\n");
    double f = an.groupFraction(Group::Decimal);
    if (f > 0) {
        std::printf("    %.2f%% of instructions, %.0f cycles per "
                    "member (%.1f%% of all time)\n",
                    100.0 * f,
                    an.rowTotal(Row::ExecDecimal) / f,
                    100.0 * an.rowTotal(Row::ExecDecimal) /
                        an.cyclesPerInstruction());
    }

    std::printf("\nQ3: what would a perfect TB buy?\n");
    double mm = an.rowTotal(Row::MemMgmt);
    std::printf("    TB-miss service costs %.3f cycles/instr; "
                "removing it entirely -> %.2f CPI (%.1f%% faster)\n",
                mm, an.cyclesPerInstruction() - mm,
                100.0 * mm / (an.cyclesPerInstruction() - mm));

    // Round-trip integrity check.
    Histogram reloaded;
    if (saveHistogramCsv(path, hist, microcodeRom()) &&
        loadHistogramCsv(path, &reloaded)) {
        HistogramAnalyzer an2(microcodeRom(), reloaded);
        std::printf("\nCSV round trip: %llu cycles preserved (%s)\n",
                    (unsigned long long)reloaded.cycles(),
                    reloaded.cycles() == hist.cycles() ? "ok"
                                                       : "MISMATCH");
    }
    return 0;
}
