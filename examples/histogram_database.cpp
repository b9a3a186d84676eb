/**
 * @file
 * The histogram as a database (the paper's concluding point): collect
 * once, save the raw counts, and answer new questions later without
 * re-running the workload.
 *
 * Usage: histogram_database [cycles] [csv-path]
 *   Named as csv-path, an existing CSV produced earlier is analysed
 *   instead of running a new measurement.  An existing file that does
 *   not load is an error (exit 1), and is left as it was; a file that
 *   loads is never rewritten.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include <unistd.h>

#include "support/parse.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/hist_io.hh"
#include "workload/experiments.hh"

using namespace vax;

int
main(int argc, char **argv)
{
    uint64_t cycles = 1'000'000;
    std::optional<std::string> named;
    cli::CommandLine(
        "Measure 'commercial' once, save the raw histogram as CSV, and "
        "answer\nthree questions from the counts alone.",
        {cli::count("cycles", "", "cycles to measure (default 1000000)",
                    &cycles, 1, UINT64_MAX),
         cli::text("csv-path", "",
                   "histogram CSV to write (default\n"
                   "upc780_histogram.csv); a named one that exists "
                   "is\nanalysed instead, and one that does not load "
                   "is an\nerror (exit 1) and is left as it was",
                   &named)})
        .parse(&argc, argv);
    const std::string path = named.value_or("upc780_histogram.csv");

    Histogram hist;

    if (named && std::filesystem::exists(path)) {
        // The file was named to be read: one that does not load is
        // reported, never replaced by a fresh measurement.
        if (!loadHistogramCsv(path, &hist) || !hist.cycles()) {
            std::fprintf(stderr, "%s: '%s' holds no histogram; left as "
                         "it is\n", argv[0], path.c_str());
            return 1;
        }
        std::printf("loaded existing histogram '%s' (%llu cycles)\n",
                    path.c_str(), (unsigned long long)hist.cycles());
    } else {
        std::printf("measuring 'commercial' for %llu cycles...\n",
                    (unsigned long long)cycles);
        ExperimentResult r = runExperiment(commercialProfile(),
                                           cycles);
        hist = r.hist;
        if (saveHistogramCsv(path, hist, microcodeRom()))
            std::printf("saved raw histogram to '%s'\n", path.c_str());
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

    // Round-trip integrity check, through a scratch file: the CSV the
    // run was asked to analyse is never rewritten.
    std::string scratch =
        (std::filesystem::temp_directory_path() / "upc780_hist_XXXXXX")
            .string();
    int fd = ::mkstemp(scratch.data());
    if (fd >= 0) {
        ::close(fd);
        Histogram reloaded;
        if (saveHistogramCsv(scratch, hist, microcodeRom()) &&
            loadHistogramCsv(scratch, &reloaded))
            std::printf("\nCSV round trip: %llu cycles preserved (%s)\n",
                        (unsigned long long)reloaded.cycles(),
                        reloaded.cycles() == hist.cycles() ? "ok"
                                                           : "MISMATCH");
        std::remove(scratch.c_str());
    }
    return 0;
}
