/**
 * @file
 * One-shot paper reproduction: run the five-workload composite once
 * and print every table the paper reports, from the same histogram --
 * the "general resource" workflow of the paper's conclusion.
 *
 * Usage: full_report [--jobs N] [--trace LIST] [--stats-json PATH]
 *                    [--faults SPEC] [--strict] [--selfcheck]
 *                    [cycles-per-experiment]
 */

#include <cstdio>
#include <cstdlib>

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
#include "upc/selfcheck.hh"
#include "workload/experiments.hh"

using namespace vax;

namespace
{

void
usage(const char *prog, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [options] [cycles-per-experiment]\n"
        "  --jobs N           worker threads, 0 = one per core"
        " (also UPC780_JOBS)\n"
        "  --trace LIST       trace channels, e.g. cache,fault"
        " (also UPC780_TRACE)\n"
        "  --stats-json PATH  write the composite stats registry as"
        " JSON\n"
        "  --faults SPEC      deterministic fault injection"
        " (also UPC780_FAULTS)\n"
        "  --strict           fail fast on the first job error"
        " (also UPC780_STRICT)\n"
        "  --selfcheck        verify accounting identities after the"
        " run\n"
        "  --watchdog-cycles N\n"
        "                     forward-progress watchdog window per"
        " job\n"
        "  --job-timeout S    wall-clock budget per job in seconds\n"
        "  --help             this message\n",
        prog);
}

void
printTable1(const HistogramAnalyzer &an)
{
    std::printf("--- Table 1: opcode group frequency ---\n");
    for (unsigned g = 0; g < static_cast<unsigned>(Group::NumGroups);
         ++g) {
        std::printf("  %-10s %6.2f%%\n",
                    groupName(static_cast<Group>(g)),
                    100.0 * an.groupFraction(static_cast<Group>(g)));
    }
}

void
printTable2(const HistogramAnalyzer &an)
{
    std::printf("--- Table 2: PC-changing instructions ---\n");
    double tot_f = 0, tot_a = 0;
    for (unsigned k = 1;
         k < static_cast<unsigned>(PcChangeKind::NumKinds); ++k) {
        PcChangeKind kind = static_cast<PcChangeKind>(k);
        double f = 100.0 * an.pcChangeFraction(kind);
        double t = 100.0 * an.takenFraction(kind);
        tot_f += f;
        tot_a += f * t / 100.0;
        std::printf("  %-24s %5.1f%%  taken %3.0f%%\n",
                    pcChangeKindName(kind), f, t);
    }
    std::printf("  %-24s %5.1f%%  actual branches %4.1f%%\n", "TOTAL",
                tot_f, tot_a);
}

void
printTable3(const HistogramAnalyzer &an)
{
    std::printf("--- Table 3: specifiers per instruction ---\n");
    std::printf("  first %.3f   other %.3f   branch disp %.3f\n",
                an.spec1PerInstr(), an.spec26PerInstr(),
                an.bdispPerInstr());
}

void
printTable4(const HistogramAnalyzer &an)
{
    std::printf("--- Table 4: specifier distribution (total) ---\n");
    for (unsigned c = 0;
         c < static_cast<unsigned>(SpecCategory::NumCategories);
         ++c) {
        SpecCategory cat = static_cast<SpecCategory>(c);
        std::printf("  %-26s %5.1f%%\n", specCategoryName(cat),
                    100.0 * an.specCategoryFraction(cat, 2));
    }
    std::printf("  %-26s %5.1f%%\n", "percent indexed",
                100.0 * an.indexedFraction(2));
}

void
printTables57(const HistogramAnalyzer &an)
{
    std::printf("--- Table 5: memory operations ---\n");
    std::printf("  reads %.3f/instr, writes %.3f/instr "
                "(ratio %.2f:1), unaligned %.4f\n",
                an.totalReadsPerInstr(), an.totalWritesPerInstr(),
                an.totalReadsPerInstr() /
                    (an.totalWritesPerInstr() > 0
                         ? an.totalWritesPerInstr() : 1.0),
                an.unalignedPerInstr());
    std::printf("--- Table 7: headways ---\n");
    std::printf("  sw-int requests 1/%.0f, interrupts 1/%.0f, "
                "context switches 1/%.0f\n",
                an.headwaySwIntRequests(), an.headwayInterrupts(),
                an.headwayContextSwitches());
}

void
printTable8(const HistogramAnalyzer &an)
{
    std::printf("--- Table 8: cycles per average instruction ---\n");
    std::printf("  %-12s", "");
    for (unsigned c = 0;
         c < static_cast<unsigned>(TimeCol::NumCols); ++c)
        std::printf("%9s", timeColName(static_cast<TimeCol>(c)));
    std::printf("%9s\n", "Total");
    for (unsigned r = 0; r < static_cast<unsigned>(Row::NumRows);
         ++r) {
        Row row = static_cast<Row>(r);
        std::printf("  %-12s", rowName(row));
        for (unsigned c = 0;
             c < static_cast<unsigned>(TimeCol::NumCols); ++c)
            std::printf("%9.3f",
                        an.cell(row, static_cast<TimeCol>(c)));
        std::printf("%9.3f\n", an.rowTotal(row));
    }
    std::printf("  %-12s", "TOTAL");
    for (unsigned c = 0;
         c < static_cast<unsigned>(TimeCol::NumCols); ++c)
        std::printf("%9.3f", an.colTotal(static_cast<TimeCol>(c)));
    std::printf("%9.3f\n", an.cyclesPerInstruction());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (parseBoolFlag(&argc, argv, "help")) {
        usage(argv[0], stdout);
        return 0;
    }
    trace::parseTraceFlag(&argc, argv);
    unsigned jobs = parseJobsFlag(&argc, argv, envJobs());
    std::string stats_path = stats::parseStatsJsonFlag(&argc, argv);
    FaultConfig faults = FaultConfig::parseFlag(&argc, argv);
    RunLimits limits = parseLimitsFlags(&argc, argv);
    bool strict = parseBoolFlag(&argc, argv, "strict");
    bool selfcheck = parseBoolFlag(&argc, argv, "selfcheck");

    // One optional positional operand: the cycle budget.  Anything
    // else is a typo -- refuse to guess.
    uint64_t cycles = 2'000'000;
    if (argc > 2) {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n\n",
                     argv[0], argv[2]);
        usage(argv[0], stderr);
        return 2;
    }
    if (argc == 2) {
        std::optional<uint64_t> v = parseCount(argv[1], UINT64_MAX);
        if (!v || !*v) {
            std::fprintf(stderr,
                         "%s: bad cycle count '%s'\n\n", argv[0],
                         argv[1]);
            usage(argv[0], stderr);
            return 2;
        }
        cycles = *v;
    }
    std::printf("upc780 full paper reproduction "
                "(%llu cycles per experiment)\n\n",
                (unsigned long long)cycles);

    interrupt::install();
    SimPool pool(jobs);
    if (strict)
        pool.setStrict(true);
    std::vector<SimJob> job_list = compositeJobs(cycles);
    for (SimJob &j : job_list) {
        if (faults.enabled())
            j.sim.mem.faults = faults;
        if (limits.watchdogCycles)
            j.limits.watchdogCycles = limits.watchdogCycles;
        if (limits.timeoutSeconds > 0.0)
            j.limits.timeoutSeconds = limits.timeoutSeconds;
    }
    CompositeResult comp = pool.runComposite(job_list);
    if (interrupt::requested()) {
        // The tables below would be computed from a partial merge;
        // print the loud marker instead of numbers that look like a
        // finished reproduction.
        PoolTelemetry tele = computeTelemetry(comp.parts);
        std::printf("pool: %s\n", tele.summary().c_str());
        return interrupt::reportInterrupted("report abandoned",
                                            tele.interruptedJobs,
                                            false);
    }
    HistogramAnalyzer an(microcodeRom(), comp.hist);

    std::printf("composite: %llu instructions, %.2f cycles/instr, "
                "%.2f simulated seconds\n\n",
                (unsigned long long)an.instructions(),
                an.cyclesPerInstruction(),
                5.0 * cycles * 200e-9);

    printTable1(an);
    printTable2(an);
    printTable3(an);
    printTable4(an);
    printTables57(an);
    printTable8(an);

    std::printf("\n--- Section 4: implementation events ---\n");
    double instr = static_cast<double>(an.instructions());
    std::printf("  TB misses %.4f/instr (%.1f cycles each, %.1f "
                "stall); cache read misses %.3f/instr;\n"
                "  IB refs %.2f/instr\n",
                an.tbMissPerInstr(), an.tbServiceCyclesPerMiss(),
                an.tbServiceStallPerMiss(),
                (comp.hw.cache.readMissesI +
                 comp.hw.cache.readMissesD) / instr,
                comp.hw.ibLongwordFetches / instr);

    // The static verifier runs over the same control store the
    // analyzer classifies with; its findings ride along in the
    // selfcheck output and (when any exist) the stats dump.
    LintReport lint = lintControlStore(microcodeRom());

    if (selfcheck) {
        SelfCheckReport rep = selfCheckComposite(microcodeRom(), comp);
        std::printf("\n%s\n", rep.summary().c_str());
        if (lint.clean()) {
            std::printf("static verifier: clean (%zu microwords, "
                        "%zu reachable)\n",
                        lint.words, lint.reachable);
        } else {
            std::printf("static verifier: %zu diagnostic(s)\n%s",
                        lint.diags.size(), lint.text().c_str());
        }
        if (!rep.ok() || !lint.clean())
            return 1;
    }

    if (!stats_path.empty()) {
        stats::Registry reg;
        registerCompositeStats(reg, comp);
        regLintStats(lint, reg);
        if (!reg.saveJson(stats_path)) {
            std::fprintf(stderr,
                         "error: cannot write stats JSON to '%s'\n",
                         stats_path.c_str());
            return 1;
        }
        std::printf("\nstats: wrote %zu stats to %s\n", reg.size(),
                    stats_path.c_str());
    }
    return 0;
}
