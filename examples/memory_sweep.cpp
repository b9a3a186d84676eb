/**
 * @file
 * What-if study the paper's data enables: re-run the measurement with
 * different cache and translation-buffer geometries and watch the
 * per-instruction timing respond.  (The 1984 authors fed their
 * measured flush intervals into exactly this kind of simulation --
 * §3.4 and reference [3].)
 *
 * Usage: memory_sweep [--jobs N] [cycles]
 *   The variants run concurrently on a SimPool; --jobs (or
 *   UPC780_JOBS) caps the worker count, default one per core.
 */

#include <cstdio>

#include "cpu/cpu.hh"
#include "driver/sim_pool.hh"
#include "support/parse.hh"
#include "support/table.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "workload/experiments.hh"

using namespace vax;

namespace
{

struct Variant
{
    const char *name;
    uint32_t cacheBytes;
    uint32_t tbEntries; ///< per half
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::optional<unsigned> jobs;
    uint64_t cycles = 1'000'000;
    cli::CommandLine("Re-run 'timesharing-heavy' under five cache and TB "
                     "geometries,\none pooled job each.",
                     {jobsFlag(&jobs),
                      cli::count("cycles", "",
                                 "cycles per geometry (default 1000000)",
                                 &cycles, 1, UINT64_MAX)})
        .parse(&argc, argv);
    static const Variant variants[] = {
        {"2 KB cache / 32-entry TB", 2 << 10, 32},
        {"4 KB cache / 64-entry TB", 4 << 10, 64},
        {"8 KB cache / 64-entry TB (the 11/780)", 8 << 10, 64},
        {"16 KB cache / 128-entry TB", 16 << 10, 128},
        {"64 KB cache / 256-entry TB", 64 << 10, 256},
    };

    WorkloadProfile prof = timesharingHeavyProfile();
    SimPool pool(jobs.value_or(envJobs()));
    std::printf("sweeping memory geometry under '%s' "
                "(%llu cycles each, %u worker threads)\n\n",
                prof.name.c_str(), (unsigned long long)cycles,
                pool.workers());

    // Each geometry is one independent job; the pool runs them on
    // all cores and returns results in variant order.
    std::vector<SimJob> sweep;
    for (const auto &v : variants) {
        SimConfig sim;
        sim.mem.cacheBytes = v.cacheBytes;
        sim.mem.tbProcessEntries = v.tbEntries;
        sim.mem.tbSystemEntries = v.tbEntries;
        sim.seed = prof.seed;
        sweep.push_back(SimJob::forProfile(prof, cycles, sim));
    }
    std::vector<ExperimentResult> results = pool.run(sweep);

    TextTable t("CPI sensitivity to the memory system");
    t.addRow({"Configuration", "CPI", "R-Stall/instr", "IB-Stall",
              "TB miss/instr", "TB svc cyc"});
    for (size_t i = 0; i < sweep.size(); ++i) {
        HistogramAnalyzer an(microcodeRom(), results[i].hist);
        t.addRow({variants[i].name,
                  TextTable::num(an.cyclesPerInstruction(), 2),
                  TextTable::num(an.colTotal(TimeCol::RStall), 3),
                  TextTable::num(an.colTotal(TimeCol::IbStall), 3),
                  TextTable::num(an.tbMissPerInstr(), 4),
                  TextTable::num(an.tbServiceCyclesPerMiss(), 1)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("Expected shape: stalls and TB misses shrink "
                "monotonically as the memory system grows;\n"
                "the 11/780 point should reproduce the composite "
                "numbers of the benches.\n");
    return 0;
}
