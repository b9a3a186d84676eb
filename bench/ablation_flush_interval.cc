/**
 * @file
 * Ablation: context-switch (TB flush) interval.
 *
 * Section 3.4 of the paper: "The context-switch figure is useful in
 * setting the 'flush' interval in cache and translation buffer
 * simulations."  LDPCTX invalidates the process half of the TB, so
 * the scheduling quantum directly sets the flush interval.  This
 * sweep shows TB misses and their service cost responding to it --
 * the experiment the measured headway (Table 7) parameterizes.
 */

#include <cstdio>

#include "driver/sim_pool.hh"
#include "support/table.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "workload/experiments.hh"

using namespace vax;

int
main(int argc, char **argv)
{
    std::optional<unsigned> jobs;
    cli::CommandLine("TB flush-interval ablation: the scheduling quantum "
                     "swept under\n'educational'.",
                     {jobsFlag(&jobs)},
                     "Cycles per experiment come from UPC780_CYCLES "
                     "(default 1000000).")
        .parse(&argc, argv);
    SimPool pool(jobs.value_or(envJobs()));
    uint64_t cycles = benchCycles(1'000'000);
    WorkloadProfile prof = educationalProfile();
    std::printf("TB flush-interval ablation under '%s' "
                "(%llu cycles each)\n\n",
                prof.name.c_str(), (unsigned long long)cycles);

    static const uint32_t quanta[] = {1u, 2u, 3u, 6u, 12u};
    std::vector<SimJob> sweep;
    for (uint32_t q : quanta) {
        SimJob job = SimJob::forProfile(prof, cycles);
        job.vms.quantumTicks = q;
        sweep.push_back(job);
    }
    std::vector<ExperimentResult> results = pool.run(sweep);

    TextTable t("Effect of the scheduling quantum (flush interval)");
    t.addRow({"Quantum ticks", "CtxSw headway", "TB miss/instr",
              "MemMgmt cyc/instr", "CPI"});
    for (size_t i = 0; i < sweep.size(); ++i) {
        uint32_t q = quanta[i];
        HistogramAnalyzer an(microcodeRom(), results[i].hist);
        std::string label = std::to_string(q) +
            (q == 4 ? " (default)" : "");
        t.addRow({label,
                  TextTable::num(an.headwayContextSwitches(), 0),
                  TextTable::num(an.tbMissPerInstr(), 4),
                  TextTable::num(an.rowTotal(Row::MemMgmt), 3),
                  TextTable::num(an.cyclesPerInstruction(), 2)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf(
        "Expected shape: CPI falls as the quantum grows (fewer "
        "flushes, fewer context-switch\ncosts), and the shortest "
        "quantum shows the most TB-miss service time -- the\n"
        "dependency the paper's headway figure (Table 7) quantifies "
        "for TB simulations.\nNote: changing the quantum also "
        "changes which code each process executes per slice,\nso "
        "the middle of the miss-rate column carries secondary "
        "scheduling variation.\n");
    return 0;
}
