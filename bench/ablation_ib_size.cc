/**
 * @file
 * Ablation: instruction-buffer size.
 *
 * The 8-byte IB is an implementation choice (Section 4.1 stresses that
 * IB referencing behaviour is implementation-specific).  Sweeping its
 * size shows how IB stalls and IB cache traffic respond: a small
 * buffer starves decode; a large one mostly buys fewer repeated
 * references to the same longword.
 */

#include <cstdio>

#include "cpu/cpu.hh"
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
    cli::CommandLine("Instruction-buffer size ablation: the IB swept from "
                     "4 to 16\nbytes under 'timesharing-heavy'.",
                     {jobsFlag(&jobs)},
                     "Cycles per experiment come from UPC780_CYCLES "
                     "(default 1000000).")
        .parse(&argc, argv);
    SimPool pool(jobs.value_or(envJobs()));
    uint64_t cycles = benchCycles(1'000'000);
    WorkloadProfile prof = timesharingHeavyProfile();
    std::printf("instruction-buffer size ablation under '%s' "
                "(%llu cycles each)\n\n",
                prof.name.c_str(), (unsigned long long)cycles);

    static const unsigned sizes[] = {4u, 6u, 8u, 12u, 16u};
    std::vector<SimJob> sweep;
    for (unsigned bytes : sizes) {
        SimConfig sim;
        sim.ibBytes = bytes;
        sim.seed = prof.seed;
        sweep.push_back(SimJob::forProfile(prof, cycles, sim));
    }
    std::vector<ExperimentResult> results = pool.run(sweep);

    TextTable t("Effect of the IB size");
    t.addRow({"IB bytes", "CPI", "IB-Stall/instr", "Decode IB-Stall",
              "IB refs/instr"});
    for (size_t i = 0; i < sweep.size(); ++i) {
        unsigned bytes = sizes[i];
        const ExperimentResult &r = results[i];
        HistogramAnalyzer an(microcodeRom(), r.hist);
        double refs = static_cast<double>(r.hw.ibLongwordFetches) /
            r.hw.counters.instructions;
        std::string label = std::to_string(bytes) +
            (bytes == 8 ? " (11/780)" : "");
        t.addRow({label, TextTable::num(an.cyclesPerInstruction(), 2),
                  TextTable::num(an.colTotal(TimeCol::IbStall), 3),
                  TextTable::num(an.cell(Row::Decode,
                                         TimeCol::IbStall), 3),
                  TextTable::num(refs, 2)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("Expected shape: IB stall falls as the buffer grows "
                "(with diminishing returns past 8),\nand references "
                "per instruction fall as fewer refetches of the same "
                "longword occur.\n");
    return 0;
}
