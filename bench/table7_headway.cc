/**
 * @file
 * Table 7: interrupt and context-switch headway (average instructions
 * between events), from event-marked microcode entries.
 */

#include "bench/bench_util.hh"

using namespace vax;
using namespace vax::bench;

int
main(int argc, char **argv)
{
    BenchRun r = runBench(&argc, argv, "Table 7 -- Interrupt / Context-Switch "
                          "Headway");

    TextTable t("Average instruction headway between events");
    t.addRow({"Event", "Paper", "Measured"});
    t.addRow({"Software interrupt requests", "2539",
              TextTable::num(r.an().headwaySwIntRequests(), 0)});
    t.addRow({"Hardware and software interrupts", "637",
              TextTable::num(r.an().headwayInterrupts(), 0)});
    t.addRow({"Context switches", "6418",
              TextTable::num(r.an().headwayContextSwitches(), 0)});
    std::printf("%s\n", t.str().c_str());

    std::printf("Per-workload interrupt headway:\n");
    for (const auto &part : r.composite.parts) {
        HistogramAnalyzer an(microcodeRom(), part.hist);
        std::printf("  %-18s interrupts 1/%.0f, context switches "
                    "1/%.0f\n",
                    part.name.c_str(), an.headwayInterrupts(),
                    an.headwayContextSwitches());
    }
    return 0;
}
