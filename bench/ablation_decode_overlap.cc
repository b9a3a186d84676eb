/**
 * @file
 * Ablation: the non-overlapped decode cycle.
 *
 * Table 8's Decode row shows exactly one compute cycle per
 * instruction -- the 11/780's I-Decode cannot start an instruction
 * until the previous one completes.  The paper points out that
 * "saving the non-overlapped I-Decode cycle could save one cycle on
 * each non-PC-changing instruction. (The later VAX model 11/750 did
 * exactly this.)"  This bench performs that arithmetic on the
 * measured composite, the same way the paper's authors did.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace vax;
using namespace vax::bench;

int
main(int argc, char **argv)
{
    BenchRun r = runBench(&argc, argv, "Ablation -- overlapping the decode cycle "
                          "(the 11/750 change)");

    double cpi = r.an().cyclesPerInstruction();
    double pc_changing = 0.0;
    for (unsigned k = 1;
         k < static_cast<unsigned>(PcChangeKind::NumKinds); ++k) {
        pc_changing +=
            r.an().pcChangeFraction(static_cast<PcChangeKind>(k));
    }
    double non_pc = 1.0 - pc_changing;
    double saved = non_pc * 1.0; // one decode cycle each
    double new_cpi = cpi - saved;

    TextTable t("Estimated effect of overlapped decode");
    t.addRow({"Quantity", "Value"});
    t.addRow({"Measured cycles/instr", TextTable::num(cpi, 3)});
    t.addRow({"PC-changing fraction",
              TextTable::pct(100.0 * pc_changing, 1)});
    t.addRow({"Non-PC-changing fraction",
              TextTable::pct(100.0 * non_pc, 1)});
    t.addRow({"Decode cycles saved/instr", TextTable::num(saved, 3)});
    t.addRow({"Projected cycles/instr", TextTable::num(new_cpi, 3)});
    t.addRow({"Projected speedup",
              TextTable::pct(100.0 * (cpi / new_cpi - 1.0), 1)});
    std::printf("%s\n", t.str().c_str());

    // The paper's own arithmetic, from its Tables 2, 5 and 8.
    double paper_cpi = paper::table8({}, {});
    double paper_saved = 1.0 - paper::kTable2Freq / 100.0;
    double paper_field = 0.0;
    for (const paper::RowRefs &row : paper::kTable5)
        if (row.row == Row::ExecField)
            paper_field = *row.writes;
    std::printf(
        "The paper's analogous arithmetic on its own data: 1 cycle on "
        "~%.1f%% of instructions out of\n%.1f cycles -> ~%.0f%% "
        "improvement.  The same reasoning also bounds other "
        "optimizations: e.g.\noptimizing FIELD memory writes is worth "
        "at most %.3f cycles/instr here (paper: %.3f, i.e.\n\"only "
        "about %.2f percent of total performance\").\n",
        100.0 * paper_saved, paper_cpi,
        100.0 * (paper_cpi / (paper_cpi - paper_saved) - 1.0),
        r.an().cell(Row::ExecField, TimeCol::Write) +
            r.an().cell(Row::ExecField, TimeCol::WStall),
        paper_field, 100.0 * paper_field / paper_cpi);
    return 0;
}
