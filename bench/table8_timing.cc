/**
 * @file
 * Table 8 -- the paper's headline result: cycles per average VAX
 * instruction, classified by activity (rows) and cycle category
 * (columns).  Every machine cycle falls into exactly one cell.
 */

#include "bench/bench_util.hh"

using namespace vax;
using namespace vax::bench;

int
main(int argc, char **argv)
{
    BenchRun r = runBench(&argc, argv, "Table 8 -- Average VAX Instruction Timing "
                          "(cycles per instruction)");

    static const Row rows[] = {
        Row::Decode, Row::Spec1, Row::Spec26, Row::Bdisp,
        Row::ExecSimple, Row::ExecField, Row::ExecFloat,
        Row::ExecCallRet, Row::ExecSystem, Row::ExecCharacter,
        Row::ExecDecimal, Row::IntExcept, Row::MemMgmt, Row::Abort,
    };
    static const TimeCol cols[] = {
        TimeCol::Compute, TimeCol::Read, TimeCol::RStall,
        TimeCol::Write, TimeCol::WStall, TimeCol::IbStall,
    };

    TextTable t("Measured matrix (cycles per average instruction)");
    t.addRow({"", "Compute", "Read", "R-Stall", "Write", "W-Stall",
              "IB-Stall", "Total"});
    for (Row row : rows) {
        std::vector<std::string> line{rowName(row)};
        for (TimeCol col : cols)
            line.push_back(TextTable::num(r.an().cell(row, col), 3));
        line.push_back(TextTable::num(r.an().rowTotal(row), 3));
        t.addRow(line);
    }
    t.rule();
    {
        std::vector<std::string> line{"TOTAL"};
        for (TimeCol col : cols)
            line.push_back(TextTable::num(r.an().colTotal(col), 3));
        line.push_back(
            TextTable::num(r.an().cyclesPerInstruction(), 3));
        t.addRow(line);
    }
    std::printf("%s\n", t.str().c_str());

    TextTable p("Paper reference cells (Table 8) vs measured");
    p.addRow({"Cell", "Paper", "Measured"});
    p.addRow({"Decode compute", "1.000",
              TextTable::num(r.an().cell(Row::Decode,
                                         TimeCol::Compute), 3)});
    p.addRow({"Decode IB-stall", "0.613",
              TextTable::num(r.an().cell(Row::Decode,
                                         TimeCol::IbStall), 3)});
    p.addRow({"Float row total", "0.302",
              TextTable::num(r.an().rowTotal(Row::ExecFloat), 3)});
    p.addRow({"Call/Ret row total", "1.458",
              TextTable::num(r.an().rowTotal(Row::ExecCallRet), 3)});
    p.addRow({"Int/Except row total", "0.071",
              TextTable::num(r.an().rowTotal(Row::IntExcept), 3)});
    p.addRow({"TOTAL compute", "7.267",
              TextTable::num(r.an().colTotal(TimeCol::Compute), 3)});
    p.addRow({"TOTAL read", "0.783",
              TextTable::num(r.an().colTotal(TimeCol::Read), 3)});
    p.addRow({"TOTAL read stall", "0.964",
              TextTable::num(r.an().colTotal(TimeCol::RStall), 3)});
    p.addRow({"TOTAL write", "0.409",
              TextTable::num(r.an().colTotal(TimeCol::Write), 3)});
    p.addRow({"TOTAL write stall", "0.450",
              TextTable::num(r.an().colTotal(TimeCol::WStall), 3)});
    p.addRow({"TOTAL IB stall", "0.720",
              TextTable::num(r.an().colTotal(TimeCol::IbStall), 3)});
    p.addRow({"TOTAL cycles/instr", "10.593",
              TextTable::num(r.an().cyclesPerInstruction(), 3)});
    std::printf("%s\n", p.str().c_str());

    std::printf(
        "Paper observations that should hold here:\n"
        "  - the average instruction takes on the order of 10 "
        "cycles;\n"
        "  - nearly half the time goes to decode + specifier "
        "processing (incl. their stalls);\n"
        "  - CALL/RET contributes the most of any opcode group "
        "despite its low frequency;\n"
        "  - SIMPLE execution is ~10%% of time despite ~84%% of "
        "instructions.\n");
    double front = r.an().rowTotal(Row::Decode) +
        r.an().rowTotal(Row::Spec1) + r.an().rowTotal(Row::Spec26) +
        r.an().rowTotal(Row::Bdisp);
    Row largest = Row::ExecSimple;
    for (Row row : {Row::ExecField, Row::ExecFloat, Row::ExecCallRet,
                    Row::ExecSystem, Row::ExecCharacter, Row::ExecDecimal})
        if (r.an().rowTotal(row) > r.an().rowTotal(largest))
            largest = row;
    std::printf("Measured: decode+specifier share = %.0f%%; "
                "SIMPLE execute share = %.0f%%; CALL/RET row = "
                "largest exec row? %s (largest: %s, %.3f)\n",
                100.0 * front / r.an().cyclesPerInstruction(),
                100.0 * r.an().rowTotal(Row::ExecSimple) /
                    r.an().cyclesPerInstruction(),
                largest == Row::ExecCallRet ? "yes" : "no",
                rowName(largest), r.an().rowTotal(largest));
    return 0;
}
