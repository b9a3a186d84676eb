#include "upc/paper.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "support/table.hh"
#include "ucode/rom.hh"

namespace vax::paper
{

namespace
{

/** Upper bound of a one-sided claim ("more than", "the largest"). */
constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/** num/den; 0/0 is NaN, which refutes every claim and prints "-". */
double
ratio(double num, double den)
{
    return num / den;
}

/** A printed number; "-" where there is none (absent, or a ratio
 *  over zero). */
std::string
fmt(double v, int decimals)
{
    return std::isfinite(v) ? TextTable::num(v, decimals) : "-";
}

std::string
fmt(Value v, int decimals)
{
    return v ? fmt(*v, decimals) : "-";
}

/** "paper / measured" in one cell. */
std::string
pvm(double paper, double measured, int decimals)
{
    return fmt(paper, decimals) + " / " + fmt(measured, decimals);
}

/** Memory references per instruction issued by a Table 8 row. */
double
memRefs(const HistogramAnalyzer &an, Row r)
{
    return an.readsPerInstr(r) + an.writesPerInstr(r);
}

/** The measured value at a Table 8 reference cell. */
double
measured(const HistogramAnalyzer &an, const Timing &c)
{
    if (c.row && c.col)
        return an.cell(*c.row, *c.col);
    if (c.row)
        return an.rowTotal(*c.row);
    if (c.col)
        return an.colTotal(*c.col);
    return an.cyclesPerInstruction();
}

/** The layout every plain list shares: label, paper, measured. */
TextTable
listTable(const char *caption)
{
    TextTable t(caption);
    t.addRow({"", "Paper", "Measured"});
    return t;
}

/** A plain list in the shared layout. */
std::string
lines(const char *caption, std::span<const Line> ls,
      const HistogramAnalyzer &an, const CompositeResult &comp)
{
    TextTable t = listTable(caption);
    for (const Line &l : ls)
        t.addRow({l.label, fmt(l.paper, l.decimals),
                  fmt(l.measure(an, comp), l.decimals)});
    return t.str();
}

/** §4.1's list, which Table 6 and Section 4 both print. */
std::string
ibDelivery(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    return lines("Section 4.1: instruction-buffer delivery per "
                 "instruction",
                 kIbDelivery, an, comp);
}

/** Table 6's measured sizes: specifier and branch-displacement bytes
 *  from the decode byte counters, counts from the histogram. */
struct InstrSize
{
    double specs, specBytes, bdisps, bdispBytes;

    double total() const
    {
        return 1.0 + specs * specBytes + bdisps * bdispBytes;
    }
};

InstrSize
instrSize(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    const HwCounters &hw = comp.hw.counters;
    InstrSize s{};
    s.specs = an.spec1PerInstr() + an.spec26PerInstr();
    s.bdisps = an.bdispPerInstr();
    // One mode byte plus displacement/immediate extension bytes.
    s.specBytes = 1.0 +
        ratio(perHwInstr(comp, hw.dispBytes + hw.immediateBytes),
              s.specs);
    s.bdispBytes = ratio(perHwInstr(comp, hw.bdispBytes), s.bdisps);
    return s;
}

std::string
table1(const HistogramAnalyzer &an, const CompositeResult &)
{
    TextTable t("Opcode group frequency (percent of instructions)");
    t.addRow({"Group", "Constituents", "Paper", "Measured"});
    double paper = 0.0, total = 0.0;
    for (const GroupShare &g : kTable1) {
        double m = 100.0 * an.groupFraction(g.group);
        paper += g.pct;
        total += m;
        t.addRow({groupName(g.group), g.constituents, fmt(g.pct, 2),
                  fmt(m, 2)});
    }
    t.rule();
    t.addRow({"TOTAL", "", fmt(paper, 2), fmt(total, 2)});
    return t.str();
}

std::string
table2(const HistogramAnalyzer &an, const CompositeResult &)
{
    TextTable t("PC-changing instructions (columns: paper / measured)");
    t.addRow({"Branch type", "Freq % of all", "% that branch",
              "Actual branch % of all"});
    double freq_p = 0, freq_m = 0, act_p = 0, act_m = 0;
    for (const PcChange &p : kTable2) {
        double freq = 100.0 * an.pcChangeFraction(p.kind);
        double taken = 100.0 * an.takenFraction(p.kind);
        freq_p += p.freqPct;
        freq_m += freq;
        act_p += p.freqPct * p.takenPct / 100.0;
        act_m += freq * taken / 100.0;
        t.addRow({pcChangeKindName(p.kind), pvm(p.freqPct, freq, 1),
                  pvm(p.takenPct, taken, 0),
                  pvm(p.freqPct * p.takenPct / 100.0,
                      freq * taken / 100.0, 1)});
    }
    t.rule();
    t.addRow({"TOTAL", pvm(kTable2Freq, freq_m, 1),
              pvm(100.0 * act_p / freq_p, 100.0 * ratio(act_m, freq_m),
                  0),
              pvm(kTable2Branches, act_m, 1)});
    return t.str();
}

std::string
table3(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    const HwCounters &hw = comp.hw.counters;
    return lines("Per average instruction", kTable3, an, comp) +
        "hardware cross-check: " +
        fmt(perHwInstr(comp, hw.specifiers), 3) +
        " specifiers/instr (" +
        fmt(perHwInstr(comp, hw.firstSpecifiers), 3) + " first), " +
        fmt(perHwInstr(comp, hw.bdispCount), 3) +
        " bdisp fields/instr\n";
}

std::string
table4(const HistogramAnalyzer &an, const CompositeResult &)
{
    TextTable t("Specifier distribution, percent "
                "(paper | measured per position class)");
    t.addRow({"Mode", "P SPEC1", "M SPEC1", "P SPEC2-6", "M SPEC2-6",
              "P Total", "M Total"});
    for (const SpecShare &s : kTable4) {
        std::vector<std::string> row{specCategoryName(s.cat)};
        for (int pos = 0; pos < 3; ++pos) {
            row.push_back(fmt(s.pct[pos], 1));
            row.push_back(
                fmt(100.0 * an.specCategoryFraction(s.cat, pos), 1));
        }
        t.addRow(row);
    }
    t.rule();
    std::vector<std::string> row{"Percent indexed"};
    for (int pos = 0; pos < 3; ++pos) {
        row.push_back(fmt(kTable4Indexed[pos], 1));
        row.push_back(fmt(100.0 * an.indexedFraction(pos), 1));
    }
    t.addRow(row);
    return t.str();
}

std::string
table5(const HistogramAnalyzer &an, const CompositeResult &)
{
    TextTable t("Reads/writes per average instruction "
                "(paper | measured)");
    t.addRow({"Source", "P reads", "M reads", "P writes", "M writes"});
    for (const RowRefs &r : kTable5)
        t.addRow({rowName(r.row), fmt(r.reads, 3),
                  fmt(an.readsPerInstr(r.row), 3), fmt(r.writes, 3),
                  fmt(an.writesPerInstr(r.row), 3)});
    t.rule();
    t.addRow({"TOTAL", fmt(table8({}, TimeCol::Read), 3),
              fmt(an.totalReadsPerInstr(), 3),
              fmt(table8({}, TimeCol::Write), 3),
              fmt(an.totalWritesPerInstr(), 3)});
    return t.str();
}

std::string
table6(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    InstrSize m = instrSize(an, comp);
    // The paper's counts are Table 3's "All specifiers" and "Branch
    // displacements" lines.
    InstrSize p{kTable3[3].paper, kSpecifierBytes, kTable3[2].paper,
                kBdispBytes};
    TextTable t("Size of the average instruction (paper | measured)");
    t.addRow({"Object", "Number/inst", "Est. size", "Bytes/inst"});
    t.addRow({"Opcode", pvm(1.0, 1.0, 2), pvm(1.0, 1.0, 2),
              pvm(1.0, 1.0, 2)});
    t.addRow({"Specifiers", pvm(p.specs, m.specs, 2),
              pvm(p.specBytes, m.specBytes, 2),
              pvm(p.specs * p.specBytes, m.specs * m.specBytes, 2)});
    t.addRow({"Branch disp.", pvm(p.bdisps, m.bdisps, 2),
              pvm(p.bdispBytes, m.bdispBytes, 2),
              pvm(p.bdisps * p.bdispBytes, m.bdisps * m.bdispBytes, 2)});
    t.rule();
    t.addRow({"TOTAL", "", "", pvm(p.total(), m.total(), 1)});
    return t.str() + "\n" + ibDelivery(an, comp);
}

std::string
table7(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    std::string out = lines("Average instruction headway between events",
                            kTable7, an, comp);
    out += "\nPer-workload headway:\n";
    for (const ExperimentResult &part : comp.parts) {
        HistogramAnalyzer p(microcodeRom(), part.hist);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "  %-18s interrupts 1/%s, context switches 1/%s\n",
                      part.name.c_str(),
                      fmt(p.headwayInterrupts(), 0).c_str(),
                      fmt(p.headwayContextSwitches(), 0).c_str());
        out += buf;
    }
    return out;
}

std::string
table8Body(const HistogramAnalyzer &an, const CompositeResult &)
{
    constexpr size_t kRows = static_cast<size_t>(Row::NumRows);
    constexpr size_t kCols = static_cast<size_t>(TimeCol::NumCols);
    TextTable t("Measured matrix (cycles per average instruction)");
    std::vector<std::string> head{""};
    for (size_t c = 0; c < kCols; ++c)
        head.push_back(timeColName(static_cast<TimeCol>(c)));
    head.push_back("Total");
    t.addRow(head);
    for (size_t r = 0; r < kRows; ++r) {
        Row row = static_cast<Row>(r);
        std::vector<std::string> line{rowName(row)};
        for (size_t c = 0; c < kCols; ++c)
            line.push_back(fmt(an.cell(row, static_cast<TimeCol>(c)), 3));
        line.push_back(fmt(an.rowTotal(row), 3));
        t.addRow(line);
    }
    t.rule();
    std::vector<std::string> total{"TOTAL"};
    for (size_t c = 0; c < kCols; ++c)
        total.push_back(fmt(an.colTotal(static_cast<TimeCol>(c)), 3));
    total.push_back(fmt(an.cyclesPerInstruction(), 3));
    t.addRow(total);

    TextTable p = listTable("Paper reference cells (row / column)");
    for (const Timing &c : kTable8)
        p.addRow({std::string(c.row ? rowName(*c.row) : "TOTAL") + " / " +
                      (c.col ? timeColName(*c.col) : "Total"),
                  fmt(c.cycles, 3), fmt(measured(an, c), 3)});
    return t.str() + "\n" + p.str();
}

std::string
table9(const HistogramAnalyzer &an, const CompositeResult &)
{
    TextTable t("Execute-phase cycles per group member "
                "(exclusive of specifier processing)");
    t.addRow({"Group", "P Compute", "M Compute", "M Read", "M R-Stall",
              "M Write", "M W-Stall", "P Total", "M Total"});
    for (const GroupCycles &g : kTable9) {
        Row row = execRowFor(g.group);
        double f = an.groupFraction(g.group);
        auto per = [&](TimeCol c) {
            return fmt(ratio(an.cell(row, c), f), 2);
        };
        t.addRow({groupName(g.group), fmt(g.compute, 2),
                  per(TimeCol::Compute), per(TimeCol::Read),
                  per(TimeCol::RStall), per(TimeCol::Write),
                  per(TimeCol::WStall), fmt(g.total, 2),
                  fmt(ratio(an.rowTotal(row), f), 2)});
    }
    return t.str();
}

std::string
section4(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    const HwTotals &hw = comp.hw;
    double reads = hw.cache.readRefsI + hw.cache.readRefsD;
    double misses = hw.cache.readMissesI + hw.cache.readMissesD;
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "Device traffic over the composite: %llu terminal lines in, "
        "%llu out, %llu disk transfers.\n"
        "Cache read hit rate (%%): %s over %.0fk read references; "
        "write references/instr: %s.\n",
        (unsigned long long)hw.terminalLinesIn,
        (unsigned long long)hw.terminalLinesOut,
        (unsigned long long)hw.diskTransfers,
        fmt(100.0 * (1.0 - ratio(misses, reads)), 1).c_str(),
        reads / 1000.0,
        fmt(perHwInstr(comp, hw.cache.writeRefs), 3).c_str());
    return ibDelivery(an, comp) + "\n" +
        lines("Section 4.2: cache read misses per instruction "
              "(hardware counters, the separate study [2])",
              kCacheMisses, an, comp) +
        "\n" +
        lines("Sections 4.2 and 3.3.1: events per instruction from the "
              "UPC histogram",
              kHistogramEvents, an, comp) +
        "\n" + buf;
}

const Claim kClaims[] = {
    {"Table 2", "loop branches are taken about 9 times out of 10",
     "taken fraction of loop branches", 0.85, 0.95,
     [](const HistogramAnalyzer &an) {
         return an.takenFraction(PcChangeKind::LoopBranch);
     }},
    {"Table 4", "register is the most common specifier mode",
     "register share over the next most common mode", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         double next = 0.0;
         for (size_t c = 1;
              c < static_cast<size_t>(SpecCategory::NumCategories); ++c)
             next = std::max(next, an.specCategoryFraction(
                                       static_cast<SpecCategory>(c), 2));
         return ratio(an.specCategoryFraction(SpecCategory::Register, 2),
                      next);
     }},
    {"Table 4", "register mode is markedly more common after the first "
                "specifier",
     "register share in SPEC2-6 over its share in SPEC1", 1.2, kNoLimit,
     [](const HistogramAnalyzer &an) {
         return ratio(an.specCategoryFraction(SpecCategory::Register, 1),
                      an.specCategoryFraction(SpecCategory::Register, 0));
     }},
    {"Table 4", "short literals are more common as the first specifier",
     "short-literal share in SPEC1 over its share in SPEC2-6", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         return ratio(
             an.specCategoryFraction(SpecCategory::ShortLiteral, 0),
             an.specCategoryFraction(SpecCategory::ShortLiteral, 1));
     }},
    {"Table 5", "D-stream reads outnumber writes about 2:1",
     "reads per write", 1.5, 2.5,
     [](const HistogramAnalyzer &an) {
         return ratio(an.totalReadsPerInstr(), an.totalWritesPerInstr());
     }},
    {"Table 5", "CALL/RET is the largest memory consumer among the "
                "execute rows",
     "CALL/RET row references over the next execute row's", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         double next = 0.0;
         for (Row r : {Row::ExecSimple, Row::ExecField, Row::ExecFloat,
                       Row::ExecSystem, Row::ExecCharacter,
                       Row::ExecDecimal})
             next = std::max(next, memRefs(an, r));
         return ratio(memRefs(an, Row::ExecCallRet), next);
     }},
    // kTable7 lists the software interrupt request, interrupt and
    // context-switch headways, in that order.
    {"Table 7", "software interrupt request headway matches the paper "
                "(2539)",
     "headway over the paper's, within 25%", 0.75, 1.25,
     [](const HistogramAnalyzer &an) {
         return an.headwaySwIntRequests() / kTable7[0].paper;
     }},
    {"Table 7", "interrupt headway matches the paper (637)",
     "headway over the paper's, within 25%", 0.75, 1.25,
     [](const HistogramAnalyzer &an) {
         return an.headwayInterrupts() / kTable7[1].paper;
     }},
    {"Table 7", "context-switch headway matches the paper (6418)",
     "headway over the paper's, within 25%", 0.75, 1.25,
     [](const HistogramAnalyzer &an) {
         return an.headwayContextSwitches() / kTable7[2].paper;
     }},
    {"Table 8", "the average instruction is on the order of 10 cycles",
     "cycles per instruction", 5.0, 20.0,
     [](const HistogramAnalyzer &an) {
         return an.instructions() ? an.cyclesPerInstruction() : 0.0;
     }},
    {"Table 8", "Decode compute is exactly 1.000 (one non-overlapped "
                "decode cycle per instruction)",
     "Decode compute cycles per instruction", 1.0, 1.0,
     [](const HistogramAnalyzer &an) {
         return ratio(static_cast<double>(
                          an.cellCycles(Row::Decode, TimeCol::Compute)),
                      static_cast<double>(an.instructions()));
     }},
    {"Table 8", "decode + specifier processing is almost half of all "
                "time",
     "Decode, SPEC1, SPEC2-6 and B-DISP rows' share of all cycles", 0.4,
     0.6,
     [](const HistogramAnalyzer &an) {
         return ratio(an.rowTotal(Row::Decode) + an.rowTotal(Row::Spec1) +
                          an.rowTotal(Row::Spec26) +
                          an.rowTotal(Row::Bdisp),
                      an.cyclesPerInstruction());
     }},
    {"Table 8", "most IB stall is at the initial decode",
     "Decode row's share of the IB-stall column", 0.5, 1.0,
     [](const HistogramAnalyzer &an) {
         return ratio(an.cell(Row::Decode, TimeCol::IbStall),
                      an.colTotal(TimeCol::IbStall));
     }},
    {"Table 8", "memory management shows more read stall than read "
                "cycles",
     "Mem Mgmt R-Stall over Read", 1.0, kNoLimit,
     [](const HistogramAnalyzer &an) {
         return ratio(an.cell(Row::MemMgmt, TimeCol::RStall),
                      an.cell(Row::MemMgmt, TimeCol::Read));
     }},
    {"Table 8", "CHARACTER shows almost no write stall",
     "CHARACTER W-Stall as a share of the CHARACTER row", 0.0, 0.01,
     [](const HistogramAnalyzer &an) {
         return ratio(an.cell(Row::ExecCharacter, TimeCol::WStall),
                      an.rowTotal(Row::ExecCharacter));
     }},
};

} // anonymous namespace

double
bytesPerIbRef(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    return ratio(instrSize(an, comp).total(),
                 perHwInstr(comp, comp.hw.ibLongwordFetches));
}

std::span<const Claim>
claims()
{
    return kClaims;
}

std::string
verdict(const Claim &c, double v)
{
    char range[64];
    std::snprintf(range, sizeof range,
                  c.hi == kNoLimit ? "claimed >= %g" : "claimed in [%g, %g]",
                  c.lo, c.hi);
    return std::string(c.holds(v) ? "holds" : "refuted") + ": \"" +
        c.claim + "\": " + c.quantity + " = " + fmt(v, 4) + ", " + range;
}

std::string
Table::render(const HistogramAnalyzer &an,
              const CompositeResult &comp) const
{
    std::string out = body(an, comp);
    std::string said;
    for (const Claim &c : kClaims)
        if (std::strcmp(c.where, where) == 0)
            said += "  " + verdict(c, c.measure(an)) + "\n";
    if (!said.empty())
        out += "\nClaims (EXPERIMENTS.md):\n" + said;
    return out;
}

const Table kTable1Render{"Table 1", "Opcode Group Frequency", table1};
const Table kTable2Render{"Table 2", "PC-Changing Instructions", table2};
const Table kTable3Render{
    "Table 3", "Specifiers and Branch Displacements per Instr", table3};
const Table kTable4Render{"Table 4", "Operand Specifier Distribution",
                          table4};
const Table kTable5Render{"Table 5", "D-stream Reads and Writes", table5};
const Table kTable6Render{"Table 6", "Estimated Size of Average Instr",
                          table6};
const Table kTable7Render{"Table 7",
                          "Interrupt / Context-Switch Headway", table7};
const Table kTable8Render{
    "Table 8",
    "Average VAX Instruction Timing (cycles per instruction)",
    table8Body};
const Table kTable9Render{
    "Table 9", "Cycles per Instruction Within Each Group", table9};
const Table kSection4Render{"Section 4", "Implementation Events",
                            section4};

const Table *const kTables[10] = {
    &kTable1Render, &kTable2Render, &kTable3Render, &kTable4Render,
    &kTable5Render, &kTable6Render, &kTable7Render, &kTable8Render,
    &kTable9Render, &kSection4Render,
};

} // namespace vax::paper
