/**
 * @file
 * The paper, named once: every value of Emer & Clark's Tables 1-9 and
 * Section 4 that the reproduction prints, keyed by the analyzer's
 * enums; the shape claims EXPERIMENTS.md reports as holding; and one
 * renderer per table, shared by the table benches, full_report and
 * timesharing_characterization.
 *
 * A cell the paper's surviving text does not give legibly is absent
 * (an empty Value), never a placeholder string.  A renderer prints the
 * paper's value beside the measured one, and "-" for an absent paper
 * cell or for a measured ratio whose denominator is zero.
 */

#ifndef UPC780_UPC_PAPER_HH
#define UPC780_UPC_PAPER_HH

#include <limits>
#include <optional>
#include <span>
#include <string>

#include "upc/analyzer.hh"
#include "workload/experiments.hh"

namespace vax::paper
{

/** One cell of the paper; empty where the text is illegible. */
using Value = std::optional<double>;

/** One (label, paper, measured, decimals) line of a plain list. */
struct Line
{
    const char *label;
    double paper;
    int decimals; ///< printed precision of both values
    double (*measure)(const HistogramAnalyzer &, const CompositeResult &);
};

/** A Line's measure that is one analyzer method. */
template <double (HistogramAnalyzer::*Method)() const>
double
byHistogram(const HistogramAnalyzer &an, const CompositeResult &)
{
    return (an.*Method)();
}

/** A hardware counter per hardware-counted instruction (the
 *  histogram's count leaves out the gated-off Null process). */
inline double
perHwInstr(const CompositeResult &comp, double count)
{
    return count / comp.hw.counters.instructions;
}

/** Table 6's bytes per instruction over IB references per
 *  instruction. */
double bytesPerIbRef(const HistogramAnalyzer &an,
                     const CompositeResult &comp);

// ---- Table 1: opcode group frequency, percent of instructions ----
struct GroupShare
{
    Group group;
    const char *constituents;
    double pct;
};
inline constexpr GroupShare kTable1[] = {
    {Group::Simple, "moves, simple arith, boolean, branches, subroutine",
     83.60},
    {Group::Field, "bit field operations", 6.92},
    {Group::Float, "floating point, integer mul/div", 3.62},
    {Group::CallRet, "procedure call/return, push/pop", 3.22},
    {Group::System, "privileged, ctx switch, services, queues", 2.11},
    {Group::Character, "character string instructions", 0.43},
    {Group::Decimal, "decimal instructions", 0.03},
};

// ---- Table 2: PC-changing instructions ----
struct PcChange
{
    PcChangeKind kind;
    double freqPct;  ///< percent of all instructions
    double takenPct; ///< percent of the class that branch
};
inline constexpr PcChange kTable2[] = {
    {PcChangeKind::SimpleCond, 19.3, 56.0},
    {PcChangeKind::LoopBranch, 4.1, 91.0},
    {PcChangeKind::LowBitTest, 2.0, 41.0},
    {PcChangeKind::SubrCallRet, 4.5, 100.0},
    {PcChangeKind::Uncond, 0.3, 100.0},
    {PcChangeKind::CaseBranch, 0.9, 100.0},
    {PcChangeKind::BitBranch, 4.3, 44.0},
    {PcChangeKind::ProcCallRet, 2.4, 100.0},
    {PcChangeKind::SystemBr, 0.4, 100.0},
};
/** Table 2's TOTAL row: PC-changing instructions and actual branches,
 *  each as a percent of all instructions. */
inline constexpr double kTable2Freq = 38.5;
inline constexpr double kTable2Branches = 25.7;

// ---- Table 3: specifiers and branch displacements per instruction --
inline constexpr Line kTable3[] = {
    {"First specifiers", 0.726, 3,
     byHistogram<&HistogramAnalyzer::spec1PerInstr>},
    {"Other specifiers", 0.758, 3,
     byHistogram<&HistogramAnalyzer::spec26PerInstr>},
    {"Branch displacements", 0.312, 3,
     byHistogram<&HistogramAnalyzer::bdispPerInstr>},
    {"All specifiers", 1.484, 3,
     [](const HistogramAnalyzer &an, const CompositeResult &) {
         return an.spec1PerInstr() + an.spec26PerInstr();
     }},
};

// ---- Table 4: specifier distribution, percent by position class ----
struct SpecShare
{
    SpecCategory cat;
    Value pct[3]; ///< SPEC1, SPEC2-6, total (the analyzer's pos)
};
inline constexpr SpecShare kTable4[] = {
    {SpecCategory::Register, {28.7, 52.6, 41.0}},
    {SpecCategory::ShortLiteral, {21.1, 10.8, 15.8}},
    {SpecCategory::Immediate, {3.2, 1.7, 2.4}},
    {SpecCategory::Displacement, {25.0, {}, {}}},
    {SpecCategory::RegDeferred, {}},
    {SpecCategory::AutoIncDec, {}},
    {SpecCategory::DispDeferred, {}},
    {SpecCategory::Absolute, {}},
    {SpecCategory::AutoIncDef, {}},
};
/** Percent of specifiers indexed: SPEC1, SPEC2-6, total. */
inline constexpr Value kTable4Indexed[3] = {8.5, 4.2, 6.3};

// ---- Table 5: D-stream reads and writes per instruction, by row ----
// Its TOTAL row is Table 8's Read and Write column totals.
struct RowRefs
{
    Row row;
    Value reads, writes;
};
inline constexpr RowRefs kTable5[] = {
    {Row::Spec1, 0.306, {}},
    {Row::Spec26, 0.148, {}},
    {Row::ExecSimple, {}, {}},
    {Row::ExecField, {}, 0.007},
    {Row::ExecFloat, {}, {}},
    {Row::ExecCallRet, 0.133, 0.130},
    {Row::ExecSystem, {}, {}},
    {Row::ExecCharacter, 0.039, 0.046},
    {Row::ExecDecimal, 0.002, 0.001},
    {Row::Bdisp, 0.000, 0.000},
    {Row::IntExcept, {}, {}},
    {Row::MemMgmt, {}, {}},
};

// ---- Table 6: size of the average instruction ----
// Its counts are Table 3's; the paper's sizes came from Wiecek [15].
inline constexpr double kSpecifierBytes = 1.68;
inline constexpr double kBdispBytes = 1.00;

// ---- Table 7: average instruction headway between events ----
inline constexpr Line kTable7[] = {
    {"Software interrupt requests", 2539, 0,
     byHistogram<&HistogramAnalyzer::headwaySwIntRequests>},
    {"Hardware and software interrupts", 637, 0,
     byHistogram<&HistogramAnalyzer::headwayInterrupts>},
    {"Context switches", 6418, 0,
     byHistogram<&HistogramAnalyzer::headwayContextSwitches>},
};

// ---- Table 8: cycles per average instruction, its legible cells ----
/** A Table 8 cell; an empty row or column is that column's or row's
 *  TOTAL, and both empty is cycles per instruction. */
struct Timing
{
    std::optional<Row> row;
    std::optional<TimeCol> col;
    double cycles;
};
inline constexpr Timing kTable8[] = {
    {Row::Decode, TimeCol::Compute, 1.000},
    {Row::Decode, TimeCol::IbStall, 0.613},
    {Row::ExecFloat, {}, 0.302},
    {Row::ExecCallRet, {}, 1.458},
    {Row::IntExcept, {}, 0.071},
    {{}, TimeCol::Compute, 7.267},
    {{}, TimeCol::Read, 0.783},
    {{}, TimeCol::RStall, 0.964},
    {{}, TimeCol::Write, 0.409},
    {{}, TimeCol::WStall, 0.450},
    {{}, TimeCol::IbStall, 0.720},
    {{}, {}, 10.593},
};

/** Table 8's value at a cell (an empty key is a TOTAL); NaN where the
 *  paper's text gives none. */
constexpr double
table8(std::optional<Row> row, std::optional<TimeCol> col)
{
    for (const Timing &c : kTable8)
        if (c.row == row && c.col == col)
            return c.cycles;
    return std::numeric_limits<double>::quiet_NaN();
}

// ---- Table 9: execute cycles per member of each group ----
struct GroupCycles
{
    Group group;
    Value compute, total;
};
inline constexpr GroupCycles kTable9[] = {
    {Group::Simple, 1.17, {}},     {Group::Field, {}, 8.67},
    {Group::Float, {}, 8.33},      {Group::CallRet, {}, 45.25},
    {Group::System, {}, 24.74},    {Group::Character, {}, 117.04},
    {Group::Decimal, {}, 100.77},
};

// ---- Section 4: implementation events per instruction ----
/** §4.1, instruction-buffer delivery (Table 6 prints it too). */
inline constexpr Line kIbDelivery[] = {
    {"IB cache references", 2.2, 2,
     [](const HistogramAnalyzer &, const CompositeResult &comp) {
         return perHwInstr(comp, comp.hw.ibLongwordFetches);
     }},
    {"Bytes delivered per IB reference", 1.7, 2, bytesPerIbRef},
};
/** §4.2, cache read misses, from the separate cache study [2]. */
inline constexpr Line kCacheMisses[] = {
    {"Cache read misses (total)", 0.28, 3,
     [](const HistogramAnalyzer &, const CompositeResult &comp) {
         return perHwInstr(comp, comp.hw.cache.readMissesI +
                                     comp.hw.cache.readMissesD);
     }},
    {"  I-stream misses", 0.18, 3,
     [](const HistogramAnalyzer &, const CompositeResult &comp) {
         return perHwInstr(comp, comp.hw.cache.readMissesI);
     }},
    {"  D-stream misses", 0.10, 3,
     [](const HistogramAnalyzer &, const CompositeResult &comp) {
         return perHwInstr(comp, comp.hw.cache.readMissesD);
     }},
};
/** §4.2 and §3.3.1, events the UPC histogram shows. */
inline constexpr Line kHistogramEvents[] = {
    {"TB misses", 0.029, 3, byHistogram<&HistogramAnalyzer::tbMissPerInstr>},
    {"  D-stream TB misses", 0.020, 3,
     byHistogram<&HistogramAnalyzer::tbMissPerInstrD>},
    {"  I-stream TB misses", 0.009, 3,
     byHistogram<&HistogramAnalyzer::tbMissPerInstrI>},
    {"TB service cycles per miss", 21.6, 1,
     byHistogram<&HistogramAnalyzer::tbServiceCyclesPerMiss>},
    {"  of which read stalls", 3.5, 1,
     byHistogram<&HistogramAnalyzer::tbServiceStallPerMiss>},
    {"Unaligned D-stream references", 0.016, 4,
     byHistogram<&HistogramAnalyzer::unalignedPerInstr>},
};

// ---- The shape claims ----
/**
 * A shape statement EXPERIMENTS.md reports as holding, with the
 * quantity it rests on and the range in which that quantity supports
 * it.  PaperShape gates every claim at 4M cycles per workload; each
 * table's renderer prints its claims with their verdicts.
 */
struct Claim
{
    const char *where;    ///< the EXPERIMENTS.md section stating it
    const char *claim;    ///< the statement, as written there
    const char *quantity; ///< what is measured to test it
    double lo, hi;        ///< the claim holds iff lo <= quantity <= hi
    double (*measure)(const HistogramAnalyzer &);

    bool holds(double v) const { return v >= lo && v <= hi; }
};

/** Every claim, in the order of the tables they are about. */
std::span<const Claim> claims();

/** "holds" or "refuted", the claim, and its quantity and range. */
std::string verdict(const Claim &c, double v);

// ---- The renderers ----
/** One table of the paper and its renderer. */
struct Table
{
    const char *where; ///< "Table 1" ... "Section 4", as claims say
    const char *title;
    std::string (*body)(const HistogramAnalyzer &,
                        const CompositeResult &);

    /** The table, paper beside measured, then its claims. */
    std::string render(const HistogramAnalyzer &an,
                       const CompositeResult &comp) const;
};

extern const Table kTable1Render, kTable2Render, kTable3Render,
    kTable4Render, kTable5Render, kTable6Render, kTable7Render,
    kTable8Render, kTable9Render, kSection4Render;

/** Tables 1-9 and Section 4, in the paper's order. */
extern const Table *const kTables[10];

} // namespace vax::paper

#endif // UPC780_UPC_PAPER_HH
