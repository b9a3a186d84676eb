/**
 * @file
 * The paper's tables as printed: each table's renderer prints every
 * value of that table of the paper, at its printed precision, from a
 * small composite and from an empty one; no table prints nan or inf;
 * and a quantity two tables print is one number in both.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "support/table.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/paper.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

using namespace paper;

/** The numbers a rendering prints: maximal runs of [0-9.-]. */
std::set<std::string>
numbers(const std::string &text)
{
    std::set<std::string> out;
    std::string cur;
    for (char ch : text + " ") {
        if (std::isdigit(static_cast<unsigned char>(ch)) || ch == '.' ||
            ch == '-') {
            cur += ch;
        } else if (!cur.empty()) {
            out.insert(cur);
            cur.clear();
        }
    }
    return out;
}

/** The words a rendering prints: maximal runs of letters. */
std::set<std::string>
words(const std::string &text)
{
    std::set<std::string> out;
    std::string cur;
    for (char ch : text + " ") {
        if (std::isalpha(static_cast<unsigned char>(ch))) {
            cur += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        } else if (!cur.empty()) {
            out.insert(cur);
            cur.clear();
        }
    }
    return out;
}

/** A table's paper values, each as its renderer prints it. */
struct PaperCells
{
    const Table &table;
    std::vector<std::string> cells;

    void add(Value v, int decimals)
    {
        if (v)
            cells.push_back(TextTable::num(*v, decimals));
    }
    void add(std::span<const Line> lines)
    {
        for (const Line &l : lines)
            add(l.paper, l.decimals);
    }
};

std::vector<PaperCells>
paperCells()
{
    std::vector<PaperCells> all;
    all.reserve(std::size(kTables)); // the references below stay valid
    PaperCells &t1 = all.emplace_back(PaperCells{kTable1Render, {}});
    for (const GroupShare &g : kTable1)
        t1.add(g.pct, 2);
    PaperCells &t2 = all.emplace_back(PaperCells{kTable2Render, {}});
    for (const PcChange &p : kTable2) {
        t2.add(p.freqPct, 1);
        t2.add(p.takenPct, 0);
    }
    t2.add(kTable2Freq, 1);
    t2.add(kTable2Branches, 1);
    all.emplace_back(PaperCells{kTable3Render, {}}).add(kTable3);
    PaperCells &t4 = all.emplace_back(PaperCells{kTable4Render, {}});
    for (const SpecShare &s : kTable4)
        for (Value v : s.pct)
            t4.add(v, 1);
    for (Value v : kTable4Indexed)
        t4.add(v, 1);
    PaperCells &t5 = all.emplace_back(PaperCells{kTable5Render, {}});
    for (const RowRefs &r : kTable5) {
        t5.add(r.reads, 3);
        t5.add(r.writes, 3);
    }
    t5.add(table8({}, TimeCol::Read), 3);
    t5.add(table8({}, TimeCol::Write), 3);
    PaperCells &t6 = all.emplace_back(PaperCells{kTable6Render, {}});
    t6.add(kSpecifierBytes, 2);
    t6.add(kBdispBytes, 2);
    t6.add(kIbDelivery);
    all.emplace_back(PaperCells{kTable7Render, {}}).add(kTable7);
    PaperCells &t8 = all.emplace_back(PaperCells{kTable8Render, {}});
    for (const Timing &t : kTable8)
        t8.add(t.cycles, 3);
    PaperCells &t9 = all.emplace_back(PaperCells{kTable9Render, {}});
    for (const GroupCycles &g : kTable9) {
        t9.add(g.compute, 2);
        t9.add(g.total, 2);
    }
    PaperCells &s4 = all.emplace_back(PaperCells{kSection4Render, {}});
    s4.add(kIbDelivery);
    s4.add(kCacheMisses);
    s4.add(kHistogramEvents);
    return all;
}

/** Every table prints each of its paper values, and no nan or inf. */
void
expectPaperTables(const HistogramAnalyzer &an, const CompositeResult &comp)
{
    std::vector<PaperCells> all = paperCells();
    ASSERT_EQ(all.size(), std::size(kTables));
    for (const PaperCells &p : all) {
        std::string text = p.table.render(an, comp);
        std::set<std::string> printed = numbers(text);
        for (const std::string &cell : p.cells)
            EXPECT_TRUE(printed.count(cell))
                << p.table.where << " does not print the paper's " << cell
                << ":\n" << text;
        std::set<std::string> w = words(text);
        EXPECT_FALSE(w.count("nan") || w.count("inf"))
            << p.table.where << " prints a non-number:\n" << text;
    }
}

/** The line of a rendering that starts with label. */
std::string
lineOf(const std::string &text, const std::string &label)
{
    size_t at = text.find("\n" + label);
    if (at == std::string::npos)
        return "";
    return text.substr(at + 1, text.find('\n', at + 1) - at - 1);
}

const CompositeResult &
smallComposite()
{
    static const CompositeResult comp = runComposite(20'000);
    return comp;
}

} // anonymous namespace

TEST(PaperTables, EveryTablePrintsItsPaperValues)
{
    const CompositeResult &comp = smallComposite();
    HistogramAnalyzer an(microcodeRom(), comp.hist);
    ASSERT_GT(an.instructions(), 0u);
    expectPaperTables(an, comp);
}

TEST(PaperTables, EmptyCompositePrintsDashesAndEveryPaperValue)
{
    CompositeResult empty;
    HistogramAnalyzer an(microcodeRom(), empty.hist);
    expectPaperTables(an, empty);
}

TEST(PaperTables, IbDeliveryIsOneNumberInTables6AndSection4)
{
    const CompositeResult &comp = smallComposite();
    HistogramAnalyzer an(microcodeRom(), comp.hist);
    std::string t6 = kTable6Render.render(an, comp);
    std::string s4 = kSection4Render.render(an, comp);
    for (const Line &l : kIbDelivery) {
        std::string line = lineOf(t6, l.label);
        ASSERT_FALSE(line.empty()) << l.label << " missing:\n" << t6;
        EXPECT_EQ(line, lineOf(s4, l.label));
        std::string measured = TextTable::num(l.measure(an, comp), 2);
        EXPECT_EQ(line.substr(line.size() - measured.size() - 2),
                  measured + "  ")
            << line;
    }
    // Every hardware ratio is over the hardware's instruction count.
    EXPECT_DOUBLE_EQ(kIbDelivery[0].measure(an, comp),
                     double(comp.hw.ibLongwordFetches) /
                         double(comp.hw.counters.instructions));
}

} // namespace vax::test
