/**
 * @file
 * The composite golden: whole-system behaviour pinned exactly.
 *
 * COMPOSITE_golden.json (repo root) records the five-workload
 * composite at 250k cycles per part (runComposite):
 *  - "stats": the registerCompositeStats() dump, one value per name;
 *  - "table8": the 84 raw Table 8 cell counts (14 rows x 6 columns)
 *    of the composite and of each part, one row per line;
 *  - "banks": an FNV-1a of every normal and stalled histogram bank,
 *    because the dump registers only the bank totals.
 *
 * Any change to the ROM, the EBOX, codegen, VMS-lite, the RTE or the
 * merge that moves one count moves an entry here.  Comparison is
 * exact and names each delta ("part2.educational.cycles: a -> b
 * (+d)").  On a mismatch the test writes the fresh file into its
 * working directory and prints the cp command that makes it the new
 * golden.
 *
 * The file is written one value per line, so the reader below only
 * has to split lines; it accepts exactly what renderGolden() writes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/stats.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

constexpr uint64_t kCyclesPerPart = 250'000;
const char *const kGoldenPath = UPC780_COMPOSITE_GOLDEN;
const char *const kFreshName = "COMPOSITE_current.json";

constexpr size_t kRows = static_cast<size_t>(Row::NumRows);
constexpr size_t kCols = static_cast<size_t>(TimeCol::NumCols);

/** One section of the golden: (key, JSON value text) in file order. */
using Section = std::vector<std::pair<std::string, std::string>>;

/** The golden: named sections in file order. */
using Golden = std::vector<std::pair<std::string, Section>>;

std::string
bankFnv1a(const std::vector<uint64_t> &bank)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : bank) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", h);
    return buf;
}

Golden
measureComposite()
{
    CompositeResult comp = runComposite(kCyclesPerPart);

    Section stats;
    stats::Registry r;
    registerCompositeStats(r, comp);
    for (const stats::Registry::Stat *s : r.sorted())
        stats.emplace_back(s->name, stats::formatValue(*s));

    // The composite, then each part under its registry prefix.
    std::vector<std::pair<std::string, const Histogram *>> hists{
        {"composite", &comp.hist}};
    for (size_t i = 0; i < comp.parts.size(); ++i)
        hists.emplace_back("part" + std::to_string(i) + "." +
                               comp.parts[i].name,
                           &comp.parts[i].hist);

    Section table8;
    Section banks;
    for (const auto &[name, hist] : hists) {
        HistogramAnalyzer an(microcodeRom(), *hist);
        for (size_t row = 0; row < kRows; ++row) {
            std::string cells = "[";
            for (size_t col = 0; col < kCols; ++col) {
                if (col)
                    cells += ", ";
                cells += std::to_string(an.cellCycles(
                    static_cast<Row>(row), static_cast<TimeCol>(col)));
            }
            table8.emplace_back(name + "." + rowName(static_cast<Row>(row)),
                                cells + "]");
        }
        banks.emplace_back(name + ".normal", bankFnv1a(hist->normal));
        banks.emplace_back(name + ".stalled", bankFnv1a(hist->stalled));
    }
    return {{"stats", std::move(stats)},
            {"table8", std::move(table8)},
            {"banks", std::move(banks)}};
}

std::string
renderGolden(const Golden &g)
{
    std::string out = "{\n";
    for (size_t s = 0; s < g.size(); ++s) {
        out += "  \"" + g[s].first + "\": {\n";
        const Section &sec = g[s].second;
        for (size_t i = 0; i < sec.size(); ++i) {
            out += "    \"" + sec[i].first + "\": " + sec[i].second;
            out += i + 1 < sec.size() ? ",\n" : "\n";
        }
        out += s + 1 < g.size() ? "  },\n" : "  }\n";
    }
    return out + "}\n";
}

/** Read what renderGolden() writes; false with *err on anything else. */
bool
parseGolden(const std::string &text, Golden *out, std::string *err)
{
    std::istringstream in(text);
    std::string line;
    unsigned lineNo = 0;
    Section *cur = nullptr;
    while (std::getline(in, line)) {
        ++lineNo;
        size_t b = line.find_first_not_of(' ');
        if (b == std::string::npos)
            continue;
        std::string s = line.substr(b);
        if (s.back() == ',')
            s.pop_back();
        if (s == "{" || s == "}") {
            cur = nullptr;
            continue;
        }
        size_t colon = s.find("\": ", 1);
        if (s.empty() || s.front() != '"' || colon == std::string::npos) {
            *err = "line " + std::to_string(lineNo) + ": not \"key\": value";
            return false;
        }
        std::string key = s.substr(1, colon - 1);
        std::string value = s.substr(colon + 3);
        if (value == "{") {
            out->emplace_back(key, Section{});
            cur = &out->back().second;
        } else if (cur) {
            cur->emplace_back(key, value);
        } else {
            *err = "line " + std::to_string(lineNo) + ": value outside "
                "a section";
            return false;
        }
    }
    return true;
}

/**
 * Flatten to one exact quantity per key: stats keep their registry
 * names, other sections prefix theirs ("table8.composite.Decode.
 * IB-Stall", "banks.part0.timesharing-light.normal"), and a Table 8
 * row splits into its six columns.
 */
std::map<std::string, std::string>
flatten(const Golden &g)
{
    std::map<std::string, std::string> flat;
    for (const auto &[section, entries] : g) {
        std::string prefix = section == "stats" ? "" : section + ".";
        for (const auto &[key, value] : entries) {
            if (value.empty() || value.front() != '[') {
                flat[prefix + key] = value;
                continue;
            }
            std::istringstream cells(value.substr(1));
            std::string cell;
            for (size_t col = 0; std::getline(cells, cell, ','); ++col) {
                cell.erase(0, cell.find_first_not_of(' '));
                if (!cell.empty() && cell.back() == ']')
                    cell.pop_back();
                std::string name = col < kCols
                    ? timeColName(static_cast<TimeCol>(col))
                    : std::to_string(col);
                flat[prefix + key + "." + name] = cell;
            }
        }
    }
    return flat;
}

bool
asUnsigned(const std::string &s, uint64_t *v)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *v = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

/** Every differing key, named: "key: a -> b (+d)", in key order. */
std::vector<std::string>
diffGolden(const Golden &golden, const Golden &fresh)
{
    const std::map<std::string, std::string> was = flatten(golden);
    const std::map<std::string, std::string> now = flatten(fresh);
    std::vector<std::string> deltas;
    for (const auto &[key, a] : was) {
        auto it = now.find(key);
        const std::string b = it == now.end() ? "(missing)" : it->second;
        if (a == b)
            continue;
        std::string d = key + ": " + a + " -> " + b;
        uint64_t x, y;
        if (asUnsigned(a, &x) && asUnsigned(b, &y))
            d += y >= x ? " (+" + std::to_string(y - x) + ")"
                        : " (-" + std::to_string(x - y) + ")";
        deltas.push_back(d);
    }
    for (const auto &[key, b] : now)
        if (!was.count(key))
            deltas.push_back(key + ": (new) -> " + b);
    std::sort(deltas.begin(), deltas.end());
    return deltas;
}

} // anonymous namespace

TEST(CompositeGolden, MatchesCommittedGolden)
{
    const Golden current = measureComposite();

    std::vector<std::string> deltas;
    std::ifstream in(kGoldenPath);
    if (!in) {
        deltas.push_back(std::string("cannot read ") + kGoldenPath);
    } else {
        std::stringstream text;
        text << in.rdbuf();
        Golden golden;
        std::string err;
        if (parseGolden(text.str(), &golden, &err))
            deltas = diffGolden(golden, current);
        else
            deltas.push_back(std::string(kGoldenPath) + ": " + err);
    }
    if (deltas.empty())
        return;

    const std::filesystem::path out =
        std::filesystem::current_path() / kFreshName;
    std::ofstream(out) << renderGolden(current);
    std::string report;
    for (const std::string &d : deltas)
        report += "  " + d + "\n";
    ADD_FAILURE() << "the composite no longer matches " << kGoldenPath
                  << ":\n" << report
                  << "If the change is intended, commit the fresh "
                     "measurement:\n  cp "
                  << out.string() << " " << kGoldenPath;
}

TEST(CompositeGolden, DiffNamesEveryDelta)
{
    const Golden golden = {
        {"stats", {{"part2.educational.cycles", "250004"},
                   {"part2.educational.upc.stallFraction", "0.25"},
                   {"part3.scientific.dataReads", "7"}}},
        {"table8", {{"composite.Decode", "[10, 0, 0, 0, 0, 5]"}}},
        {"banks", {{"composite.normal", "\"00000000000000ff\""}}},
    };
    Golden fresh = golden;
    fresh[0].second[0].second = "250010";
    fresh[0].second[1].second = "0.5";
    fresh[0].second.pop_back();
    fresh[0].second.emplace_back("part4.commercial.dataReads", "3");
    fresh[1].second[0].second = "[10, 0, 0, 0, 0, 2]";
    fresh[2].second[0].second = "\"00000000000000fe\"";

    // Round-trip through the file format first, as the real test does.
    Golden parsed;
    std::string err;
    ASSERT_TRUE(parseGolden(renderGolden(fresh), &parsed, &err)) << err;
    EXPECT_EQ(flatten(parsed), flatten(fresh));

    const std::vector<std::string> want = {
        "banks.composite.normal: \"00000000000000ff\" -> "
        "\"00000000000000fe\"",
        "part2.educational.cycles: 250004 -> 250010 (+6)",
        "part2.educational.upc.stallFraction: 0.25 -> 0.5",
        "part3.scientific.dataReads: 7 -> (missing)",
        "part4.commercial.dataReads: (new) -> 3",
        "table8.composite.Decode.IB-Stall: 5 -> 2 (-3)",
    };
    EXPECT_EQ(diffGolden(golden, parsed), want);
    EXPECT_TRUE(diffGolden(golden, golden).empty());
}

} // namespace vax::test
