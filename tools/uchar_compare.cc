/**
 * @file
 * uchar_compare -- zero-tolerance diff of two ucharacterize JSON
 * reports (committed baseline vs. fresh run).
 *
 * Like bench_compare for wall-clock benchmarks, but exact: every
 * quantity in a report is a raw simulated-cycle integer, so any
 * difference at all is a real behaviour change.  Every difference is
 * reported with the opcode and specifier mode it belongs to, so a CI
 * failure reads as "MOVL (Rn)+: uwords 2816 -> 2824 (+8)".
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/parse.hh"
#include "upc/ucharacterize.hh"

namespace
{

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace vax;

    std::string base_path, cur_path;
    cli::CommandLine(
        "Exit 0 when the reports are identical, 1 with a\n"
        "named per-opcode delta report otherwise.",
        {cli::required(cli::text("BASELINE.json", "",
                                 "the committed ucharacterize --json "
                                 "report",
                                 &base_path)),
         cli::required(cli::text("CURRENT.json", "",
                                 "a fresh ucharacterize --json report",
                                 &cur_path))})
        .parse(&argc, argv);

    std::string base_text, cur_text, err;
    if (!readFile(base_path, &base_text)) {
        std::fprintf(stderr, "uchar_compare: cannot read '%s'\n",
                     base_path.c_str());
        return 2;
    }
    if (!readFile(cur_path, &cur_text)) {
        std::fprintf(stderr, "uchar_compare: cannot read '%s'\n",
                     cur_path.c_str());
        return 2;
    }

    UcharReport baseline, current;
    if (!ucharParseJson(base_text, &baseline, &err)) {
        std::fprintf(stderr, "uchar_compare: %s: %s\n",
                     base_path.c_str(), err.c_str());
        return 2;
    }
    if (!ucharParseJson(cur_text, &current, &err)) {
        std::fprintf(stderr, "uchar_compare: %s: %s\n",
                     cur_path.c_str(), err.c_str());
        return 2;
    }

    UcharDiff diff = ucharCompare(baseline, current);
    if (diff.ok()) {
        std::printf("uchar_compare: OK -- %zu rows, %zu skips, all "
                    "cycle counts identical\n",
                    current.rows.size(), current.skipped.size());
        return 0;
    }
    std::fprintf(stderr,
                 "uchar_compare: %zu difference(s) vs baseline:\n",
                 diff.messages.size());
    for (const auto &m : diff.messages)
        std::fprintf(stderr, "  %s\n", m.c_str());
    std::fprintf(stderr,
                 "If the cycle change is intentional, regenerate the "
                 "baseline:\n  ucharacterize --json --out "
                 "UCHAR_baseline.json\n");
    return 1;
}
