/**
 * @file
 * ucharacterize -- generate and run the per-opcode x specifier-mode
 * characterization suite, and publish the table.
 *
 * Every implemented opcode is crossed with every legal specifier
 * class, each cell runs as a steady-state microbenchmark through the
 * UPC monitor, and the per-instruction metrics (cycles, microwords,
 * stall anatomy, throughput) are printed as text (default), CSV or
 * JSON.  The JSON form is the committed-baseline format consumed by
 * uchar_compare; all three forms are byte-identical for a given
 * corpus regardless of --jobs.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/sim_pool.hh"
#include "support/parse.hh"
#include "support/stats.hh"
#include "upc/ucharacterize.hh"
#include "workload/uchar_corpus.hh"

namespace
{

void
printUsage(const char *prog, std::FILE *out)
{
    std::fprintf(out,
        "usage: %s [options]\n"
        "\n"
        "Run the per-opcode x specifier-mode characterization suite.\n"
        "\n"
        "options:\n"
        "  --json            emit the report as JSON (baseline format)\n"
        "  --csv             emit the report as CSV\n"
        "  --out FILE        write the report to FILE instead of stdout\n"
        "  --jobs N          worker threads (0 = one per core; output\n"
        "                    is byte-identical at any worker count)\n"
        "  --opcode LIST     only the comma-separated mnemonics\n"
        "  --smoke           small corpus (a fixed opcode subset) with\n"
        "                    a short loop -- the ctest smoke entry\n"
        "  --iters N         steady-state loop iterations (default 16)\n"
        "  --unroll N        copies per iteration (default 8)\n"
        "  --stats-json FILE also dump suite stats (uchar.* registry)\n"
        "  --help            this message\n",
        prog);
}

bool
parseValueFlag(int *argc, char **argv, const char *name,
               std::string *value)
{
    size_t len = std::strlen(name);
    for (int i = 1; i < *argc; ++i) {
        const char *arg = argv[i];
        bool match_split = std::strcmp(arg, name) == 0;
        bool match_eq = std::strncmp(arg, name, len) == 0 &&
            arg[len] == '=';
        if (!match_split && !match_eq)
            continue;
        int used = 1;
        if (match_eq) {
            *value = arg + len + 1;
        } else {
            if (i + 1 >= *argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], name);
                std::exit(2);
            }
            *value = argv[i + 1];
            used = 2;
        }
        for (int j = i; j + used <= *argc; ++j)
            argv[j] = argv[j + used];
        *argc -= used;
        return true;
    }
    return false;
}

uint32_t
parseU32(const char *prog, const char *what, const std::string &s)
{
    std::optional<uint64_t> v = vax::parseCount(s, UINT32_MAX);
    if (!v || !*v) {
        std::fprintf(stderr, "%s: bad %s '%s' (positive integer)\n",
                     prog, what, s.c_str());
        std::exit(2);
    }
    return static_cast<uint32_t>(*v);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace vax;

    if (parseBoolFlag(&argc, argv, "help")) {
        printUsage(argv[0], stdout);
        return 0;
    }

    bool json = parseBoolFlag(&argc, argv, "json");
    bool csv = parseBoolFlag(&argc, argv, "csv");
    bool smoke = parseBoolFlag(&argc, argv, "smoke");
    unsigned jobs = parseJobsFlag(&argc, argv, envJobs(0));
    std::string statsPath = stats::parseStatsJsonFlag(&argc, argv);

    UcharParams params;
    UcharSuiteOptions opts;
    std::string out_path, value;
    if (parseValueFlag(&argc, argv, "--out", &value))
        out_path = value;
    if (parseValueFlag(&argc, argv, "--opcode", &value))
        opts.opcodeFilter = value;
    if (smoke) {
        params.iters = 4;
        if (opts.opcodeFilter.empty())
            opts.opcodeFilter = "MOVL,ADDL3,CMPB,JMP,CALLS,RET,"
                                "SOBGTR,EXTV,MULF2,MOVC3,ADDP4,"
                                "INSQUE,MTPR";
    }
    if (parseValueFlag(&argc, argv, "--iters", &value))
        params.iters = parseU32(argv[0], "--iters", value);
    if (parseValueFlag(&argc, argv, "--unroll", &value))
        params.unroll = parseU32(argv[0], "--unroll", value);

    if (argc > 1) {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n\n",
                     argv[0], argv[1]);
        printUsage(argv[0], stderr);
        return 2;
    }
    if (json && csv) {
        std::fprintf(stderr, "%s: pick one of --json / --csv\n",
                     argv[0]);
        return 2;
    }

    SimPool pool(jobs);
    ParallelFor pf = [&pool](size_t n,
                             const std::function<void(size_t)> &fn) {
        pool.forEach(n, fn);
    };
    UcharReport rep = runUcharSuite(params, pf, opts);

    std::string text = json ? ucharJson(rep)
        : csv             ? ucharCsv(rep)
                          : ucharText(rep);
    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        bool ok = f && std::fputs(text.c_str(), f) >= 0;
        if (f && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                         out_path.c_str());
            return 1;
        }
    }

    if (!statsPath.empty()) {
        stats::Registry reg;
        regUcharStats(reg, "uchar.", rep);
        if (!reg.saveJson(statsPath))
            return 1;
    }
    return 0;
}
