/**
 * @file
 * ucode_bounds -- static cycle-bound analysis of the production
 * microcode, and the static-vs-dynamic consistency gate.
 *
 * Runs the ubound pass (src/analysis/ubound) over the built ROM and
 * prints the per-dispatch-root [bcc, wcc] cycle bounds as text
 * (default), CSV or JSON.  With --check, a committed ucharacterize
 * baseline is cross-validated: every measured row's whole-program
 * cycle count must fall inside the statically composed bounds
 * (sum over the variant's instruction profile of count x [lo, hi]),
 * with named per-opcode violations and exit 1 on any breach.  All
 * output is byte-identical across runs and --jobs settings.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/ubound.hh"
#include "driver/sim_pool.hh"
#include "support/parse.hh"
#include "support/stats.hh"
#include "ucode/rom.hh"
#include "upc/ucharacterize.hh"
#include "workload/uchar_corpus.hh"

namespace
{

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    std::fclose(f);
    return true;
}

bool
writeFile(const char *prog, const std::string &path,
          const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f && std::fputs(text.c_str(), f) >= 0;
    if (f && std::fclose(f) != 0)
        ok = false;
    if (!ok)
        std::fprintf(stderr, "%s: cannot write '%s'\n", prog,
                     path.c_str());
    return ok;
}

/** Static whole-program bounds of one generated variant: the profile
 *  counts times the per-instruction composed range. */
vax::UBoundAnalysis::Range
programBounds(const vax::UBoundAnalysis &ub,
              const vax::UcharProgram &prog, std::string *why)
{
    using Range = vax::UBoundAnalysis::Range;
    Range total;
    total.valid = true;
    for (const vax::UcharProfileEntry &e : prog.profile) {
        std::vector<vax::UBoundAnalysis::SpecUse> specs;
        specs.reserve(e.specs.size());
        for (const vax::UcharSpecUse &s : e.specs)
            specs.push_back({s.mode, s.indexed});
        Range ir = ub.instrRange(e.opcode, specs);
        if (!ir.valid) {
            *why = std::string("no static bound for opcode ") +
                vax::opcodeInfo(e.opcode).mnemonic;
            return Range{};
        }
        total.lo += e.count * ir.lo;
        total.hi += e.count * ir.hi;
    }
    return total;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace vax;

    bool json = false, csv = false;
    std::optional<unsigned> jobs;
    std::string statsPath, check_path, annotate_path, out_path;
    cli::CommandLine cl(
        "Static cycle-bound analysis of the microcode ROM.",
        {cli::text("--check", "FILE",
                   "cross-check a ucharacterize baseline JSON:\n"
                   "every measured row must satisfy\n"
                   "bcc <= cycles <= wcc (exit 1 on breach)",
                   &check_path),
         cli::text("--annotate", "FILE",
                   "with --check: write the baseline back out\n"
                   "with bcc/wcc columns attached per row",
                   &annotate_path),
         cli::flag("--json", "emit the bounds report as JSON", &json),
         cli::flag("--csv", "emit the bounds report as CSV", &csv),
         cli::text("--out", "FILE",
                   "write the report to FILE instead of stdout",
                   &out_path),
         jobsFlag(&jobs, "worker threads for the baseline check (0 =\n"
                         "one per core; output is byte-identical at\n"
                         "any worker count)"),
         cli::text("--stats-json", "FILE",
                   "also dump ubound.* / uchar.bounds.* stats",
                   &statsPath)});
    cl.parse(&argc, argv);
    if (json && csv)
        cl.fail("pick one of --json / --csv");
    if (!annotate_path.empty() && check_path.empty())
        cl.fail("--annotate requires --check");
    SimPool pool(jobs.value_or(envJobs()));

    UBoundAnalysis ub(microcodeRom());
    UBoundReport report = ub.report();

    UcharReport baseline;
    bool checked = false;
    if (!check_path.empty()) {
        std::string text, err;
        if (!readFile(check_path, &text)) {
            std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0],
                         check_path.c_str());
            return 2;
        }
        if (!ucharParseJson(text, &baseline, &err)) {
            std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                         check_path.c_str(), err.c_str());
            return 2;
        }
        checked = true;

        // Regenerate the corpus at the baseline's parameters: each
        // variant carries the exact instruction profile of the image
        // the measurement ran.
        UcharParams params;
        params.iters = baseline.params.iters;
        params.unroll = baseline.params.unroll;
        params.maxCycles = baseline.params.maxCycles;
        std::vector<UcharVariant> variants =
            ucharEnumerate(params, UcharSuiteOptions{});
        std::map<std::string, const UcharProgram *> byKey;
        for (const UcharVariant &v : variants)
            if (v.runnable)
                byKey.emplace(v.op + "\t" + v.mode, &v.prog);

        // Per-row bound composition, fanned out deterministically:
        // results land by index, so any schedule yields the same
        // report.
        struct RowBound
        {
            bool found = false;
            bool valid = false;
            std::string why;
            uint64_t lo = 0, hi = 0;
        };
        std::vector<RowBound> rb(baseline.rows.size());
        pool.forEach(baseline.rows.size(), [&](size_t i) {
            const UcharRow &row = baseline.rows[i];
            auto it = byKey.find(row.op + "\t" + row.mode);
            if (it == byKey.end())
                return;
            rb[i].found = true;
            auto r = programBounds(ub, *it->second, &rb[i].why);
            rb[i].valid = r.valid;
            rb[i].lo = r.lo;
            rb[i].hi = r.hi;
        });

        for (size_t i = 0; i < baseline.rows.size(); ++i) {
            UcharRow &row = baseline.rows[i];
            std::string name = row.op + " " + row.mode;
            if (!rb[i].found) {
                UBoundDiag d;
                d.check = UBoundCheck::Baseline;
                d.where = name;
                d.message =
                    "baseline row has no runnable corpus variant";
                report.diags.push_back(std::move(d));
                continue;
            }
            if (!rb[i].valid) {
                UBoundDiag d;
                d.check = UBoundCheck::Baseline;
                d.where = name;
                d.message = rb[i].why;
                report.diags.push_back(std::move(d));
                continue;
            }
            row.bcc = rb[i].lo;
            row.wcc = rb[i].hi;
            row.hasBounds = true;
            uboundCheckMeasured(name, row.run.cycles, rb[i].lo,
                                rb[i].hi, &report.diags);
        }

        // The shared calibration loop is a measured quantity too.
        {
            UcharProgram calib = ucharCalibration(params);
            std::string why;
            auto r = programBounds(ub, calib, &why);
            if (!r.valid) {
                UBoundDiag d;
                d.check = UBoundCheck::Baseline;
                d.where = "(calibration)";
                d.message = why;
                report.diags.push_back(std::move(d));
            } else {
                uboundCheckMeasured("(calibration)",
                                    baseline.calibration.cycles, r.lo,
                                    r.hi, &report.diags);
            }
        }

        if (!annotate_path.empty() &&
            !writeFile(argv[0], annotate_path, ucharJson(baseline)))
            return 1;
    }

    std::string text = json ? report.json()
        : csv             ? report.csv()
                          : report.text();
    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
    } else if (!writeFile(argv[0], out_path, text)) {
        return 1;
    }

    if (!statsPath.empty()) {
        stats::Registry reg;
        regUBoundStats(report, reg, "ubound");
        if (checked)
            regUcharBounds(reg, "uchar.", baseline);
        if (!reg.saveJson(statsPath))
            return 1;
    }
    return report.clean() ? 0 : 1;
}
