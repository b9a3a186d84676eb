/**
 * @file
 * perfbench -- driver of the characterization benchmark (README.md).
 *
 * usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE]
 *
 * Run from the repository root (uchar_suite reads
 * UCHAR_baseline.json there).  Runs cold characterizations of one
 * workload back to back on this thread for S seconds (and at least
 * kMinSamples of them), checks every one, and prints two JSON lines:
 * the per-sample record, then the result {"correct", "attempted",
 * "failed", "metrics"}.
 *
 * --trace 0 reports the end-to-end metrics.  --trace 1 alternates
 * untraced and traced samples, runs the probes once, writes every
 * span to --trace-out as Chrome trace-event JSON, and reports the
 * per-layer metrics; the tracing overhead is the best traced
 * characterization time minus the best untraced one.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "characterize.hh"
#include "probes.hh"
#include "spans.hh"
#include "support/stats.hh"

using namespace perfbench;
using namespace vax;

namespace
{

struct Workload
{
    const char *name;
    uint64_t cycles; ///< per-job budget; 0 marks the uchar suite
};

constexpr Workload kWorkloads[] = {
    {"composite_short", 250'000},
    {"composite_long", 4'000'000},
    {"uchar_suite", 0},
};

/** Per-job budget of the probe composite on uchar_suite, which has no
 *  composite of its own: composite_short's. */
constexpr uint64_t kUcharProbeCycles = 250'000;

/** Samples of each kind a run takes however short --seconds is. */
constexpr size_t kMinSamples = 3;

/** Wall seconds between re-choosing the fastest CPU. */
constexpr double kRepinSeconds = 2.0;

/** The src/ modules spans are attributed to, plus the benchmark. */
const char *const kLayers[] = {"bench", "cpu",   "driver",
                               "mem",   "os",    "support",
                               "ucode", "upc",   "workload"};

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "composite_short|composite_long|uchar_suite\n"
                 "                 --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseU64(const std::string &flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || errno || s[0] == '-')
        usage("bad value for " + flag);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i += 2) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *val = argv[i + 1];
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, val) == 0)
                    o.workload = &w;
            if (!o.workload)
                usage(std::string("unknown workload ") + val);
        } else if (flag == "--seed") {
            o.seed = parseU64(flag, val);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(val, &end);
            if (!*val || *end || !(o.seconds >= 0.0 && o.seconds <= 3600))
                usage("bad value for --seconds");
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = val[0] - '0';
        } else if (flag == "--trace-out") {
            o.traceOut = val;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!o.workload || o.seconds < 0.0 || o.trace < 0)
        usage("--workload, --seconds and --trace are required");
    return o;
}

UcharReport
loadBaseline(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    UcharReport rep;
    std::string err = "cannot read it";
    if (!in || !ucharParseJson(text.str(), &rep, &err)) {
        std::fprintf(stderr, "perfbench: baseline %s: %s\n", path,
                     err.c_str());
        std::exit(1);
    }
    return rep;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Spans called name, or name followed by a ".detail". */
std::vector<const Span *>
named(const SpanRecorder &rec, const std::string &name)
{
    std::vector<const Span *> out;
    for (const Span &s : rec.spans())
        if (s.name == name || s.name.rfind(name + ".", 0) == 0)
            out.push_back(&s);
    return out;
}

double
totalSeconds(const std::vector<const Span *> &spans)
{
    double t = 0.0;
    for (const Span *s : spans)
        t += s->seconds();
    return t;
}

double
medianMs(const std::vector<const Span *> &spans)
{
    std::vector<double> v;
    for (const Span *s : spans)
        v.push_back(s->seconds());
    return median(v) * 1e3;
}

uint64_t
totalCount(const std::vector<const Span *> &spans, const std::string &key)
{
    uint64_t n = 0;
    for (const Span *s : spans)
        n += s->count(key);
    return n;
}

double
nsPerCycle(const std::vector<const Span *> &spans)
{
    uint64_t cycles = totalCount(spans, "cycles");
    return cycles ? totalSeconds(spans) * 1e9 / double(cycles) : 0.0;
}

/**
 * The best sample of a run: the least of f, or the greatest when
 * higher is better.  The benchmark's reference host runs at one of
 * two speeds about 1.6x apart, switching every ten seconds or so (see
 * README.md); a run's median says which speed the run landed on, its
 * best sample what the work costs.  The noise is a slowdown, never a
 * speed-up, so the best sample is the stable estimate.
 */
double
best(const std::vector<Sample> &samples, double (*f)(const Sample &),
     bool higherIsBetter = false)
{
    double b = f(samples.front());
    for (const Sample &s : samples)
        b = higherIsBetter ? std::max(b, f(s)) : std::min(b, f(s));
    return b;
}

double
characterization(const Sample &s)
{
    return s.characterizationSeconds;
}

std::vector<Metric>
endToEndMetrics(const std::vector<Sample> &plain, double peakMb)
{
    return {
        {"characterization_s", best(plain, characterization), "s"},
        {"setup_s",
         best(plain, [](const Sample &s) { return s.setupSeconds; }), "s"},
        {"sim_mcycles_per_s",
         best(
             plain,
             [](const Sample &s) {
                 return double(s.retiredCycles) / s.runSeconds / 1e6;
             },
             true),
         "Mcycles/s"},
        {"sim_kips",
         best(
             plain,
             [](const Sample &s) {
                 return double(s.instructions) / s.runSeconds / 1e3;
             },
             true),
         "kinstr/s"},
        {"peak_rss_mb", peakMb, "MB"},
        {"paper_cpi_error",
         std::fabs(plain.front().cpi - kPaperCpi) / kPaperCpi, "ratio"},
    };
}

std::vector<Metric>
layerMetrics(const SpanRecorder &rec, const ProbeResult &pr,
             const std::vector<SimJob> &jobs,
             const std::vector<Sample> &plain,
             const std::vector<Sample> &traced)
{
    std::vector<Metric> m;
    auto add = [&m](std::string name, double v, const char *unit) {
        m.push_back({std::move(name), v, unit});
    };

    add("ucode.rom_build_ms", medianMs(named(rec, "ucode.rom_build")),
        "ms");
    std::vector<const Span *> codegen = named(rec, "workload.codegen");
    add("workload.codegen_ms", totalSeconds(codegen) * 1e3, "ms");
    add("workload.codegen_users", double(totalCount(codegen, "users")),
        "count");
    add("workload.image_kb",
        double(totalCount(codegen, "image_bytes")) / 1024.0, "KiB");
    add("workload.uchar_enumerate_ms",
        medianMs(named(rec, "workload.uchar_enumerate")), "ms");
    add("os.boot_ms", totalSeconds(named(rec, "os.boot")) * 1e3, "ms");
    add("cpu.run_ns_per_cycle", nsPerCycle(named(rec, "cpu.run")),
        "ns/cycle");
    for (const SimJob &j : jobs)
        add("cpu.run_ns_per_cycle." + j.profile.name,
            nsPerCycle(named(rec, "cpu.run." + j.profile.name)),
            "ns/cycle");
    add("cpu.regloop_ns_per_cycle", pr.regLoopNs, "ns/cycle");
    add("mem.memloop_ns_per_cycle", pr.memLoopNs - pr.regLoopNs,
        "ns/cycle");
    add("upc.monitor_ns_per_cycle", pr.monLoopNs - pr.regLoopNs,
        "ns/cycle");
    add("upc.analyze_ms", medianMs(named(rec, "upc.analyze")), "ms");
    std::vector<const Span *> rows = named(rec, "upc.uchar_row");
    add("upc.uchar_row_ms",
        rows.empty() ? 0.0 : totalSeconds(rows) * 1e3 / double(rows.size()),
        "ms");
    add("driver.merge_ms", medianMs(named(rec, "driver.merge")), "ms");
    add("support.stats_dump_ms", medianMs(named(rec, "support.stats_dump")),
        "ms");
    std::vector<const Span *> saves = named(rec, "support.snapshot_save");
    add("support.snapshot_save_ms", totalSeconds(saves) * 1e3, "ms");
    add("support.snapshot_restore_ms",
        totalSeconds(named(rec, "support.snapshot_restore")) * 1e3, "ms");
    add("support.snapshot_kb", double(totalCount(saves, "bytes")) / 1024.0,
        "KiB");

    // Simulated, and exact for a given seed.
    const CompositeAnalysis &c = pr.composite;
    const HwTotals &hw = c.comp.hw;
    uint64_t reads = hw.cache.readRefsI + hw.cache.readRefsD;
    add("cpu.cpi", c.cpi, "cycles/instr");
    add("cpu.ib_stall_cpi", c.ibStallCpi, "cycles/instr");
    add("cpu.microtraps", double(hw.counters.microTraps), "count");
    add("mem.tb_lookups", double(hw.tb.lookupsI + hw.tb.lookupsD), "count");
    add("mem.tb_misses", double(hw.tb.missesI + hw.tb.missesD), "count");
    add("mem.cache_read_miss_ratio",
        reads ? double(hw.cache.readMissesI + hw.cache.readMissesD) /
                double(reads)
              : 0.0,
        "ratio");
    add("mem.ib_fetches", double(hw.ibLongwordFetches), "count");
    add("mem.read_stall_cpi", c.readStallCpi, "cycles/instr");
    add("mem.write_stall_cpi", c.writeStallCpi, "cycles/instr");
    add("os.context_switches", double(hw.counters.contextSwitches),
        "count");
    add("os.interrupts", double(hw.counters.interrupts), "count");
    add("workload.rte_lines", double(hw.terminalLinesIn), "count");
    add("workload.disk_transfers", double(hw.diskTransfers), "count");

    add("bench.tracing_overhead_ms",
        (best(traced, characterization) - best(plain, characterization)) *
            1e3,
        "ms");
    double wall = rec.rootSeconds();
    add("bench.traced_wall_s", wall, "s");
    std::map<std::string, double> self = rec.layerSelfSeconds();
    for (const char *layer : kLayers)
        add(std::string(layer) + ".self_share",
            wall > 0.0 ? self[layer] / wall : 0.0, "ratio");
    return m;
}

/** Seconds of a fixed integer and cache workload that does not touch
 *  the simulator: a gauge of how fast this CPU runs right now. */
double
gauge()
{
    static std::vector<uint32_t> table(1u << 16);
    uint32_t x = 2463534242u;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 1'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        table[x & 0xffff] += x;
    }
    double s = secondsSince(t0);
    // Keep the loop: its result is otherwise never read.
    asm volatile("" : : "r"(x), "r"(table.data()) : "memory");
    return s;
}

/**
 * Move the driver to the allowed CPU that gauges fastest.  The
 * reference host's vCPUs slow down independently, by up to 1.6x, as
 * other tenants load their physical cores (README.md), and a sample
 * on a slowed vCPU measures the neighbour.  The choice is redone
 * between samples every few seconds; it never runs inside a sample.
 */
void
pinToFastestCpu()
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    int fastest = -1;
    double fastestSeconds = 0.0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0)
            continue;
        double s = std::min(gauge(), gauge());
        if (fastest < 0 || s < fastestSeconds) {
            fastest = c;
            fastestSeconds = s;
        }
    }
    cpu_set_t pick = allowed;
    if (fastest >= 0) {
        CPU_ZERO(&pick);
        CPU_SET(fastest, &pick);
    }
    sched_setaffinity(0, sizeof(pick), &pick);
}

void
report(const char *what, const std::vector<std::string> &problems)
{
    for (const std::string &p : problems)
        std::fprintf(stderr, "perfbench: %s: %s\n", what, p.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const bool composite = o.workload->cycles != 0;
    const std::vector<SimJob> jobs = seededCompositeJobs(
        o.seed, composite ? o.workload->cycles : kUcharProbeCycles);
    const UcharParams params;

    // Untimed references the samples are checked against.
    UcharReport baseline;
    std::string poolDump;
    if (composite) {
        CompositeResult ref = SimPool(1).runComposite(jobs);
        stats::Registry reg;
        registerCompositeStats(reg, ref);
        poolDump = reg.dumpJson();
    } else {
        baseline = loadBaseline("UCHAR_baseline.json");
    }

    std::unique_ptr<SpanRecorder> rec;
    if (o.trace)
        rec = std::make_unique<SpanRecorder>();

    std::vector<Sample> plain, traced;
    std::string firstDump;
    // Peak memory through the first sample.  Later samples add only
    // what each ROM build leaks (README.md), which grows with the
    // sample count and so with the host's speed.
    double peakMb = 0.0;
    uint64_t attempted = 0, failed = 0;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point pinned = t0 - std::chrono::hours(1);
    for (uint64_t k = 0;; ++k) {
        if (secondsSince(pinned) >= kRepinSeconds) {
            pinToFastestCpu();
            pinned = Clock::now();
        }
        SpanRecorder *r = rec && k % 2 ? rec.get() : nullptr;
        if (r)
            r->setGroup(k);
        Sample s = composite
            ? runCompositeSample(jobs, r)
            : runUcharSample(params, baseline, r);
        if (k == 0) {
            peakMb = peakRssMb();
            firstDump = s.dump;
            if (composite && s.dump != poolDump)
                s.problems.push_back("the composite differs from "
                                     "SimPool(1).runComposite of the "
                                     "same jobs");
        } else if (s.dump != firstDump) {
            s.problems.push_back("simulated statistics differ from "
                                 "sample 0 of the same seed");
        }
        ++attempted;
        if (!s.problems.empty()) {
            ++failed;
            report(("sample " + std::to_string(k)).c_str(), s.problems);
        }
        s.dump.clear();
        s.dump.shrink_to_fit();
        (r ? traced : plain).push_back(std::move(s));
        bool enough = plain.size() >= kMinSamples &&
            (!rec || traced.size() >= kMinSamples);
        if (enough && secondsSince(t0) >= o.seconds)
            break;
    }

    std::vector<Metric> metrics;
    if (!rec) {
        metrics = endToEndMetrics(plain, peakMb);
    } else {
        rec->setGroup(attempted);
        ProbeResult pr = runProbes(jobs, params, *rec);
        if (composite && pr.composite.dump != firstDump)
            pr.problems.push_back("the checkpointed probe composite "
                                  "differs from the characterization");
        ++attempted;
        if (!pr.problems.empty()) {
            ++failed;
            report("probes", pr.problems);
        }
        metrics = layerMetrics(*rec, pr, jobs, plain, traced);
        if (!o.traceOut.empty()) {
            std::ofstream f(o.traceOut, std::ios::binary);
            f << rec->chromeTrace();
            f.close();
            if (!f) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             o.traceOut.c_str());
                return 1;
            }
        }
    }
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
    }

    // The per-sample record, for the self-test and for readers.
    std::string detail = "{\"samples\": [";
    auto addSamples = [&detail](const std::vector<Sample> &v, bool tr) {
        for (const Sample &s : v) {
            if (detail.back() != '[')
                detail += ", ";
            detail += std::string("{\"traced\": ") +
                (tr ? "true" : "false") +
                ", \"characterization_s\": " +
                num(s.characterizationSeconds) +
                ", \"setup_s\": " + num(s.setupSeconds) +
                ", \"run_s\": " + num(s.runSeconds) +
                ", \"retired_cycles\": " + std::to_string(s.retiredCycles) +
                ", \"requested_cycles\": " +
                std::to_string(s.requestedCycles) +
                ", \"instructions\": " + std::to_string(s.instructions) +
                "}";
        }
    };
    addSamples(plain, false);
    addSamples(traced, true);
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, fnv1a(firstDump));
    detail += std::string("], \"dump_fnv1a\": \"") + hash + "\"}";
    std::printf("%s\n", detail.c_str());

    std::string out = std::string("{\"correct\": ") +
        (failed ? "false" : "true") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
