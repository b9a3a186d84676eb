#include "upc/ucharacterize.hh"

#include <cctype>
#include <cinttypes>
#include <cstring>
#include <map>

#include "cpu/cpu.hh"
#include "support/sim_error.hh"
#include "support/stats.hh"
#include "support/ujson.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

namespace vax
{

namespace
{

constexpr size_t kNumCols = static_cast<size_t>(TimeCol::NumCols);

/** JSON/CSV field names for the Table 8 column sums, in TimeCol
 *  order. */
constexpr const char *kColKeys[kNumCols] = {
    "compute", "read", "rstall", "write", "wstall", "ibstall",
};

} // anonymous namespace

UcharOutcome
runUcharProgram(const UcharProgram &prog, const UcharParams &params)
{
    UcharOutcome out;
    // Guard the run: an unsupported variant that panics inside the
    // microcode (or the engine) must become a named skip, not a
    // process abort.  The scope also labels any SimError with the
    // variant's name.
    guard::Scope scope("uchar:" + prog.op + " " + prog.mode, 0x780);
    try {
        Cpu780 cpu;
        cpu.mem().setMapEnable(false);
        UpcMonitor monitor;
        cpu.setCycleSink(&monitor);
        for (const UcharPoke &poke : prog.pokes)
            cpu.mem().phys().load(poke.addr, *poke.bytes);
        cpu.mem().phys().load(prog.base, prog.image);
        cpu.reset(prog.base);
        cpu.ebox().setGpr(SP, prog.sp);
        bool halted = cpu.run(params.maxCycles);
        if (!halted) {
            out.reason = "did not halt within the cycle budget";
            return out;
        }
        HistogramAnalyzer an(cpu.controlStore(), monitor.histogram());
        if (an.instructions() != prog.expectedInstructions) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "instruction-count mismatch (expected %llu, "
                          "got %llu)",
                          static_cast<unsigned long long>(
                              prog.expectedInstructions),
                          static_cast<unsigned long long>(
                              an.instructions()));
            out.reason = buf;
            return out;
        }
        // The monitor counts every cycle the machine runs, so this
        // proves no count lies outside the control store: the columns
        // below then account for both banks in full.
        if (an.totalCycles() != cpu.cycles()) {
            char buf[112];
            std::snprintf(buf, sizeof(buf),
                          "classified-cycle mismatch (machine ran %llu, "
                          "histogram classified %llu)",
                          static_cast<unsigned long long>(cpu.cycles()),
                          static_cast<unsigned long long>(
                              an.totalCycles()));
            out.reason = buf;
            return out;
        }
        out.run.cycles = an.totalCycles();
        out.run.instructions = an.instructions();
        for (size_t c = 0; c < kNumCols; ++c) {
            uint64_t sum = 0;
            for (size_t r = 0;
                 r < static_cast<size_t>(Row::NumRows); ++r) {
                sum += an.cellCycles(static_cast<Row>(r),
                                     static_cast<TimeCol>(c));
            }
            out.run.cols[c] = sum;
        }
        // timeColsFor puts every normal cycle in exactly one of these
        // three columns, so they sum to the normal bank.
        for (TimeCol c : {TimeCol::Compute, TimeCol::Read, TimeCol::Write})
            out.run.uwords += out.run.cols[static_cast<size_t>(c)];
        uint64_t tb = 0;
        for (size_t c = 0; c < kNumCols; ++c)
            tb += an.cellCycles(Row::MemMgmt, static_cast<TimeCol>(c));
        out.run.tbService = tb;
        out.ok = true;
    } catch (const SimError &e) {
        out.reason = std::string("fault: ") + e.what();
    }
    return out;
}

double
UcharReport::perCopyCycles(const UcharRow &r) const
{
    double copies =
        static_cast<double>(params.iters) * params.unroll;
    if (copies <= 0)
        return 0.0;
    return (static_cast<double>(r.run.cycles) -
            static_cast<double>(calibration.cycles)) /
        copies;
}

// ---------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------

namespace
{

using ujson::appendf;

/** Per-copy delta of one raw field against the calibration run. */
double
perCopy(const UcharReport &rep, uint64_t meas, uint64_t calib)
{
    double copies =
        static_cast<double>(rep.params.iters) * rep.params.unroll;
    if (copies <= 0)
        return 0.0;
    return (static_cast<double>(meas) - static_cast<double>(calib)) /
        copies;
}

} // anonymous namespace

std::string
ucharText(const UcharReport &rep)
{
    std::string s;
    appendf(&s,
            "ucharacterize: per-opcode x specifier-mode "
            "characterization\n"
            "params: iters=%u unroll=%u (costs below are per "
            "unrolled copy, calibration-loop delta)\n"
            "calibration: %" PRIu64 " cycles, %" PRIu64
            " instructions, %" PRIu64 " microwords\n\n",
            rep.params.iters, rep.params.unroll,
            rep.calibration.cycles, rep.calibration.instructions,
            rep.calibration.uwords);
    appendf(&s, "%-8s %-12s %2s %8s %8s %7s %7s %7s %7s %7s %7s\n",
            "op", "mode", "n", "cyc", "uword", "compute", "read",
            "rstall", "write", "wstall", "ibstall");
    for (const auto &r : rep.rows) {
        appendf(&s, "%-8s %-12s %2u %8.2f %8.2f", r.op.c_str(),
                r.mode.c_str(), r.ipc, rep.perCopyCycles(r),
                perCopy(rep, r.run.uwords, rep.calibration.uwords));
        for (size_t c = 0; c < kNumCols; ++c)
            appendf(&s, " %7.2f",
                    perCopy(rep, r.run.cols[c],
                            rep.calibration.cols[c]));
        s += '\n';
    }
    appendf(&s, "\n%zu variants measured, %zu skipped\n",
            rep.rows.size(), rep.skipped.size());
    if (!rep.skipped.empty()) {
        s += "\nskipped (no silent omissions -- every enumerated "
             "variant is accounted for):\n";
        for (const auto &k : rep.skipped)
            appendf(&s, "  %-8s %-12s %s\n", k.op.c_str(),
                    k.mode.c_str(), k.reason.c_str());
    }
    return s;
}

std::string
ucharCsv(const UcharReport &rep)
{
    std::string s = "op,mode,ipc,cycles,instructions,uwords";
    for (const char *k : kColKeys) {
        s += ',';
        s += k;
    }
    s += ",tb,cycles_per_copy\n";
    for (const auto &r : rep.rows) {
        appendf(&s, "%s,%s,%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64,
                r.op.c_str(), r.mode.c_str(), r.ipc, r.run.cycles,
                r.run.instructions, r.run.uwords);
        for (size_t c = 0; c < kNumCols; ++c)
            appendf(&s, ",%" PRIu64, r.run.cols[c]);
        appendf(&s, ",%" PRIu64 ",%.4f\n", r.run.tbService,
                rep.perCopyCycles(r));
    }
    for (const auto &k : rep.skipped)
        appendf(&s, "%s,%s,skipped,\"%s\"\n", k.op.c_str(),
                k.mode.c_str(), k.reason.c_str());
    return s;
}

namespace
{

void
jsonRun(std::string &s, const UcharRun &run)
{
    appendf(&s,
            "\"cycles\": %" PRIu64 ", \"instructions\": %" PRIu64
            ", \"uwords\": %" PRIu64,
            run.cycles, run.instructions, run.uwords);
    for (size_t c = 0; c < kNumCols; ++c)
        appendf(&s, ", \"%s\": %" PRIu64, kColKeys[c], run.cols[c]);
    appendf(&s, ", \"tb\": %" PRIu64, run.tbService);
}

} // anonymous namespace

std::string
ucharJson(const UcharReport &rep)
{
    std::string s;
    appendf(&s,
            "{\n  \"uchar_format\": 1,\n  \"iters\": %u,\n"
            "  \"unroll\": %u,\n  \"max_cycles\": %" PRIu64 ",\n",
            rep.params.iters, rep.params.unroll,
            rep.params.maxCycles);
    s += "  \"calibration\": {";
    jsonRun(s, rep.calibration);
    s += "},\n  \"rows\": [\n";
    for (size_t i = 0; i < rep.rows.size(); ++i) {
        const auto &r = rep.rows[i];
        s += "    {\"op\": \"" + ujson::escape(r.op) + "\", \"mode\": \"" +
            ujson::escape(r.mode) + '"';
        appendf(&s, ", \"ipc\": %u, ", r.ipc);
        jsonRun(s, r.run);
        if (r.hasBounds)
            appendf(&s, ", \"bcc\": %" PRIu64 ", \"wcc\": %" PRIu64,
                    r.bcc, r.wcc);
        s += i + 1 < rep.rows.size() ? "},\n" : "}\n";
    }
    s += "  ],\n  \"skipped\": [\n";
    for (size_t i = 0; i < rep.skipped.size(); ++i) {
        const auto &k = rep.skipped[i];
        s += "    {\"op\": \"" + ujson::escape(k.op) + "\", \"mode\": \"" +
            ujson::escape(k.mode) + "\", \"reason\": \"" +
            ujson::escape(k.reason) + '"';
        s += i + 1 < rep.skipped.size() ? "},\n" : "}\n";
    }
    s += "  ]\n}\n";
    return s;
}

// ---------------------------------------------------------------
// JSON parsing (the subset ucharJson emits: objects, arrays,
// strings, unsigned integers)
// ---------------------------------------------------------------

namespace
{

struct Jv
{
    enum class T : uint8_t { Num, Str, Arr, Obj } t = T::Num;
    uint64_t num = 0;
    std::string str;
    std::vector<Jv> arr;
    std::vector<std::pair<std::string, Jv>> obj;

    const Jv *
    get(const char *key) const
    {
        for (const auto &kv : obj)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }
};

struct JParser
{
    const char *p;
    const char *end;
    std::string err;

    explicit JParser(const std::string &s)
        : p(s.data()), end(s.data() + s.size())
    {
    }

    void
    skipWs()
    {
        while (p < end && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    }

    bool
    fail(const char *what)
    {
        err = what;
        return false;
    }

    bool
    parseString(std::string *out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out->clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c == '\\') {
                if (p >= end)
                    return fail("bad escape");
                char e = *p++;
                switch (e) {
                  case '"':  *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/':  *out += '/'; break;
                  case 'n':  *out += '\n'; break;
                  case 't':  *out += '\t'; break;
                  case 'r':  *out += '\r'; break;
                  case 'u': {
                    // ujson::escape writes other control characters
                    // as \u00XX.
                    unsigned v = 0;
                    for (int i = 0; i < 4; ++i, ++p) {
                        if (p >= end ||
                            !std::isxdigit(static_cast<unsigned char>(*p)))
                            return fail("bad escape");
                        v = v * 16 +
                            (std::isdigit(static_cast<unsigned char>(*p))
                                 ? *p - '0'
                                 : (*p | 0x20) - 'a' + 10);
                    }
                    if (v >= 0x80)
                        return fail("unsupported escape");
                    *out += static_cast<char>(v);
                    break;
                  }
                  default:   return fail("unsupported escape");
                }
            } else {
                *out += c;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parse(Jv *out)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        char c = *p;
        if (c == '"') {
            out->t = Jv::T::Str;
            return parseString(&out->str);
        }
        if (c == '{') {
            ++p;
            out->t = Jv::T::Obj;
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                Jv val;
                if (!parse(&val))
                    return false;
                out->obj.emplace_back(std::move(key), std::move(val));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++p;
            out->t = Jv::T::Arr;
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            while (true) {
                Jv val;
                if (!parse(&val))
                    return false;
                out->arr.push_back(std::move(val));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            out->t = Jv::T::Num;
            uint64_t v = 0;
            while (p < end &&
                   std::isdigit(static_cast<unsigned char>(*p))) {
                uint64_t d = static_cast<uint64_t>(*p++ - '0');
                if (v > (UINT64_MAX - d) / 10)
                    return fail("integer above 2^64-1");
                v = v * 10 + d;
            }
            out->num = v;
            return true;
        }
        return fail("unexpected character");
    }
};

bool
readRun(const Jv &o, UcharRun *run, std::string *err)
{
    struct Field
    {
        const char *key;
        uint64_t *dst;
    };
    std::vector<Field> fields = {
        {"cycles", &run->cycles},
        {"instructions", &run->instructions},
        {"uwords", &run->uwords},
        {"tb", &run->tbService},
    };
    for (size_t c = 0; c < kNumCols; ++c)
        fields.push_back({kColKeys[c], &run->cols[c]});
    for (const auto &f : fields) {
        const Jv *v = o.get(f.key);
        if (!v || v->t != Jv::T::Num) {
            *err = std::string("missing numeric field '") + f.key +
                "'";
            return false;
        }
        *f.dst = v->num;
    }
    return true;
}

bool
readStr(const Jv &o, const char *key, std::string *dst,
        std::string *err)
{
    const Jv *v = o.get(key);
    if (!v || v->t != Jv::T::Str) {
        *err = std::string("missing string field '") + key + "'";
        return false;
    }
    *dst = v->str;
    return true;
}

} // anonymous namespace

bool
ucharParseJson(const std::string &text, UcharReport *out,
               std::string *err)
{
    JParser parser(text);
    Jv root;
    if (!parser.parse(&root)) {
        *err = "uchar JSON: " + parser.err;
        return false;
    }
    if (root.t != Jv::T::Obj) {
        *err = "uchar JSON: top level is not an object";
        return false;
    }
    const Jv *fmt = root.get("uchar_format");
    if (!fmt || fmt->t != Jv::T::Num || fmt->num != 1) {
        *err = "uchar JSON: missing or unsupported uchar_format";
        return false;
    }
    const Jv *iters = root.get("iters");
    const Jv *unroll = root.get("unroll");
    const Jv *maxc = root.get("max_cycles");
    if (!iters || !unroll || !maxc || iters->t != Jv::T::Num ||
        unroll->t != Jv::T::Num || maxc->t != Jv::T::Num) {
        *err = "uchar JSON: missing parameters";
        return false;
    }
    if (iters->num > UINT32_MAX || unroll->num > UINT32_MAX) {
        *err = "uchar JSON: iters or unroll above 2^32-1";
        return false;
    }
    *out = UcharReport();
    out->params.iters = static_cast<uint32_t>(iters->num);
    out->params.unroll = static_cast<uint32_t>(unroll->num);
    out->params.maxCycles = maxc->num;
    const Jv *calib = root.get("calibration");
    if (!calib || calib->t != Jv::T::Obj ||
        !readRun(*calib, &out->calibration, err))
        return false;
    const Jv *rows = root.get("rows");
    if (!rows || rows->t != Jv::T::Arr) {
        *err = "uchar JSON: missing rows array";
        return false;
    }
    for (const Jv &r : rows->arr) {
        if (r.t != Jv::T::Obj) {
            *err = "uchar JSON: row is not an object";
            return false;
        }
        UcharRow row;
        const Jv *ipc = r.get("ipc");
        if (!readStr(r, "op", &row.op, err) ||
            !readStr(r, "mode", &row.mode, err))
            return false;
        if (!ipc || ipc->t != Jv::T::Num) {
            *err = "uchar JSON: row missing ipc";
            return false;
        }
        if (ipc->num > UINT32_MAX) {
            *err = "uchar JSON: row ipc above 2^32-1";
            return false;
        }
        row.ipc = static_cast<uint32_t>(ipc->num);
        if (!readRun(r, &row.run, err))
            return false;
        const Jv *bcc = r.get("bcc");
        const Jv *wcc = r.get("wcc");
        if (bcc && wcc && bcc->t == Jv::T::Num &&
            wcc->t == Jv::T::Num) {
            row.bcc = bcc->num;
            row.wcc = wcc->num;
            row.hasBounds = true;
        }
        out->rows.push_back(std::move(row));
    }
    const Jv *skipped = root.get("skipped");
    if (!skipped || skipped->t != Jv::T::Arr) {
        *err = "uchar JSON: missing skipped array";
        return false;
    }
    for (const Jv &k : skipped->arr) {
        if (k.t != Jv::T::Obj) {
            *err = "uchar JSON: skip entry is not an object";
            return false;
        }
        UcharSkip skip;
        if (!readStr(k, "op", &skip.op, err) ||
            !readStr(k, "mode", &skip.mode, err) ||
            !readStr(k, "reason", &skip.reason, err))
            return false;
        out->skipped.push_back(std::move(skip));
    }
    return true;
}

// ---------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------

namespace
{

void
diffRun(UcharDiff &d, const std::string &what, const UcharRun &a,
        const UcharRun &b)
{
    struct Field
    {
        const char *key;
        uint64_t a;
        uint64_t b;
    };
    std::vector<Field> fields = {
        {"cycles", a.cycles, b.cycles},
        {"instructions", a.instructions, b.instructions},
        {"uwords", a.uwords, b.uwords},
        {"tb", a.tbService, b.tbService},
    };
    for (size_t c = 0; c < kNumCols; ++c)
        fields.push_back({kColKeys[c], a.cols[c], b.cols[c]});
    for (const auto &f : fields) {
        if (f.a == f.b)
            continue;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: %s %" PRIu64 " -> %" PRIu64 " (%+lld)",
                      what.c_str(), f.key, f.a, f.b,
                      static_cast<long long>(f.b) -
                          static_cast<long long>(f.a));
        d.messages.push_back(buf);
    }
}

/**
 * Index one side's rows or skips by "op mode".  A key seen twice
 * would hide one of its entries from every comparison, so each
 * repeat is a difference of its own.
 */
template <typename T>
std::map<std::string, const T *>
indexByKey(UcharDiff &d, const std::vector<T> &items, const char *what,
           const char *side)
{
    std::map<std::string, const T *> m;
    for (const T &item : items) {
        std::string key = item.op + " " + item.mode;
        if (!m.emplace(key, &item).second)
            d.messages.push_back(std::string("duplicate ") + what +
                                 " in " + side + ": " + key);
    }
    return m;
}

} // anonymous namespace

UcharDiff
ucharCompare(const UcharReport &baseline, const UcharReport &current)
{
    UcharDiff d;
    if (baseline.params.iters != current.params.iters ||
        baseline.params.unroll != current.params.unroll) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "parameters differ: iters %u->%u, unroll "
                      "%u->%u (reports are not comparable)",
                      baseline.params.iters, current.params.iters,
                      baseline.params.unroll, current.params.unroll);
        d.messages.push_back(buf);
        return d;
    }
    diffRun(d, "calibration", baseline.calibration,
            current.calibration);

    auto base = indexByKey(d, baseline.rows, "row", "baseline");
    auto cur = indexByKey(d, current.rows, "row", "current");
    for (const auto &kv : base) {
        auto it = cur.find(kv.first);
        if (it == cur.end()) {
            d.messages.push_back("row missing from current: " +
                                 kv.first);
            continue;
        }
        if (kv.second->ipc != it->second->ipc) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "%s: ipc %u -> %u",
                          kv.first.c_str(), kv.second->ipc,
                          it->second->ipc);
            d.messages.push_back(buf);
        }
        diffRun(d, kv.first, kv.second->run, it->second->run);
    }
    for (const auto &kv : cur)
        if (!base.count(kv.first))
            d.messages.push_back("row not in baseline: " + kv.first);

    auto bskip = indexByKey(d, baseline.skipped, "skip", "baseline");
    auto cskip = indexByKey(d, current.skipped, "skip", "current");
    for (const auto &kv : bskip) {
        auto it = cskip.find(kv.first);
        if (it == cskip.end())
            d.messages.push_back("skip missing from current: " +
                                 kv.first);
        else if (it->second->reason != kv.second->reason)
            d.messages.push_back("skip reason changed for " +
                                 kv.first + ": '" + kv.second->reason +
                                 "' -> '" + it->second->reason + "'");
    }
    for (const auto &kv : cskip)
        if (!bskip.count(kv.first))
            d.messages.push_back("skip not in baseline: " + kv.first);
    return d;
}

void
regUcharStats(stats::Registry &r, const std::string &prefix,
              const UcharReport &rep)
{
    uint64_t total_cycles = 0;
    uint64_t total_uwords = 0;
    for (const auto &row : rep.rows) {
        total_cycles += row.run.cycles;
        total_uwords += row.run.uwords;
    }
    uint64_t nrows = rep.rows.size();
    uint64_t nskip = rep.skipped.size();
    uint64_t calib = rep.calibration.cycles;
    r.addScalar(prefix + "variants",
                "opcode x mode variants measured",
                [nrows] { return nrows; });
    r.addScalar(prefix + "skipped",
                "enumerated variants skipped (with reasons)",
                [nskip] { return nskip; });
    r.addScalar(prefix + "calibCycles",
                "cycles of the shared calibration loop",
                [calib] { return calib; });
    r.addScalar(prefix + "totalCycles",
                "simulated cycles across all variant runs",
                [total_cycles] { return total_cycles; });
    r.addScalar(prefix + "totalUwords",
                "microwords executed across all variant runs",
                [total_uwords] { return total_uwords; });
    double copies = static_cast<double>(rep.params.iters) *
        rep.params.unroll;
    double mean = 0.0;
    if (nrows && copies > 0) {
        for (const auto &row : rep.rows)
            mean += (static_cast<double>(row.run.cycles) -
                     static_cast<double>(calib)) /
                copies;
        mean /= static_cast<double>(nrows);
    }
    r.addFormula(prefix + "meanCyclesPerCopy",
                 "mean per-copy cost over all measured variants",
                 [mean] { return mean; });
}

void
regUcharBounds(stats::Registry &r, const std::string &prefix,
               const UcharReport &rep)
{
    uint64_t with_bounds = 0, violations = 0;
    uint64_t bcc_total = 0, wcc_total = 0, measured = 0;
    for (const auto &row : rep.rows) {
        if (!row.hasBounds)
            continue;
        ++with_bounds;
        bcc_total += row.bcc;
        wcc_total += row.wcc;
        measured += row.run.cycles;
        if (row.run.cycles < row.bcc || row.run.cycles > row.wcc)
            ++violations;
    }
    if (!with_bounds)
        return;
    r.addScalar(prefix + "bounds.rows",
                "measured rows carrying static cycle bounds",
                [with_bounds] { return with_bounds; });
    r.addScalar(prefix + "bounds.violations",
                "rows measured outside their static [bcc, wcc]",
                [violations] { return violations; });
    r.addScalar(prefix + "bounds.bccTotal",
                "summed static best-case cycles of bounded rows",
                [bcc_total] { return bcc_total; });
    r.addScalar(prefix + "bounds.wccTotal",
                "summed static worst-case cycles of bounded rows",
                [wcc_total] { return wcc_total; });
    r.addScalar(prefix + "bounds.measuredTotal",
                "summed measured cycles of bounded rows",
                [measured] { return measured; });
}

} // namespace vax
