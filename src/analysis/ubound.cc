#include "analysis/ubound.hh"

#include "analysis/ulint.hh"
#include "support/ujson.hh"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "support/stats.hh"

namespace vax
{

const char *
uboundCheckName(UBoundCheck c)
{
    switch (c) {
      case UBoundCheck::UnboundedLoop: return "unbounded-loop";
      case UBoundCheck::NoExit:        return "no-exit";
      case UBoundCheck::CallCycle:     return "call-cycle";
      case UBoundCheck::Baseline:      return "baseline";
      default:                         return "?";
    }
}

namespace
{

/** True when executing this word can leave the flow (exit the path
 *  the bound is being computed over). */
bool
exitsFlow(const UFlow &f)
{
    return f.end || f.stop || f.dispatch || f.spec26 || f.ret ||
        f.trapRet;
}

constexpr uint64_t kNoDist = std::numeric_limits<uint64_t>::max();

} // anonymous namespace

size_t
UBoundReport::countFor(UBoundCheck c) const
{
    size_t k = 0;
    for (const UBoundDiag &d : diags)
        if (d.check == c)
            ++k;
    return k;
}

uint64_t
UBoundAnalysis::wordLoCost(UAddr a) const
{
    (void)a;
    return 1; // stall-free floor: one microcycle per word
}

uint64_t
UBoundAnalysis::wordHiCost(UAddr a, bool allowTrapCeil) const
{
    const UAnnotation &ann = cs_.annotation(a);
    uint64_t stall = 0;
    if (ann.mem == UMemKind::Read)
        stall = params_.readStallCeil;
    else if (ann.mem == UMemKind::Write)
        stall = params_.writeStallCeil;

    uint64_t hi = 1 + stall;
    if (ann.ibRequest)
        hi += params_.ibStallCeil;

    if (allowTrapCeil && ann.mem != UMemKind::None &&
        params_.alignTraps) {
        // Alignment microtrap ceiling: the abort cycle, the service
        // flow (which satisfies the reference itself), the resumed
        // cycle, and a second stall allowance for the service's
        // split accesses already counted in svc.hi -- the re-issued
        // reference's own stall rides on the resume.
        const Range &svc = ann.mem == UMemKind::Read ? alignReadSvc_
                                                     : alignWriteSvc_;
        if (svc.valid)
            hi += 1 + svc.hi + 1 + stall;
    }
    if (allowTrapCeil && !params_.assumeUnmapped &&
        (ann.mem != UMemKind::None || ann.ibRequest)) {
        if (tbMissSvc_.valid)
            hi += 1 + tbMissSvc_.hi + 1 + stall;
    }
    return hi;
}

UBoundAnalysis::Range
UBoundAnalysis::cachedFlow(UAddr entry, const std::string &rootName,
                           bool allowTrapCeil,
                           std::vector<UAddr> &callStack)
{
    auto it = ranges_.find(entry);
    if (it != ranges_.end())
        return it->second;
    if (std::find(callStack.begin(), callStack.end(), entry) !=
        callStack.end()) {
        UBoundDiag d;
        d.check = UBoundCheck::CallCycle;
        d.addr = entry;
        d.where = rootName;
        d.message = "recursive micro-subroutine call chain through "
            "address " + std::to_string(static_cast<unsigned>(entry));
        report_.diags.push_back(std::move(d));
        return Range{};
    }
    callStack.push_back(entry);
    UFlowBound fb;
    Range r = computeFlow(entry, rootName, allowTrapCeil, callStack,
                          &fb);
    callStack.pop_back();
    ranges_.emplace(entry, r);
    return r;
}

UBoundAnalysis::Range
UBoundAnalysis::computeFlow(UAddr entry, const std::string &rootName,
                            bool allowTrapCeil,
                            std::vector<UAddr> &callStack,
                            UFlowBound *fb)
{
    const size_t n = cs_.size();
    fb->entry = entry;
    if (entry == kInvalidUAddr || entry >= n) {
        fb->bounded = false;
        return Range{};
    }

    // ---- Local reachability: fall/branch edges and the fall-through
    // continuation of micro-subroutine calls.  Calls are folded into
    // the call word's cost, not traversed as edges, so a flow's word
    // set is its own routine only.
    std::vector<UAddr> nodes;
    std::vector<int32_t> local(n, -1);
    auto visit = [&](UAddr a) {
        if (a < n && local[a] < 0) {
            local[a] = static_cast<int32_t>(nodes.size());
            nodes.push_back(a);
        }
    };
    visit(entry);
    for (size_t i = 0; i < nodes.size(); ++i) {
        const UAddr a = nodes[i];
        const UFlow &f = cs_.flow(a);
        if (f.fall && a + 1u < n)
            visit(static_cast<UAddr>(a + 1));
        for (ULabel l : f.targets) {
            int32_t b = cs_.labelBinding(l);
            if (b >= 0 && static_cast<size_t>(b) < n)
                visit(static_cast<UAddr>(b));
        }
        for (UAddr t : f.rawTargets)
            visit(t);
        // A call word continues at call-site + 1 once the callee
        // returns (uRet).
        if (!f.calls.empty() && a + 1u < n)
            visit(static_cast<UAddr>(a + 1));
    }
    const size_t m = nodes.size();
    fb->words = static_cast<uint32_t>(m);

    bool bounded = true;

    // ---- Per-word costs (callee ranges folded in) and local edges.
    std::vector<uint64_t> locost(m), hicost(m);
    std::vector<char> isExit(m, 0), selfLoop(m, 0);
    std::vector<std::vector<UAddr>> succ(m);
    for (size_t i = 0; i < m; ++i) {
        const UAddr a = nodes[i];
        const UFlow &f = cs_.flow(a);
        locost[i] = wordLoCost(a);
        hicost[i] = wordHiCost(a, allowTrapCeil);
        for (ULabel l : f.calls) {
            int32_t b = cs_.labelBinding(l);
            if (b < 0 || static_cast<size_t>(b) >= n)
                continue; // ulint reports dangling labels
            Range c = cachedFlow(static_cast<UAddr>(b), rootName,
                                 allowTrapCeil, callStack);
            if (!c.valid)
                bounded = false;
            locost[i] += c.lo;
            hicost[i] += c.hi;
        }
        if (exitsFlow(f))
            isExit[i] = 1;
        globalReach_[a] = true;

        auto edge = [&](UAddr t) {
            if (t < n && local[t] >= 0) {
                succ[i].push_back(static_cast<UAddr>(local[t]));
                if (static_cast<size_t>(local[t]) == i)
                    selfLoop[i] = 1;
            }
        };
        if (f.fall && a + 1u < n)
            edge(static_cast<UAddr>(a + 1));
        for (ULabel l : f.targets) {
            int32_t b = cs_.labelBinding(l);
            if (b >= 0 && static_cast<size_t>(b) < n)
                edge(static_cast<UAddr>(b));
        }
        for (UAddr t : f.rawTargets)
            edge(t);
        if (!f.calls.empty() && a + 1u < n)
            edge(static_cast<UAddr>(a + 1));
        std::sort(succ[i].begin(), succ[i].end());
        succ[i].erase(std::unique(succ[i].begin(), succ[i].end()),
                      succ[i].end());
    }

    bool anyExit = false;
    for (size_t i = 0; i < m; ++i)
        anyExit |= isExit[i] != 0;
    if (!anyExit) {
        UBoundDiag d;
        d.check = UBoundCheck::NoExit;
        d.addr = entry;
        d.where = rootName;
        d.message = std::string("no flow-terminating word (end/stop/"
                                "dispatch/ret/trap-ret) is reachable "
                                "from this root; entry word is ") +
            cs_.annotation(entry).name;
        report_.diags.push_back(std::move(d));
        fb->bounded = false;
        fb->lo = fb->hi = 0;
        return Range{};
    }

    // ---- Best case: Dijkstra over node weights (weights differ only
    // where a word folds in a micro-subroutine).
    std::vector<uint64_t> dist(m, kNoDist);
    using QE = std::pair<uint64_t, uint32_t>;
    std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
    dist[0] = 0;
    pq.push({0, 0});
    while (!pq.empty()) {
        auto [d, v] = pq.top();
        pq.pop();
        if (d > dist[v])
            continue;
        uint64_t through = d + locost[v];
        for (uint32_t t : succ[v]) {
            if (through < dist[t]) {
                dist[t] = through;
                pq.push({through, t});
            }
        }
    }
    uint64_t lo = kNoDist;
    for (size_t i = 0; i < m; ++i)
        if (isExit[i] && dist[i] != kNoDist)
            lo = std::min(lo, dist[i] + locost[i]);
    if (lo == kNoDist) {
        // Exits exist but none is reachable -- cannot happen with the
        // reachability above; defend anyway.
        bounded = false;
        lo = 0;
    }

    // ---- Worst case: SCC condensation, loop SCCs expanded to their
    // annotated bound, then the longest path over the DAG.
    //
    // Rooted at the entry (every node is reachable from it, so one DFS
    // covers the graph and the entry's component gets the highest id;
    // successors always have smaller ids).
    const SccResult scc = tarjanScc(succ);
    const std::vector<int> &comp = scc.comp;
    const int compCount = scc.count;

    std::vector<char> cyclic(compCount, 0), compExit(compCount, 0);
    std::vector<uint64_t> compSum(compCount, 0);
    std::vector<uint32_t> compBound(compCount, 0);
    std::vector<int> compSize(compCount, 0);
    std::vector<UAddr> compFirst(compCount, kInvalidUAddr);
    for (size_t i = m; i-- > 0;) {
        int c = comp[i];
        ++compSize[c];
        compFirst[c] = nodes[i];
        compSum[c] += hicost[i];
        compBound[c] =
            std::max(compBound[c], cs_.flow(nodes[i]).loopBound);
        if (isExit[i])
            compExit[c] = 1;
        if (selfLoop[i])
            cyclic[c] = 1;
    }
    uint32_t loopSccs = 0;
    std::vector<uint64_t> compCost(compCount, 0);
    for (int c = 0; c < compCount; ++c) {
        if (compSize[c] > 1)
            cyclic[c] = 1;
        if (!cyclic[c]) {
            compCost[c] = compSum[c];
            continue;
        }
        ++loopSccs;
        uint32_t bound = compBound[c];
        if (bound == 0) {
            bounded = false;
            std::string members;
            int listed = 0;
            for (size_t i = 0; i < m && listed < 4; ++i) {
                if (comp[i] != c)
                    continue;
                if (listed)
                    members += ", ";
                members +=
                    std::to_string(static_cast<unsigned>(nodes[i]));
                members += " (";
                members += cs_.annotation(nodes[i]).name;
                members += ")";
                ++listed;
            }
            if (compSize[c] > listed)
                members += ", ...";
            UBoundDiag d;
            d.check = UBoundCheck::UnboundedLoop;
            d.addr = compFirst[c];
            d.where = rootName;
            d.message = std::to_string(compSize[c]) +
                "-word micro-loop with no loopBound annotation: " +
                members;
            report_.diags.push_back(std::move(d));
            bound = 1; // keep analyzing; the flow stays unbounded
        }
        compCost[c] = static_cast<uint64_t>(bound) * compSum[c];
    }
    fb->loopSccs = loopSccs;

    // Longest path over the condensation: entry's component has the
    // highest id, successors strictly smaller, so one descending scan
    // relaxes every edge in topological order.
    std::vector<uint64_t> best(compCount, 0);
    std::vector<char> seen(compCount, 0);
    int entryComp = comp[0];
    best[entryComp] = compCost[entryComp];
    seen[entryComp] = 1;
    for (int c = compCount; c-- > 0;) {
        if (!seen[c])
            continue;
        for (size_t i = 0; i < m; ++i) {
            if (comp[i] != c)
                continue;
            for (uint32_t t : succ[i]) {
                int ct = comp[t];
                if (ct == c)
                    continue;
                uint64_t cand = best[c] + compCost[ct];
                if (!seen[ct] || cand > best[ct]) {
                    seen[ct] = 1;
                    best[ct] = cand;
                }
            }
        }
    }
    uint64_t hi = 0;
    for (int c = 0; c < compCount; ++c)
        if (seen[c] && compExit[c])
            hi = std::max(hi, best[c]);

    fb->lo = lo;
    fb->hi = hi;
    fb->bounded = bounded;

    Range r;
    r.lo = lo;
    r.hi = hi;
    r.valid = bounded;
    return r;
}

UBoundAnalysis::UBoundAnalysis(const ControlStore &cs,
                               const UBoundParams &p)
    : cs_(cs), params_(p)
{
    report_.params = p;
    globalReach_.assign(cs.size(), false);

    const EntryPoints &ep = cs.entries;

    // Bound cache keyed by entry address: dispatch slots alias (many
    // spec-table classes share one routine), and each named root of an
    // aliased address must report identical numbers.
    std::map<UAddr, UFlowBound> boundCache;

    // Microtrap services first, trap ceilings off (a service cannot
    // itself take the trap it services in this model), so the ordinary
    // flows below can fold service ceilings into their memory words.
    auto service = [&](const char *name, UAddr a) -> Range {
        UFlowBound fb;
        fb.name = name;
        std::vector<UAddr> stack;
        if (a != kInvalidUAddr)
            stack.push_back(a);
        Range r = computeFlow(a, name, false, stack, &fb);
        boundCache.emplace(a, fb);
        report_.flows.push_back(std::move(fb));
        return r;
    };

    auto analyze = [&](const std::string &name, UAddr a) {
        auto it = boundCache.find(a);
        if (it != boundCache.end()) {
            UFlowBound fb = it->second;
            fb.name = name;
            report_.flows.push_back(std::move(fb));
            return;
        }
        UFlowBound fb;
        fb.name = name;
        std::vector<UAddr> stack;
        if (a != kInvalidUAddr)
            stack.push_back(a);
        Range r = computeFlow(a, name, true, stack, &fb);
        ranges_.emplace(a, r);
        boundCache.emplace(a, fb);
        report_.flows.push_back(std::move(fb));
    };

    tbMissSvc_ = Range{};
    {
        Range d = service("tbmiss.d", ep.tbMissD);
        Range i = service("tbmiss.i", ep.tbMissI);
        if (d.valid && i.valid) {
            tbMissSvc_.lo = std::min(d.lo, i.lo);
            tbMissSvc_.hi = std::max(d.hi, i.hi);
            tbMissSvc_.valid = true;
        }
    }
    alignReadSvc_ = service("align.read", ep.alignRead);
    alignWriteSvc_ = service("align.write", ep.alignWrite);

    // Hardware-selected dispatch roots.  EntryPoints.abort and
    // .exception are flowReserved() guard words (the abort slot only
    // names the histogram count location), so they are not roots.
    analyze("iid", ep.iid);
    analyze("specwait1", ep.specWait[0]);
    analyze("specwait26", ep.specWait[1]);
    analyze("index1", ep.indexPrefix[0]);
    analyze("index26", ep.indexPrefix[1]);
    analyze("interrupt", ep.interrupt);
    analyze("mcheck", ep.machineCheck);

    for (size_t mo = 0; mo < static_cast<size_t>(AddrMode::NumModes);
         ++mo) {
        for (unsigned pos = 0; pos < 2; ++pos) {
            for (size_t c = 0;
                 c < static_cast<size_t>(SpecAccClass::NumClasses);
                 ++c) {
                UAddr a = ep.spec[mo][pos][c];
                if (a == kInvalidUAddr)
                    continue;
                std::string name = std::string("spec:") +
                    addrModeName(static_cast<AddrMode>(mo)) + "/" +
                    (pos == 0 ? "1" : "26") + "/" +
                    specClassName(static_cast<SpecAccClass>(c));
                analyze(name, a);
            }
        }
    }

    for (size_t f = 1; f < static_cast<size_t>(ExecFlow::NumFlows);
         ++f) {
        UAddr a = ep.exec[f];
        if (a == kInvalidUAddr)
            continue;
        analyze(std::string("exec:") +
                    execFlowName(static_cast<ExecFlow>(f)),
                a);
    }

    // ---- Static Table 8 attribution over the union of every root's
    // reachable word set (callee routines included).
    for (size_t a = 0; a < globalReach_.size(); ++a) {
        if (!globalReach_[a])
            continue;
        const UAnnotation &ann = cs_.annotation(static_cast<UAddr>(a));
        size_t row = static_cast<size_t>(ann.row);
        if (row >= static_cast<size_t>(Row::NumRows))
            continue; // ulint reports the bad classification
        URowCost &rc = report_.rows[row];
        ++rc.words;
        if (ann.mem == UMemKind::Read) {
            ++rc.readWords;
            rc.hiStall += params_.readStallCeil;
        } else if (ann.mem == UMemKind::Write) {
            ++rc.writeWords;
            rc.hiStall += params_.writeStallCeil;
        }
        if (ann.ibRequest) {
            ++rc.ibWords;
            rc.hiStall += params_.ibStallCeil;
        }
    }
}

UBoundAnalysis::Range
UBoundAnalysis::flowRange(UAddr entry) const
{
    auto it = ranges_.find(entry);
    if (it == ranges_.end())
        return Range{};
    return it->second;
}

UBoundAnalysis::Range
UBoundAnalysis::instrRange(uint8_t opcode,
                           const std::vector<SpecUse> &specs) const
{
    const OpcodeInfo &info = opcodeInfo(opcode);
    if (!info.valid || info.flow == ExecFlow::None)
        return Range{};

    const EntryPoints &ep = cs_.entries;
    auto add = [](Range a, Range b) {
        Range r;
        r.valid = a.valid && b.valid;
        r.lo = a.lo + b.lo;
        r.hi = a.hi + b.hi;
        return r;
    };

    Range r = flowRange(ep.iid);
    if (specs.size() != info.numSpecifiers)
        return Range{};
    for (size_t i = 0; i < specs.size(); ++i) {
        const OperandDef &def = info.operands[i];
        if (def.access == Access::Branch)
            return Range{}; // branch disp is not a specifier
        SpecAccClass cls = specAccClass(def.access);
        size_t pos = i == 0 ? 0 : 1;
        const SpecUse &u = specs[i];
        size_t mo = static_cast<size_t>(u.mode);
        if (mo >= static_cast<size_t>(AddrMode::NumModes))
            return Range{};
        Range s;
        if (u.indexed) {
            // Index prefix at this position, then the base mode's
            // SPEC2-6 routine copy (the microcode sharing the paper
            // reports).
            s = add(flowRange(ep.indexPrefix[pos]),
                    flowRange(ep.spec[mo][1][static_cast<size_t>(
                        cls)]));
        } else {
            s = flowRange(
                ep.spec[mo][pos][static_cast<size_t>(cls)]);
        }
        // Ceiling slack for an IB-starved specifier decode: the
        // hardware parks at the spec-wait word until bytes arrive.
        s.hi += params_.ibStallCeil;
        r = add(r, s);
    }
    if (info.bdispBytes > 0)
        r.hi += params_.ibStallCeil; // branch-displacement fetch slack
    r = add(r, flowRange(ep.exec[static_cast<size_t>(info.flow)]));
    return r;
}

UBoundReport
uboundAnalyze(const ControlStore &cs, const UBoundParams &p)
{
    return UBoundAnalysis(cs, p).report();
}

bool
uboundCheckMeasured(const std::string &rowName, uint64_t measured,
                    uint64_t lo, uint64_t hi,
                    std::vector<UBoundDiag> *diags)
{
    if (measured >= lo && measured <= hi)
        return true;
    UBoundDiag d;
    d.check = UBoundCheck::Baseline;
    d.addr = kInvalidUAddr;
    d.where = rowName;
    d.message = "measured " + std::to_string(measured) +
        " cycles outside static bounds [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "]";
    diags->push_back(std::move(d));
    return false;
}

std::string
UBoundReport::text() const
{
    std::string out;
    size_t unbounded = 0;
    for (const UFlowBound &f : flows)
        unbounded += !f.bounded;
    ujson::appendf(&out,
                   "ubound: %zu flows, %zu unbounded, "
                   "%zu diagnostics\n",
                   flows.size(), unbounded, diags.size());
    ujson::appendf(&out,
                   "params: read-ceil=%u write-ceil=%u ib-ceil=%u "
                   "align-traps=%d unmapped=%d\n",
                   params.readStallCeil, params.writeStallCeil,
                   params.ibStallCeil, params.alignTraps ? 1 : 0,
                   params.assumeUnmapped ? 1 : 0);
    for (const UBoundDiag &d : diags) {
        out += "ubound:";
        out += d.addr == kInvalidUAddr
            ? std::string("-")
            : std::to_string(static_cast<unsigned>(d.addr));
        out += ": error: [";
        out += uboundCheckName(d.check);
        out += "] ";
        if (!d.where.empty()) {
            out += d.where;
            out += ": ";
        }
        out += d.message;
        out += "\n";
    }
    out += "flow bounds:\n";
    for (const UFlowBound &f : flows) {
        ujson::appendf(&out,
                       "  %-36s entry=%5u lo=%-6llu hi=%-10llu "
                       "words=%-4u loops=%u%s\n",
                       f.name.c_str(), static_cast<unsigned>(f.entry),
                       static_cast<unsigned long long>(f.lo),
                       static_cast<unsigned long long>(f.hi), f.words,
                       f.loopSccs, f.bounded ? "" : " UNBOUNDED");
    }
    out += "row attribution (reachable words):\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        const URowCost &rc = rows[r];
        if (!rc.words)
            continue;
        ujson::appendf(&out,
                       "  %-12s words=%-4u reads=%-3u writes=%-3u "
                       "ib=%-3u stall-ceil=%llu\n",
                       rowName(static_cast<Row>(r)), rc.words,
                       rc.readWords, rc.writeWords, rc.ibWords,
                       static_cast<unsigned long long>(rc.hiStall));
    }
    return out;
}

std::string
UBoundReport::csv() const
{
    std::string out = "flow,entry,lo,hi,words,loops,bounded\n";
    for (const UFlowBound &f : flows) {
        ujson::appendf(&out, "%s,%u,%llu,%llu,%u,%u,%d\n",
                       f.name.c_str(), static_cast<unsigned>(f.entry),
                       static_cast<unsigned long long>(f.lo),
                       static_cast<unsigned long long>(f.hi), f.words,
                       f.loopSccs, f.bounded ? 1 : 0);
    }
    return out;
}

std::string
UBoundReport::json() const
{
    std::string out = "{\n";
    ujson::appendf(&out,
                   "  \"params\": {\"read_stall_ceil\": %u, "
                   "\"write_stall_ceil\": %u, \"ib_stall_ceil\": %u, "
                   "\"align_traps\": %s, \"assume_unmapped\": %s},\n",
                   params.readStallCeil, params.writeStallCeil,
                   params.ibStallCeil,
                   params.alignTraps ? "true" : "false",
                   params.assumeUnmapped ? "true" : "false");
    out += std::string("  \"clean\": ") +
        (clean() ? "true" : "false") + ",\n";
    out += "  \"counts\": {";
    for (size_t c = 0; c < static_cast<size_t>(UBoundCheck::NumChecks);
         ++c) {
        if (c)
            out += ", ";
        out += std::string("\"") +
            uboundCheckName(static_cast<UBoundCheck>(c)) + "\": " +
            std::to_string(countFor(static_cast<UBoundCheck>(c)));
    }
    out += "},\n";
    out += "  \"flows\": [";
    for (size_t i = 0; i < flows.size(); ++i) {
        const UFlowBound &f = flows[i];
        out += i ? ",\n    " : "\n    ";
        ujson::appendf(&out,
                       "{\"name\": \"%s\", \"entry\": %u, "
                       "\"lo\": %llu, \"hi\": %llu, \"words\": %u, "
                       "\"loops\": %u, \"bounded\": %s}",
                       ujson::escape(f.name).c_str(),
                       static_cast<unsigned>(f.entry),
                       static_cast<unsigned long long>(f.lo),
                       static_cast<unsigned long long>(f.hi), f.words,
                       f.loopSccs, f.bounded ? "true" : "false");
    }
    out += flows.empty() ? "],\n" : "\n  ],\n";
    out += "  \"rows\": {";
    bool firstRow = true;
    for (size_t r = 0; r < rows.size(); ++r) {
        const URowCost &rc = rows[r];
        if (!rc.words)
            continue;
        if (!firstRow)
            out += ",";
        firstRow = false;
        ujson::appendf(&out,
                       "\n    \"%s\": {\"words\": %u, \"reads\": %u, "
                       "\"writes\": %u, \"ib\": %u, "
                       "\"stall_ceil\": %llu}",
                       rowName(static_cast<Row>(r)), rc.words,
                       rc.readWords, rc.writeWords, rc.ibWords,
                       static_cast<unsigned long long>(rc.hiStall));
    }
    out += firstRow ? "},\n" : "\n  },\n";
    out += "  \"diags\": [";
    for (size_t i = 0; i < diags.size(); ++i) {
        const UBoundDiag &d = diags[i];
        out += i ? ",\n    " : "\n    ";
        out += std::string("{\"check\": \"") +
            uboundCheckName(d.check) + "\", \"addr\": ";
        out += d.addr == kInvalidUAddr
            ? std::string("null")
            : std::to_string(static_cast<unsigned>(d.addr));
        out += ", \"where\": \"" + ujson::escape(d.where) +
            "\", \"message\": \"" + ujson::escape(d.message) + "\"}";
    }
    out += diags.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

void
regUBoundStats(const UBoundReport &rep, stats::Registry &r,
               const std::string &prefix)
{
    size_t flows = rep.flows.size(), unbounded = 0;
    for (const UFlowBound &f : rep.flows)
        unbounded += !f.bounded;
    r.addScalar(prefix + ".flows",
                "dispatch roots analyzed by the static bound pass",
                [flows] { return static_cast<uint64_t>(flows); });
    r.addScalar(prefix + ".unbounded",
                "flows with no provable worst-case cycle bound",
                [unbounded] {
                    return static_cast<uint64_t>(unbounded);
                });
    if (rep.clean())
        return;
    size_t total = rep.diags.size();
    r.addScalar(prefix + ".diags", "static bound analyzer diagnostics",
                [total] { return static_cast<uint64_t>(total); });
    for (size_t c = 0; c < static_cast<size_t>(UBoundCheck::NumChecks);
         ++c) {
        UBoundCheck check = static_cast<UBoundCheck>(c);
        size_t k = rep.countFor(check);
        r.addScalar(prefix + "." + uboundCheckName(check),
                    std::string("diagnostics from the ") +
                        uboundCheckName(check) + " check",
                    [k] { return static_cast<uint64_t>(k); });
    }
}

} // namespace vax
