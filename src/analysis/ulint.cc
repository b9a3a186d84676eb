#include "analysis/ulint.hh"

#include "support/ujson.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "support/stats.hh"

namespace vax
{

const char *
lintCheckName(LintCheck c)
{
    switch (c) {
      case LintCheck::BadTarget:      return "bad-target";
      case LintCheck::Classification: return "classification";
      case LintCheck::MemAnnotation:  return "mem-annotation";
      case LintCheck::EntryPoint:     return "entry-point";
      case LintCheck::MicroLoop:      return "micro-loop";
      case LintCheck::Unreachable:    return "unreachable";
      default:                        return "?";
    }
}

const char *
specClassName(SpecAccClass c)
{
    switch (c) {
      case SpecAccClass::Read:   return "Read";
      case SpecAccClass::Write:  return "Write";
      case SpecAccClass::Modify: return "Modify";
      case SpecAccClass::Addr:   return "Addr";
      default:                   return "?";
    }
}

SccResult
tarjanScc(const std::vector<std::vector<UAddr>> &succ)
{
    const size_t n = succ.size();
    SccResult r;
    r.comp.assign(n, -1);
    std::vector<int> index(n, -1), low(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<uint32_t> stack;
    int next_index = 0;

    struct Frame
    {
        uint32_t v;
        size_t child;
    };
    std::vector<Frame> dfs;

    for (size_t root = 0; root < n; ++root) {
        if (index[root] >= 0)
            continue;
        dfs.push_back({static_cast<uint32_t>(root), 0});
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            uint32_t v = f.v;
            if (f.child == 0) {
                index[v] = low[v] = next_index++;
                stack.push_back(v);
                on_stack[v] = 1;
            }
            if (f.child < succ[v].size()) {
                uint32_t w = succ[v][f.child++];
                if (index[w] < 0) {
                    dfs.push_back({w, 0});
                } else if (on_stack[w]) {
                    low[v] = std::min(low[v], index[w]);
                }
                continue;
            }
            if (low[v] == index[v]) {
                uint32_t w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    on_stack[w] = 0;
                    r.comp[w] = r.count;
                } while (w != v);
                ++r.count;
            }
            dfs.pop_back();
            if (!dfs.empty()) {
                uint32_t p = dfs.back().v;
                low[p] = std::min(low[p], low[v]);
            }
        }
    }
    return r;
}

namespace
{

std::string
addrStr(UAddr a)
{
    return std::to_string(static_cast<unsigned>(a));
}

/** One EntryPoints slot as the linter sees it. */
struct Slot
{
    std::string name; ///< "EntryPoints.<slot>" suffix
    UAddr addr;
    bool required;
    int expectRow; ///< Row the word at addr must carry, or -1
};

/**
 * Enumerate every dispatch slot with its legality/row expectation.
 *
 * The spec-table legality matrix mirrors rom_spec.cc: short-literal
 * and immediate specifiers exist only with read access (write/modify/
 * address uses fault at decode, before any dispatch), so only their
 * Read slots are required.  Every other mode sets all four classes.
 * Execute slots are required exactly for the flows some implemented
 * opcode names.
 */
std::vector<Slot>
enumerateSlots(const EntryPoints &ep)
{
    std::vector<Slot> slots;
    auto add = [&](std::string name, UAddr a, bool req, int row) {
        slots.push_back(Slot{std::move(name), a, req, row});
    };

    add("iid", ep.iid, true, static_cast<int>(Row::Decode));
    add("specWait[0]", ep.specWait[0], true,
        static_cast<int>(Row::Spec1));
    add("specWait[1]", ep.specWait[1], true,
        static_cast<int>(Row::Spec26));
    add("abort", ep.abort, true, static_cast<int>(Row::Abort));
    add("tbMissD", ep.tbMissD, true, static_cast<int>(Row::MemMgmt));
    add("tbMissI", ep.tbMissI, true, static_cast<int>(Row::MemMgmt));
    add("alignRead", ep.alignRead, true,
        static_cast<int>(Row::MemMgmt));
    add("alignWrite", ep.alignWrite, true,
        static_cast<int>(Row::MemMgmt));
    add("interrupt", ep.interrupt, true,
        static_cast<int>(Row::IntExcept));
    add("exception", ep.exception, true,
        static_cast<int>(Row::IntExcept));
    add("machineCheck", ep.machineCheck, true,
        static_cast<int>(Row::IntExcept));
    add("indexPrefix[0]", ep.indexPrefix[0], true,
        static_cast<int>(Row::Spec1));
    add("indexPrefix[1]", ep.indexPrefix[1], true,
        static_cast<int>(Row::Spec26));

    for (size_t m = 0; m < static_cast<size_t>(AddrMode::NumModes);
         ++m) {
        AddrMode mode = static_cast<AddrMode>(m);
        bool read_only = mode == AddrMode::ShortLiteral ||
            mode == AddrMode::Immediate;
        for (unsigned pos = 0; pos < 2; ++pos) {
            for (size_t c = 0;
                 c < static_cast<size_t>(SpecAccClass::NumClasses);
                 ++c) {
                SpecAccClass cls = static_cast<SpecAccClass>(c);
                bool req = !read_only || cls == SpecAccClass::Read;
                std::string name = std::string("spec[") +
                    addrModeName(mode) + "][" +
                    std::to_string(pos) + "][" + specClassName(cls) +
                    "]";
                add(std::move(name), ep.spec[m][pos][c], req,
                    static_cast<int>(pos == 0 ? Row::Spec1
                                              : Row::Spec26));
            }
        }
    }

    // Expected row per execute flow, derived from the opcode table
    // (execRowFor of the owning group); -1 for flows no opcode uses.
    std::array<int, static_cast<size_t>(ExecFlow::NumFlows)> flow_row;
    flow_row.fill(-1);
    for (unsigned i = 0; i < 256; ++i) {
        const OpcodeInfo &info = opcodeInfo(static_cast<uint8_t>(i));
        if (!info.valid || info.flow == ExecFlow::None)
            continue;
        flow_row[static_cast<size_t>(info.flow)] =
            static_cast<int>(execRowFor(info.group));
    }
    for (size_t f = 1; f < static_cast<size_t>(ExecFlow::NumFlows);
         ++f) {
        bool used = flow_row[f] >= 0;
        add(std::string("exec[") +
                execFlowName(static_cast<ExecFlow>(f)) + "]",
            ep.exec[f], used, flow_row[f]);
    }
    return slots;
}

} // anonymous namespace

size_t
LintReport::countFor(LintCheck c) const
{
    size_t k = 0;
    for (const LintDiag &d : diags)
        if (d.check == c)
            ++k;
    return k;
}

std::string
LintReport::text() const
{
    if (diags.empty())
        return "";
    std::string out;
    for (const LintDiag &d : diags) {
        out += "ucode:";
        out += d.addr == kInvalidUAddr ? std::string("-")
                                       : addrStr(d.addr);
        out += ": error: [";
        out += lintCheckName(d.check);
        out += "] ";
        if (!d.word.empty()) {
            out += d.word;
            out += ": ";
        }
        out += d.message;
        out += "\n";
    }
    out += std::to_string(diags.size()) +
        (diags.size() == 1 ? " diagnostic in " : " diagnostics in ") +
        std::to_string(words) + " microwords (" +
        std::to_string(reachable) + " reachable, " +
        std::to_string(reserved) + " reserved)\n";
    return out;
}

std::string
LintReport::json() const
{
    std::string out = "{\n";
    out += "  \"words\": " + std::to_string(words) + ",\n";
    out += "  \"reachable\": " + std::to_string(reachable) + ",\n";
    out += "  \"reserved\": " + std::to_string(reserved) + ",\n";
    out += std::string("  \"clean\": ") +
        (clean() ? "true" : "false") + ",\n";
    out += "  \"counts\": {";
    for (size_t c = 0; c < static_cast<size_t>(LintCheck::NumChecks);
         ++c) {
        if (c)
            out += ", ";
        out += std::string("\"") +
            lintCheckName(static_cast<LintCheck>(c)) + "\": " +
            std::to_string(countFor(static_cast<LintCheck>(c)));
    }
    out += "},\n";
    out += "  \"diags\": [";
    for (size_t i = 0; i < diags.size(); ++i) {
        const LintDiag &d = diags[i];
        out += i ? ",\n    " : "\n    ";
        out += std::string("{\"check\": \"") + lintCheckName(d.check) +
            "\", \"addr\": ";
        out += d.addr == kInvalidUAddr
            ? std::string("null")
            : std::to_string(static_cast<unsigned>(d.addr));
        out += ", \"word\": \"" + ujson::escape(d.word) +
            "\", \"message\": \"" + ujson::escape(d.message) + "\"}";
    }
    out += diags.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

void
regLintStats(const LintReport &rep, stats::Registry &r,
             const std::string &prefix)
{
    if (rep.clean())
        return;
    size_t total = rep.diags.size();
    r.addScalar(prefix + ".diags",
                "static microcode verifier diagnostics",
                [total] { return static_cast<uint64_t>(total); });
    for (size_t c = 0; c < static_cast<size_t>(LintCheck::NumChecks);
         ++c) {
        LintCheck check = static_cast<LintCheck>(c);
        size_t k = rep.countFor(check);
        r.addScalar(prefix + "." + lintCheckName(check),
                    std::string("diagnostics from the ") +
                        lintCheckName(check) + " check",
                    [k] { return static_cast<uint64_t>(k); });
    }
}

LintReport
lintControlStore(const ControlStore &cs)
{
    LintReport rep;
    const size_t n = cs.size();
    rep.words = n;

    auto diag = [&](LintCheck c, UAddr a, std::string msg) {
        LintDiag d;
        d.check = c;
        d.addr = a;
        if (a != kInvalidUAddr && a < n)
            d.word = cs.annotation(a).name;
        d.message = std::move(msg);
        rep.diags.push_back(std::move(d));
    };

    // ---- Check 4 (entry-point) and slot-level check 1 --------------
    const EntryPoints &ep = cs.entries;
    std::vector<Slot> slots = enumerateSlots(ep);
    for (const Slot &s : slots) {
        if (s.addr == kInvalidUAddr) {
            if (s.required)
                diag(LintCheck::EntryPoint, kInvalidUAddr,
                     "EntryPoints." + s.name +
                         " is unset: the decode hardware can select "
                         "this slot");
        } else if (s.addr >= n) {
            diag(LintCheck::BadTarget, kInvalidUAddr,
                 "EntryPoints." + s.name + " = " + addrStr(s.addr) +
                     ", outside the " + std::to_string(n) +
                     "-word control store");
        }
    }

    // ---- Build the linter's own micro-CFG --------------------------
    // Raw declarations, not resolveFlows(): unbound labels must be
    // reported, not silently dropped.
    auto valid = [&](UAddr a) { return a != kInvalidUAddr && a < n; };

    std::vector<UAddr> dispatch_set, spec26_set, end_set, ret_set,
        trap_set;
    auto push = [&](std::vector<UAddr> &v, UAddr a) {
        if (valid(a))
            v.push_back(a);
    };
    push(dispatch_set, ep.specWait[0]);
    push(dispatch_set, ep.specWait[1]);
    push(dispatch_set, ep.indexPrefix[0]);
    push(dispatch_set, ep.indexPrefix[1]);
    for (const auto &mode : ep.spec)
        for (const auto &pos : mode)
            for (UAddr cls : pos)
                push(dispatch_set, cls);
    for (UAddr e : ep.exec)
        push(dispatch_set, e);
    for (const auto &mode : ep.spec)
        for (UAddr cls : mode[1])
            push(spec26_set, cls);
    push(end_set, ep.iid);
    push(end_set, ep.interrupt);
    push(end_set, ep.machineCheck);
    // Microtrap service entries: the EBOX enters these directly when
    // a memory reference or IB request traps (abort is only the count
    // location).
    push(trap_set, ep.tbMissD);
    push(trap_set, ep.tbMissI);
    push(trap_set, ep.alignRead);
    push(trap_set, ep.alignWrite);
    for (size_t a = 0; a < n; ++a)
        if (!cs.flow(static_cast<UAddr>(a)).calls.empty() && a + 1 < n)
            ret_set.push_back(static_cast<UAddr>(a + 1));

    std::vector<std::vector<UAddr>> succ(n);
    /**
     * Local edges only (fall/branch/call/return): the region a
     * routine can cover without ending the instruction, dispatching
     * or microtrapping.  The service-path checks walk this graph, so
     * "the TB-miss service reaches a trap-return" cannot be satisfied
     * by leaving the service routine entirely.
     */
    std::vector<std::vector<UAddr>> local_succ(n);
    std::vector<char> exit_edge(n, 0); ///< trapRet/stop leave the CFG
    std::vector<char> referenced(cs.labelCount(), 0);

    for (size_t a = 0; a < n; ++a) {
        const UAddr ua = static_cast<UAddr>(a);
        const UFlow &f = cs.flow(ua);
        const UAnnotation &ann = cs.annotation(ua);
        std::vector<UAddr> &s = succ[a];

        if (f.fall) {
            if (a + 1 < n)
                s.push_back(static_cast<UAddr>(a + 1));
            else
                diag(LintCheck::BadTarget, ua,
                     "declares fall-through past the end of the "
                     "control store");
        }
        auto label_edge = [&](ULabel l, const char *verb) {
            if (l < referenced.size())
                referenced[l] = 1;
            int32_t b = cs.labelBinding(l);
            if (b < 0)
                diag(LintCheck::BadTarget, ua,
                     std::string(verb) + " label " + std::to_string(l) +
                         ", which is never bound (dangling)");
            else if (static_cast<size_t>(b) >= n)
                diag(LintCheck::BadTarget, ua,
                     std::string(verb) + " label " + std::to_string(l) +
                         " bound outside the store");
            else
                s.push_back(static_cast<UAddr>(b));
        };
        for (ULabel l : f.targets)
            label_edge(l, "branches to");
        for (ULabel l : f.calls)
            label_edge(l, "calls");
        for (UAddr t : f.rawTargets) {
            if (t < n)
                s.push_back(t);
            else
                diag(LintCheck::BadTarget, ua,
                     "jumps to absolute micro-address " + addrStr(t) +
                         ", outside the " + std::to_string(n) +
                         "-word control store");
        }
        if (f.end)
            s.insert(s.end(), end_set.begin(), end_set.end());
        if (f.dispatch)
            s.insert(s.end(), dispatch_set.begin(), dispatch_set.end());
        if (f.spec26)
            s.insert(s.end(), spec26_set.begin(), spec26_set.end());
        if (f.ret)
            s.insert(s.end(), ret_set.begin(), ret_set.end());
        if (f.trapRet || f.stop)
            exit_edge[a] = 1;
        // Implicit microtrap edges: any word that references memory
        // or requests IB bytes may trap into the service microcode.
        if (!f.reserved &&
            (ann.mem != UMemKind::None || ann.ibRequest))
            s.insert(s.end(), trap_set.begin(), trap_set.end());

        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());

        std::vector<UAddr> &ls = local_succ[a];
        if (f.fall && a + 1 < n)
            ls.push_back(static_cast<UAddr>(a + 1));
        for (ULabel l : f.targets) {
            int32_t b = cs.labelBinding(l);
            if (b >= 0 && static_cast<size_t>(b) < n)
                ls.push_back(static_cast<UAddr>(b));
        }
        for (ULabel l : f.calls) {
            int32_t b = cs.labelBinding(l);
            if (b >= 0 && static_cast<size_t>(b) < n)
                ls.push_back(static_cast<UAddr>(b));
        }
        for (UAddr t : f.rawTargets)
            if (t < n)
                ls.push_back(t);
        if (f.ret)
            ls.insert(ls.end(), ret_set.begin(), ret_set.end());
        std::sort(ls.begin(), ls.end());
        ls.erase(std::unique(ls.begin(), ls.end()), ls.end());

        if (f.reserved)
            ++rep.reserved;
    }

    // ---- Reachability from the dispatch roots ----------------------
    // Roots are the slots the hardware itself selects; the microtrap
    // service entries are reached through the implicit edges above.
    std::vector<char> reached(n, 0);
    std::vector<UAddr> work;
    auto root = [&](UAddr a) {
        if (valid(a) && !reached[a]) {
            reached[a] = 1;
            work.push_back(a);
        }
    };
    root(ep.iid);
    root(ep.interrupt);
    root(ep.machineCheck);
    root(ep.exception);
    root(ep.specWait[0]);
    root(ep.specWait[1]);
    root(ep.indexPrefix[0]);
    root(ep.indexPrefix[1]);
    for (const auto &mode : ep.spec)
        for (const auto &pos : mode)
            for (UAddr cls : pos)
                root(cls);
    for (UAddr e : ep.exec)
        root(e);
    while (!work.empty()) {
        UAddr a = work.back();
        work.pop_back();
        for (UAddr t : succ[a]) {
            if (!reached[t]) {
                reached[t] = 1;
                work.push_back(t);
            }
        }
    }
    for (size_t a = 0; a < n; ++a)
        rep.reachable += reached[a];

    // ---- Check 2 (classification) ----------------------------------
    for (const Slot &s : slots) {
        if (!valid(s.addr) || s.expectRow < 0)
            continue;
        const UAnnotation &ann = cs.annotation(s.addr);
        if (static_cast<int>(ann.row) != s.expectRow)
            diag(LintCheck::Classification, s.addr,
                 "dispatched from EntryPoints." + s.name +
                     " but classified in row " + rowName(ann.row) +
                     " (expected " +
                     rowName(static_cast<Row>(s.expectRow)) + ")");
    }
    for (size_t a = 0; a < n; ++a) {
        if (!reached[a])
            continue;
        const UAnnotation &ann = cs.annotation(static_cast<UAddr>(a));
        if (static_cast<size_t>(ann.row) >=
            static_cast<size_t>(Row::NumRows))
            diag(LintCheck::Classification, static_cast<UAddr>(a),
                 "row value " +
                     std::to_string(static_cast<unsigned>(ann.row)) +
                     " is not a Table 8 row");
    }

    // ---- Check 3 (mem-annotation) ----------------------------------
    for (size_t a = 0; a < n; ++a) {
        const UFlow &f = cs.flow(static_cast<UAddr>(a));
        const UAnnotation &ann = cs.annotation(static_cast<UAddr>(a));
        if (f.reserved &&
            (ann.mem != UMemKind::None || ann.ibRequest))
            diag(LintCheck::MemAnnotation, static_cast<UAddr>(a),
                 "reserved (never-executed) word claims memory/IB "
                 "behaviour");
    }
    // Every service entry must reach a trap-return within its own
    // routine (local edges only), and every trap-return must lie on
    // such a service path: that is what makes the UMemKind stall
    // attribution of trapped references sound.
    std::vector<char> service(n, 0);
    for (UAddr h : trap_set) {
        std::vector<UAddr> q{h};
        std::vector<char> seen(n, 0);
        seen[h] = 1;
        bool found_ret = false;
        while (!q.empty()) {
            UAddr a = q.back();
            q.pop_back();
            service[a] = 1;
            if (cs.flow(a).trapRet)
                found_ret = true;
            for (UAddr t : local_succ[a]) {
                if (!seen[t]) {
                    seen[t] = 1;
                    q.push_back(t);
                }
            }
        }
        if (!found_ret)
            diag(LintCheck::MemAnnotation, h,
                 "microtrap service entry never reaches a "
                 "trap-return word");
    }
    for (size_t a = 0; a < n; ++a) {
        if (cs.flow(static_cast<UAddr>(a)).trapRet && !service[a])
            diag(LintCheck::MemAnnotation, static_cast<UAddr>(a),
                 "trap-return word is not on any microtrap service "
                 "path");
    }

    // ---- Check 5 (micro-loop) --------------------------------------
    SccResult scc = tarjanScc(succ);
    std::vector<char> cyclic(scc.count, 0), has_exit(scc.count, 0),
        progress(scc.count, 0), scc_reached(scc.count, 0);
    std::vector<int> size(scc.count, 0);
    std::vector<UAddr> first(scc.count, 0);
    for (size_t a = n; a-- > 0;) {
        int c = scc.comp[a];
        ++size[c];
        first[c] = static_cast<UAddr>(a);
        if (reached[a])
            scc_reached[c] = 1;
        if (exit_edge[a])
            has_exit[c] = 1;
        const UAnnotation &ann = cs.annotation(static_cast<UAddr>(a));
        if (ann.mem != UMemKind::None || ann.ibRequest)
            progress[c] = 1;
        for (UAddr t : succ[a]) {
            if (scc.comp[t] != c)
                has_exit[c] = 1;
            else if (t == a)
                cyclic[c] = 1; // self-loop
        }
    }
    for (int c = 0; c < scc.count; ++c) {
        if (size[c] > 1)
            cyclic[c] = 1;
        if (!cyclic[c] || !scc_reached[c] || has_exit[c] ||
            progress[c])
            continue;
        std::string members;
        int listed = 0;
        for (size_t a = first[c]; a < n && listed < 4; ++a) {
            if (scc.comp[a] != c)
                continue;
            if (listed)
                members += ", ";
            members += addrStr(static_cast<UAddr>(a));
            members += " (";
            members += cs.annotation(static_cast<UAddr>(a)).name;
            members += ")";
            ++listed;
        }
        if (size[c] > listed)
            members += ", ...";
        diag(LintCheck::MicroLoop, first[c],
             std::to_string(size[c]) +
                 "-word micro-loop with no exit edge and no "
                 "memory/IB interaction: " +
                 members);
    }

    // ---- Check 6 (unreachable + orphan labels) ---------------------
    for (size_t a = 0; a < n; ++a) {
        if (!reached[a] && !cs.flow(static_cast<UAddr>(a)).reserved)
            diag(LintCheck::Unreachable, static_cast<UAddr>(a),
                 "unreachable from every dispatch root (and not "
                 "declared reserved)");
    }
    for (size_t l = 0; l < cs.labelCount(); ++l) {
        if (cs.labelBinding(static_cast<ULabel>(l)) < 0 &&
            !referenced[l])
            diag(LintCheck::Unreachable, kInvalidUAddr,
                 "label " + std::to_string(l) +
                     " allocated but never bound or referenced "
                     "(orphan)");
    }

    return rep;
}

} // namespace vax
