/**
 * @file
 * The EBOX control store and its assembler.
 *
 * Each control-store location holds one microinstruction: a semantic
 * action (the register-transfer work, expressed as a callable on the
 * EBOX) plus the static annotation the UPC analysis needs.  The
 * 11/780's control store held 4K-6K 99-bit words; the histogram board
 * had 16K buckets, which bounds our store too.
 *
 * Semantic actions are decoded once, at ROM build time, into one flat
 * dispatch table: a plain function pointer per word plus its operand
 * record packed into an arena (see DESIGN.md §9).  That table is the
 * only way a microword runs; COMPOSITE_golden.json pins what it
 * counts.
 *
 * Micro-branch targets are label ids resolved through the store's
 * label table, so forward references inside a routine are cheap.
 *
 * Because the semantic action is an opaque callable, every microword
 * also carries an explicit successor declaration (UFlow): the set of
 * micro-CFG edges its action may take.  The declarations are what the
 * static verifier (src/analysis) lints, and the EBOX can optionally
 * check every executed transition against them (Ebox::setFlowCheck),
 * so a declaration that disagrees with the lambda dies in the tests.
 */

#ifndef UPC780_UCODE_CONTROL_STORE_HH
#define UPC780_UCODE_CONTROL_STORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "ucode/annotations.hh"

namespace vax
{

class Ebox;

/**
 * Decoded dispatch: a plain function pointer plus a pointer to the
 * microword's packed operand record (the builder lambda's captures,
 * placed in the control store's operand arena).  One flat array of
 * these is the interpreter's inner-loop table -- a single predictable
 * indirect call per cycle, no std::function machinery, and operands
 * packed contiguously in emission (≈ execution) order.
 */
using USemFn = void (*)(Ebox &, const void *);

struct DecodedWord
{
    USemFn fn;
    const void *ops;
};

/** A micro-branch label (index into the store's label table). */
using ULabel = uint32_t;

/**
 * The "no such micro-address" sentinel.  Address 0 is a legal
 * control-store location, so unset EntryPoints slots must be
 * distinguishable from it; 0xFFFF is above the 16K histogram bound
 * and can never name a real microword.
 */
constexpr UAddr kInvalidUAddr = 0xFFFF;

/**
 * Static successor declaration of one microword: which micro-CFG
 * edges its semantic action may take.  Built with the flow*()
 * factories below and the or*() combinators, e.g.
 * flowTo(taken).orEnd() for "uJump(taken) or endInstruction()".
 */
struct UFlow
{
    bool fall = false;     ///< may fall through to address + 1
    bool end = false;      ///< may endInstruction() (IID/INT/MCHK)
    bool dispatch = false; ///< decode dispatch (spec or exec entries)
    bool spec26 = false;   ///< index prefix: jump into a SPEC2-6 entry
    bool ret = false;      ///< uRet() to a recorded call site + 1
    bool trapRet = false;  ///< uTrapRet[Satisfied](): resumes trapper
    bool stop = false;     ///< setHalted() or unconditional fault()
    bool reserved = false; ///< intentionally unreachable guard word
    std::vector<ULabel> targets;   ///< uJump()/uIf() label targets
    std::vector<ULabel> calls;     ///< uCall() subroutine entries
    std::vector<UAddr> rawTargets; ///< uJumpAddr() absolute targets
    /**
     * Loop-bound annotation: when this word sits on a micro-loop (it
     * is a member of a cyclic SCC of the declared micro-CFG), the
     * maximum number of times any word of that loop can execute per
     * entry into the flow.  0 means "not annotated"; the static bound
     * analyzer (src/analysis/ubound) requires every reachable cycle
     * to carry a non-zero bound on at least one member word and uses
     * it for the worst-case cycle ceiling.
     */
    uint32_t loopBound = 0;

    UFlow &orFall()          { fall = true; return *this; }
    UFlow &orEnd()           { end = true; return *this; }
    UFlow &orDispatch()      { dispatch = true; return *this; }
    UFlow &orStop()          { stop = true; return *this; }
    UFlow &orTrapRet()       { trapRet = true; return *this; }
    UFlow &
    orTo(ULabel l)
    {
        targets.push_back(l);
        return *this;
    }
    UFlow &
    orToAddr(UAddr a)
    {
        rawTargets.push_back(a);
        return *this;
    }
    /** Attach a loop-bound annotation (see loopBound). */
    UFlow &
    withLoopBound(uint32_t n)
    {
        loopBound = n;
        return *this;
    }

    /** True when this word declares no successors at all (a terminal
     *  or reserved word). */
    bool
    terminal() const
    {
        return !fall && !end && !dispatch && !spec26 && !ret &&
            !trapRet && targets.empty() && calls.empty() &&
            rawTargets.empty();
    }
};

/** @{ UFlow factories, named for the dominant edge kind. */
inline UFlow
flowFall()
{
    UFlow f;
    f.fall = true;
    return f;
}

inline UFlow
flowEnd()
{
    UFlow f;
    f.end = true;
    return f;
}

inline UFlow
flowTo(std::initializer_list<ULabel> ls)
{
    UFlow f;
    f.targets.assign(ls.begin(), ls.end());
    return f;
}

inline UFlow
flowTo(ULabel l)
{
    return flowTo({l});
}

inline UFlow
flowToAddr(UAddr a)
{
    UFlow f;
    f.rawTargets.push_back(a);
    return f;
}

inline UFlow
flowCall(ULabel sub)
{
    UFlow f;
    f.calls.push_back(sub);
    return f;
}

inline UFlow
flowDispatch()
{
    UFlow f;
    f.dispatch = true;
    return f;
}

inline UFlow
flowSpec26()
{
    UFlow f;
    f.spec26 = true;
    return f;
}

inline UFlow
flowRet()
{
    UFlow f;
    f.ret = true;
    return f;
}

inline UFlow
flowTrapRet()
{
    UFlow f;
    f.trapRet = true;
    return f;
}

inline UFlow
flowStop()
{
    UFlow f;
    f.stop = true;
    return f;
}

inline UFlow
flowReserved()
{
    UFlow f;
    f.reserved = true;
    return f;
}
/** @} */

/**
 * Well-known dispatch targets, filled in by the microcode ROM builder
 * and consulted by the EBOX's hardware-decode services.
 */
/** Access classes used to select a specifier routine variant. */
enum class SpecAccClass : uint8_t { Read, Write, Modify, Addr, NumClasses };

/** Cold panic: branch operands have no specifier routine class. */
[[noreturn]] void badBranchOperandClass();

/** Map an operand access type to its routine class.  Inline: runs for
 *  every dispatched operand specifier. */
inline SpecAccClass
specAccClass(Access a)
{
    switch (a) {
      case Access::Read:    return SpecAccClass::Read;
      case Access::Write:   return SpecAccClass::Write;
      case Access::Modify:  return SpecAccClass::Modify;
      case Access::Address:
      case Access::Field:   return SpecAccClass::Addr;
      case Access::Branch:  break;
    }
    badBranchOperandClass();
}

/** Out-of-line panic for an out-of-range micro-address (e.g. a
 *  dispatch through an unset kInvalidUAddr entry slot). */
[[noreturn]] void badMicroAddress(UAddr a, size_t size);

struct EntryPoints
{
    UAddr iid = kInvalidUAddr; ///< instruction decode microinstruction
    /**
     * The "insufficient bytes in the IB" dispatch locations for
     * specifier decode, one per position class.  Executions here are
     * IB-stall cycles, exactly as the paper describes the counting.
     */
    std::array<UAddr, 2> specWait{kInvalidUAddr, kInvalidUAddr};
    UAddr abort = kInvalidUAddr;      ///< abort-cycle count location
    UAddr tbMissD = kInvalidUAddr;    ///< D-stream TB miss service
    UAddr tbMissI = kInvalidUAddr;    ///< I-stream TB miss service
    UAddr alignRead = kInvalidUAddr;  ///< unaligned read service
    UAddr alignWrite = kInvalidUAddr; ///< unaligned write service
    UAddr interrupt = kInvalidUAddr;  ///< interrupt dispatch microcode
    UAddr exception = kInvalidUAddr;  ///< exception dispatch microcode
    UAddr machineCheck = kInvalidUAddr; ///< machine-check dispatch
    /** Execute-flow entries, indexed by ExecFlow. */
    std::array<UAddr, static_cast<size_t>(ExecFlow::NumFlows)> exec;
    /**
     * Specifier-mode routine entries: [mode][0=spec1,1=spec2-6][class].
     * The decode hardware dispatches directly here (zero cycles), as
     * the real machine's decode ROM did.
     */
    UAddr spec[static_cast<size_t>(AddrMode::NumModes)][2]
              [static_cast<size_t>(SpecAccClass::NumClasses)];
    /**
     * Index-prefix routines (per position class).  Both fall into the
     * SPEC2-6 copy of the base-mode routine -- the microcode sharing
     * that makes the paper report indexed first-specifier base
     * calculation under SPEC2-6.
     */
    std::array<UAddr, 2> indexPrefix{kInvalidUAddr, kInvalidUAddr};

    EntryPoints()
    {
        exec.fill(kInvalidUAddr);
        for (auto &mode : spec)
            for (auto &pos : mode)
                for (auto &cls : pos)
                    cls = kInvalidUAddr;
    }

    bool operator==(const EntryPoints &) const = default;
};

class ControlStore
{
  public:
    /** Histogram-board capacity: 16K count locations. */
    static constexpr unsigned capacity = 16384;

    UAddr size() const { return static_cast<UAddr>(anns_.size()); }

    const UAnnotation &
    annotation(UAddr a) const
    {
        check(a);
        return anns_[a];
    }

    /** Declared successor set of a microword. */
    const UFlow &
    flow(UAddr a) const
    {
        check(a);
        return flows_[a];
    }

    /** Resolve a label to its bound address (panics if unbound).
     *  Inline: micro-jumps resolve their target through this every
     *  execution, so the good case must be one load and one test. */
    UAddr
    labelAddr(ULabel l) const
    {
        if (l >= labels_.size() || labels_[l] < 0) [[unlikely]]
            badLabel(l);
        return static_cast<UAddr>(labels_[l]);
    }

    /** @{ Label-table introspection for the static verifier. */
    size_t labelCount() const { return labels_.size(); }
    /** Bound address of a label, or -1 while unbound. */
    int32_t
    labelBinding(ULabel l) const
    {
        return l < labels_.size() ? labels_[l] : -1;
    }
    /** @} */

    /**
     * Resolve every declared edge to absolute addresses: per-word
     * sorted successor sets with dispatch tables, end targets and
     * micro-subroutine return sites expanded.  Called once by the ROM
     * builder after all entries are registered; edges through unbound
     * labels are skipped here (the verifier reports them).
     */
    void resolveFlows();

    bool flowsResolved() const { return resolved_; }

    /** Resolved successors of a word (resolveFlows() first). */
    const std::vector<UAddr> &successors(UAddr a) const;

    /** True when the declared flow of `from` admits a transition to
     *  `to` (membership in the resolved successor set). */
    bool flowAllows(UAddr from, UAddr to) const;

    /**
     * The decoded dispatch table, one entry per microword.  The
     * pointer is only stable once the ROM is fully built (the EBOX is
     * constructed after buildMicrocodeRom(), so it caches this).
     */
    const DecodedWord *decodedTable() const { return decoded_.data(); }

    EntryPoints entries;

  private:
    friend class MicroAssembler;

    /** Out-of-line panic for an unbound or unknown label. */
    [[noreturn]] void badLabel(ULabel l) const;

    void
    check(UAddr a) const
    {
        if (a >= anns_.size())
            badMicroAddress(a, anns_.size());
    }

    /** Reserve packed, aligned storage in the operand arena. */
    void *semArenaAlloc(size_t size, size_t align);

    std::vector<UAnnotation> anns_;
    std::vector<DecodedWord> decoded_;
    std::vector<UFlow> flows_;
    std::vector<int32_t> labels_; ///< -1 = unbound
    std::vector<std::vector<UAddr>> succ_;
    bool resolved_ = false;

    /** Operand arena: chunked so records never move once placed. */
    std::vector<std::unique_ptr<unsigned char[]>> semChunks_;
    size_t semChunkUsed_ = 0; ///< bytes used in the newest chunk
    /** Annotation names composed at ROM time.  A deque never moves
     *  its elements, so the interned c_str() pointers stay valid. */
    std::deque<std::string> names_;
};

/**
 * Emits microinstructions into a ControlStore.
 *
 * The ROM builder functions (rom_*.cc) use this to lay down routines
 * and record entry points, annotations and successor declarations.
 */
class MicroAssembler
{
  public:
    explicit MicroAssembler(ControlStore &cs) : cs_(cs) {}

    /** Next address to be emitted. */
    UAddr here() const { return cs_.size(); }

    /**
     * Emit one microinstruction; returns its address.
     *
     * The callable is decoded once, here: its captures are packed into
     * the store's operand arena and a plain trampoline function pointer
     * is recorded in the flat dispatch table, so the per-cycle path is
     * one indirect call.  The arena never runs destructors, so the
     * captures must be plain data.
     */
    template <typename F>
    UAddr
    emit(const UAnnotation &ann, UFlow flow, F &&sem)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, const Fn &, Ebox &>,
                      "microword semantics must be callable as "
                      "void(Ebox &)");
        static_assert(std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>,
                      "microword captures must be trivially copyable "
                      "and destructible: they live in the operand arena");
        void *slot = cs_.semArenaAlloc(sizeof(Fn), alignof(Fn));
        const Fn *packed = ::new (slot) Fn(sem);
        return emitWord(ann, std::move(flow),
                        DecodedWord{&invokeSem<Fn>, packed});
    }

    /** Copy a name composed at ROM time into the store, which owns
     *  it for its lifetime; returns the C string for UAnnotation. */
    const char *intern(std::string name);

    /** Allocate an unbound label. */
    ULabel newLabel();

    /** Bind a label to the current address. */
    void bind(ULabel l);

    /** Bind a label to a specific address. */
    void bindAt(ULabel l, UAddr a);

    ControlStore &store() { return cs_; }

  private:
    /** Trampoline giving every callable type one plain entry point. */
    template <typename Fn>
    static void
    invokeSem(Ebox &e, const void *ops)
    {
        (*static_cast<const Fn *>(ops))(e);
    }

    /** Append a fully decoded word (capacity check lives here). */
    UAddr emitWord(const UAnnotation &ann, UFlow flow,
                   DecodedWord decoded);

    ControlStore &cs_;
};

} // namespace vax

#endif // UPC780_UCODE_CONTROL_STORE_HH
