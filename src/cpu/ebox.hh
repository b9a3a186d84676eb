/**
 * @file
 * The EBOX: the 11/780's microcoded execution engine.
 *
 * Each machine cycle either executes the microinstruction at the
 * current micro-PC or is a stall (read, write or IB).  Every cycle
 * increments the attached UPC monitor's normal or stalled bank at its
 * micro-address, in the cycle it happens -- the measurement surface of
 * the UPC histogram monitor.
 *
 * Microcode conventions (enforced by the services below):
 *  - IB requests (decodeOpcode / decodeSpec / ibGet) must be the first
 *    action of a microword's semantic lambda, and the lambda must
 *    return immediately if they fail; a stalled lambda is re-run.
 *  - A microword issues at most one memory operation, as its last
 *    action.  On a TB miss or unaligned reference, the machine takes a
 *    one-cycle abort (counted at the dedicated abort micro-address,
 *    the paper's Abort row), runs the service microcode, and then
 *    re-issues the recorded operation without re-running the lambda,
 *    so earlier register side effects are not repeated.
 */

#ifndef UPC780_CPU_EBOX_HH
#define UPC780_CPU_EBOX_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "arch/types.hh"
#include "support/bitutil.hh"
#include "support/logging.hh"
#include "support/trace.hh"
#include "cpu/hw_counters.hh"
#include "cpu/ib.hh"
#include "cpu/ifetch.hh"
#include "cpu/interrupts.hh"
#include "cpu/psl.hh"
#include "mem/mem_system.hh"
#include "ucode/control_store.hh"

namespace vax
{

class IntervalTimer;
class UpcMonitor;
namespace snap { class Serializer; class Deserializer; }

/** Simulator-fatal architectural faults (workloads must avoid these). */
enum class FaultKind : uint8_t {
    ReservedInstruction,
    ReservedOperand,
    ReservedAddressingMode,
    AccessViolation,
    TranslationNotValid,
    PrivilegedInstruction,
    Breakpoint,
    ArithmeticTrap,
};

/** Destination latch: where an instruction's result goes. */
struct DstLatch
{
    enum class Kind : uint8_t { None, Reg, Mem } kind = Kind::None;
    uint8_t reg = 0;
    VirtAddr addr = 0;
    DataType type = DataType::Long;
};

/**
 * Decode and operand latches visible to microcode.
 *
 * These model the 11/780's internal latches loaded by the I-Decode
 * hardware and the specifier microcode.
 */
struct Latches
{
    uint8_t opcode = 0;
    const OpcodeInfo *info = nullptr;
    VirtAddr instrPc = 0;     ///< address of the current instruction
    uint8_t specIndex = 0;    ///< number of specifiers decoded so far

    // Current specifier (set by decodeSpec).
    AddrMode specMode = AddrMode::Register;
    uint8_t specReg = 0;
    uint8_t specLiteral = 0;
    Access specAccess = Access::Read;
    DataType specType = DataType::Long;
    uint8_t specOpIndex = 0;
    bool specIndexed = false;
    uint8_t specIndexReg = 0;
    uint32_t idxVal = 0;      ///< scaled index value

    // Operand value latches (opHi holds the high half of quads).
    uint32_t op[6] = {};
    uint32_t opHi[6] = {};

    // Result destinations (two for EDIV-style double writes).
    uint8_t dstCount = 0;
    DstLatch dst[2];

    // Field (access type V) operand.
    bool vIsReg = false;
    uint8_t vReg = 0;
    VirtAddr vAddr = 0;

    // Working registers.
    uint32_t va = 0;          ///< virtual address latch
    uint32_t q = 0;           ///< IB data latch (ibGet result)
    uint32_t t[8] = {};       ///< temporaries
    uint32_t sc = 0;          ///< shift/loop counter
    uint8_t strBuf[64] = {};  ///< string datapath buffer (decimal ops)
    int64_t wide[2] = {};     ///< 64-bit scratch (decimal arithmetic)

    /**
     * Scratch registers reserved for the microtrap service routines.
     * They interrupt instruction flows mid-stream, so the services
     * must not touch t[]/sc/va; and because an alignment service's
     * partial reference can itself TB-miss (nesting the fill routine
     * inside), the two services use disjoint banks.
     */
    uint32_t mm[6] = {};   ///< TB-fill scratch
    uint32_t alg[4] = {};  ///< alignment scratch
};

class Ebox
{
  public:
    Ebox(const ControlStore &cs, MemSystem &mem, InstructionBuffer &ib,
         IFetch &ifetch, InterruptController &intc, IntervalTimer &timer,
         HwCounters &hw);
    ~Ebox();

    /** Attach the UPC monitor (null detaches).  While it collects,
     *  every cycle increments one of its banks directly (DESIGN.md
     *  §9), so its banks are exact between any two cycles. */
    void setCycleSink(UpcMonitor *mon);

    /** Called by ~UpcMonitor: a dying monitor must not leave the EBOX
     *  holding pointers into its banks. */
    void detachMonitor(UpcMonitor *mon);

    /** Re-point the cached bank pointers at the attached monitor's
     *  banks, or null them while it is stopped.  Public because
     *  UpcMonitor::start, stop and restore call back here. */
    void pointMonitorBanks();

    /** Optional per-instruction hook, fired at the decode cycle. */
    void
    setInstructionHook(std::function<void(VirtAddr, uint8_t)> hook)
    {
        instrHook_ = std::move(hook);
    }

    /** Start execution at pc in the given mode (PSL reset). */
    void reset(VirtAddr pc, CpuMode mode = CpuMode::Kernel);

    /** Execute one machine cycle. */
    void
    cycle()
    {
        if (state_ == State::Running) [[likely]] {
            runMicroword();
            return;
        }
        cycleSlow();
    }

    bool halted() const { return halted_; }

    /** @{ Architectural state (for the OS builder and tests). */
    uint32_t gpr(unsigned r) const { return gpr_[r]; }
    void setGpr(unsigned r, uint32_t v);
    Psl &psl() { return psl_; }
    const Psl &psl() const { return psl_; }
    uint32_t prRaw(unsigned idx) const { return pr_[idx]; }
    void setPrRaw(unsigned idx, uint32_t v) { pr_[idx] = v; }
    VirtAddr decodePc() const { return decodePc_; }
    /** @} */

    // ================= microcode services =================

    /** @{ Sequencing.  The small ones are inline: they run inside the
     *  microword lambdas (compiled in rom_*.cc) several times per
     *  machine cycle, and each is a store or two. */
    void
    uJump(ULabel l)
    {
        seqSet_ = true;
        nextUpc_ = cs_.labelAddr(l);
    }

    void
    uJumpAddr(UAddr a)
    {
        seqSet_ = true;
        nextUpc_ = a;
    }

    void
    uIf(bool cond, ULabel l)
    {
        if (cond) {
            seqSet_ = true;
            nextUpc_ = cs_.labelAddr(l);
        }
    }

    void
    uCall(ULabel l)
    {
        microStack_.push_back(static_cast<UAddr>(upc_ + 1));
        seqSet_ = true;
        nextUpc_ = cs_.labelAddr(l);
    }

    void
    uRet()
    {
        upc_assert(!microStack_.empty());
        seqSet_ = true;
        nextUpc_ = microStack_.back();
        microStack_.pop_back();
    }

    void endInstruction() { pendingEnd_ = true; }

    void nextSpecOrExec();
    void uTrapRet();           ///< return from MM/align service ucode
    void uTrapRetSatisfied();  ///< same, but the op was serviced inline
    /** @} */

    /** @{ I-Decode and IB requests (first action of a lambda). */
    bool decodeOpcode();
    bool decodeSpec();

    bool
    ibGet(unsigned bytes, bool sign_extend)
    {
        upc_assert(bytes >= 1 && bytes <= 4);
        if (ib_.avail() < bytes) {
            ibFailed_ = true;
            return false;
        }
        uint32_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<uint32_t>(ib_.peek(i)) << (8 * i);
        ib_.consume(bytes);
        decodePc_ += bytes;
        lat.q = sign_extend && bytes < 4
            ? static_cast<uint32_t>(sext(v, 8 * bytes))
            : v;
        return true;
    }

    void
    ibSkip(unsigned bytes)
    {
        ib_.skip(bytes);
        decodePc_ += bytes;
    }
    /** @} */

    /** @{ Memory operations (last action of a lambda). */
    void memRead(VirtAddr va, unsigned bytes);
    void memReadPhys(PhysAddr pa);
    void memWrite(VirtAddr va, uint32_t data, unsigned bytes);
    void memWritePhys(PhysAddr pa, uint32_t data, unsigned bytes);
    /** @} */

    /** Memory data register (result of the last completed read). */
    uint32_t md() const { return md_; }
    void setMd(uint32_t v) { md_ = v; }

    /** @{ TB services used by the fill microcode. */
    void tbInsert(VirtAddr va, uint32_t pte_value);
    bool tbProbeSystem(VirtAddr va, PhysAddr *pa);
    /** Faulting VA of the trap being serviced. */
    VirtAddr trapVaTop() const;
    /** Kind (as raw enum value) of the trap being serviced. */
    uint8_t trapKindTop() const;
    bool trapIsWrite() const;
    /** Details of the trapped op for the alignment microcode. */
    void trappedOp(VirtAddr *va, uint32_t *data, unsigned *bytes) const;
    void clearItbMissFlag() { ifetch_.clearItbMiss(); }
    /** @} */

    /** Expand a 6-bit short literal for the given data type. */
    uint32_t expandLiteral(uint8_t literal, DataType type) const;

    /** SPEC2-6 routine entry (used by the index-prefix microcode). */
    UAddr
    spec26Entry(AddrMode mode, SpecAccClass acc) const
    {
        return cs_.entries.spec[static_cast<size_t>(mode)][1]
            [static_cast<size_t>(acc)];
    }

    /** Hardware counters (microcode increments a few cross-checks). */
    HwCounters &hw() { return hw_; }

    /** Redirect the I-stream (branch taken). */
    void redirect(VirtAddr target);

    /** Raise a simulator-fatal architectural fault. */
    [[noreturn]] void fault(FaultKind kind, const char *detail = "");

    /** @{ Processor registers with side effects (MTPR/MFPR flows). */
    void mtpr(uint32_t regnum, uint32_t value);
    uint32_t mfpr(uint32_t regnum);
    /** @} */

    /** Switch current mode, banking stack pointers. */
    void switchMode(CpuMode m);

    /** LDPCTX: invalidate the process half of the TB. */
    void tbInvalidateProcess() { mem_.tb().invalidateProcess(); }

    /** PROBE: true if the access would be allowed in the given mode. */
    bool
    probeAccess(VirtAddr va, bool is_write, CpuMode mode)
    {
        PhysAddr pa;
        return mem_.probe(va, is_write, mode, &pa) !=
            TbResult::AccessViolation;
    }

    /** Level of the interrupt being dispatched (interrupt microcode). */
    unsigned pendingIntLevel() const { return pendingIntLevel_; }

    /** Cause code of the machine check being dispatched (MCHK flow). */
    uint32_t mcheckCause() const { return mcheckCause_; }

    /** @{ Micro-PC exposure for the guard/watchdog machinery.  The
     *  pointer stays valid for the EBOX's lifetime (guard::setMicroPc
     *  pattern, like trace::setCycleCounter). */
    UAddr currentUpc() const { return upc_; }
    const UAddr *upcPtr() const { return &upc_; }
    /** @} */

    /** @{ Condition-code helpers for the execute flows (inline: one
     *  runs at nearly every instruction's store tail). */
    void
    setCcNz(uint32_t value, DataType type)
    {
        unsigned bits = 8 * dataTypeBytes(type);
        uint32_t mask = bits >= 32 ? ~0u : ((1u << bits) - 1);
        uint32_t v = value & mask;
        psl_.cc.z = v == 0;
        psl_.cc.n = (v >> (bits - 1)) & 1;
        psl_.cc.v = false;
    }

    void
    setCcFromF(double value)
    {
        psl_.cc.z = value == 0.0;
        psl_.cc.n = value < 0.0;
        psl_.cc.v = false;
        psl_.cc.c = false;
    }
    /** @} */

    /** Decode latches. */
    Latches lat;

    /** General registers, directly visible to microcode. */
    uint32_t &
    r(unsigned n)
    {
        return gpr_[n];
    }

    /** Architectural PC as specifier microcode sees it. */
    VirtAddr pcForSpec() const { return decodePc_; }

    /** The halted flag (HALT instruction in kernel mode). */
    void setHalted() { halted_ = true; }

    /**
     * Validate every executed micro-transition against the control
     * store's declared successor edges (strict mode).  Requires
     * ControlStore::resolveFlows() to have run; words declared
     * flowTrapRet() are exempt (their resume point is a trap frame).
     */
    void setFlowCheck(bool on) { flowCheck_ = on; }
    bool flowCheck() const { return flowCheck_; }

    /** @{ Checkpoint/restore: the complete execution state -- PSL,
     *  GPRs, processor registers, micro-PC, decode latches, trap and
     *  micro-call stacks, in-flight memory-op bookkeeping.  The attached
     *  monitor and instruction hook are wiring, not state; the
     *  restoring harness re-attaches them. */
    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
    /** @} */

  private:
    enum class State : uint8_t {
        Running,
        ReadStall,
        WriteStall,
        Reissue,    ///< re-issue a trapped memory op
        Halted,
    };

    enum class TrapKind : uint8_t {
        TbMissD, TbMissI, AlignRead, AlignWrite,
    };

    struct PendingMemOp
    {
        enum class Kind : uint8_t { None, Read, PhysRead, Write } kind =
            Kind::None;
        VirtAddr va = 0;
        uint32_t data = 0;
        unsigned bytes = 0;
    };

    struct TrapFrame
    {
        TrapKind kind = TrapKind::TbMissD;
        UAddr trapUpc = 0;        ///< microword that trapped
        UAddr resumeUpc = 0;      ///< where to continue after re-issue
        bool resumeIsEnd = false; ///< resume is an end-of-instruction
        PendingMemOp op;          ///< op to re-issue (Kind::None: re-run)
        VirtAddr va = 0;          ///< faulting virtual address
    };

    void runMicroword();
    /** Cold continuation of runMicroword(): IB starvation, memory
     *  microtraps and uTrapRet re-issues, outlined so the common
     *  straight-line cycle stays short and branch-predictable. */
    void microwordEvent();
    void checkDeclaredFlow(const UAnnotation &ann);
    UAddr resolveNext();
    UAddr endTarget();
    UAddr handlerFor(TrapKind kind) const;
    bool trySpecDispatch(UAddr *target);
    void takeTrap(TrapKind kind, VirtAddr va, const PendingMemOp &op);
    void issueResult(const MemResult &res, const PendingMemOp &op);
    /** Non-Running states: stalls, re-issues, halt.  The Running case
     *  is dispatched inline by cycle(). */
    void cycleSlow();

    /**
     * Count one cycle at a micro-address: the UPC board's increment.
     * Runs once per machine cycle, so it is inline; the bank pointers
     * are both null unless a monitor is attached and collecting.
     */
    void
    emitCycle(UAddr upc, bool stalled)
    {
        if (normalBank_)
            ++(stalled ? stalledBank_ : normalBank_)[upc];
    }

    const ControlStore &cs_;
    MemSystem &mem_;
    InstructionBuffer &ib_;
    IFetch &ifetch_;
    InterruptController &intc_;
    IntervalTimer &timer_;
    HwCounters &hw_;
    UpcMonitor *mon_ = nullptr;
    /** @{ The attached monitor's banks while it collects, else null.
     *  Its storage never moves (UpcMonitor is neither copyable nor
     *  movable), and attach, detach, start, stop and restore re-point
     *  them. */
    uint64_t *normalBank_ = nullptr;
    uint64_t *stalledBank_ = nullptr;
    /** @} */
    std::function<void(VirtAddr, uint8_t)> instrHook_;

    /** @{ Decoded-dispatch fast path.  dtab_/dsize_ cache the control
     *  store's flat table (stable: the ROM is fully built before the
     *  EBOX is constructed). */
    const DecodedWord *dtab_;
    UAddr dsize_;
    /** Cached opcodeTable().data(): skips the function-local-static
     *  guard check on the per-instruction decode path. */
    const OpcodeInfo *optab_;
    /** @} */

    State state_ = State::Halted;
    bool halted_ = true;
    bool flowCheck_ = false;
    UAddr upc_ = 0;          ///< microword being executed / retried
    UAddr afterMem_ = 0;     ///< resume address once a stall resolves
    bool afterMemIsEnd_ = false;
    uint32_t gpr_[NumGpr] = {};
    Psl psl_;
    uint32_t spBank_[4] = {};  ///< per-mode stack pointers (inactive)
    uint32_t pr_[64] = {};
    VirtAddr decodePc_ = 0;
    uint32_t md_ = 0;

    // Per-lambda transient flags.
    bool seqSet_ = false;
    UAddr nextUpc_ = 0;
    bool pendingEnd_ = false;
    bool ibFailed_ = false;
    bool memIssued_ = false;
    bool memTrapped_ = false;
    bool reissuePending_ = false;
    bool trapRetSatisfied_ = false;
    MemStatus memStatus_ = MemStatus::Ok;
    PendingMemOp curOp_;
    VirtAddr curTrapVa_ = 0;
    TrapKind curTrapKind_ = TrapKind::TbMissD;

    // Reissue bookkeeping.
    TrapFrame reissueFrame_;

    std::vector<TrapFrame> trapStack_;
    std::vector<UAddr> microStack_; ///< uCall/uRet
    unsigned pendingIntLevel_ = 0;
    uint32_t mcheckCause_ = 0;
};


// ================== decode / specifier dispatch ==================
// Inline: these are the per-instruction and per-specifier services
// the decode microwords (compiled in rom_*.cc) call once or twice per
// instruction; keeping them in the header lets those call sites fold
// the IB peeks and latch stores together.

inline bool
Ebox::decodeOpcode()
{
    if (ib_.avail() < 1) {
        ibFailed_ = true;
        return false;
    }
    uint8_t opc = ib_.peek(0);
    const OpcodeInfo &info = optab_[opc];
    if (!info.valid)
        fault(FaultKind::ReservedInstruction, info.mnemonic);
    ib_.consume(1);
    lat.opcode = opc;
    lat.info = &info;
    lat.instrPc = decodePc_;
    decodePc_ += 1;
    lat.specIndex = 0;
    lat.dstCount = 0;
    lat.dst[0] = DstLatch();
    lat.dst[1] = DstLatch();
    lat.vIsReg = false;
    lat.specIndexed = false;

    ++hw_.instructions;
    if (info.bdispBytes > 0)
        ++hw_.bdispCount;
    TRACE(IDecode, "pc=%08x op=%02x %s mode=%c", lat.instrPc, opc,
          info.mnemonic,
          psl_.cur == CpuMode::Kernel ? 'K' : 'U');
    if (instrHook_)
        instrHook_(lat.instrPc, opc);

    seqSet_ = true;
    if (info.numSpecifiers > 0) {
        UAddr target;
        trySpecDispatch(&target);
        nextUpc_ = target;
    } else {
        nextUpc_ = cs_.entries.exec[static_cast<size_t>(info.flow)];
        if (nextUpc_ == kInvalidUAddr)
            panic("EntryPoints.exec[%s] is unset: opcode %s has no "
                  "execute-flow microcode", info.mnemonic,
                  info.mnemonic);
    }
    return true;
}

inline bool
Ebox::trySpecDispatch(UAddr *target)
{
    upc_assert(lat.specIndex < lat.info->numSpecifiers);
    unsigned pos = lat.specIndex == 0 ? 0 : 1;
    if (ib_.avail() < 1) {
        *target = cs_.entries.specWait[pos];
        return false;
    }
    uint8_t b0 = ib_.peek(0);
    bool indexed = isIndexPrefix(b0);
    unsigned need = indexed ? 2 : 1;
    if (ib_.avail() < need) {
        *target = cs_.entries.specWait[pos];
        return false;
    }
    uint8_t spec_byte = indexed ? ib_.peek(1) : b0;
    if (indexed && isIndexPrefix(spec_byte))
        fault(FaultKind::ReservedAddressingMode, "double index prefix");
    SpecByte sb = decodeSpecByte(spec_byte);
    ib_.consume(need);
    decodePc_ += need;

    const OperandDef &od = lat.info->operands[lat.specIndex];
    lat.specMode = sb.mode;
    lat.specReg = sb.reg;
    lat.specLiteral = sb.literal;
    lat.specAccess = od.access;
    lat.specType = od.type;
    lat.specOpIndex = lat.specIndex;
    lat.specIndexed = indexed;
    lat.specIndexReg = indexed ? (b0 & 0xF) : 0;

    if (indexed &&
        (sb.mode == AddrMode::ShortLiteral ||
         sb.mode == AddrMode::Register ||
         sb.mode == AddrMode::Immediate)) {
        fault(FaultKind::ReservedAddressingMode, "index on non-memory");
    }
    if (sb.mode == AddrMode::ShortLiteral && od.access != Access::Read)
        fault(FaultKind::ReservedAddressingMode, "literal as destination");
    if (sb.mode == AddrMode::Immediate && od.access != Access::Read)
        fault(FaultKind::ReservedAddressingMode, "immediate destination");
    if (sb.mode == AddrMode::Register && od.access == Access::Address)
        fault(FaultKind::ReservedAddressingMode, "register as address");

    ++lat.specIndex;
    ++hw_.specifiers;
    if (lat.specOpIndex == 0)
        ++hw_.firstSpecifiers;
    if (indexed)
        ++hw_.indexedSpecifiers;

    if (indexed) {
        *target = cs_.entries.indexPrefix[pos];
        if (*target == kInvalidUAddr)
            panic("EntryPoints.indexPrefix[%u] is unset: no index-"
                  "prefix routine for position class %u", pos, pos);
    } else {
        SpecAccClass acc = specAccClass(od.access);
        *target = cs_.entries.spec[static_cast<size_t>(sb.mode)][pos]
            [static_cast<size_t>(acc)];
        if (*target == kInvalidUAddr)
            panic("EntryPoints.spec[%s][%u][%u] is unset: no specifier "
                  "routine for mode %s access %u",
                  addrModeName(sb.mode), pos,
                  static_cast<unsigned>(acc), addrModeName(sb.mode),
                  static_cast<unsigned>(od.access));
    }
    return true;
}

inline bool
Ebox::decodeSpec()
{
    UAddr target;
    if (!trySpecDispatch(&target)) {
        ibFailed_ = true;
        return false;
    }
    seqSet_ = true;
    nextUpc_ = target;
    return true;
}

inline void
Ebox::nextSpecOrExec()
{
    seqSet_ = true;
    if (lat.specIndex < lat.info->numSpecifiers) {
        UAddr target;
        trySpecDispatch(&target);
        nextUpc_ = target;
    } else {
        nextUpc_ = cs_.entries.exec[static_cast<size_t>(lat.info->flow)];
        if (nextUpc_ == kInvalidUAddr)
            panic("EntryPoints.exec[%s] is unset: opcode %s has no "
                  "execute-flow microcode", lat.info->mnemonic,
                  lat.info->mnemonic);
    }
}

} // namespace vax

#endif // UPC780_CPU_EBOX_HH
