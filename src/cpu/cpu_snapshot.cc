/**
 * @file
 * Checkpoint/restore for the CPU side of the machine: hardware
 * counters, IB, I-Fetch, interrupt controller, interval timer, the
 * EBOX and the assembling Cpu780.
 *
 * Layout discipline: leaf components write raw fields in declaration
 * order; Cpu780::save owns the section structure ("cpu" for the small
 * components, "cpu.ebox" for the execution engine, then the memory
 * subsystem's own sections).  Every field restored must be written --
 * Deserializer::endSection rejects leftover bytes, which is what turns
 * writer/reader skew into a diagnosis instead of a corrupted machine.
 */

#include <cstddef>

#include "arch/opcodes.hh"
#include "cpu/cpu.hh"
#include "support/snapshot.hh"

namespace vax
{

// ====================== HwCounters ======================

void
HwCounters::save(snap::Serializer &s) const
{
    s.putU64(cycles);
    s.putU64(instructions);
    s.putU64(specifiers);
    s.putU64(firstSpecifiers);
    s.putU64(indexedSpecifiers);
    s.putU64(bdispBytes);
    s.putU64(bdispCount);
    s.putU64(immediateBytes);
    s.putU64(dispBytes);
    s.putU64(unalignedRefs);
    s.putU64(microTraps);
    s.putU64(interrupts);
    s.putU64(contextSwitches);
    s.putU64(chmkCalls);
}

void
HwCounters::restore(snap::Deserializer &d)
{
    cycles = d.getU64();
    instructions = d.getU64();
    specifiers = d.getU64();
    firstSpecifiers = d.getU64();
    indexedSpecifiers = d.getU64();
    bdispBytes = d.getU64();
    bdispCount = d.getU64();
    immediateBytes = d.getU64();
    dispBytes = d.getU64();
    unalignedRefs = d.getU64();
    microTraps = d.getU64();
    interrupts = d.getU64();
    contextSwitches = d.getU64();
    chmkCalls = d.getU64();
}

// ====================== InstructionBuffer ======================

void
InstructionBuffer::save(snap::Serializer &s) const
{
    s.putU32(capacity());
    s.putU32(head_);
    s.putU32(count_);
    s.putU32(pendingSkip_);
    s.putBytes(bytes_.data(), bytes_.size());
}

void
InstructionBuffer::restore(snap::Deserializer &d)
{
    d.expectU32(capacity(), "IB capacity");
    head_ = d.getU32();
    count_ = d.getU32();
    pendingSkip_ = d.getU32();
    d.getBytes(bytes_.data(), bytes_.size());
}

// ====================== IFetch ======================

void
IFetch::save(snap::Serializer &s) const
{
    s.putU32(viba_);
    s.putU32(redirectDelay_);
    s.putBool(itbMiss_);
    s.putU32(itbMissVa_);
    s.putBool(awaitingFill_);
    s.putBool(discardFill_);
}

void
IFetch::restore(snap::Deserializer &d)
{
    viba_ = d.getU32();
    redirectDelay_ = d.getU32();
    itbMiss_ = d.getBool();
    itbMissVa_ = d.getU32();
    awaitingFill_ = d.getBool();
    discardFill_ = d.getBool();
}

// ====================== InterruptController ======================

void
InterruptController::save(snap::Serializer &s) const
{
    s.putU32(deviceLines_);
    s.putU16(sisr_);
    s.putU64(devicePosts_);
    s.putU64(swRequests_);
}

void
InterruptController::restore(snap::Deserializer &d)
{
    deviceLines_ = d.getU32();
    sisr_ = d.getU16();
    devicePosts_ = d.getU64();
    swRequests_ = d.getU64();
}

// ====================== IntervalTimer ======================

void
IntervalTimer::save(snap::Serializer &s) const
{
    s.putU32(iccs_);
    s.putU32(nicr_);
    s.putU32(icr_);
}

void
IntervalTimer::restore(snap::Deserializer &d)
{
    iccs_ = d.getU32();
    nicr_ = d.getU32();
    icr_ = d.getU32();
}

// ====================== Ebox ======================

namespace
{

void
savePendingOp(snap::Serializer &s, uint8_t kind, VirtAddr va,
              uint32_t data, unsigned bytes)
{
    s.putU8(kind);
    s.putU32(va);
    s.putU32(data);
    s.putU32(static_cast<uint32_t>(bytes));
}

} // anonymous namespace

void
Ebox::save(snap::Serializer &s) const
{
    auto putOp = [&](const PendingMemOp &op) {
        savePendingOp(s, static_cast<uint8_t>(op.kind), op.va, op.data,
                      op.bytes);
    };
    auto putFrame = [&](const TrapFrame &f) {
        s.putU8(static_cast<uint8_t>(f.kind));
        s.putU16(f.trapUpc);
        s.putU16(f.resumeUpc);
        s.putBool(f.resumeIsEnd);
        putOp(f.op);
        s.putU32(f.va);
    };

    // Sequencer and architectural state.
    s.putU8(static_cast<uint8_t>(state_));
    s.putBool(halted_);
    s.putU16(upc_);
    s.putU16(afterMem_);
    s.putBool(afterMemIsEnd_);
    for (unsigned i = 0; i < NumGpr; ++i)
        s.putU32(gpr_[i]);
    s.putU32(psl_.pack());
    for (unsigned i = 0; i < 4; ++i)
        s.putU32(spBank_[i]);
    for (unsigned i = 0; i < 64; ++i)
        s.putU32(pr_[i]);
    s.putU32(decodePc_);
    s.putU32(md_);

    // Per-lambda transient flags (a checkpoint can land mid-stall).
    s.putBool(seqSet_);
    s.putU16(nextUpc_);
    s.putBool(pendingEnd_);
    s.putBool(ibFailed_);
    s.putBool(memIssued_);
    s.putBool(memTrapped_);
    s.putBool(reissuePending_);
    s.putBool(trapRetSatisfied_);
    s.putU8(static_cast<uint8_t>(memStatus_));
    putOp(curOp_);
    s.putU32(curTrapVa_);
    s.putU8(static_cast<uint8_t>(curTrapKind_));

    putFrame(reissueFrame_);
    s.putU64(trapStack_.size());
    for (const TrapFrame &f : trapStack_)
        putFrame(f);
    s.putU64(microStack_.size());
    for (UAddr a : microStack_)
        s.putU16(a);
    s.putU32(pendingIntLevel_);
    s.putU32(mcheckCause_);

    // Decode and operand latches.
    s.putU8(lat.opcode);
    s.putBool(lat.info != nullptr);
    s.putU32(lat.instrPc);
    s.putU8(lat.specIndex);
    s.putU8(static_cast<uint8_t>(lat.specMode));
    s.putU8(lat.specReg);
    s.putU8(lat.specLiteral);
    s.putU8(static_cast<uint8_t>(lat.specAccess));
    s.putU8(static_cast<uint8_t>(lat.specType));
    s.putU8(lat.specOpIndex);
    s.putBool(lat.specIndexed);
    s.putU8(lat.specIndexReg);
    s.putU32(lat.idxVal);
    for (unsigned i = 0; i < 6; ++i)
        s.putU32(lat.op[i]);
    for (unsigned i = 0; i < 6; ++i)
        s.putU32(lat.opHi[i]);
    s.putU8(lat.dstCount);
    for (unsigned i = 0; i < 2; ++i) {
        s.putU8(static_cast<uint8_t>(lat.dst[i].kind));
        s.putU8(lat.dst[i].reg);
        s.putU32(lat.dst[i].addr);
        s.putU8(static_cast<uint8_t>(lat.dst[i].type));
    }
    s.putBool(lat.vIsReg);
    s.putU8(lat.vReg);
    s.putU32(lat.vAddr);
    s.putU32(lat.va);
    s.putU32(lat.q);
    for (unsigned i = 0; i < 8; ++i)
        s.putU32(lat.t[i]);
    s.putU32(lat.sc);
    s.putBytes(lat.strBuf, sizeof(lat.strBuf));
    s.putI64(lat.wide[0]);
    s.putI64(lat.wide[1]);
    for (unsigned i = 0; i < 6; ++i)
        s.putU32(lat.mm[i]);
    for (unsigned i = 0; i < 4; ++i)
        s.putU32(lat.alg[i]);
}

void
Ebox::restore(snap::Deserializer &d)
{
    auto getOp = [&](PendingMemOp *op) {
        op->kind = static_cast<PendingMemOp::Kind>(d.getU8());
        op->va = d.getU32();
        op->data = d.getU32();
        op->bytes = d.getU32();
    };
    auto getFrame = [&](TrapFrame *f) {
        f->kind = static_cast<TrapKind>(d.getU8());
        f->trapUpc = d.getU16();
        f->resumeUpc = d.getU16();
        f->resumeIsEnd = d.getBool();
        getOp(&f->op);
        f->va = d.getU32();
    };

    state_ = static_cast<State>(d.getU8());
    halted_ = d.getBool();
    upc_ = d.getU16();
    afterMem_ = d.getU16();
    afterMemIsEnd_ = d.getBool();
    for (unsigned i = 0; i < NumGpr; ++i)
        gpr_[i] = d.getU32();
    psl_ = Psl::unpack(d.getU32());
    for (unsigned i = 0; i < 4; ++i)
        spBank_[i] = d.getU32();
    for (unsigned i = 0; i < 64; ++i)
        pr_[i] = d.getU32();
    decodePc_ = d.getU32();
    md_ = d.getU32();

    seqSet_ = d.getBool();
    nextUpc_ = d.getU16();
    pendingEnd_ = d.getBool();
    ibFailed_ = d.getBool();
    memIssued_ = d.getBool();
    memTrapped_ = d.getBool();
    reissuePending_ = d.getBool();
    trapRetSatisfied_ = d.getBool();
    memStatus_ = static_cast<MemStatus>(d.getU8());
    getOp(&curOp_);
    curTrapVa_ = d.getU32();
    curTrapKind_ = static_cast<TrapKind>(d.getU8());

    getFrame(&reissueFrame_);
    uint64_t nTraps = d.getU64();
    if (nTraps > 64)
        throw snap::SnapshotError(
            "snapshot: trap stack depth " + std::to_string(nTraps) +
            " is implausible (corrupt cpu.ebox section)");
    trapStack_.clear();
    trapStack_.resize(static_cast<size_t>(nTraps));
    for (TrapFrame &f : trapStack_)
        getFrame(&f);
    uint64_t nCalls = d.getU64();
    if (nCalls > 4096)
        throw snap::SnapshotError(
            "snapshot: micro-call stack depth " +
            std::to_string(nCalls) +
            " is implausible (corrupt cpu.ebox section)");
    microStack_.clear();
    microStack_.resize(static_cast<size_t>(nCalls));
    for (UAddr &a : microStack_)
        a = d.getU16();
    pendingIntLevel_ = d.getU32();
    mcheckCause_ = d.getU32();

    lat.opcode = d.getU8();
    lat.info = d.getBool() ? &opcodeInfo(lat.opcode) : nullptr;
    lat.instrPc = d.getU32();
    lat.specIndex = d.getU8();
    lat.specMode = static_cast<AddrMode>(d.getU8());
    lat.specReg = d.getU8();
    lat.specLiteral = d.getU8();
    lat.specAccess = static_cast<Access>(d.getU8());
    lat.specType = static_cast<DataType>(d.getU8());
    lat.specOpIndex = d.getU8();
    lat.specIndexed = d.getBool();
    lat.specIndexReg = d.getU8();
    lat.idxVal = d.getU32();
    for (unsigned i = 0; i < 6; ++i)
        lat.op[i] = d.getU32();
    for (unsigned i = 0; i < 6; ++i)
        lat.opHi[i] = d.getU32();
    lat.dstCount = d.getU8();
    for (unsigned i = 0; i < 2; ++i) {
        lat.dst[i].kind = static_cast<DstLatch::Kind>(d.getU8());
        lat.dst[i].reg = d.getU8();
        lat.dst[i].addr = d.getU32();
        lat.dst[i].type = static_cast<DataType>(d.getU8());
    }
    lat.vIsReg = d.getBool();
    lat.vReg = d.getU8();
    lat.vAddr = d.getU32();
    lat.va = d.getU32();
    lat.q = d.getU32();
    for (unsigned i = 0; i < 8; ++i)
        lat.t[i] = d.getU32();
    lat.sc = d.getU32();
    d.getBytes(lat.strBuf, sizeof(lat.strBuf));
    lat.wide[0] = d.getI64();
    lat.wide[1] = d.getI64();
    for (unsigned i = 0; i < 6; ++i)
        lat.mm[i] = d.getU32();
    for (unsigned i = 0; i < 4; ++i)
        lat.alg[i] = d.getU32();
}

// ====================== Cpu780 ======================

void
Cpu780::save(snap::Serializer &s) const
{
    s.beginSection("cpu");
    // Configuration fingerprint: a snapshot must only be restored
    // into a machine built from the same SimConfig.
    s.putU64(cfg_.seed);
    s.putU32(cfg_.ibBytes);
    s.putU32(cfg_.timerIpl);
    s.putU32(cfg_.terminalIpl);
    hw_.save(s);
    ib_.save(s);
    ifetch_.save(s);
    intc_.save(s);
    timer_.save(s);
    s.endSection();

    s.beginSection("cpu.ebox");
    ebox_->save(s);
    s.endSection();

    mem_.save(s);
}

void
Cpu780::restore(snap::Deserializer &d)
{
    d.beginSection("cpu");
    d.expectU64(cfg_.seed, "machine seed");
    d.expectU32(cfg_.ibBytes, "IB size");
    d.expectU32(cfg_.timerIpl, "timer IPL");
    d.expectU32(cfg_.terminalIpl, "terminal IPL");
    hw_.restore(d);
    ib_.restore(d);
    ifetch_.restore(d);
    intc_.restore(d);
    timer_.restore(d);
    d.endSection();

    d.beginSection("cpu.ebox");
    ebox_->restore(d);
    d.endSection();

    mem_.restore(d);
}

} // namespace vax
