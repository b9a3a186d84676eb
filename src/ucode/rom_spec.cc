/**
 * @file
 * Operand-specifier microcode.
 *
 * One routine per (addressing mode, position class, access class).
 * The SPEC1 and SPEC2-6 copies are separate control-store locations so
 * the histogram can distinguish them (as on the real machine); indexed
 * specifiers go through the index-prefix routine and then the SPEC2-6
 * copy of the base-mode routine -- the microcode sharing that makes
 * the paper report indexed first-specifier address calculation under
 * SPEC2-6.
 */

#include <string>
#include <utility>

#include "ucode/rom_ctx.hh"

namespace vax
{

namespace
{

using DK = DstLatch::Kind;

/** Operand size in bytes of the current specifier. */
unsigned
specSize(Ebox &e)
{
    return dataTypeBytes(e.lat.specType);
}

/** Apply the index-prefix value if this specifier was indexed. */
uint32_t
applyIdx(Ebox &e, uint32_t addr)
{
    return addr + (e.lat.specIndexed ? e.lat.idxVal : 0);
}

void
recordDstMem(Ebox &e)
{
    upc_assert(e.lat.dstCount < 2);
    DstLatch &d = e.lat.dst[e.lat.dstCount++];
    d.kind = DK::Mem;
    d.addr = e.lat.va;
    d.type = e.lat.specType;
}

void
recordDstReg(Ebox &e)
{
    upc_assert(e.lat.dstCount < 2);
    DstLatch &d = e.lat.dst[e.lat.dstCount++];
    d.kind = DK::Reg;
    d.reg = e.lat.specReg;
    d.type = e.lat.specType;
}

/** Route a computed address per access type (Address vs. Field). */
void
finishAddrClass(Ebox &e)
{
    if (e.lat.specAccess == Access::Field) {
        e.lat.vIsReg = false;
        e.lat.vAddr = e.lat.va;
    } else {
        e.lat.op[e.lat.specOpIndex] = e.lat.va;
    }
    e.nextSpecOrExec();
}

/**
 * Address former: computes the operand address into lat.va.  Returns
 * false if an IB fetch stalled (the microword lambda must return).
 */
using Former = bool (*)(Ebox &);

bool
formRegDef(Ebox &e)
{
    e.lat.va = applyIdx(e, e.r(e.lat.specReg));
    return true;
}

bool
formAutoInc(Ebox &e)
{
    uint32_t s = specSize(e);
    uint32_t a = e.r(e.lat.specReg);
    e.lat.va = applyIdx(e, a);
    e.r(e.lat.specReg) = a + s;
    return true;
}

bool
formAutoDec(Ebox &e)
{
    uint32_t a = e.r(e.lat.specReg) - specSize(e);
    e.r(e.lat.specReg) = a;
    e.lat.va = applyIdx(e, a);
    return true;
}

template <unsigned N>
bool
formDisp(Ebox &e)
{
    if (!e.ibGet(N, true))
        return false;
    e.hw().dispBytes += N;
    uint32_t base = e.lat.specReg == PC ? e.pcForSpec()
                                        : e.r(e.lat.specReg);
    e.lat.va = applyIdx(e, base + e.lat.q);
    return true;
}

bool
formAbsolute(Ebox &e)
{
    if (!e.ibGet(4, false))
        return false;
    e.hw().dispBytes += 4;
    e.lat.va = applyIdx(e, e.lat.q);
    return true;
}

// Deferred-mode pointer formers: the index value applies to the final
// (dereferenced) address, not the pointer address.

bool
formPtrAutoIncDef(Ebox &e)
{
    uint32_t a = e.r(e.lat.specReg);
    e.lat.va = a;
    e.r(e.lat.specReg) = a + 4;
    return true;
}

template <unsigned N>
bool
formPtrDispDef(Ebox &e)
{
    if (!e.ibGet(N, true))
        return false;
    e.hw().dispBytes += N;
    uint32_t base = e.lat.specReg == PC ? e.pcForSpec()
                                        : e.r(e.lat.specReg);
    e.lat.va = base + e.lat.q;
    return true;
}

const char *accNames[] = {"r", "w", "m", "a"};

UAnnotation
entryAnn(RomCtx &c, AddrMode mode, unsigned pos, SpecAccClass acc,
         bool ib_request, UMemKind mem)
{
    std::string name = std::string("SPEC") + (pos == 0 ? "1." : "26.") +
        addrModeName(mode) + "." + accNames[static_cast<unsigned>(acc)];
    UAnnotation a = c.ann(pos == 0 ? Row::Spec1 : Row::Spec26,
                          c.ua.intern(std::move(name)));
    a.mark = UMark::SpecModeEntry;
    a.specMode = mode;
    a.spec1 = pos == 0;
    a.ibRequest = ib_request;
    a.mem = mem;
    return a;
}

/** Non-entry microword inside a specifier routine. */
UAnnotation
bodyAnn(RomCtx &c, AddrMode mode, unsigned pos, const char *suffix,
        UMemKind mem = UMemKind::None)
{
    std::string name = std::string("SPEC") + (pos == 0 ? "1." : "26.") +
        addrModeName(mode) + suffix;
    UAnnotation a = c.ann(pos == 0 ? Row::Spec1 : Row::Spec26,
                          c.ua.intern(std::move(name)));
    a.mem = mem;
    return a;
}

void
setEntry(RomCtx &c, AddrMode mode, unsigned pos, SpecAccClass acc,
         UAddr addr)
{
    c.ep.spec[static_cast<size_t>(mode)][pos]
        [static_cast<size_t>(acc)] = addr;
}

/**
 * Emit the quad-read continuation: the second longword read of a
 * quadword memory operand.  Returns the address of its first word.
 */
UAddr
emitQuadReadTail(RomCtx &c, AddrMode mode, unsigned pos)
{
    UAddr a0 = c.emitFull(bodyAnn(c, mode, pos, ".q1", UMemKind::Read),
                          flowFall(),
                          [](Ebox &e) { e.memRead(e.lat.va + 4, 4); });
    c.emitFull(bodyAnn(c, mode, pos, ".q2"), flowDispatch(), [](Ebox &e) {
        e.lat.opHi[e.lat.specOpIndex] = e.md();
        e.nextSpecOrExec();
    });
    return a0;
}

/** Build the four access-class routines of a direct memory mode. */
void
buildDirectMode(RomCtx &c, AddrMode mode, unsigned pos, Former former,
                bool uses_ib)
{
    // --- Read ---
    ULabel quad = c.lbl();
    UAddr rd = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Read, uses_ib,
                 UMemKind::Read),
        flowFall(),
        [former](Ebox &e) {
            if (!former(e))
                return;
            unsigned n = specSize(e);
            e.memRead(e.lat.va, n > 4 ? 4 : n);
        });
    setEntry(c, mode, pos, SpecAccClass::Read, rd);
    c.emitFull(bodyAnn(c, mode, pos, ".rmv"),
               flowTo(quad).orDispatch(), [quad](Ebox &e) {
        e.lat.op[e.lat.specOpIndex] = e.md();
        if (e.lat.specType == DataType::Quad)
            e.uJump(quad);
        else
            e.nextSpecOrExec();
    });
    c.ua.bindAt(quad, emitQuadReadTail(c, mode, pos));

    // --- Write ---
    UAddr wr = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Write, uses_ib,
                 UMemKind::None),
        flowDispatch(),
        [former](Ebox &e) {
            if (!former(e))
                return;
            recordDstMem(e);
            e.nextSpecOrExec();
        });
    setEntry(c, mode, pos, SpecAccClass::Write, wr);

    // --- Modify ---
    UAddr md = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Modify, uses_ib,
                 UMemKind::Read),
        flowFall(),
        [former](Ebox &e) {
            if (!former(e))
                return;
            upc_assert(e.lat.specType != DataType::Quad);
            e.memRead(e.lat.va, specSize(e));
        });
    setEntry(c, mode, pos, SpecAccClass::Modify, md);
    c.emitFull(bodyAnn(c, mode, pos, ".mmv"), flowDispatch(),
               [](Ebox &e) {
        e.lat.op[e.lat.specOpIndex] = e.md();
        recordDstMem(e);
        e.nextSpecOrExec();
    });

    // --- Address / Field ---
    UAddr ad = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Addr, uses_ib,
                 UMemKind::None),
        flowDispatch(),
        [former](Ebox &e) {
            if (!former(e))
                return;
            finishAddrClass(e);
        });
    setEntry(c, mode, pos, SpecAccClass::Addr, ad);
}

/** Build the four access-class routines of a deferred memory mode. */
void
buildDeferredMode(RomCtx &c, AddrMode mode, unsigned pos, Former ptr_former,
                  bool uses_ib)
{
    // --- Read ---
    ULabel quad = c.lbl();
    UAddr rd = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Read, uses_ib,
                 UMemKind::Read),
        flowFall(),
        [ptr_former](Ebox &e) {
            if (!ptr_former(e))
                return;
            e.memRead(e.lat.va, 4); // fetch the pointer
        });
    setEntry(c, mode, pos, SpecAccClass::Read, rd);
    c.emitFull(bodyAnn(c, mode, pos, ".rd2", UMemKind::Read),
               flowFall(),
               [](Ebox &e) {
                   e.lat.va = applyIdx(e, e.md());
                   unsigned n = specSize(e);
                   e.memRead(e.lat.va, n > 4 ? 4 : n);
               });
    c.emitFull(bodyAnn(c, mode, pos, ".rmv"),
               flowTo(quad).orDispatch(), [quad](Ebox &e) {
        e.lat.op[e.lat.specOpIndex] = e.md();
        if (e.lat.specType == DataType::Quad)
            e.uJump(quad);
        else
            e.nextSpecOrExec();
    });
    c.ua.bindAt(quad, emitQuadReadTail(c, mode, pos));

    // --- Write ---
    UAddr wr = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Write, uses_ib,
                 UMemKind::Read),
        flowFall(),
        [ptr_former](Ebox &e) {
            if (!ptr_former(e))
                return;
            e.memRead(e.lat.va, 4);
        });
    setEntry(c, mode, pos, SpecAccClass::Write, wr);
    c.emitFull(bodyAnn(c, mode, pos, ".wfin"), flowDispatch(),
               [](Ebox &e) {
        e.lat.va = applyIdx(e, e.md());
        recordDstMem(e);
        e.nextSpecOrExec();
    });

    // --- Modify ---
    UAddr md = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Modify, uses_ib,
                 UMemKind::Read),
        flowFall(),
        [ptr_former](Ebox &e) {
            if (!ptr_former(e))
                return;
            e.memRead(e.lat.va, 4);
        });
    setEntry(c, mode, pos, SpecAccClass::Modify, md);
    c.emitFull(bodyAnn(c, mode, pos, ".mrd2", UMemKind::Read),
               flowFall(),
               [](Ebox &e) {
                   e.lat.va = applyIdx(e, e.md());
                   upc_assert(e.lat.specType != DataType::Quad);
                   e.memRead(e.lat.va, specSize(e));
               });
    c.emitFull(bodyAnn(c, mode, pos, ".mmv"), flowDispatch(),
               [](Ebox &e) {
        e.lat.op[e.lat.specOpIndex] = e.md();
        recordDstMem(e);
        e.nextSpecOrExec();
    });

    // --- Address / Field ---
    UAddr ad = c.emitFull(
        entryAnn(c, mode, pos, SpecAccClass::Addr, uses_ib,
                 UMemKind::Read),
        flowFall(),
        [ptr_former](Ebox &e) {
            if (!ptr_former(e))
                return;
            e.memRead(e.lat.va, 4);
        });
    setEntry(c, mode, pos, SpecAccClass::Addr, ad);
    c.emitFull(bodyAnn(c, mode, pos, ".afin"), flowDispatch(),
               [](Ebox &e) {
        e.lat.va = applyIdx(e, e.md());
        finishAddrClass(e);
    });
}

void
buildRegisterMode(RomCtx &c, unsigned pos)
{
    AddrMode m = AddrMode::Register;
    UAddr rd = c.emitFull(
        entryAnn(c, m, pos, SpecAccClass::Read, false, UMemKind::None),
        flowDispatch(),
        [](Ebox &e) {
            unsigned k = e.lat.specOpIndex;
            e.lat.op[k] = e.r(e.lat.specReg);
            if (e.lat.specType == DataType::Quad)
                e.lat.opHi[k] = e.r((e.lat.specReg + 1) & 0xF);
            e.nextSpecOrExec();
        });
    setEntry(c, m, pos, SpecAccClass::Read, rd);

    UAddr wr = c.emitFull(
        entryAnn(c, m, pos, SpecAccClass::Write, false, UMemKind::None),
        flowDispatch(),
        [](Ebox &e) {
            recordDstReg(e);
            e.nextSpecOrExec();
        });
    setEntry(c, m, pos, SpecAccClass::Write, wr);

    UAddr md = c.emitFull(
        entryAnn(c, m, pos, SpecAccClass::Modify, false, UMemKind::None),
        flowDispatch(),
        [](Ebox &e) {
            e.lat.op[e.lat.specOpIndex] = e.r(e.lat.specReg);
            recordDstReg(e);
            e.nextSpecOrExec();
        });
    setEntry(c, m, pos, SpecAccClass::Modify, md);

    // Field operands may live in a register; Address access on a
    // register is a fault caught at decode.
    UAddr ad = c.emitFull(
        entryAnn(c, m, pos, SpecAccClass::Addr, false, UMemKind::None),
        flowDispatch(),
        [](Ebox &e) {
            upc_assert(e.lat.specAccess == Access::Field);
            e.lat.vIsReg = true;
            e.lat.vReg = e.lat.specReg;
            e.nextSpecOrExec();
        });
    setEntry(c, m, pos, SpecAccClass::Addr, ad);
}

void
buildLiteralMode(RomCtx &c, unsigned pos)
{
    AddrMode m = AddrMode::ShortLiteral;
    UAddr rd = c.emitFull(
        entryAnn(c, m, pos, SpecAccClass::Read, false, UMemKind::None),
        flowDispatch(),
        [](Ebox &e) {
            unsigned k = e.lat.specOpIndex;
            e.lat.op[k] =
                e.expandLiteral(e.lat.specLiteral, e.lat.specType);
            if (e.lat.specType == DataType::Quad)
                e.lat.opHi[k] = 0;
            e.nextSpecOrExec();
        });
    setEntry(c, m, pos, SpecAccClass::Read, rd);
}

void
buildImmediateMode(RomCtx &c, unsigned pos)
{
    AddrMode m = AddrMode::Immediate;
    ULabel quad = c.lbl();
    UAddr rd = c.emitFull(
        entryAnn(c, m, pos, SpecAccClass::Read, true, UMemKind::None),
        flowTo(quad).orDispatch(),
        [quad](Ebox &e) {
            unsigned n = specSize(e);
            unsigned take = n > 4 ? 4 : n;
            if (!e.ibGet(take, false))
                return;
            e.hw().immediateBytes += take;
            e.lat.op[e.lat.specOpIndex] = e.lat.q;
            if (e.lat.specType == DataType::Quad)
                e.uJump(quad);
            else
                e.nextSpecOrExec();
        });
    setEntry(c, m, pos, SpecAccClass::Read, rd);
    c.bind(quad);
    UAnnotation qa = bodyAnn(c, m, pos, ".q");
    qa.ibRequest = true;
    c.emitFull(qa, flowDispatch(), [](Ebox &e) {
        if (!e.ibGet(4, false))
            return;
        e.hw().immediateBytes += 4;
        e.lat.opHi[e.lat.specOpIndex] = e.lat.q;
        e.nextSpecOrExec();
    });
}

void
buildIndexPrefix(RomCtx &c, unsigned pos)
{
    std::string name =
        std::string(pos == 0 ? "SPEC1" : "SPEC26") + ".index";
    UAnnotation a = c.ann(pos == 0 ? Row::Spec1 : Row::Spec26,
                          c.ua.intern(std::move(name)));
    a.mark = UMark::SpecIndexed;
    a.spec1 = pos == 0;
    c.ep.indexPrefix[pos] = c.emitFull(a, flowSpec26(), [](Ebox &e) {
        e.lat.idxVal = e.r(e.lat.specIndexReg) * specSize(e);
        // Shared base processing: always the SPEC2-6 copy.
        e.uJumpAddr(e.spec26Entry(e.lat.specMode,
                                  specAccClass(e.lat.specAccess)));
    });
}

} // anonymous namespace

void
buildSpecifierRoutines(RomCtx &c)
{
    for (unsigned pos = 0; pos < 2; ++pos) {
        buildLiteralMode(c, pos);
        buildRegisterMode(c, pos);
        buildImmediateMode(c, pos);
        buildDirectMode(c, AddrMode::RegDeferred, pos, formRegDef, false);
        buildDirectMode(c, AddrMode::AutoInc, pos, formAutoInc, false);
        buildDirectMode(c, AddrMode::AutoDec, pos, formAutoDec, false);
        buildDirectMode(c, AddrMode::ByteDisp, pos, formDisp<1>, true);
        buildDirectMode(c, AddrMode::WordDisp, pos, formDisp<2>, true);
        buildDirectMode(c, AddrMode::LongDisp, pos, formDisp<4>, true);
        buildDirectMode(c, AddrMode::Absolute, pos, formAbsolute, true);
        buildDeferredMode(c, AddrMode::AutoIncDef, pos,
                          formPtrAutoIncDef, false);
        buildDeferredMode(c, AddrMode::ByteDispDef, pos,
                          formPtrDispDef<1>, true);
        buildDeferredMode(c, AddrMode::WordDispDef, pos,
                          formPtrDispDef<2>, true);
        buildDeferredMode(c, AddrMode::LongDispDef, pos,
                          formPtrDispDef<4>, true);
        buildIndexPrefix(c, pos);
    }
}

} // namespace vax
