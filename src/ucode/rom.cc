#include "ucode/rom.hh"

#include <string>

#include "ucode/rom_ctx.hh"

namespace vax
{

void
buildFramework(RomCtx &c)
{
    // IID: the single non-overlapped instruction-decode cycle.  It
    // requests an opcode decode from the IB; starvation here is the
    // Decode row's IB stall (the dominant case after taken branches).
    {
        UAnnotation a = c.ann(Row::Decode, "IID");
        a.ibRequest = true;
        a.mark = UMark::Iid;
        c.ep.iid = c.emitFull(a, flowDispatch(), [](Ebox &e) {
            if (!e.decodeOpcode())
                return;
        });
    }

    // The "insufficient bytes" specifier-decode dispatch targets.
    // Executions here are specifier IB-stall cycles (paper §4.3).
    {
        UAnnotation a = c.ann(Row::Spec1, "SPEC1.wait");
        a.ibRequest = true;
        c.ep.specWait[0] = c.emitFull(a, flowDispatch(), [](Ebox &e) {
            if (!e.decodeSpec())
                return;
        });
        UAnnotation b = c.ann(Row::Spec26, "SPEC26.wait");
        b.ibRequest = true;
        c.ep.specWait[1] = c.emitFull(b, flowDispatch(), [](Ebox &e) {
            if (!e.decodeSpec())
                return;
        });
    }

    // The abort location.  Never executed: the EBOX counts the cycle
    // in which a microtrap is recognized here (Table 8's Abort row)
    // and enters the service microcode directly.
    c.ep.abort = c.emit(Row::Abort, "ABORT", flowReserved(), [](Ebox &) {
        panic("the abort count location is not executable microcode");
    });

    // Exceptions other than microtraps are not survivable for our
    // synthetic workloads; the EBOX faults before reaching here.
    c.ep.exception =
        c.emit(Row::IntExcept, "EXC.stub", flowReserved(), [](Ebox &) {
            panic("exception microcode entered");
        });
}

StoreTail
makeStoreTail(RomCtx &c, Row row, const char *name)
{
    StoreTail st{c.lbl(), c.lbl()};

    const char *rn = c.ua.intern(std::string(name) + ".streg");
    const char *mn = c.ua.intern(std::string(name) + ".stmem");

    // Condition codes are set by the flow's compute microword (so that
    // arithmetic V/C survive); these words only store and end.
    c.bind(st.reg);
    c.emit(row, rn, flowEnd(), [](Ebox &e) {
        DstLatch &d = e.lat.dst[0];
        writeRegSized(&e.r(d.reg), e.lat.t[0], d.type);
        e.endInstruction();
    });

    c.bind(st.mem);
    c.emitWrite(row, mn, flowEnd(), [](Ebox &e) {
        DstLatch &d = e.lat.dst[0];
        e.memWrite(d.addr, truncTo(e.lat.t[0], d.type),
                   dataTypeBytes(d.type));
        e.endInstruction();
    });

    return st;
}

ULabel
makeTakenTail(RomCtx &c, Row exec_row, PcChangeKind pck, const char *name)
{
    ULabel bdisp = c.lbl();
    const char *bn = c.ua.intern(std::string(name) + ".bdisp");
    const char *tn = c.ua.intern(std::string(name) + ".taken");

    c.bind(bdisp);
    {
        UAnnotation a = c.ann(Row::Bdisp, bn);
        a.ibRequest = true;
        a.mark = UMark::BdispFetch;
        c.emitFull(a, flowFall(), [](Ebox &e) {
            unsigned n = e.lat.info->bdispBytes;
            if (!e.ibGet(n, true))
                return;
            e.hw().bdispBytes += n;
            e.lat.t[7] = e.pcForSpec() + e.lat.q;
        });
    }
    {
        UAnnotation a = c.ann(exec_row, tn);
        a.mark = UMark::BranchTaken;
        a.pck = pck;
        c.emitFull(a, flowEnd(), [](Ebox &e) {
            e.redirect(e.lat.t[7]);
            e.endInstruction();
        });
    }
    return bdisp;
}

void
buildMicrocodeRom(ControlStore &cs)
{
    upc_assert(cs.size() == 0);
    RomCtx c(cs);

    // Address 0 stays a reserved guard word: a jump that decodes to 0
    // by accident (cleared latches) lands on a loud panic rather than
    // on real microcode.  Unset entry slots are kInvalidUAddr.
    c.emit(Row::Abort, "RESERVED0", flowReserved(), [](Ebox &) {
        panic("control store location 0 executed");
    });

    buildFramework(c);
    buildSpecifierRoutines(c);
    buildMmMicrocode(c);
    buildSimpleFlows(c);
    buildFieldFlows(c);
    buildFloatFlows(c);
    buildCallRetFlows(c);
    buildSystemFlows(c);
    buildCharacterFlows(c);
    buildDecimalFlows(c);

    // Verify that every implemented opcode has an execute entry.
    for (unsigned i = 0; i < 256; ++i) {
        const OpcodeInfo &info = opcodeInfo(static_cast<uint8_t>(i));
        if (info.valid &&
            cs.entries.exec[static_cast<size_t>(info.flow)] ==
                kInvalidUAddr) {
            panic("opcode %s has no execute-flow microcode",
                  info.mnemonic);
        }
    }

    // Resolve the declared successor edges now that every label is
    // bound and every entry slot registered: the EBOX's optional
    // flow check and the static verifier both read the result.
    cs.resolveFlows();
}

const ControlStore &
microcodeRom()
{
    // Deliberately never destroyed: under --strict a worker's fatal()
    // calls exit() while sibling workers are still simulating, and
    // static destruction must not free the ROM under their EBOXes.
    static const ControlStore &rom = *[] {
        auto *cs = new ControlStore;
        buildMicrocodeRom(*cs);
        return cs;
    }();
    return rom;
}

} // namespace vax
