#include "os/vms.hh"

#include "arch/assembler.hh"
#include "cpu/pregs.hh"
#include "mem/page_table.hh"
#include "support/bitutil.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace vax
{

namespace
{

constexpr uint32_t pcbStride = 128;
// PCB field offsets (must match the SVPCTX/LDPCTX microcode).
constexpr uint32_t pcbKsp = 0;
constexpr uint32_t pcbUsp = 4;
constexpr uint32_t pcbPc = 64;
constexpr uint32_t pcbPsl = 68;
constexpr uint32_t pcbP0br = 72;
constexpr uint32_t pcbP0lr = 76;

constexpr uint32_t userPslPacked = (3u << 24) | (3u << 22); // user/user

VirtAddr
sysva(PhysAddr pa)
{
    return systemBase + pa;
}

/** Fatal unless an image of this many bytes fits its P0 region. */
void
checkImage(size_t bytes, uint32_t p0_bytes)
{
    if (bytes > p0_bytes)
        fatal("process image (%zu bytes) exceeds its P0 region", bytes);
}

} // anonymous namespace

VmsLite::VmsLite(Cpu780 &cpu, UpcMonitor &monitor, const VmsConfig &cfg)
    : cpu_(cpu), monitor_(monitor), cfg_(cfg)
{
}

unsigned
VmsLite::registerProcess(VirtAddr entry, unsigned terminal_id)
{
    upc_assert(!booted_);
    unsigned nproc = numProcesses() + 1;
    if (arenaBasePa_ + uint64_t(nproc) * arenaStride() >
        cpu_.mem().config().memBytes) {
        fatal("VMS-lite: %u processes do not fit in physical memory",
              nproc);
    }
    procs_.push_back({entry, terminal_id});
    return nproc - 1;
}

void
VmsLite::addProcess(const UserProgram &prog)
{
    unsigned p = registerProcess(prog.entry, prog.terminalId);
    checkImage(prog.image.size(), cfg_.userP0Pages * pageBytes);
    cpu_.mem().phys().load(processImagePa(p), prog.image);
}

void
VmsLite::addProcess(VirtAddr entry, unsigned terminal_id,
                    PhysicalMemory::Producer image)
{
    unsigned p = registerProcess(entry, terminal_id);
    uint32_t p0_bytes = cfg_.userP0Pages * pageBytes;
    cpu_.mem().phys().defer(
        processImagePa(p), p0_bytes,
        [image = std::move(image), p0_bytes] {
            std::vector<uint8_t> bytes = image();
            checkImage(bytes.size(), p0_bytes);
            return bytes;
        });
}

void
VmsLite::regStats(stats::Registry &r, const std::string &prefix) const
{
    const VmsLite *os = this;
    r.addScalar(prefix + ".ticks", "kernel interval-clock ticks",
                [os] { return os->ticks(); });
    r.addScalar(prefix + ".processes",
                "user processes registered at boot",
                [os] { return uint64_t(os->numProcesses()); });
}

uint64_t
VmsLite::ticks() const
{
    // The tick counter is the third kernel data longword (see the
    // data section layout in buildKernel); its address is recorded
    // during the build.
    return cpu_.mem().phys().read(ticksPa_, 4);
}

uint64_t
VmsLite::machineChecks() const
{
    return mchecksPa_ ? cpu_.mem().phys().read(mchecksPa_, 4) : 0;
}

void
VmsLite::postMailbox(uint32_t id, uint32_t kind, unsigned ipl)
{
    auto &phys = cpu_.mem().phys();
    uint32_t head = phys.read(mbxPa_ + abi::mbxHead, 4);
    uint32_t tail = phys.read(mbxPa_ + abi::mbxTail, 4);
    if (head - tail >= abi::mbxEntries) {
        // Ring full: the device silo overflows, event lost.
        TRACE(Os, "mailbox overflow id=%u kind=%u", id, kind);
        return;
    }
    TRACE(Os, "mailbox post id=%u kind=%u ipl=%u", id, kind, ipl);
    uint32_t idx = head % abi::mbxEntries;
    phys.write(mbxPa_ + abi::mbxRing + abi::mbxEntryBytes * idx, id,
               4);
    phys.write(mbxPa_ + abi::mbxRing + abi::mbxEntryBytes * idx + 4,
               kind, 4);
    phys.write(mbxPa_ + abi::mbxHead, head + 1, 4);
    cpu_.postDeviceInterrupt(ipl);
}

void
VmsLite::postTerminalLine(unsigned terminal_id)
{
    postMailbox(terminal_id, abi::mbxKindTerminal, abi::iplTerminal);
}

void
VmsLite::postDiskCompletion(unsigned process_index)
{
    postMailbox(process_index, abi::mbxKindDisk, abi::iplDisk);
}

uint32_t
VmsLite::arenaStride() const
{
    // A process arena: its P0 page table, then its P0 image.
    return alignUp(4 * cfg_.userP0Pages, pageBytes) +
        cfg_.userP0Pages * pageBytes;
}

PhysAddr
VmsLite::processImagePa(unsigned p) const
{
    return arenaBasePa_ + p * arenaStride() +
        alignUp(4 * cfg_.userP0Pages, pageBytes);
}

void
VmsLite::boot()
{
    upc_assert(!booted_);
    booted_ = true;
    if (procs_.empty())
        fatal("VMS-lite: no processes registered before boot");

    TRACE(Os, "boot: %u processes, quantum=%u ticks",
          numProcesses(), cfg_.quantumTicks);
    kernelVa_ = sysva(kernelPa_);
    buildTables();
    buildKernel();

    // Unibus device window: monitor CSR at +0, terminal-output notify
    // at +4.
    auto *mon = &monitor_;
    PhysAddr base = mmioPa_;
    auto *self = this;
    cpu_.mem().addIoWriteHook(
        mmioPa_, mmioPa_ + 11,
        [mon, base, self](PhysAddr pa, uint32_t value) {
            if (pa == base)
                mon->unibusWrite(value);
            else if (pa == base + 4 && self->outputFn_)
                self->outputFn_(value);
            else if (pa == base + 8 && self->diskFn_)
                self->diskFn_(value);
        });

    // Console-loaded processor state.
    cpu_.reset(bootVa_, CpuMode::Kernel);
    Ebox &e = cpu_.ebox();
    e.setPrRaw(pr::SBR, sptPa_);
    e.setPrRaw(pr::SLR, cpu_.mem().config().memBytes / pageBytes);
    e.setPrRaw(pr::SCBB, scbPa_);
    // Boot uses the Null process's kernel stack.
    unsigned null_index = numProcesses();
    e.setGpr(SP, sysva(kstackBasePa_ +
                       (null_index + 1) * kstackBytes_));
}

void
VmsLite::buildTables()
{
    auto &phys = cpu_.mem().phys();
    unsigned nproc = numProcesses();

    // System page table: linear map of all physical memory,
    // kernel-only.
    uint32_t spt_entries = cpu_.mem().config().memBytes / pageBytes;
    if (sptPa_ + 4 * spt_entries > kstackBasePa_)
        fatal("VMS-lite: system page table overflows its region");
    std::vector<uint32_t> ptes(spt_entries);
    for (uint32_t i = 0; i < spt_entries; ++i)
        ptes[i] = pte::make(i, false, false);
    phys.writeLongs(sptPa_, ptes.data(), ptes.size());

    // Kernel stacks.
    uint32_t kstack_end = kstackBasePa_ + (nproc + 1) * kstackBytes_;
    if (kstack_end > mmioPa_)
        fatal("VMS-lite: too many processes for the kernel stacks");

    // Per-process arenas (addProcess loaded or deferred the images):
    // the P0 page table maps the image pages user read/write.
    ptes.resize(cfg_.userP0Pages);
    for (unsigned p = 0; p < nproc; ++p) {
        PhysAddr ptable = arenaBasePa_ + p * arenaStride();
        uint32_t pfn = processImagePa(p) >> pageShift;
        for (uint32_t j = 0; j < cfg_.userP0Pages; ++j)
            ptes[j] = pte::make(pfn + j, true, true);
        phys.writeLongs(ptable, ptes.data(), ptes.size());

        uint32_t pcb[pcbStride / 4] = {};
        pcb[pcbKsp / 4] = sysva(kstackBasePa_ + (p + 1) * kstackBytes_);
        pcb[pcbUsp / 4] = cfg_.userP0Pages * pageBytes; // top of P0
        pcb[pcbPc / 4] = procs_[p].entry;
        pcb[pcbPsl / 4] = userPslPacked;
        pcb[pcbP0br / 4] = sysva(ptable);
        pcb[pcbP0lr / 4] = cfg_.userP0Pages;
        phys.writeLongs(pcbBasePa_ + p * pcbStride, pcb, pcbStride / 4);
    }

    // Null process PCB (kernel mode, no P0).  PC and PSL are patched
    // in buildKernel once the label is known.
    uint32_t null_pcb[pcbStride / 4] = {};
    null_pcb[pcbKsp / 4] =
        sysva(kstackBasePa_ + (nproc + 1) * kstackBytes_);
    phys.writeLongs(pcbBasePa_ + nproc * pcbStride, null_pcb,
                    pcbStride / 4);
}

void
VmsLite::buildKernel()
{
    using Op = Operand;
    auto &phys = cpu_.mem().phys();
    unsigned nproc = numProcesses();
    PhysAddr null_pcb = pcbBasePa_ + nproc * pcbStride;

    VirtAddr csr = sysva(mmioPa_);
    VirtAddr notify = sysva(mmioPa_ + 4);
    VirtAddr diskreq = sysva(mmioPa_ + 8);
    VirtAddr mbx_head = sysva(mbxPa_ + abi::mbxHead);
    VirtAddr mbx_tail = sysva(mbxPa_ + abi::mbxTail);
    VirtAddr mbx_ring = sysva(mbxPa_ + abi::mbxRing);

    Assembler a(kernelVa_);

    // ================= boot =================
    a.label("boot");
    a.instr(op::MOVL, {Op::immAddr("runq_f"), Op::rel("runq_f")});
    a.instr(op::MOVL, {Op::immAddr("runq_f"), Op::rel("runq_b")});
    a.instr(op::MOVL, {Op::immAddr("proctab"), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(nproc), Op::reg(R2)});
    a.label("boot_q");
    a.instr(op::INSQUE, {Op::regDef(R1), Op::relDef("runq_b")});
    a.instr(op::ADDL2, {Op::imm(abi::ptStride), Op::reg(R1)});
    a.instr(op::SOBGTR, {Op::reg(R2), Op::branch("boot_q")});
    a.instr(op::MOVL,
            {Op::imm(cfg_.quantumTicks), Op::rel("quantum")});
    a.instr(op::MTPR,
            {Op::imm(cfg_.timerIntervalCycles), Op::imm(pr::NICR)});
    a.instr(op::MTPR, {Op::imm(0x41), Op::imm(pr::ICCS)});
    a.instr(op::REMQUE, {Op::relDef("runq_f"), Op::reg(R1)});
    a.instr(op::MOVL, {Op::reg(R1), Op::rel("curproc")});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::MTPR,
            {Op::disp(abi::ptPcb, R1), Op::imm(pr::PCBB)});
    a.instr(op::LDPCTX);
    a.instr(op::REI);

    // ================= interval-clock ISR =================
    a.label("timer_isr");
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::INCL, {Op::rel("ticks")});
    // Queue fork-level processing on alternate ticks, as VMS's clock
    // service drained its fork queues.
    a.instr(op::BLBC, {Op::rel("ticks"), Op::branch("timer_nofork")});
    a.instr(op::MTPR, {Op::imm(abi::iplFork), Op::imm(pr::SIRR)});
    a.label("timer_nofork");
    a.instr(op::DECL, {Op::rel("quantum")});
    a.instr(op::BGTR, {Op::branch("timer_done")});
    a.instr(op::MOVL,
            {Op::imm(cfg_.quantumTicks), Op::rel("quantum")});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.label("timer_done");
    a.instr(op::CMPL,
            {Op::rel("curproc"), Op::immAddr("null_entry")});
    a.instr(op::BNEQ, {Op::branch("timer_rei")});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStop), Op::absolute(csr)});
    a.label("timer_rei");
    a.instr(op::REI);

    // ================= terminal ISR =================
    a.label("term_isr");
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::PUSHR, {Op::imm(0x7C)}); // save R2-R6
    a.label("term_loop");
    a.instr(op::CMPL,
            {Op::absolute(mbx_head), Op::absolute(mbx_tail)});
    a.instr(op::BEQL, {Op::branch("term_done")});
    a.instr(op::MOVL, {Op::absolute(mbx_tail), Op::reg(R2)});
    a.instr(op::BICL3, {Op::imm(~uint32_t(abi::mbxEntries - 1)),
                        Op::reg(R2), Op::reg(R3)});
    a.instr(op::ASHL, {Op::lit(3), Op::reg(R3), Op::reg(R3)});
    a.instr(op::ADDL2, {Op::imm(mbx_ring), Op::reg(R3)});
    a.instr(op::MOVL, {Op::regDef(R3), Op::reg(R4)});
    // Disk completions name the process directly.
    a.instr(op::TSTL, {Op::disp(4, R3)});
    a.instr(op::BEQL, {Op::branch("term_lookup")});
    a.instr(op::ASHL, {Op::imm(5), Op::reg(R4), Op::reg(R5)});
    a.instr(op::ADDL2, {Op::immAddr("proctab"), Op::reg(R5)});
    a.instr(op::BRB, {Op::branch("term_found")});
    a.label("term_lookup");
    // Find the process attached to this terminal.
    a.instr(op::MOVL, {Op::immAddr("proctab"), Op::reg(R5)});
    a.instr(op::MOVL, {Op::imm(nproc), Op::reg(R6)});
    a.label("term_scan");
    a.instr(op::CMPL, {Op::disp(abi::ptTermId, R5), Op::reg(R4)});
    a.instr(op::BEQL, {Op::branch("term_found")});
    a.instr(op::ADDL2, {Op::imm(abi::ptStride), Op::reg(R5)});
    a.instr(op::SOBGTR, {Op::reg(R6), Op::branch("term_scan")});
    a.instr(op::BRB, {Op::branch("term_consume")});
    a.label("term_found");
    a.instr(op::TSTL, {Op::disp(abi::ptState, R5)});
    a.instr(op::BEQL, {Op::branch("term_consume")});
    a.instr(op::CLRL, {Op::disp(abi::ptState, R5)});
    a.instr(op::INSQUE, {Op::regDef(R5), Op::relDef("runq_b")});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.label("term_consume");
    a.instr(op::INCL, {Op::absolute(mbx_tail)});
    a.instr(op::BRW, {Op::branch("term_loop")});
    a.label("term_done");
    a.instr(op::POPR, {Op::imm(0x7C)});
    a.instr(op::CMPL,
            {Op::rel("curproc"), Op::immAddr("null_entry")});
    a.instr(op::BNEQ, {Op::branch("term_rei")});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStop), Op::absolute(csr)});
    a.label("term_rei");
    a.instr(op::REI);

    // ================= fork-level processing ====================
    a.label("fork_isr");
    a.instr(op::INCL, {Op::rel("forks")});
    a.instr(op::REI);

    // ================= reschedule (software interrupt) ===========
    a.label("resched_isr");
    a.instr(op::SVPCTX);
    a.instr(op::MOVL, {Op::rel("curproc"), Op::reg(R1)});
    a.instr(op::TSTL, {Op::disp(abi::ptState, R1)});
    a.instr(op::BNEQ, {Op::branch("res_pick")});
    a.instr(op::INSQUE, {Op::regDef(R1), Op::relDef("runq_b")});
    a.label("res_pick");
    a.instr(op::CMPL, {Op::rel("runq_f"), Op::immAddr("runq_f")});
    a.instr(op::BEQL, {Op::branch("res_null")});
    a.instr(op::REMQUE, {Op::relDef("runq_f"), Op::reg(R1)});
    a.instr(op::MOVL, {Op::reg(R1), Op::rel("curproc")});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::MTPR,
            {Op::disp(abi::ptPcb, R1), Op::imm(pr::PCBB)});
    a.instr(op::LDPCTX);
    a.instr(op::REI);
    a.label("res_null");
    a.instr(op::MOVL, {Op::immAddr("null_entry"), Op::rel("curproc")});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStop), Op::absolute(csr)});
    a.instr(op::MTPR, {Op::imm(null_pcb), Op::imm(pr::PCBB)});
    a.instr(op::LDPCTX);
    a.instr(op::REI);

    // ================= CHMK service dispatcher =================
    a.label("chmk_handler");
    a.instr(op::MOVL, {Op::autoInc(SP), Op::reg(R0)}); // service code
    a.instr(op::CASEL, {Op::reg(R0), Op::lit(0), Op::lit(5)});
    a.caseTable({"svc_exit", "svc_wait", "svc_puts", "svc_gets",
                 "svc_time", "svc_disk"});
    a.instr(op::REI); // unknown service: ignore

    a.label("svc_exit");
    // Restart the process image: rewrite the saved PC.
    a.instr(op::MOVL, {Op::rel("curproc"), Op::reg(R1)});
    a.instr(op::MOVL, {Op::disp(abi::ptEntry, R1), Op::reg(R2)});
    a.instr(op::MOVL, {Op::reg(R2), Op::regDef(SP)});
    a.instr(op::REI);

    a.label("svc_wait");
    a.instr(op::MOVL, {Op::rel("curproc"), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(abi::stateWaiting),
                       Op::disp(abi::ptState, R1)});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.instr(op::REI);

    a.label("svc_puts");
    // R1 = user buffer, R2 = length (clamped to the staging buffer).
    a.instr(op::CMPL, {Op::reg(R2), Op::imm(64)});
    a.instr(op::BLEQ, {Op::branch("puts_ok")});
    a.instr(op::MOVL, {Op::imm(64), Op::reg(R2)});
    a.label("puts_ok");
    a.instr(op::PUSHL, {Op::reg(R2)});
    a.instr(op::MOVC3, {Op::reg(R2), Op::regDef(R1),
                        Op::rel("staging")});
    a.instr(op::MOVL, {Op::autoInc(SP), Op::reg(R2)});
    a.instr(op::LOCC, {Op::lit(36), Op::reg(R2), Op::rel("staging")});
    a.instr(op::MOVL, {Op::reg(R0), Op::absolute(notify)});
    a.instr(op::REI);

    a.label("svc_gets");
    a.instr(op::MOVC3, {Op::imm(abi::getsLineBytes),
                        Op::rel("canned"), Op::regDef(R1)});
    a.instr(op::MOVL, {Op::imm(abi::getsLineBytes), Op::reg(R0)});
    a.instr(op::REI);

    a.label("svc_time");
    a.instr(op::MOVL, {Op::rel("ticks"), Op::reg(R0)});
    a.instr(op::REI);

    // Start a disk transfer: mark the process disk-waiting, tell the
    // controller which process asked (its table index), and yield.
    a.label("svc_disk");
    a.instr(op::MOVL, {Op::rel("curproc"), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(abi::stateWaitingDisk),
                       Op::disp(abi::ptState, R1)});
    a.instr(op::SUBL3, {Op::immAddr("proctab"), Op::reg(R1),
                        Op::reg(R2)});
    a.instr(op::ASHL, {Op::imm(-5), Op::reg(R2), Op::reg(R2)});
    a.instr(op::MOVL, {Op::reg(R2), Op::absolute(diskreq)});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.instr(op::REI);

    // ================= Null process =================
    a.label("null_proc");
    a.instr(op::BRB, {Op::branch("null_proc")});

    // ================= kernel data =================
    a.align(4);
    a.label("runq_f");
    a.lword(0);
    a.label("runq_b");
    a.lword(0);
    a.label("curproc");
    a.lword(0);
    a.label("ticks");
    a.lword(0);
    a.label("quantum");
    a.lword(cfg_.quantumTicks);
    a.label("forks");
    a.lword(0);
    a.label("proctab");
    for (unsigned p = 0; p < nproc; ++p) {
        a.lword(0); // queue flink
        a.lword(0); // queue blink
        a.lword(pcbBasePa_ + p * pcbStride);
        a.lword(abi::stateRunnable);
        a.lword(procs_[p].terminalId);
        a.lword(procs_[p].entry);
        a.lword(0);
        a.lword(0);
    }
    a.label("null_entry");
    a.lword(0);
    a.lword(0);
    a.lword(null_pcb);
    a.lword(abi::stateNull);
    a.lword(0xFFFFFFFF);
    a.lword(0);
    a.lword(0);
    a.lword(0);
    a.label("canned");
    a.ascii("run analysis 7\r\n"); // abi::getsLineBytes bytes
    a.label("staging");
    a.space(80);

    // ================= machine-check handler ====================
    // Deliberately last: with fault injection off this code is never
    // reached, and keeping it past every pre-existing label leaves
    // the fault-free image layout -- and so the fault-free cache/TB
    // reference stream -- untouched.
    //
    // The MCHK microcode pushes (cause, PC, PSL); pop the cause into
    // kernel data, count the check, and resume the interrupted
    // instruction stream -- the hardware layer has already recovered
    // (line invalidated / entry dropped / fill retried).
    a.label("mcheck_isr");
    a.instr(op::MOVL, {Op::autoInc(SP), Op::rel("mcheck_last")});
    a.instr(op::INCL, {Op::rel("mchecks")});
    a.instr(op::REI);
    a.label("mchecks");
    a.lword(0);
    a.label("mcheck_last");
    a.lword(0);

    bootVa_ = a.addrOf("boot");
    ticksPa_ = kernelPa_ + (a.addrOf("ticks") - kernelVa_);
    mchecksPa_ = kernelPa_ + (a.addrOf("mchecks") - kernelVa_);

    // Patch the Null PCB now that the label exists.
    phys.write(null_pcb + pcbPc, a.addrOf("null_proc"), 4);
    phys.write(null_pcb + pcbPsl, 0, 4); // kernel, IPL 0

    // SCB vectors.
    phys.write(scbPa_ + 4 * abi::iplTimer, a.addrOf("timer_isr"), 4);
    phys.write(scbPa_ + 4 * abi::iplTerminal, a.addrOf("term_isr"), 4);
    phys.write(scbPa_ + 4 * abi::iplDisk, a.addrOf("term_isr"), 4);
    phys.write(scbPa_ + 4 * abi::iplResched,
               a.addrOf("resched_isr"), 4);
    phys.write(scbPa_ + 4 * abi::iplFork, a.addrOf("fork_isr"), 4);
    phys.write(scbPa_ + 4 * 32, a.addrOf("chmk_handler"), 4);
    phys.write(scbPa_ + 4 * abi::vecMachineCheck,
               a.addrOf("mcheck_isr"), 4);

    auto image = a.finish();
    if (kernelPa_ + image.size() > arenaBasePa_)
        fatal("VMS-lite: kernel image too large");
    phys.load(kernelPa_, image);
}

} // namespace vax
