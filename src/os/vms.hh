/**
 * @file
 * VMS-lite: the timesharing operating system the workloads run under.
 *
 * Built entirely as VAX machine code through the assembler, it
 * provides what the paper's measurements depend on: an interval-clock
 * driven round-robin scheduler using SVPCTX/LDPCTX (context-switch
 * headway), hardware terminal interrupts fed by the RTE and software
 * rescheduling interrupts (interrupt headways), CHMK system services
 * (kernel-mode instruction mix), and a Null process during which the
 * UPC monitor is gated off, as in the paper.
 */

#ifndef UPC780_OS_VMS_HH
#define UPC780_OS_VMS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "os/abi.hh"
#include "upc/monitor.hh"

namespace vax
{

/** A user program image to load as a process (P0 space, base 0). */
struct UserProgram
{
    std::vector<uint8_t> image; ///< loaded at P0 virtual address 0
    VirtAddr entry = 0;
    unsigned terminalId = 0;
};

struct VmsConfig
{
    uint32_t quantumTicks = 4;           ///< timer ticks per quantum
    uint32_t timerIntervalCycles = 20000;
    uint32_t userP0Pages = 256;          ///< 128 KB of P0 per process
};

class VmsLite
{
  public:
    VmsLite(Cpu780 &cpu, UpcMonitor &monitor,
            const VmsConfig &cfg = VmsConfig());

    /**
     * Register a process before boot.  Its image is copied straight
     * into the process's arena in guest memory, so the caller's copy
     * can be released at once.  Fatal if the image overflows its P0
     * region or the arena does not fit in physical memory.
     */
    void addProcess(const UserProgram &prog);

    /**
     * Register a process before boot without its image: the process's
     * P0 region is deferred (PhysicalMemory::defer), so image(), which
     * returns what UserProgram::image would hold, runs on the
     * machine's first touch of it, and never for a process the run
     * does not dispatch.  Fatal at once if the arena does not fit in
     * physical memory, and at that touch if the image overflows its P0
     * region.
     */
    void addProcess(VirtAddr entry, unsigned terminal_id,
                    PhysicalMemory::Producer image);

    /**
     * Build the kernel, page tables and PCBs; preset the
     * console-loaded processor registers; point the CPU at the boot
     * sequence.  Call run() on the CPU afterwards.
     */
    void boot();

    /** Inject a terminal event (one input line) from the RTE. */
    void postTerminalLine(unsigned terminal_id);

    /** Inject a disk-transfer completion for a process. */
    void postDiskCompletion(unsigned process_index);

    /** Callback fired when the kernel starts a disk transfer; the
     *  argument is the requesting process index.  The host schedules
     *  postDiskCompletion() after a device latency. */
    void
    onDiskRequest(std::function<void(uint32_t)> fn)
    {
        diskFn_ = std::move(fn);
    }

    /** Set a callback fired when the kernel writes terminal output. */
    void
    onTerminalOutput(std::function<void(uint32_t)> fn)
    {
        outputFn_ = std::move(fn);
    }

    /** Kernel tick counter (read from guest memory). */
    uint64_t ticks() const;

    /** Machine checks serviced by the guest handler (from guest
     *  memory; nonzero only under fault injection). */
    uint64_t machineChecks() const;

    /** Register kernel-visible quantities (ticks, process count)
     *  under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;

    /** Physical address of the UPC monitor CSR (Unibus window). */
    PhysAddr monitorCsrPa() const { return mmioPa_; }

    unsigned numProcesses() const
    {
        return static_cast<unsigned>(procs_.size());
    }

    /** Physical address of process p's P0 image (for host checks). */
    PhysAddr processImagePa(unsigned p) const;

  private:
    /** What the kernel's process table needs of a loaded program. */
    struct Process
    {
        VirtAddr entry;
        unsigned terminalId;
    };

    uint32_t arenaStride() const;
    /** Append a process table entry; returns its index. */
    unsigned registerProcess(VirtAddr entry, unsigned terminal_id);
    void buildKernel();
    void buildTables();
    void postMailbox(uint32_t id, uint32_t kind, unsigned ipl);

    Cpu780 &cpu_;
    UpcMonitor &monitor_;
    VmsConfig cfg_;
    std::vector<Process> procs_;
    std::function<void(uint32_t)> outputFn_;
    std::function<void(uint32_t)> diskFn_;
    bool booted_ = false;

    // Physical layout (computed in boot()).
    PhysAddr scbPa_ = 0x200;
    PhysAddr pcbBasePa_ = 0x400;
    PhysAddr sptPa_ = 0x10000;
    PhysAddr kstackBasePa_ = 0x20000;
    PhysAddr mmioPa_ = 0x58000;
    PhysAddr mbxPa_ = 0x58100;
    PhysAddr kernelPa_ = 0x60000;
    PhysAddr arenaBasePa_ = 0x100000;

    uint32_t kstackBytes_ = 0x1000;
    VirtAddr kernelVa_ = 0;
    VirtAddr bootVa_ = 0;
    PhysAddr ticksPa_ = 0;
    PhysAddr mchecksPa_ = 0;

  public:
    /** Checkpoint fields (support/archive.hh).  All kernel state lives
     *  in guest physical memory, saved with the machine; the host side
     *  is a deterministic function of boot(), so this is only a layout
     *  fingerprint -- a snapshot taken under one kernel build cannot be
     *  resumed under another, or into a machine prepared differently. */
    template <class A>
    void
    fields(A &a)
    {
        a.section("os", [&] {
            a.check("boot state", booted_);
            a.check("scheduler quantum", cfg_.quantumTicks);
            a.check("timer interval", cfg_.timerIntervalCycles);
            a.check("user P0 pages", cfg_.userP0Pages);
            a.check("process count", uint32_t(procs_.size()));
            a.check("kernel PA", kernelPa_);
            a.check("kernel VA", kernelVa_);
            a.check("boot VA", bootVa_);
            a.check("ticks PA", ticksPa_);
            a.check("mchecks PA", mchecksPa_);
            a.check("monitor CSR PA", mmioPa_);
            a.check("mailbox PA", mbxPa_);
        });
    }
};

} // namespace vax

#endif // UPC780_OS_VMS_HH
