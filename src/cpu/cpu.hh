/**
 * @file
 * Cpu780: the assembled machine.
 *
 * Executes the shared microcode ROM (microcodeRom(): one immutable
 * control store per process) and owns the memory subsystem, the CPU
 * pipeline (IB, I-Fetch, I-Decode-in-EBOX, EBOX), the interrupt
 * controller and the interval clock, and drives them cycle by cycle.
 */

#ifndef UPC780_CPU_CPU_HH
#define UPC780_CPU_CPU_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cpu/ebox.hh"
#include "cpu/hw_counters.hh"
#include "cpu/ib.hh"
#include "cpu/ifetch.hh"
#include "cpu/interrupts.hh"
#include "mem/mem_system.hh"
#include "ucode/control_store.hh"

namespace vax
{

/** Whole-machine configuration. */
struct SimConfig
{
    MemConfig mem;
    uint64_t seed = 0x780;
    /** Instruction-buffer size in bytes (8 on the 11/780). */
    unsigned ibBytes = 8;
    /** Interrupt level of the interval clock. */
    unsigned timerIpl = 22;
    /** Interrupt level of the terminal multiplexer. */
    unsigned terminalIpl = 21;
    /**
     * Strict mode: run the static microcode verifier at construction
     * (panic on any diagnostic) and validate every executed
     * micro-transition against the declared flows.  Also enabled by
     * the UPC780_STRICT environment variable (envStrict()).  Not part
     * of the snapshot fingerprint: it changes what is checked, never
     * what is simulated.
     */
    bool strict = false;
};

class Cpu780
{
  public:
    explicit Cpu780(const SimConfig &cfg = SimConfig());
    ~Cpu780();

    /** Begin execution at pc (kernel mode, mapping per MemSystem). */
    void reset(VirtAddr pc, CpuMode mode = CpuMode::Kernel);

    /** Advance the whole machine one 200 ns cycle.  Inline: this is
     *  the driver-facing inner loop, and the common no-stall cycle
     *  should be one straight-line path through the components' own
     *  inlined fast paths. */
    void
    tick()
    {
        ebox_->cycle();
        ifetch_.cycle(ebox_->psl().cur);
        mem_.tick();
        if (timer_.tick()) [[unlikely]]
            intc_.postDevice(cfg_.timerIpl);
        ++hw_.cycles;
    }

    /**
     * Run until HALT or the cycle limit.
     * @return True if the machine halted.
     */
    bool run(uint64_t max_cycles);

    bool halted() const { return ebox_->halted(); }
    uint64_t cycles() const { return hw_.cycles; }

    /** Attach the UPC monitor (null detaches); the EBOX counts every
     *  cycle straight into its banks. */
    void setCycleSink(UpcMonitor *mon) { ebox_->setCycleSink(mon); }

    /** Register the whole machine's statistics under prefix
     *  (hardware counters, CPI, memory subsystem). */
    void regStats(stats::Registry &r, const std::string &prefix) const;

    /** Post a device interrupt (terminals, disks...). */
    void
    postDeviceInterrupt(unsigned level)
    {
        intc_.postDevice(level);
    }

    /** @{ Component access. */
    Ebox &ebox() { return *ebox_; }
    MemSystem &mem() { return mem_; }
    const MemSystem &mem() const { return mem_; }
    InterruptController &intc() { return intc_; }
    IntervalTimer &timer() { return timer_; }
    HwCounters &hw() { return hw_; }
    const HwCounters &hw() const { return hw_; }
    const ControlStore &controlStore() const { return cs_; }
    InstructionBuffer &ib() { return ib_; }
    IFetch &ifetch() { return ifetch_; }
    const SimConfig &config() const { return cfg_; }
    /** @} */

  private:
    SimConfig cfg_;
    const ControlStore &cs_;
    MemSystem mem_;
    InstructionBuffer ib_;
    IFetch ifetch_;
    InterruptController intc_;
    IntervalTimer timer_;
    HwCounters hw_;
    std::unique_ptr<Ebox> ebox_;

  public:
    /** Checkpoint fields (support/archive.hh): the configuration
     *  fingerprint, then every component's state.  A machine restores
     *  only into one built from the same SimConfig, and its cycle
     *  stream then continues bit-identically to the saved one's. */
    template <class A>
    void
    fields(A &a)
    {
        a.section("cpu", [&] {
            a.check("machine seed", cfg_.seed);
            a.check("IB size", cfg_.ibBytes);
            a.check("timer IPL", cfg_.timerIpl);
            a.check("terminal IPL", cfg_.terminalIpl);
            a("hw_", hw_);
            a("ib_", ib_);
            a("ifetch_", ifetch_);
            a("intc_", intc_);
            a("timer_", timer_);
        });
        a.section("cpu.ebox", [&] { ebox_->fields(a); });
        mem_.fields(a);
    }
};

} // namespace vax

#endif // UPC780_CPU_CPU_HH
