#include "cpu/cpu.hh"

#include "analysis/ulint.hh"
#include "support/logging.hh"
#include "support/sim_error.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "ucode/rom.hh"

namespace vax
{

Cpu780::Cpu780(const SimConfig &cfg)
    : cfg_(cfg), cs_(microcodeRom()), mem_(cfg.mem, cfg.seed),
      ib_(cfg.ibBytes), ifetch_(ib_, mem_)
{
    ebox_ = std::make_unique<Ebox>(cs_, mem_, ib_, ifetch_, intc_,
                                   timer_, hw_);
    // Stamp this thread's trace lines with this machine's cycle
    // counter (the most recently constructed machine wins; reference
    // machines built only for their control store never tick).
    trace::setCycleCounter(&hw_.cycles);
    // Likewise let guarded-execution errors name the microword that
    // was executing when they fired.
    guard::setMicroPc(ebox_->upcPtr());
    if (cfg_.strict || envStrict()) {
        LintReport lint = lintControlStore(cs_);
        if (!lint.clean())
            panic("strict mode: the microcode verifier found %zu "
                  "diagnostic(s):\n%s",
                  lint.diags.size(), lint.text().c_str());
        ebox_->setFlowCheck(true);
    }
}

Cpu780::~Cpu780()
{
    guard::clearMicroPc(ebox_->upcPtr());
    trace::clearCycleCounter(&hw_.cycles);
}

void
Cpu780::regStats(stats::Registry &r, const std::string &prefix) const
{
    hw_.regStats(r, prefix);
    const HwCounters *hw = &hw_;
    r.addFormula(prefix + ".cpi", "cycles per instruction", [hw] {
        return hw->instructions
            ? double(hw->cycles) / double(hw->instructions)
            : 0.0;
    });
    mem_.regStats(r, prefix + ".mem");
}

void
Cpu780::reset(VirtAddr pc, CpuMode mode)
{
    ebox_->reset(pc, mode);
}

bool
Cpu780::run(uint64_t max_cycles)
{
    for (uint64_t i = 0; i < max_cycles; ++i) {
        if (ebox_->halted())
            return true;
        tick();
    }
    return ebox_->halted();
}

} // namespace vax
