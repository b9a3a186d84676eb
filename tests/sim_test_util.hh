/**
 * @file
 * Shared helpers for simulator unit tests: assemble a fragment, load
 * it into physical memory with mapping disabled, run to HALT.
 */

#ifndef UPC780_TESTS_SIM_TEST_UTIL_HH
#define UPC780_TESTS_SIM_TEST_UTIL_HH

#include <memory>

#include "arch/assembler.hh"
#include "cpu/cpu.hh"
#include "upc/monitor.hh"

namespace vax::test
{

/** A CPU with a program loaded at a flat (unmapped) address. */
struct BareMachine
{
    explicit BareMachine(uint32_t base = 0x1000,
                         const SimConfig &cfg = SimConfig())
        : asmblr(base)
    {
        cpu = std::make_unique<Cpu780>(cfg);
        cpu->mem().setMapEnable(false);
        cpu->setCycleSink(&monitor);
    }

    /** Finish assembly, load, reset and set SP. */
    void
    load(uint32_t sp = 0x20000)
    {
        auto image = asmblr.finish();
        cpu->mem().phys().load(asmblr.base(), image);
        cpu->reset(asmblr.base());
        cpu->ebox().setGpr(SP, sp);
    }

    /** load(), then run until HALT. */
    bool
    run(uint64_t max_cycles = 2'000'000, uint32_t sp = 0x20000)
    {
        load(sp);
        return cpu->run(max_cycles);
    }

    uint32_t gpr(unsigned r) const { return cpu->ebox().gpr(r); }

    uint32_t
    readLong(uint32_t pa) const
    {
        return cpu->mem().phys().read(pa, 4);
    }

    Assembler asmblr;
    UpcMonitor monitor;
    std::unique_ptr<Cpu780> cpu;
};

} // namespace vax::test

#endif // UPC780_TESTS_SIM_TEST_UTIL_HH
