/**
 * @file
 * Hardware event counters.
 *
 * These model the events the paper says are NOT visible to the UPC
 * technique (and which Emer & Clark took from separate studies, e.g.
 * the cache measurements of [2]): they are used for the Section 4
 * implementation-events report and as cross-checks in the test suite.
 * The analysis for Tables 1-9 uses only the histogram + annotations.
 */

#ifndef UPC780_CPU_HW_COUNTERS_HH
#define UPC780_CPU_HW_COUNTERS_HH

#include <cstdint>

#include "support/counters.hh"

namespace vax
{

struct HwCounters
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;       ///< retired (decode-complete)
    uint64_t specifiers = 0;         ///< all operand specifiers decoded
    uint64_t firstSpecifiers = 0;
    uint64_t indexedSpecifiers = 0;
    uint64_t bdispBytes = 0;         ///< total branch-displacement bytes
    uint64_t bdispCount = 0;         ///< instructions with a bdisp field
    uint64_t immediateBytes = 0;     ///< immediate/absolute spec bytes
    uint64_t dispBytes = 0;          ///< displacement bytes in specifiers
    uint64_t unalignedRefs = 0;      ///< alignment microtraps
    uint64_t microTraps = 0;         ///< all microtraps (abort cycles)
    uint64_t interrupts = 0;         ///< interrupt microcode entries
    uint64_t contextSwitches = 0;    ///< LDPCTX executions
    uint64_t chmkCalls = 0;

    /** Each counter once, in declaration order (support/counters.hh). */
    static constexpr Counter<HwCounters> fields[] = {
        {"cycles", "machine cycles (200 ns each)", &HwCounters::cycles},
        {"instructions", "instructions retired (decode-complete)",
         &HwCounters::instructions},
        {"specifiers", "operand specifiers decoded",
         &HwCounters::specifiers},
        {"firstSpecifiers", "first specifiers decoded",
         &HwCounters::firstSpecifiers},
        {"indexedSpecifiers", "indexed specifiers decoded",
         &HwCounters::indexedSpecifiers},
        {"bdispBytes", "branch-displacement bytes consumed",
         &HwCounters::bdispBytes},
        {"bdispCount", "instructions with a bdisp field",
         &HwCounters::bdispCount},
        {"immediateBytes", "immediate/absolute specifier bytes",
         &HwCounters::immediateBytes},
        {"dispBytes", "displacement bytes in specifiers",
         &HwCounters::dispBytes},
        {"unalignedRefs", "alignment microtraps",
         &HwCounters::unalignedRefs},
        {"microTraps", "microtraps taken (abort cycles)",
         &HwCounters::microTraps},
        {"interrupts", "interrupt microcode entries",
         &HwCounters::interrupts},
        {"contextSwitches", "LDPCTX executions",
         &HwCounters::contextSwitches},
        {"chmkCalls", "CHMK system services", &HwCounters::chmkCalls},
    };
};
static_assert(counter::covers<HwCounters>());

} // namespace vax

#endif // UPC780_CPU_HW_COUNTERS_HH
