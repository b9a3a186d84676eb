/**
 * @file
 * Deterministic hardware fault injection.
 *
 * The real 11/780 detected cache/TB parity errors and SBI read
 * timeouts in hardware and vectored through the machine-check SCB
 * entry; the paper's live measurements simply kept counting through
 * them.  This injector reproduces that error surface on demand: a
 * seed-driven (or exact-cycle scheduled) source of cache parity
 * errors, TB entry corruptions and SBI read timeouts, each of which
 * latches a machine-check request that the EBOX dispatches through
 * the MCHK microcode to the VMS-lite handler.
 *
 * Determinism contract: every draw comes from one Rng seeded from
 * (config seed XOR machine seed), and draws happen at fixed points of
 * the single-threaded machine's cycle stream, so the same seed always
 * produces the identical fault schedule.  When no fault class is
 * enabled the injector is not even constructed -- the golden path
 * makes zero extra RNG draws and its stats dumps stay byte-identical.
 */

#ifndef UPC780_SUPPORT_FAULTINJECT_HH
#define UPC780_SUPPORT_FAULTINJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/counters.hh"
#include "support/random.hh"

namespace vax
{

/** Machine-check cause codes (pushed to the guest handler). */
enum class McheckCause : uint8_t {
    None = 0,
    CacheParity = 1,
    TbCorrupt = 2,
    SbiTimeout = 3,
};

/** Printable cause name. */
const char *mcheckCauseName(McheckCause c);

struct FaultConfig
{
    uint64_t seed = 0xFA17;
    double cacheParityRate = 0.0; ///< per cache read hit
    double tbCorruptRate = 0.0;   ///< per counted TB hit
    double sbiTimeoutRate = 0.0;  ///< per SBI fill transaction
    /** Exact-cycle parity schedule: the first read hit at or after
     *  each listed cycle takes a parity error (in addition to any
     *  rate-driven errors). */
    std::vector<uint64_t> parityCycles;
    /** Parity errors tolerated before the cache is disabled as the
     *  graceful-degradation fallback (0 = never disable). */
    uint32_t cacheDisableAfter = 8;
    /** Extra SBI cycles a timed-out fill takes before completing. */
    uint32_t sbiTimeoutPenalty = 64;

    /** True when any fault class can fire. */
    bool
    enabled() const
    {
        return cacheParityRate > 0.0 || tbCorruptRate > 0.0 ||
            sbiTimeoutRate > 0.0 || !parityCycles.empty();
    }

    /**
     * Parse a spec string "parity=R,tb=R,sbi=R,seed=N,disable=N,
     * penalty=N,pcycle=C[:C...]" (any subset, any order).  Unknown or
     * malformed fields are fatal: a mistyped fault campaign must not
     * silently run fault-free.
     */
    static FaultConfig parse(const std::string &spec);

    /** The UPC780_FAULTS environment variable, else defaults. */
    static FaultConfig fromEnv();
};

/** Injection and delivery counters, merged like every other stat. */
struct FaultStats
{
    uint64_t parityErrors = 0;   ///< cache parity errors injected
    uint64_t tbCorruptions = 0;  ///< TB entries corrupted
    uint64_t sbiTimeouts = 0;    ///< SBI fills timed out
    uint64_t machineChecks = 0;  ///< MCHK microcode dispatches taken
    uint64_t cacheDisables = 0;  ///< degradation fallbacks triggered
    uint64_t osMachineChecks = 0; ///< guest handler entries observed

    /** Each counter once, in declaration order (support/counters.hh). */
    static constexpr Counter<FaultStats> fields[] = {
        {"parityErrors", "cache parity errors injected",
         &FaultStats::parityErrors},
        {"tbCorruptions", "TB entries corrupted",
         &FaultStats::tbCorruptions},
        {"sbiTimeouts", "SBI fill transactions timed out",
         &FaultStats::sbiTimeouts},
        {"machineChecks", "machine-check microcode dispatches",
         &FaultStats::machineChecks},
        {"cacheDisables", "cache degradation fallbacks",
         &FaultStats::cacheDisables},
        {"osMachineChecks", "guest machine-check handler entries",
         &FaultStats::osMachineChecks},
    };
};
static_assert(counter::covers<FaultStats>());

/**
 * One machine's fault source.  MemSystem owns it (only when the
 * config enables a fault class) and hands a raw pointer to the cache,
 * TB and SBI; a null pointer there means fault-free operation.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &cfg, uint64_t machine_seed);

    /** Advance the injector's cycle clock (MemSystem::tick). */
    void tick() { ++cycle_; }
    uint64_t cycle() const { return cycle_; }

    /** @{ Draw sites, one per fault class.  Each returns true when a
     *  fault fires this reference and counts it. */
    bool drawCacheParity();
    bool drawTbCorrupt();
    bool drawSbiTimeout();
    /** @} */

    /** Latch a machine-check request (single-depth, as the real
     *  machine summarized multiple errors into one check). */
    void postMachineCheck(McheckCause cause);
    bool
    machineCheckPending() const
    {
        return pending_ != McheckCause::None;
    }
    /** Take (and clear) the pending cause; counts the dispatch. */
    McheckCause takeMachineCheck();

    /** Record the cache's degradation fallback. */
    void noteCacheDisabled() { ++stats_.cacheDisables; }

    uint32_t cacheDisableAfter() const { return cfg_.cacheDisableAfter; }
    uint32_t sbiTimeoutPenalty() const { return cfg_.sbiTimeoutPenalty; }

    const FaultStats &stats() const { return stats_; }
    const FaultConfig &config() const { return cfg_; }

  private:
    FaultConfig cfg_;
    Rng rng_;
    uint64_t cycle_ = 0;
    size_t nextParityCycle_ = 0;
    McheckCause pending_ = McheckCause::None;
    FaultStats stats_;

  public:
    /** Checkpoint fields (support/archive.hh): the draw position, not
     *  the config (rates, schedule, seed), which is construction.  A
     *  restored machine sees the identical remaining fault schedule. */
    template <class A>
    void
    fields(A &a)
    {
        a.codec(
            "rng_", [&] { return rng_.state(); },
            [&](uint64_t s) { rng_.setState(s); });
        a("cycle_", cycle_);
        a("nextParityCycle_", nextParityCycle_);
        a("pending_", pending_);
        a("stats_", stats_);
    }
};

} // namespace vax

#endif // UPC780_SUPPORT_FAULTINJECT_HH
