/**
 * @file
 * The 11/780 address translation buffer.
 *
 * 128 entries split into two 64-entry direct-mapped halves: one for
 * system-space (S0) addresses, one for process-space (P0/P1).
 * Translation (lookup) is done by hardware; on a miss the EBOX takes a
 * microtrap and the *microcode* fills the entry -- which is what makes
 * TB misses visible to the UPC histogram technique, unlike cache
 * misses.  LDPCTX invalidates the process half.
 */

#ifndef UPC780_MEM_TB_HH
#define UPC780_MEM_TB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "mem/mem_config.hh"
#include "mem/page_table.hh"
#include "support/counters.hh"

namespace vax
{

class FaultInjector;

/** Outcome of a TB lookup. */
enum class TbResult : uint8_t {
    Hit,
    Miss,
    AccessViolation, ///< valid translation, insufficient privilege
};

/** TB statistics, split by stream as the paper reports them. */
struct TbStats
{
    uint64_t lookupsI = 0;
    uint64_t missesI = 0;
    uint64_t lookupsD = 0;
    uint64_t missesD = 0;
    uint64_t processFlushes = 0;

    /** Each counter once, in declaration order (support/counters.hh). */
    static constexpr Counter<TbStats> fields[] = {
        {"lookupsI", "I-stream TB lookups", &TbStats::lookupsI},
        {"missesI", "I-stream TB misses", &TbStats::missesI},
        {"lookupsD", "D-stream TB lookups", &TbStats::lookupsD},
        {"missesD", "D-stream TB misses", &TbStats::missesD},
        {"processFlushes", "process-half invalidations (LDPCTX)",
         &TbStats::processFlushes},
    };
};
static_assert(counter::covers<TbStats>());

class TranslationBuffer
{
  public:
    explicit TranslationBuffer(const MemConfig &cfg);

    /**
     * Translate a virtual address.
     *
     * @param va      Address to translate.
     * @param is_write True for write access (checks write permission).
     * @param mode    Current processor mode.
     * @param istream True for I-stream lookups (stats only).
     * @param pa_out  Receives the physical address on a hit.
     */
    TbResult lookup(VirtAddr va, bool is_write, CpuMode mode, bool istream,
                    PhysAddr *pa_out, bool count_stats = true);

    /** Install a translation (called by the TB-miss microcode). */
    void insert(VirtAddr va, uint32_t pte_value);

    /** Invalidate both halves (MTPR TBIA). */
    void invalidateAll();

    /** Invalidate the process half (LDPCTX / context switch). */
    void invalidateProcess();

    /** Invalidate a single page's entry if present (MTPR TBIS). */
    void invalidateSingle(VirtAddr va);

    /** Attach a fault injector (null = fault-free operation). */
    void setFaultInjector(FaultInjector *fi) { faults_ = fi; }

    const TbStats &stats() const { return stats_; }

    /** Register stats and derived miss ratios under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;

  private:
    struct Entry
    {
        bool valid = false;
        uint32_t key = 0; ///< region (2 bits) | VPN
        uint32_t pte = 0;

        template <class A>
        void
        fields(A &a)
        {
            a("valid", valid);
            a("key", key);
            a("pte", pte);
        }
    };

    Entry *entryFor(VirtAddr va);
    static uint32_t keyOf(VirtAddr va);

    std::vector<Entry> process_;
    std::vector<Entry> system_;
    TbStats stats_;
    FaultInjector *faults_ = nullptr;

  public:
    /** Checkpoint fields, in image order (support/archive.hh). */
    template <class A>
    void
    fields(A &a)
    {
        a.check("TB process entries", uint32_t(process_.size()));
        a("process_", process_);
        a.check("TB system entries", uint32_t(system_.size()));
        a("system_", system_);
        a("stats_", stats_);
    }
};

} // namespace vax

#endif // UPC780_MEM_TB_HH
