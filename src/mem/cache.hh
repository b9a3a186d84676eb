/**
 * @file
 * The 11/780 data/instruction cache model.
 *
 * Write-through with no write-allocate, physically addressed, shared
 * by the EBOX D-stream and the instruction buffer's I-stream.  Because
 * writes go straight through, memory is always current and the cache
 * is modelled tag-only: hits and misses are timing events, data comes
 * from physical memory.
 *
 * The real 780 cache is 8 KB, two-way set-associative with 8-byte
 * blocks and random replacement; all of that is configurable here.
 */

#ifndef UPC780_MEM_CACHE_HH
#define UPC780_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "mem/mem_config.hh"
#include "support/counters.hh"
#include "support/random.hh"

namespace vax
{

class FaultInjector;

/** Per-stream cache statistics (the paper's separate cache study). */
struct CacheStats
{
    uint64_t readRefsI = 0;    ///< I-stream read references
    uint64_t readMissesI = 0;
    uint64_t readRefsD = 0;    ///< D-stream read references
    uint64_t readMissesD = 0;
    uint64_t writeRefs = 0;
    uint64_t writeHits = 0;

    /** Each counter once, in declaration order (support/counters.hh). */
    static constexpr Counter<CacheStats> fields[] = {
        {"readRefsI", "I-stream read references", &CacheStats::readRefsI},
        {"readMissesI", "I-stream read misses", &CacheStats::readMissesI},
        {"readRefsD", "D-stream read references", &CacheStats::readRefsD},
        {"readMissesD", "D-stream read misses", &CacheStats::readMissesD},
        {"writeRefs", "write references (write-through)",
         &CacheStats::writeRefs},
        {"writeHits", "write hits", &CacheStats::writeHits},
    };
};
static_assert(counter::covers<CacheStats>());

class Cache
{
  public:
    explicit Cache(const MemConfig &cfg, uint64_t seed = 0xcac4e);

    /**
     * Look up a read reference.
     *
     * @param pa Physical address of the (aligned) reference.
     * @param istream True for IB fetches, false for EBOX D-stream.
     * @return True on hit.  A miss does NOT fill; call fill() when the
     *         SBI transaction completes.
     *
     * Inline fast path: runs for every IB fill and D-stream read, so
     * the fault-free lookup is a probe plus two counter bumps; fault
     * injection takes the out-of-line slow path.
     */
    bool
    readRef(PhysAddr pa, bool istream)
    {
        if (faults_) [[unlikely]]
            return readRefSlow(pa, istream);
        bool hit = !disabled_ && probe(pa);
        if (istream) {
            ++stats_.readRefsI;
            if (!hit)
                ++stats_.readMissesI;
        } else {
            ++stats_.readRefsD;
            if (!hit)
                ++stats_.readMissesD;
        }
        if (!hit)
            traceReadMiss(pa, istream);
        return hit;
    }

    /**
     * Look up a write reference (write-through, no allocate).
     *
     * A hit would update the stored data on a real machine; with a
     * tag-only model the call just records the hit.
     */
    void writeRef(PhysAddr pa);

    /** Install the block containing pa (end of a miss fill). */
    void fill(PhysAddr pa);

    /** Invalidate everything (power-up or explicit flush). */
    void invalidateAll();

    /** Attach a fault injector (null = fault-free operation). */
    void setFaultInjector(FaultInjector *fi) { faults_ = fi; }

    /** True once repeated parity errors forced the cache off. */
    bool disabled() const { return disabled_; }

    const CacheStats &stats() const { return stats_; }

    /** Register stats and derived miss ratios under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;

    uint32_t numSets() const { return sets_; }
    uint32_t numWays() const { return ways_; }

  private:
    struct Line
    {
        bool valid = false;
        uint32_t tag = 0;

        template <class A>
        void
        fields(A &a)
        {
            a("valid", valid);
            a("tag", tag);
        }
    };

    /** Geometry is asserted power-of-two at construction, so the
     *  per-reference index math is two shifts and a mask. */
    uint32_t
    setIndex(PhysAddr pa) const
    {
        return (pa >> blockShift_) & (sets_ - 1);
    }

    uint32_t
    tagOf(PhysAddr pa) const
    {
        return (pa >> blockShift_) >> setShift_;
    }

    bool
    probe(PhysAddr pa) const
    {
        uint32_t set = setIndex(pa);
        uint32_t tag = tagOf(pa);
        for (uint32_t w = 0; w < ways_; ++w) {
            const Line &l = lines_[set * ways_ + w];
            if (l.valid && l.tag == tag)
                return true;
        }
        return false;
    }

    /** readRef with a fault injector attached (parity draws). */
    bool readRefSlow(PhysAddr pa, bool istream);
    /** Cold miss-trace hook, out of line to keep readRef tight. */
    void traceReadMiss(PhysAddr pa, bool istream) const;
    void invalidateBlock(PhysAddr pa);

    uint32_t blockBytes_;
    uint32_t blockShift_;
    uint32_t setShift_;
    uint32_t ways_;
    uint32_t sets_;
    std::vector<Line> lines_; ///< sets_ * ways_, way-major within set
    CacheStats stats_;
    Rng rng_;
    FaultInjector *faults_ = nullptr;
    uint32_t parityErrors_ = 0;
    bool disabled_ = false;

  public:
    /** Checkpoint fields (support/archive.hh): tags, stats,
     *  replacement RNG and parity-disable state; the geometry is
     *  configuration, checked only. */
    template <class A>
    void
    fields(A &a)
    {
        a.check("cache sets", sets_);
        a.check("cache ways", ways_);
        a.check("cache block bytes", blockBytes_);
        a("lines_", lines_);
        a("stats_", stats_);
        a.codec(
            "rng_", [&] { return rng_.state(); },
            [&](uint64_t s) { rng_.setState(s); });
        a("parityErrors_", parityErrors_);
        a("disabled_", disabled_);
    }
};

} // namespace vax

#endif // UPC780_MEM_CACHE_HH
