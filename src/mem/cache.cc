#include "mem/cache.hh"

#include <bit>

#include "support/bitutil.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace vax
{

void
Cache::regStats(stats::Registry &r, const std::string &prefix) const
{
    counter::regStats(r, prefix, stats_);
    const CacheStats *s = &stats_;
    r.addFormula(prefix + ".missRatioI",
                 "I-stream read miss ratio", [s] {
                     return s->readRefsI
                         ? double(s->readMissesI) / double(s->readRefsI)
                         : 0.0;
                 });
    r.addFormula(prefix + ".missRatioD",
                 "D-stream read miss ratio", [s] {
                     return s->readRefsD
                         ? double(s->readMissesD) / double(s->readRefsD)
                         : 0.0;
                 });
}

Cache::Cache(const MemConfig &cfg, uint64_t seed)
    : blockBytes_(cfg.cacheBlockBytes),
      blockShift_(static_cast<uint32_t>(
          std::countr_zero(cfg.cacheBlockBytes))),
      setShift_(static_cast<uint32_t>(std::countr_zero(
          cfg.cacheBytes / (cfg.cacheBlockBytes * cfg.cacheWays)))),
      ways_(cfg.cacheWays),
      sets_(cfg.cacheBytes / (cfg.cacheBlockBytes * cfg.cacheWays)),
      lines_(sets_ * ways_),
      rng_(seed)
{
    upc_assert(isPowerOf2(blockBytes_));
    upc_assert(isPowerOf2(sets_));
    upc_assert(ways_ >= 1);
}

void
Cache::invalidateBlock(PhysAddr pa)
{
    uint32_t set = setIndex(pa);
    uint32_t tag = tagOf(pa);
    for (uint32_t w = 0; w < ways_; ++w) {
        Line &l = lines_[set * ways_ + w];
        if (l.valid && l.tag == tag)
            l.valid = false;
    }
}

void
Cache::traceReadMiss(PhysAddr pa, bool istream) const
{
    TRACE(Cache, "read miss %c pa=%06x set=%u",
          istream ? 'I' : 'D', static_cast<unsigned>(pa),
          setIndex(pa));
}

bool
Cache::readRefSlow(PhysAddr pa, bool istream)
{
    bool hit = !disabled_ && probe(pa);
    // Write-through means memory is always current, so an injected
    // parity error is recoverable: drop the bad line, take the miss
    // path, and latch a machine check for the EBOX.
    if (hit && faults_ && faults_->drawCacheParity()) {
        invalidateBlock(pa);
        faults_->postMachineCheck(McheckCause::CacheParity);
        if (faults_->cacheDisableAfter() &&
            ++parityErrors_ >= faults_->cacheDisableAfter() &&
            !disabled_) {
            disabled_ = true;
            faults_->noteCacheDisabled();
            invalidateAll();
            warn("cache: %u parity errors, disabling cache "
                 "(degraded but correct)", parityErrors_);
        }
        hit = false;
    }
    if (istream) {
        ++stats_.readRefsI;
        if (!hit)
            ++stats_.readMissesI;
    } else {
        ++stats_.readRefsD;
        if (!hit)
            ++stats_.readMissesD;
    }
    if (!hit) {
        TRACE(Cache, "read miss %c pa=%06x set=%u",
              istream ? 'I' : 'D', static_cast<unsigned>(pa),
              setIndex(pa));
    }
    return hit;
}

void
Cache::writeRef(PhysAddr pa)
{
    ++stats_.writeRefs;
    bool hit = probe(pa);
    if (hit)
        ++stats_.writeHits;
    // Write-through, no allocate: tags unchanged either way.
    TRACE(Cache, "write %s pa=%06x", hit ? "hit" : "miss",
          static_cast<unsigned>(pa));
}

void
Cache::fill(PhysAddr pa)
{
    if (disabled_)
        return;
    TRACE(Cache, "fill pa=%06x set=%u", static_cast<unsigned>(pa),
          setIndex(pa));
    uint32_t set = setIndex(pa);
    uint32_t tag = tagOf(pa);
    // If it's already present (e.g. racing I/D fills of one block),
    // nothing to do.
    for (uint32_t w = 0; w < ways_; ++w) {
        Line &l = lines_[set * ways_ + w];
        if (l.valid && l.tag == tag)
            return;
    }
    // Prefer an invalid way; otherwise random replacement (as on the
    // real 780).
    for (uint32_t w = 0; w < ways_; ++w) {
        Line &l = lines_[set * ways_ + w];
        if (!l.valid) {
            l.valid = true;
            l.tag = tag;
            return;
        }
    }
    Line &victim = lines_[set * ways_ + rng_.below(ways_)];
    victim.tag = tag;
    victim.valid = true;
}

void
Cache::invalidateAll()
{
    TRACE(Cache, "invalidate all");
    for (auto &l : lines_)
        l.valid = false;
}

} // namespace vax
