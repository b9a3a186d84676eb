#include "upc/monitor.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/stats.hh"

namespace vax
{

void
Histogram::merge(const Histogram &other, uint64_t weight)
{
    for (size_t i = 0; i < normal.size(); ++i) {
        normal[i] += other.normal[i] * weight;
        stalled[i] += other.stalled[i] * weight;
    }
}

uint64_t
Histogram::cycles() const
{
    uint64_t total = 0;
    for (size_t i = 0; i < normal.size(); ++i)
        total += normal[i] + stalled[i];
    return total;
}

uint64_t
Histogram::normalCycles() const
{
    uint64_t total = 0;
    for (uint64_t v : normal)
        total += v;
    return total;
}

uint64_t
Histogram::stalledCycles() const
{
    uint64_t total = 0;
    for (uint64_t v : stalled)
        total += v;
    return total;
}

void
Histogram::regStats(stats::Registry &r, const std::string &prefix) const
{
    const Histogram *h = this;
    r.addScalar(prefix + ".normalCycles",
                "cycles counted in the normal bank",
                [h] { return h->normalCycles(); });
    r.addScalar(prefix + ".stalledCycles",
                "cycles counted in the stalled bank",
                [h] { return h->stalledCycles(); });
    r.addScalar(prefix + ".cycles", "total cycles recorded",
                [h] { return h->cycles(); });
    r.addFormula(prefix + ".stallFraction",
                 "fraction of recorded cycles that were stalls", [h] {
                     uint64_t total = h->cycles();
                     return total
                         ? double(h->stalledCycles()) / double(total)
                         : 0.0;
                 });
}

UpcMonitor::~UpcMonitor()
{
    if (ebox_)
        ebox_->detachMonitor(this);
}

void
UpcMonitor::count(UAddr upc, bool stalled)
{
    if (!collecting_)
        return;
    upc_assert(upc < ControlStore::capacity);
    if (stalled)
        ++hist_.stalled[upc];
    else
        ++hist_.normal[upc];
}

void
UpcMonitor::clear()
{
    std::fill(hist_.normal.begin(), hist_.normal.end(), 0);
    std::fill(hist_.stalled.begin(), hist_.stalled.end(), 0);
}

void
UpcMonitor::unibusWrite(uint32_t value)
{
    switch (value) {
      case cmdStop:
        stop();
        break;
      case cmdStart:
        start();
        break;
      case cmdClear:
        clear();
        break;
      default:
        warn("UPC monitor: unknown CSR command %u", value);
        break;
    }
}

} // namespace vax
