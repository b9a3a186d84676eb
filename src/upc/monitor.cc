#include "upc/monitor.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/snapshot.hh"
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

Histogram
weightedComposite(const std::vector<const Histogram *> &parts,
                  const std::vector<uint64_t> &weights)
{
    Histogram total;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (!parts[i])
            continue;
        total.merge(*parts[i], i < weights.size() ? weights[i] : 1);
    }
    return total;
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

void
Histogram::save(snap::Serializer &s) const
{
    s.putVecU64(normal);
    s.putVecU64(stalled);
}

void
Histogram::restore(snap::Deserializer &d)
{
    std::vector<uint64_t> n = d.getVecU64();
    std::vector<uint64_t> st = d.getVecU64();
    if (n.size() != normal.size() || st.size() != stalled.size())
        throw snap::SnapshotError(
            "snapshot: histogram bank size mismatch (snapshot from a "
            "different control-store capacity)");
    std::copy(n.begin(), n.end(), normal.begin());
    std::copy(st.begin(), st.end(), stalled.begin());
}

UpcMonitor::~UpcMonitor()
{
    if (ebox_)
        ebox_->detachMonitor(this);
}

void
UpcMonitor::save(snap::Serializer &s) const
{
    s.beginSection("upc.monitor");
    hist_.save(s);
    s.putBool(collecting_);
    s.endSection();
}

void
UpcMonitor::restore(snap::Deserializer &d)
{
    d.beginSection("upc.monitor");
    hist_.restore(d);
    // The restored CSR state may differ from the pre-restore one.
    setCollecting(d.getBool());
    d.endSection();
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
