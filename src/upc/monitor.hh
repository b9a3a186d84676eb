/**
 * @file
 * The micro-PC histogram monitor -- the paper's measurement apparatus.
 *
 * A 16K-bucket histogram board with two count banks: one for normal
 * cycles and one for stalled cycles, indexed by the control-store
 * address driving the machine each cycle.  Completely passive: while
 * it collects, the attached EBOX increments the bank at the micro-PC
 * in every cycle, as the board's counters did, so the banks are exact
 * at any moment and no reader has anything to drain first.  The board
 * never perturbs execution.
 *
 * As on the real machine, the board is a Unibus device: collection is
 * started, stopped and cleared by writes to its CSR, which the OS maps
 * into a device page (this is how VMS-lite gates measurement off while
 * the Null process runs, reproducing the paper's exclusion of Null).
 */

#ifndef UPC780_UPC_MONITOR_HH
#define UPC780_UPC_MONITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/ebox.hh"
#include "support/logging.hh"
#include "ucode/control_store.hh"

namespace vax
{

namespace stats
{
class Registry;
} // namespace stats

/** Raw histogram data: two counter banks. */
struct Histogram
{
    Histogram() : normal(ControlStore::capacity, 0),
                  stalled(ControlStore::capacity, 0) {}

    std::vector<uint64_t> normal;
    std::vector<uint64_t> stalled;

    /**
     * Merge another histogram into this one, scaled by an integral
     * weight (composite workloads; weight 1 reproduces the paper's
     * plain five-histogram sum).  Counter addition is commutative and
     * associative, so merging partial histograms in any order yields
     * bit-identical results -- the property the parallel driver's
     * determinism contract rests on.
     */
    void merge(const Histogram &other, uint64_t weight = 1);

    /** Total cycles recorded. */
    uint64_t cycles() const;

    /** Total cycles in the normal (non-stalled) bank. */
    uint64_t normalCycles() const;

    /** Total cycles in the stalled bank. */
    uint64_t stalledCycles() const;

    /** Register bank totals and the stall fraction under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;

    /** Checkpoint fields (support/archive.hh).  Banks are mostly
     *  zeros for short runs, so they are run-length encoded; a restore
     *  writes into the existing banks, so pointers into them stay
     *  valid. */
    template <class A>
    void
    fields(A &a)
    {
        a.blob("normal", normal);
        a.blob("stalled", stalled);
    }
};

class UpcMonitor
{
  public:
    /** CSR command values (written to the device register). */
    static constexpr uint32_t cmdStop = 0;
    static constexpr uint32_t cmdStart = 1;
    static constexpr uint32_t cmdClear = 2;

    UpcMonitor() = default;
    ~UpcMonitor();
    /** Neither copyable nor movable: the attached EBOX holds pointers
     *  into this board's banks. */
    UpcMonitor(const UpcMonitor &) = delete;
    UpcMonitor &operator=(const UpcMonitor &) = delete;

    /** Count one cycle by hand if collecting (the attached EBOX
     *  increments the banks itself). */
    void count(UAddr upc, bool stalled);

    /** @{ EBOX wiring.  Ebox::setCycleSink(UpcMonitor *) attaches the
     *  back pointer and caches bankData() while the board collects. */
    void
    attachEbox(Ebox *e)
    {
        if (ebox_ && ebox_ != e)
            ebox_->detachMonitor(this);
        ebox_ = e;
    }

    /** Called by ~Ebox, and when another board takes over the EBOX,
     *  so the monitor never calls back an engine it no longer feeds. */
    void
    detachEbox(const Ebox *e)
    {
        if (ebox_ == e)
            ebox_ = nullptr;
    }

    /** Storage of one bank; it stays put for the board's lifetime. */
    uint64_t *
    bankData(bool stalled)
    {
        return (stalled ? hist_.stalled : hist_.normal).data();
    }
    /** @} */

    /** @{ Unibus command interface. */
    void start() { setCollecting(true); }
    void stop() { setCollecting(false); }
    void clear();
    bool collecting() const { return collecting_; }
    /** CSR write decode (for the device-window hook). */
    void unibusWrite(uint32_t value);
    /** @} */

    const Histogram &histogram() const { return hist_; }

    /** Register the board's histogram totals under prefix. */
    void
    regStats(stats::Registry &r, const std::string &prefix) const
    {
        hist_.regStats(r, prefix);
    }

    uint64_t normalCount(UAddr a) const { return hist_.normal[a]; }
    uint64_t stalledCount(UAddr a) const { return hist_.stalled[a]; }

  private:
    /** Set the CSR's collect state and re-point the EBOX's banks. */
    void
    setCollecting(bool on)
    {
        collecting_ = on;
        if (ebox_)
            ebox_->pointMonitorBanks();
    }

    Histogram hist_;
    bool collecting_ = true;
    Ebox *ebox_ = nullptr;

  public:
    /** Checkpoint fields (support/archive.hh): both banks and the
     *  collecting flag, whose restore re-points the EBOX's banks. */
    template <class A>
    void
    fields(A &a)
    {
        a.section("upc.monitor", [&] {
            a("hist_", hist_);
            a.codec(
                "collecting_", [&] { return collecting_; },
                [&](bool on) { setCollecting(on); });
        });
    }
};

} // namespace vax

#endif // UPC780_UPC_MONITOR_HH
