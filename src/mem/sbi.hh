/**
 * @file
 * Synchronous Backplane Interconnect timing model.
 *
 * One cache-fill transaction (EBOX read miss or IB fill) may be in
 * flight at a time; a second requester waits for the bus.  Write
 * drains are tracked by the write buffer and, per DESIGN.md, do not
 * contend with fills in this model.
 */

#ifndef UPC780_MEM_SBI_HH
#define UPC780_MEM_SBI_HH

#include <cstdint>
#include <string>

#include "support/faultinject.hh"
#include "support/stats.hh"

namespace vax
{

class Sbi
{
  public:
    bool busy() const { return remaining_ > 0; }
    uint32_t remaining() const { return remaining_; }

    /** Claim the bus for the given number of cycles.  An injected
     *  read timeout stretches the transaction by the configured
     *  penalty and latches a machine check; the fill still completes
     *  (the real machine retried the read after the check). */
    void
    start(uint32_t cycles)
    {
        if (faults_ && faults_->drawSbiTimeout()) {
            cycles += faults_->sbiTimeoutPenalty();
            faults_->postMachineCheck(McheckCause::SbiTimeout);
        }
        remaining_ = cycles;
        ++transactions_;
    }

    /** Advance one cycle; returns true if a transaction just ended. */
    bool
    tick()
    {
        if (remaining_ == 0)
            return false;
        --remaining_;
        return remaining_ == 0;
    }

    uint64_t transactions() const { return transactions_; }

    /** Attach a fault injector (null = fault-free operation). */
    void setFaultInjector(FaultInjector *fi) { faults_ = fi; }

    /** Register this bus's statistics under prefix. */
    void
    regStats(stats::Registry &r, const std::string &prefix) const
    {
        r.addScalar(prefix + ".transactions",
                    "cache-fill transactions carried", &transactions_);
    }

  private:
    uint32_t remaining_ = 0;
    uint64_t transactions_ = 0;
    FaultInjector *faults_ = nullptr;

  public:
    /** Checkpoint fields (support/archive.hh); the injector pointer is
     *  wiring. */
    template <class A>
    void
    fields(A &a)
    {
        a("remaining_", remaining_);
        a("transactions_", transactions_);
    }
};

} // namespace vax

#endif // UPC780_MEM_SBI_HH
