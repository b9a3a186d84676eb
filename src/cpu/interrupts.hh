/**
 * @file
 * Interrupt controller and interval timer.
 *
 * Device interrupts arrive on levels 16-23 (we use 22 for the interval
 * clock and 21 for terminals); software interrupts on levels 1-15 via
 * the SIRR/SISR mechanism.  An interrupt is delivered between
 * instructions when its level exceeds the PSL IPL; delivery clears the
 * request (devices in this model are edge-like: the handler re-arms
 * through its mailbox protocol).
 */

#ifndef UPC780_CPU_INTERRUPTS_HH
#define UPC780_CPU_INTERRUPTS_HH

#include <bit>
#include <cstdint>

namespace vax
{

class InterruptController
{
  public:
    /** Assert a device interrupt (levels 16-31). */
    void postDevice(unsigned level);

    /** Request a software interrupt (levels 1-15): sets a SISR bit. */
    void requestSoftware(unsigned level);

    uint16_t sisr() const { return sisr_; }
    void setSisr(uint16_t v) { sisr_ = v & 0xFFFE; }

    /**
     * Highest pending level strictly above ipl, or -1.
     * Does not clear anything.  Runs at every instruction boundary,
     * so it is a single bit scan over the merged request lines rather
     * than a level-by-level walk.
     */
    int
    pendingAbove(unsigned ipl) const
    {
        if (ipl >= 31)
            return -1;
        uint32_t above = (deviceLines_ | sisr_) & (~0u << (ipl + 1));
        return above ? 31 - std::countl_zero(above) : -1;
    }

    /** Clear the request being delivered. */
    void acknowledge(unsigned level);

    uint64_t devicePosts() const { return devicePosts_; }
    uint64_t softwareRequests() const { return swRequests_; }

  private:
    uint32_t deviceLines_ = 0;  ///< bit per level 16-31
    uint16_t sisr_ = 0;         ///< bit per level 1-15
    uint64_t devicePosts_ = 0;
    uint64_t swRequests_ = 0;

  public:
    /** Checkpoint fields, in image order (support/archive.hh). */
    template <class A>
    void
    fields(A &a)
    {
        a("deviceLines_", deviceLines_);
        a("sisr_", sisr_);
        a("devicePosts_", devicePosts_);
        a("swRequests_", swRequests_);
    }
};

/**
 * The interval clock.  NICR holds the interval in machine cycles;
 * while ICCS<0> (run) is set, the counter counts down and fires when
 * it reaches zero, then reloads.  ICCS<6> enables the interrupt.
 */
class IntervalTimer
{
  public:
    /** Advance one cycle; true if the clock fired with ints enabled.
     *  Inline: this sits on the per-cycle path and is a handful of
     *  predictable tests either way the run bit goes. */
    bool
    tick()
    {
        if (!(iccs_ & runBit))
            return false;
        if (icr_ == 0)
            icr_ = nicr_;
        if (icr_ == 0)
            return false;
        if (--icr_ == 0) {
            icr_ = nicr_;
            return (iccs_ & intEnableBit) != 0;
        }
        return false;
    }

    void setIccs(uint32_t v);
    uint32_t iccs() const { return iccs_; }
    void
    setNicr(uint32_t v)
    {
        nicr_ = v;
        icr_ = v;
    }
    uint32_t nicr() const { return nicr_; }
    uint32_t icr() const { return icr_; }

    static constexpr uint32_t runBit = 1;
    static constexpr uint32_t intEnableBit = 1 << 6;

  private:
    uint32_t iccs_ = 0;
    uint32_t nicr_ = 0;
    uint32_t icr_ = 0;

  public:
    /** Checkpoint fields, in image order (support/archive.hh). */
    template <class A>
    void
    fields(A &a)
    {
        a("iccs_", iccs_);
        a("nicr_", nicr_);
        a("icr_", icr_);
    }
};

} // namespace vax

#endif // UPC780_CPU_INTERRUPTS_HH
