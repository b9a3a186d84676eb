/**
 * @file
 * The autonomous I-Fetch unit.
 *
 * Fetches the instruction stream into the IB whenever at least one
 * byte of the buffer is empty, the EBOX did not use the cache port
 * this cycle, and no I-stream TB miss is outstanding.  Fetches are
 * aligned longwords; the unit accepts as many bytes as fit, so it can
 * re-reference the same longword (an implementation property the paper
 * calls out).  An I-stream TB miss sets a flag; the EBOX notices when
 * decode starves and runs the fill microcode.
 */

#ifndef UPC780_CPU_IFETCH_HH
#define UPC780_CPU_IFETCH_HH

#include "arch/types.hh"
#include "cpu/ib.hh"
#include "mem/mem_system.hh"

namespace vax
{

class IFetch
{
  public:
    IFetch(InstructionBuffer &ib, MemSystem &mem) : ib_(ib), mem_(mem) {}

    /** Attempt one fetch step; call once per machine cycle.  Inline
     *  fast path: with no fill landing, no redirect settling and no
     *  outstanding miss, the common full-IB / port-taken cycle decides
     *  in a few flag tests; anything stateful goes out of line. */
    void
    cycle(CpuMode mode)
    {
        if (mem_.ibFillDone() || redirectDelay_ > 0 || awaitingFill_ ||
            itbMiss_) {
            cycleSlow(mode);
            return;
        }
        if ((!ib_.canAccept() || ib_.freeBytes() == 0) &&
            ib_.pendingSkip() == 0)
            return;
        if (mem_.eboxPortUsed())
            return; // the EBOX had the cache this cycle
        issueFetch(mode);
    }

    /** Restart fetching at a new PC (branch taken, REI, ...). */
    void redirect(VirtAddr pc);

    bool itbMiss() const { return itbMiss_; }
    VirtAddr itbMissVa() const { return itbMissVa_; }

    /** Clear the miss flag (TB-fill microcode completed). */
    void clearItbMiss() { itbMiss_ = false; }

    VirtAddr viba() const { return viba_; }

  private:
    void acceptLongword(uint32_t data);
    /** Fill collection, redirect settling and miss gating. */
    void cycleSlow(CpuMode mode);
    /** Issue the aligned-longword fetch and sort its outcome. */
    void issueFetch(CpuMode mode);

    InstructionBuffer &ib_;
    MemSystem &mem_;
    VirtAddr viba_ = 0;       ///< VA of next I-stream byte to fetch
    unsigned redirectDelay_ = 0; ///< dead cycles after a redirect
    bool itbMiss_ = false;
    VirtAddr itbMissVa_ = 0;
    bool awaitingFill_ = false;
    bool discardFill_ = false;

  public:
    /** Checkpoint fields, in image order (support/archive.hh). */
    template <class A>
    void
    fields(A &a)
    {
        a("viba_", viba_);
        a("redirectDelay_", redirectDelay_);
        a("itbMiss_", itbMiss_);
        a("itbMissVa_", itbMissVa_);
        a("awaitingFill_", awaitingFill_);
        a("discardFill_", discardFill_);
    }
};

} // namespace vax

#endif // UPC780_CPU_IFETCH_HH
