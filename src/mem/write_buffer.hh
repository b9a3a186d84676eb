/**
 * @file
 * The 11/780 one-longword write buffer.
 *
 * The machine is write-through: every data write goes to memory over
 * the SBI.  To avoid waiting for memory, a single 4-byte buffer
 * accepts the write in one cycle; a subsequent write issued before the
 * buffer drains causes a write stall.
 */

#ifndef UPC780_MEM_WRITE_BUFFER_HH
#define UPC780_MEM_WRITE_BUFFER_HH

#include <cstdint>
#include <string>

#include "support/stats.hh"

namespace vax
{

class WriteBuffer
{
  public:
    /** True if a previous write is still draining to memory. */
    bool busy() const { return remaining_ > 0; }

    /** Accept a write; buffer is busy for drain_cycles. */
    void
    accept(uint32_t drain_cycles)
    {
        remaining_ = drain_cycles;
        ++writesAccepted_;
    }

    /** Advance one cycle. */
    void
    tick()
    {
        if (remaining_ > 0)
            --remaining_;
    }

    uint64_t writesAccepted() const { return writesAccepted_; }

    /** Register this buffer's statistics under prefix. */
    void
    regStats(stats::Registry &r, const std::string &prefix) const
    {
        r.addScalar(prefix + ".writesAccepted",
                    "writes accepted by the one-longword buffer",
                    &writesAccepted_);
    }

  private:
    uint32_t remaining_ = 0;
    uint64_t writesAccepted_ = 0;

  public:
    /** Checkpoint fields, in image order (support/archive.hh). */
    template <class A>
    void
    fields(A &a)
    {
        a("remaining_", remaining_);
        a("writesAccepted_", writesAccepted_);
    }
};

} // namespace vax

#endif // UPC780_MEM_WRITE_BUFFER_HH
