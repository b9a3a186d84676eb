/**
 * @file
 * The instruction buffer.
 *
 * A byte FIFO between the I-Fetch unit and I-Decode; 8 bytes on the
 * 11/780, configurable here for what-if studies.  The front byte
 * always corresponds to the EBOX's decode PC.  Skips (displacement
 * bytes of untaken branches) drop bytes as they become available
 * without stalling the EBOX.
 */

#ifndef UPC780_CPU_IB_HH
#define UPC780_CPU_IB_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace vax
{

class InstructionBuffer
{
  public:
    explicit InstructionBuffer(unsigned capacity = 8)
        : bytes_(capacity, 0)
    {
        upc_assert(capacity >= 4);
    }

    unsigned capacity() const
    {
        return static_cast<unsigned>(bytes_.size());
    }

    unsigned avail() const { return count_; }
    unsigned freeBytes() const { return capacity() - count_; }
    unsigned pendingSkip() const { return pendingSkip_; }

    /** Look at the i-th buffered byte (i < avail()). */
    uint8_t
    peek(unsigned i) const
    {
        upc_assert(i < count_);
        // head_ < capacity and i < count_ <= capacity, so one
        // conditional subtract wraps the index -- these run several
        // times per decoded byte, and a real `%` is a hardware divide.
        unsigned idx = head_ + i;
        if (idx >= capacity())
            idx -= capacity();
        return bytes_[idx];
    }

    /** Remove n bytes from the front. */
    void
    consume(unsigned n)
    {
        upc_assert(n <= count_);
        head_ += n;
        if (head_ >= capacity())
            head_ -= capacity();
        count_ -= n;
    }

    /**
     * Drop n upcoming bytes: available ones now, the rest as they
     * arrive.  Never stalls.
     */
    void
    skip(unsigned n)
    {
        unsigned now = n < count_ ? n : count_;
        consume(now);
        pendingSkip_ += n - now;
    }

    /** Append a fetched byte (skipped bytes are dropped here). */
    void
    push(uint8_t b)
    {
        if (pendingSkip_ > 0) {
            --pendingSkip_;
            return;
        }
        upc_assert(count_ < capacity());
        unsigned idx = head_ + count_;
        if (idx >= capacity())
            idx -= capacity();
        bytes_[idx] = b;
        ++count_;
    }

    /** Room for another fetched byte (skips absorb without room). */
    bool
    canAccept() const
    {
        return pendingSkip_ > 0 || count_ < capacity();
    }

    void
    flush()
    {
        head_ = 0;
        count_ = 0;
        pendingSkip_ = 0;
    }

  private:
    std::vector<uint8_t> bytes_;
    unsigned head_ = 0;
    unsigned count_ = 0;
    unsigned pendingSkip_ = 0;

  public:
    /** Checkpoint fields, in image order (support/archive.hh). */
    template <class A>
    void
    fields(A &a)
    {
        a.check("IB capacity", capacity());
        a("head_", head_);
        a("count_", count_);
        a("pendingSkip_", pendingSkip_);
        a("bytes_", bytes_);
    }
};

} // namespace vax

#endif // UPC780_CPU_IB_HH
