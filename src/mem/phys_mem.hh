/**
 * @file
 * Flat physical memory backing store.
 */

#ifndef UPC780_MEM_PHYS_MEM_HH
#define UPC780_MEM_PHYS_MEM_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/types.hh"
#include "support/logging.hh"

namespace vax
{

/**
 * The machine's physical memory.
 *
 * With a write-through cache, memory is always current, so the cache
 * model can be tag-only and all data comes from here.
 *
 * The backing store is one anonymous private mapping: the kernel
 * supplies zero pages on first touch, so a machine pays for the pages
 * it uses, not for zero-filling all 8 MB at construction (a bare
 * per-instruction machine touches a handful).
 *
 * A region's bytes may also be deferred: registered with a producer
 * that runs the first time the memory system touches the region (see
 * defer()).  A timesharing machine defers each user's image, so the
 * images of users the run never dispatches are never built.
 */
class PhysicalMemory
{
  public:
    /** Map size_bytes of zeroed memory; throws std::bad_alloc if the
     *  mapping fails. */
    explicit PhysicalMemory(uint32_t size_bytes);
    ~PhysicalMemory();

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    /** Total size in bytes. */
    uint32_t size() const { return size_; }

    /** @{ Little-endian accessors; out-of-range addresses panic.
     *  The reads are inline: every instruction-buffer fill and data
     *  reference lands here, and a caller passing a constant width
     *  gets the byte loop unrolled away. */
    uint8_t
    readByte(PhysAddr pa) const
    {
        upc_assert(pa < size_);
        return data_[pa];
    }

    uint32_t
    read(PhysAddr pa, unsigned bytes) const
    {
        upc_assert(bytes >= 1 && bytes <= 4);
        upc_assert(static_cast<uint64_t>(pa) + bytes <= size_);
        uint32_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<uint32_t>(data_[pa + i]) << (8 * i);
        return v;
    }

    void writeByte(PhysAddr pa, uint8_t v);
    void write(PhysAddr pa, uint32_t v, unsigned bytes);
    /** @} */

    /** @{ Bulk stores (the OS loader and its page tables). */
    /** Copy n bytes in at pa. */
    void load(PhysAddr pa, const uint8_t *bytes, size_t n);
    void
    load(PhysAddr pa, const std::vector<uint8_t> &image)
    {
        load(pa, image.data(), image.size());
    }
    /** Store n longwords, little-endian, from pa on. */
    void writeLongs(PhysAddr pa, const uint32_t *longs, size_t n);
    /** @} */

    /** @{ Deferred regions.  defer() stands for the bytes of
     *  [pa, pa + n): produce() runs, and its bytes are loaded at pa,
     *  on the region's first touch().  The memory system touches an
     *  address on every cache miss, before the fill, and before every
     *  write, and guest data enters the machine only those ways: a
     *  cache hit needs an earlier miss's fill.  So a region must be
     *  deferred before the machine runs, and pa and n are page
     *  multiples, so no cache block straddles a region's edge.  The
     *  raw accessors above neither touch nor check. */
    using Producer = std::function<std::vector<uint8_t>()>;
    void defer(PhysAddr pa, uint32_t n, Producer produce);

    /** Materialize the deferred region holding pa, if any. */
    void
    touch(PhysAddr pa)
    {
        if (!deferred_.empty() && pa < size_ &&
            (pendingPages_[pa >> (pageShift + 6)] >>
             ((pa >> pageShift) & 63)) & 1)
            materialize(pa);
    }

    /** Deferred regions not yet touched. */
    size_t pendingRegions() const { return deferred_.size(); }
    /** @} */

  private:
    struct Deferred
    {
        PhysAddr pa;
        uint32_t n;
        Producer produce;
    };

    void prefault(PhysAddr pa, size_t n) const;
    void materialize(PhysAddr pa) const;
    void materializeAt(size_t i) const;
    void markPending(const Deferred &r, bool pending) const;

    uint8_t *data_ = nullptr;
    uint32_t size_;

    // Producing a region changes where its bytes live, not what memory
    // holds, so even a const save() may do it.
    mutable std::vector<Deferred> deferred_; ///< not yet touched
    mutable std::vector<uint64_t> pendingPages_; ///< bit per page

  public:
    /** Checkpoint fields (support/archive.hh).  Mostly-zero pages
     *  compress well, so the image is run-length encoded.  A reader
     *  sees every pending region built, so the bytes do not depend on
     *  which regions were touched; a restore drops them all, since the
     *  snapshot carries the bytes and a later touch must not produce a
     *  region over them. */
    template <class A>
    void
    fields(A &a)
    {
        a.check("physical memory size", size_);
        a.blob(
            "data_", data_, size_,
            [&] {
                while (!deferred_.empty())
                    materializeAt(deferred_.size() - 1);
            },
            [&] {
                deferred_.clear();
                pendingPages_.clear();
            });
    }
};

} // namespace vax

#endif // UPC780_MEM_PHYS_MEM_HH
