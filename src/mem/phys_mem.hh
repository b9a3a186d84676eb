/**
 * @file
 * Flat physical memory backing store.
 */

#ifndef UPC780_MEM_PHYS_MEM_HH
#define UPC780_MEM_PHYS_MEM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/types.hh"
#include "support/logging.hh"

namespace vax
{

namespace snap { class Serializer; class Deserializer; }

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

    /** @{ Checkpoint/restore.  Mostly-zero pages compress well, so
     *  the image is stored run-length encoded. */
    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
    /** @} */

  private:
    void prefault(PhysAddr pa, size_t n);

    uint8_t *data_ = nullptr;
    uint32_t size_;
};

} // namespace vax

#endif // UPC780_MEM_PHYS_MEM_HH
