#include "mem/phys_mem.hh"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <utility>

#include "support/logging.hh"

namespace vax
{

PhysicalMemory::PhysicalMemory(uint32_t size_bytes) : size_(size_bytes)
{
    void *p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<uint8_t *>(p);
}

PhysicalMemory::~PhysicalMemory()
{
    munmap(data_, size_);
}

void
PhysicalMemory::writeByte(PhysAddr pa, uint8_t v)
{
    upc_assert(pa < size_);
    data_[pa] = v;
}

void
PhysicalMemory::write(PhysAddr pa, uint32_t v, unsigned bytes)
{
    upc_assert(bytes >= 1 && bytes <= 4);
    upc_assert(static_cast<uint64_t>(pa) + bytes <= size_);
    for (unsigned i = 0; i < bytes; ++i)
        data_[pa + i] = static_cast<uint8_t>(v >> (8 * i));
}

void
PhysicalMemory::prefault(PhysAddr pa, size_t n) const
{
    // A bulk store about to write several fresh pages asks the kernel
    // for them in one call instead of taking a fault on each.  Purely
    // a speedup: the store itself faults in whatever this leaves out.
#ifdef MADV_POPULATE_WRITE
    constexpr uintptr_t page = 4096;
    if (n < 4 * page)
        return;
    uintptr_t lo = reinterpret_cast<uintptr_t>(data_ + pa) & ~(page - 1);
    uintptr_t hi = (reinterpret_cast<uintptr_t>(data_ + pa + n) + page - 1) &
        ~(page - 1);
    madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_POPULATE_WRITE);
#else
    (void)pa;
    (void)n;
#endif
}

void
PhysicalMemory::load(PhysAddr pa, const uint8_t *bytes, size_t n)
{
    upc_assert(static_cast<uint64_t>(pa) + n <= size_);
    if (n == 0)
        return;
    prefault(pa, n);
    std::memcpy(data_ + pa, bytes, n);
}

void
PhysicalMemory::writeLongs(PhysAddr pa, const uint32_t *longs, size_t n)
{
    upc_assert(static_cast<uint64_t>(pa) + 4 * uint64_t(n) <= size_);
    prefault(pa, 4 * n);
    uint8_t *p = data_ + pa;
    for (size_t i = 0; i < n; ++i, p += 4)
        for (unsigned b = 0; b < 4; ++b)
            p[b] = static_cast<uint8_t>(longs[i] >> (8 * b));
}

void
PhysicalMemory::defer(PhysAddr pa, uint32_t n, Producer produce)
{
    upc_assert(pa % pageBytes == 0 && n % pageBytes == 0);
    upc_assert(static_cast<uint64_t>(pa) + n <= size_);
    if (pendingPages_.empty())
        pendingPages_.resize((size_ / pageBytes + 63) / 64);
    deferred_.push_back({pa, n, std::move(produce)});
    markPending(deferred_.back(), true);
}

void
PhysicalMemory::markPending(const Deferred &r, bool pending) const
{
    for (PhysAddr page = r.pa >> pageShift;
         page < (r.pa + r.n) >> pageShift; ++page) {
        uint64_t &word = pendingPages_[page >> 6];
        uint64_t bit = uint64_t(1) << (page & 63);
        upc_assert(bool(word & bit) != pending); // regions are disjoint
        word ^= bit;
    }
}

void
PhysicalMemory::materialize(PhysAddr pa) const
{
    for (size_t i = 0; i < deferred_.size(); ++i)
        if (pa - deferred_[i].pa < deferred_[i].n)
            return materializeAt(i);
    panic("page of %06x is pending but no deferred region holds it",
          static_cast<unsigned>(pa));
}

void
PhysicalMemory::materializeAt(size_t i) const
{
    // Off the pending list before the producer runs, so a producer
    // that fails leaves no half-loaded region behind as pending.
    std::swap(deferred_[i], deferred_.back());
    Deferred r = std::move(deferred_.back());
    deferred_.pop_back();
    markPending(r, false);
    std::vector<uint8_t> bytes = r.produce();
    upc_assert(bytes.size() <= r.n);
    if (bytes.empty())
        return;
    prefault(r.pa, bytes.size());
    std::memcpy(data_ + r.pa, bytes.data(), bytes.size());
}

} // namespace vax
