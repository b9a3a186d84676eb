#include "mem/phys_mem.hh"

#include <sys/mman.h>

#include <new>

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
PhysicalMemory::load(PhysAddr pa, const std::vector<uint8_t> &image)
{
    upc_assert(static_cast<uint64_t>(pa) + image.size() <= size_);
    for (size_t i = 0; i < image.size(); ++i)
        data_[pa + i] = image[i];
}

} // namespace vax
