/**
 * @file
 * Memory-subsystem tests: physical memory, the write-through cache,
 * the split translation buffer, the write buffer, and the MemSystem
 * cycle protocol (hit/miss/stall/unaligned/TB-miss behaviour).
 */

#include <gtest/gtest.h>

#include <optional>

#include "mem/mem_system.hh"
#include "mem/page_table.hh"
#include "support/archive.hh"

namespace vax::test
{

// ---------------- physical memory ----------------

TEST(PhysMem, ReadWriteLittleEndian)
{
    PhysicalMemory m(4096);
    m.write(0x100, 0xDEADBEEF, 4);
    EXPECT_EQ(m.readByte(0x100), 0xEFu);
    EXPECT_EQ(m.readByte(0x103), 0xDEu);
    EXPECT_EQ(m.read(0x100, 2), 0xBEEFu);
    EXPECT_EQ(m.read(0x102, 2), 0xDEADu);
}

TEST(PhysMem, LoadImage)
{
    PhysicalMemory m(4096);
    m.load(0x200, {1, 2, 3, 4});
    EXPECT_EQ(m.read(0x200, 4), 0x04030201u);
}

TEST(PhysMem, FreshMemoryReadsZeroAfterDirtyPredecessor)
{
    constexpr uint32_t kSize = 8u << 20;
    std::optional<PhysicalMemory> m(std::in_place, kSize);
    m->write(0, 0xFFFFFFFF, 4);
    m->write(kSize - 4, 0xFFFFFFFF, 4);
    // A same-sized successor is the likeliest to be handed the
    // predecessor's pages; they must come back zeroed.
    m.emplace(kSize);
    EXPECT_EQ(m->readByte(0), 0u);
    EXPECT_EQ(m->readByte(kSize - 1), 0u);
}

TEST(PhysMem, OutOfRangeAccessPanics)
{
    PhysicalMemory m(4096);
    EXPECT_DEATH(m.read(4096, 1), "failed");
    EXPECT_DEATH(m.read(4094, 4), "failed");
    EXPECT_DEATH(m.write(4096, 0, 1), "failed");
    EXPECT_DEATH(m.write(4093, 0, 4), "failed");
    EXPECT_DEATH(m.load(4094, {1, 2, 3}), "failed");
}

TEST(PhysMem, SparseSnapshotRoundTripsByteIdentically)
{
    constexpr uint32_t kSize = 8u << 20;
    auto image = [](const PhysicalMemory &m) {
        snap::Serializer s;
        s.beginSection("phys");
        snap::save(s, m);
        s.endSection();
        return s.finish();
    };
    PhysicalMemory m(kSize);
    m.write(0, 0x11223344, 4);
    m.load(0x12345, {1, 2, 3});
    m.write(kSize - 4, 0xCAFEF00D, 4);
    std::vector<uint8_t> saved = image(m);
    // Untouched pages encode as zero runs.
    EXPECT_LT(saved.size(), 4096u);

    PhysicalMemory back(kSize);
    snap::Deserializer d(saved);
    d.beginSection("phys");
    snap::restore(d, back);
    d.endSection();
    EXPECT_EQ(back.read(0x12345, 3), 0x030201u);
    EXPECT_EQ(back.read(kSize - 4, 4), 0xCAFEF00Du);
    // The encoding is lossless, so equal images mean equal memories.
    EXPECT_EQ(image(back), saved);
}

// ---------------- cache ----------------

TEST(Cache, MissThenFillThenHit)
{
    MemConfig cfg;
    Cache c(cfg);
    EXPECT_FALSE(c.readRef(0x1000, false));
    c.fill(0x1000);
    EXPECT_TRUE(c.readRef(0x1000, false));
    // Same 8-byte block hits; the next block does not.
    EXPECT_TRUE(c.readRef(0x1004, false));
    EXPECT_FALSE(c.readRef(0x1008, false));
    EXPECT_EQ(c.stats().readRefsD, 4u);
    EXPECT_EQ(c.stats().readMissesD, 2u);
}

TEST(Cache, StreamsCountedSeparately)
{
    MemConfig cfg;
    Cache c(cfg);
    c.readRef(0x0, true);
    c.readRef(0x100, false);
    EXPECT_EQ(c.stats().readRefsI, 1u);
    EXPECT_EQ(c.stats().readRefsD, 1u);
}

TEST(Cache, WriteThroughNoAllocate)
{
    MemConfig cfg;
    Cache c(cfg);
    c.writeRef(0x2000);
    EXPECT_EQ(c.stats().writeRefs, 1u);
    EXPECT_EQ(c.stats().writeHits, 0u);
    // The write did not allocate.
    EXPECT_FALSE(c.readRef(0x2000, false));
    c.fill(0x2000);
    c.writeRef(0x2000);
    EXPECT_EQ(c.stats().writeHits, 1u);
}

TEST(Cache, TwoWayKeepsConflictingBlocks)
{
    MemConfig cfg;
    Cache c(cfg);
    // Two addresses one "cache size / ways" apart share a set.
    uint32_t stride = cfg.cacheBytes / cfg.cacheWays;
    c.fill(0x0);
    c.fill(stride);
    EXPECT_TRUE(c.readRef(0x0, false));
    EXPECT_TRUE(c.readRef(stride, false));
    // A third conflicting block evicts one of them.
    c.fill(2 * stride);
    int hits = c.readRef(0x0, false) + c.readRef(stride, false) +
        c.readRef(2 * stride, false);
    EXPECT_EQ(hits, 2);
}

TEST(Cache, InvalidateAll)
{
    MemConfig cfg;
    Cache c(cfg);
    c.fill(0x40);
    c.invalidateAll();
    EXPECT_FALSE(c.readRef(0x40, false));
}

TEST(Cache, GeometryDerived)
{
    MemConfig cfg;
    Cache c(cfg);
    EXPECT_EQ(c.numSets() * c.numWays() * cfg.cacheBlockBytes,
              cfg.cacheBytes);
}

// ---------------- translation buffer ----------------

class TbTest : public ::testing::Test
{
  protected:
    MemConfig cfg;
    TranslationBuffer tb{cfg};
};

TEST_F(TbTest, MissThenInsertThenHit)
{
    PhysAddr pa;
    EXPECT_EQ(tb.lookup(0x1200, false, CpuMode::Kernel, false, &pa),
              TbResult::Miss);
    tb.insert(0x1200, pte::make(7, true, true));
    EXPECT_EQ(tb.lookup(0x1200, false, CpuMode::Kernel, false, &pa),
              TbResult::Hit);
    EXPECT_EQ(pa, 7u * pageBytes + 0x200u % pageBytes);
}

TEST_F(TbTest, ProtectionCheckedForUser)
{
    PhysAddr pa;
    tb.insert(0x1000, pte::make(1, true, false));
    EXPECT_EQ(tb.lookup(0x1000, false, CpuMode::User, false, &pa),
              TbResult::Hit);
    EXPECT_EQ(tb.lookup(0x1000, true, CpuMode::User, false, &pa),
              TbResult::AccessViolation);
    // Kernel may write regardless.
    EXPECT_EQ(tb.lookup(0x1000, true, CpuMode::Kernel, false, &pa),
              TbResult::Hit);
}

TEST_F(TbTest, SystemAndProcessHalvesIndependent)
{
    PhysAddr pa;
    tb.insert(0x00000000, pte::make(1, true, true)); // P0
    tb.insert(systemBase, pte::make(2, false, false)); // S0
    EXPECT_EQ(tb.lookup(0, false, CpuMode::Kernel, false, &pa),
              TbResult::Hit);
    EXPECT_EQ(tb.lookup(systemBase, false, CpuMode::Kernel, false,
                        &pa),
              TbResult::Hit);
    tb.invalidateProcess();
    EXPECT_EQ(tb.lookup(0, false, CpuMode::Kernel, false, &pa),
              TbResult::Miss);
    EXPECT_EQ(tb.lookup(systemBase, false, CpuMode::Kernel, false,
                        &pa),
              TbResult::Hit);
    EXPECT_EQ(tb.stats().processFlushes, 1u);
}

TEST_F(TbTest, DirectMappedConflict)
{
    PhysAddr pa;
    // Two P0 pages whose VPNs differ by the number of process
    // entries collide.
    uint32_t stride = cfg.tbProcessEntries * pageBytes;
    tb.insert(0, pte::make(1, true, true));
    tb.insert(stride, pte::make(2, true, true));
    EXPECT_EQ(tb.lookup(0, false, CpuMode::Kernel, false, &pa),
              TbResult::Miss);
    EXPECT_EQ(tb.lookup(stride, false, CpuMode::Kernel, false, &pa),
              TbResult::Hit);
}

TEST_F(TbTest, InvalidateSingle)
{
    PhysAddr pa;
    tb.insert(0x4000, pte::make(3, true, true));
    tb.invalidateSingle(0x4000);
    EXPECT_EQ(tb.lookup(0x4000, false, CpuMode::Kernel, false, &pa),
              TbResult::Miss);
}

TEST_F(TbTest, StatsCountByStream)
{
    PhysAddr pa;
    tb.lookup(0, false, CpuMode::Kernel, true, &pa);
    tb.lookup(0, false, CpuMode::Kernel, false, &pa);
    EXPECT_EQ(tb.stats().missesI, 1u);
    EXPECT_EQ(tb.stats().missesD, 1u);
    // Uncounted probes change nothing.
    tb.lookup(0, false, CpuMode::Kernel, false, &pa, false);
    EXPECT_EQ(tb.stats().lookupsD, 1u);
}

// ---------------- write buffer / SBI ----------------

TEST(WriteBuffer, DrainWindow)
{
    WriteBuffer wb;
    EXPECT_FALSE(wb.busy());
    wb.accept(6);
    EXPECT_TRUE(wb.busy());
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(wb.busy());
        wb.tick();
    }
    EXPECT_FALSE(wb.busy());
}

TEST(Sbi, TransactionCompletion)
{
    Sbi sbi;
    sbi.start(3);
    EXPECT_TRUE(sbi.busy());
    EXPECT_FALSE(sbi.tick());
    EXPECT_FALSE(sbi.tick());
    EXPECT_TRUE(sbi.tick()); // completes on the third tick
    EXPECT_FALSE(sbi.busy());
    EXPECT_EQ(sbi.transactions(), 1u);
}

// ---------------- MemSystem protocol ----------------

class MemSystemTest : public ::testing::Test
{
  protected:
    MemSystemTest() : mem(cfg)
    {
        mem.setMapEnable(false);
    }

    MemConfig cfg;
    MemSystem mem;
};

TEST_F(MemSystemTest, ReadHitAfterFill)
{
    mem.phys().write(0x100, 0xABCD1234, 4);
    // First read misses and starts a fill.
    MemResult r = mem.dataRead(0x100, 4, CpuMode::Kernel);
    EXPECT_EQ(r.status, MemStatus::Stall);
    unsigned stall_cycles = 0;
    while (!mem.eboxReadDone()) {
        mem.tick();
        ++stall_cycles;
        ASSERT_LT(stall_cycles, 20u);
    }
    EXPECT_EQ(stall_cycles, cfg.readMissPenalty + 1);
    EXPECT_EQ(mem.takeEboxReadData(), 0xABCD1234u);
    mem.tick();
    // Second read hits in the same cycle.
    r = mem.dataRead(0x100, 4, CpuMode::Kernel);
    EXPECT_EQ(r.status, MemStatus::Ok);
    EXPECT_EQ(r.data, 0xABCD1234u);
}

TEST_F(MemSystemTest, WriteBufferStall)
{
    MemResult r = mem.dataWrite(0x200, 1, 4, CpuMode::Kernel);
    EXPECT_EQ(r.status, MemStatus::Ok);
    EXPECT_EQ(mem.phys().read(0x200, 4), 1u); // write-through now
    // A second write within the drain window stalls.
    r = mem.dataWrite(0x204, 2, 4, CpuMode::Kernel);
    EXPECT_EQ(r.status, MemStatus::Stall);
    unsigned waited = 0;
    while (!mem.eboxWriteDone()) {
        mem.tick();
        ++waited;
        ASSERT_LT(waited, 20u);
    }
    mem.ackEboxWriteDone();
    EXPECT_EQ(mem.phys().read(0x204, 4), 2u);
    EXPECT_LE(waited, cfg.writeDrainCycles);
}

TEST_F(MemSystemTest, UnalignedDetected)
{
    EXPECT_EQ(mem.dataRead(0x101, 4, CpuMode::Kernel).status,
              MemStatus::Unaligned);
    EXPECT_EQ(mem.dataRead(0x103, 2, CpuMode::Kernel).status,
              MemStatus::Unaligned);
    // Bytes never cross; word at offset 2 fits.
    EXPECT_NE(mem.dataRead(0x103, 1, CpuMode::Kernel).status,
              MemStatus::Unaligned);
}

TEST_F(MemSystemTest, TbMissReportedWhenMapped)
{
    mem.setMapEnable(true);
    EXPECT_EQ(mem.dataRead(0x100, 4, CpuMode::Kernel).status,
              MemStatus::TbMiss);
    mem.tb().insert(0x100, pte::make(0, true, true));
    EXPECT_NE(mem.dataRead(0x100, 4, CpuMode::Kernel).status,
              MemStatus::TbMiss);
}

TEST_F(MemSystemTest, EboxHasPriorityOverIb)
{
    // Start an IB fill, then request an EBOX read: the EBOX read is
    // queued and completes after the IB fill.
    IbResult ib = mem.ibFetch(0x300, CpuMode::Kernel);
    EXPECT_EQ(ib.status, IbStatus::Wait);
    MemResult r = mem.dataRead(0x400, 4, CpuMode::Kernel);
    EXPECT_EQ(r.status, MemStatus::Stall);
    unsigned cycles = 0;
    bool ib_done_first = false;
    while (!mem.eboxReadDone()) {
        mem.tick();
        if (mem.ibFillDone() && !mem.eboxReadDone())
            ib_done_first = true;
        ++cycles;
        ASSERT_LT(cycles, 40u);
    }
    EXPECT_TRUE(ib_done_first);
    EXPECT_GT(cycles, cfg.readMissPenalty + 1);
    mem.takeEboxReadData();
    EXPECT_TRUE(mem.ibFillDone());
    mem.takeIbFillData();
}

TEST_F(MemSystemTest, IoWriteHookFires)
{
    PhysAddr seen_pa = 0;
    uint32_t seen_val = 0;
    mem.addIoWriteHook(0x500, 0x50F,
                       [&](PhysAddr pa, uint32_t v) {
                           seen_pa = pa;
                           seen_val = v;
                       });
    mem.dataWrite(0x508, 77, 4, CpuMode::Kernel);
    EXPECT_EQ(seen_pa, 0x508u);
    EXPECT_EQ(seen_val, 77u);
    // Outside the window: no fire.
    seen_pa = 0;
    while (mem.writeBuffer().busy())
        mem.tick();
    mem.dataWrite(0x510, 88, 4, CpuMode::Kernel);
    EXPECT_EQ(seen_pa, 0u);
}

TEST_F(MemSystemTest, IbFetchHitDeliversImmediately)
{
    mem.phys().write(0x600, 0x11223344, 4);
    mem.cache().fill(0x600);
    IbResult r = mem.ibFetch(0x600, CpuMode::Kernel);
    EXPECT_EQ(r.status, IbStatus::Data);
    EXPECT_EQ(r.data, 0x11223344u);
}

} // namespace vax::test
