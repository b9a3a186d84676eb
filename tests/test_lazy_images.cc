/**
 * @file
 * Deferred user images: PhysicalMemory::defer, the memory system's
 * first-touch hooks, and the Experiment that generates each user's
 * image only when the machine first touches it.
 *
 * The bar is exactness: a machine that builds its images on demand
 * must be, in every checkpoint byte and every stats dump, the machine
 * that built them all at construction.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/sim_pool.hh"
#include "mem/mem_system.hh"
#include "support/archive.hh"
#include "support/stats.hh"
#include "tests/field_walk.hh"
#include "workload/codegen.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

constexpr PhysAddr kRegion = 0x10000;
constexpr uint32_t kRegionBytes = 4 * pageBytes;

/** The producer's bytes: shorter than the region, as an image is
 *  shorter than its P0 region, and nowhere zero. */
std::vector<uint8_t>
pattern()
{
    std::vector<uint8_t> b(3 * pageBytes + 100);
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<uint8_t>(0x80 | (i * 37));
    return b;
}

uint32_t
patternLong(uint32_t off)
{
    std::vector<uint8_t> b = pattern();
    return b[off] | b[off + 1] << 8 | b[off + 2] << 16 |
        uint32_t(b[off + 3]) << 24;
}

/** A bare memory system (unmapped: physical = virtual) with one
 *  deferred region whose producer counts its runs. */
struct DeferredRig
{
    DeferredRig() : mem(MemConfig())
    {
        mem.setMapEnable(false);
        mem.phys().defer(kRegion, kRegionBytes, [this] {
            ++produced;
            return pattern();
        });
    }

    /** The region was produced once: it holds the pattern, then
     *  zeros, except for the longword a test wrote at written_off. */
    void
    expectProduced(uint32_t written_off = kRegionBytes,
                   uint32_t written = 0)
    {
        EXPECT_EQ(produced, 1u);
        EXPECT_EQ(mem.phys().pendingRegions(), 0u);
        std::vector<uint8_t> want = pattern();
        want.resize(kRegionBytes);
        for (unsigned i = 0; written_off < kRegionBytes && i < 4; ++i)
            want[written_off + i] = static_cast<uint8_t>(written >> (8 * i));
        for (uint32_t off = 0; off < kRegionBytes; ++off)
            ASSERT_EQ(mem.phys().readByte(kRegion + off), want[off])
                << "offset " << off;
    }

    MemSystem mem;
    unsigned produced = 0;
};

template <class Done>
void
tickUntil(MemSystem &mem, Done done)
{
    for (unsigned i = 0; !done(); ++i) {
        ASSERT_LT(i, 40u);
        mem.tick();
    }
}

/** The whole simulated machine as one byte image. */
std::vector<uint8_t>
machineBytes(const Experiment &e)
{
    snap::Serializer s;
    e.save(s);
    return s.finish();
}

/** A part's stats dump, as a composite registers it. */
std::string
dump(Experiment &e)
{
    ExperimentResult r = e.takeResult();
    stats::Registry reg;
    r.hw.regStats(reg, "part");
    r.hist.regStats(reg, "part.upc");
    return reg.dumpJson();
}

Experiment
build(const WorkloadProfile &p, uint64_t cycles)
{
    SimJob job = SimJob::forProfile(p, cycles);
    return Experiment(job.profile, job.cycles, job.sim, job.vms,
                      job.limits);
}

} // anonymous namespace

// ---------------- the deferral facility ----------------

TEST(DeferredRegion, MissesOutsideTheRegionLeaveItPending)
{
    DeferredRig rig;
    rig.mem.phys().write(kRegion - 4, 0x1234, 4);
    ASSERT_EQ(rig.mem.dataRead(kRegion - 4, 4, CpuMode::Kernel).status,
              MemStatus::Stall);
    tickUntil(rig.mem, [&] { return rig.mem.eboxReadDone(); });
    EXPECT_EQ(rig.mem.takeEboxReadData(), 0x1234u);
    EXPECT_EQ(rig.mem.dataWrite(kRegion + kRegionBytes, 1, 4,
                                CpuMode::Kernel).status,
              MemStatus::Ok);
    EXPECT_EQ(rig.produced, 0u);
    EXPECT_EQ(rig.mem.phys().pendingRegions(), 1u);
    EXPECT_EQ(rig.mem.phys().read(kRegion, 4), 0u);
}

TEST(DeferredRegion, DStreamReadMissProducesTheRegion)
{
    DeferredRig rig;
    const uint32_t off = 2 * pageBytes + 8;
    ASSERT_EQ(rig.mem.dataRead(kRegion + off, 4, CpuMode::Kernel).status,
              MemStatus::Stall);
    tickUntil(rig.mem, [&] { return rig.mem.eboxReadDone(); });
    EXPECT_EQ(rig.mem.takeEboxReadData(), patternLong(off));
    rig.expectProduced();

    // Another block of the region misses too, but produces nothing.
    rig.mem.tick();
    ASSERT_EQ(rig.mem.dataRead(kRegion + 64, 4, CpuMode::Kernel).status,
              MemStatus::Stall);
    tickUntil(rig.mem, [&] { return rig.mem.eboxReadDone(); });
    EXPECT_EQ(rig.mem.takeEboxReadData(), patternLong(64));
    EXPECT_EQ(rig.produced, 1u);
}

TEST(DeferredRegion, PhysReadMissProducesTheRegion)
{
    DeferredRig rig;
    const uint32_t off = pageBytes + 12;
    ASSERT_EQ(rig.mem.physRead(kRegion + off).status, MemStatus::Stall);
    tickUntil(rig.mem, [&] { return rig.mem.eboxReadDone(); });
    EXPECT_EQ(rig.mem.takeEboxReadData(), patternLong(off));
    rig.expectProduced();
}

TEST(DeferredRegion, IbFetchMissProducesTheRegion)
{
    DeferredRig rig;
    const uint32_t off = 3 * pageBytes + 4;
    ASSERT_EQ(rig.mem.ibFetch(kRegion + off, CpuMode::Kernel).status,
              IbStatus::Wait);
    tickUntil(rig.mem, [&] { return rig.mem.ibFillDone(); });
    EXPECT_EQ(rig.mem.takeIbFillData(), patternLong(off));
    rig.expectProduced();
}

TEST(DeferredRegion, FirstTouchWriteLandsOnTheProducedBytes)
{
    DeferredRig rig;
    const uint32_t off = 40;
    EXPECT_EQ(rig.mem.dataWrite(kRegion + off, 0xDEADBEEF, 4,
                                CpuMode::Kernel).status,
              MemStatus::Ok);
    rig.expectProduced(off, 0xDEADBEEF);
}

TEST(DeferredRegion, SaveProducesPendingRegionsAndRestoreDropsThem)
{
    // An untouched deferred region saves as if it had been loaded.
    DeferredRig lazy;
    MemSystem eager{MemConfig()};
    eager.setMapEnable(false);
    eager.phys().load(kRegion, pattern());
    snap::Serializer a, b;
    snap::save(a, lazy.mem);
    snap::save(b, eager);
    std::vector<uint8_t> ckpt = a.finish();
    EXPECT_EQ(ckpt, b.finish());
    EXPECT_EQ(lazy.produced, 1u);

    // Restored over a fresh deferral, the snapshot's bytes win: a
    // later touch does not produce the region over them.
    DeferredRig restored;
    snap::Deserializer d(ckpt);
    snap::restore(d, restored.mem);
    d.finish();
    EXPECT_EQ(restored.mem.phys().pendingRegions(), 0u);
    restored.mem.phys().write(kRegion + 8, 0x55, 4);
    EXPECT_EQ(restored.mem.dataWrite(kRegion + 4, 7, 4,
                                     CpuMode::Kernel).status,
              MemStatus::Ok);
    EXPECT_EQ(restored.produced, 0u);
    EXPECT_EQ(restored.mem.phys().read(kRegion, 4), patternLong(0));
    EXPECT_EQ(restored.mem.phys().read(kRegion + 4, 4), 7u);
    EXPECT_EQ(restored.mem.phys().read(kRegion + 8, 4), 0x55u);
}

// ---------------- images on demand ----------------

TEST(LazyImages, FreshExperimentHasGeneratedNoImage)
{
    for (const WorkloadProfile &p : allProfiles()) {
        Experiment e = build(p, 250'000);
        EXPECT_EQ(e.pendingImages(), p.numUsers) << p.name;
    }
}

TEST(LazyImages, OnlyDispatchedUsersAreGenerated)
{
    // At 250k cycles a part, 35 of the 157 users are ever dispatched.
    const size_t dispatched[] = {5, 6, 13, 4, 7};
    size_t i = 0;
    for (const WorkloadProfile &p : allProfiles()) {
        Experiment e = build(p, 250'000);
        e.runChunk();
        EXPECT_EQ(p.numUsers - e.pendingImages(), dispatched[i++])
            << p.name;
    }
}

TEST(LazyImages, EveryUserIsGeneratedAtFourMillionCycles)
{
    for (const WorkloadProfile &p : allProfiles()) {
        Experiment e = build(p, 4'000'000);
        e.runChunk();
        EXPECT_EQ(e.pendingImages(), 0u) << p.name;
    }
}

TEST(LazyImages, LazyMachineMatchesAnEagerOne)
{
    for (const WorkloadProfile &p : allProfiles()) {
        SCOPED_TRACE(p.name);
        // Saving right after construction generates every image.
        Experiment eager = build(p, 250'000);
        machineBytes(eager);
        ASSERT_EQ(eager.pendingImages(), 0u);
        Experiment lazy = build(p, 250'000);
        eager.runChunk();
        lazy.runChunk();
        ASSERT_GT(lazy.pendingImages(), 0u);
        EXPECT_TRUE(machineBytes(eager) == machineBytes(lazy))
            << firstDifference(eager, lazy);
        EXPECT_EQ(dump(eager), dump(lazy));
    }
}

TEST(LazyImages, MidRunCheckpointResumesInAFreshExperiment)
{
    for (const WorkloadProfile &p : allProfiles()) {
        SCOPED_TRACE(p.name);
        Experiment first = build(p, 250'000);
        first.runChunk(175'000);
        // Several users have run, writing their data and stacks.
        ASSERT_LE(first.pendingImages() + 3, p.numUsers);
        std::vector<uint8_t> ckpt = machineBytes(first);

        Experiment second = build(p, 250'000);
        snap::Deserializer d(ckpt);
        second.restore(d);
        d.finish();
        EXPECT_EQ(second.pendingImages(), 0u);
        first.runChunk();
        second.runChunk();
        EXPECT_TRUE(machineBytes(first) == machineBytes(second))
            << firstDifference(first, second);
        EXPECT_EQ(dump(first), dump(second));
    }
}

TEST(LazyImages, OversizedImageDiesWhenItsProcessFirstRuns)
{
    const WorkloadProfile p = allProfiles()[0];
    SimJob job = SimJob::forProfile(p, 250'000);
    // Room for the data regions and the entry point, not the code.
    job.vms.userP0Pages = CodeGenerator::entryPoint(p) / pageBytes + 1;
    UserProgram prog = CodeGenerator(p, p.seed * 0x9E3779B1ULL + 1)
                           .generate(0);
    ASSERT_GT(prog.image.size(), job.vms.userP0Pages * pageBytes);

    // Registering the processes no longer builds their images...
    Experiment e(job.profile, job.cycles, job.sim, job.vms, job.limits);
    EXPECT_EQ(e.pendingImages(), p.numUsers);
    // ...so the check fires when the first process runs.
    EXPECT_DEATH(e.runChunk(), "exceeds its P0 region");
    // An image handed over whole is checked at once.
    EXPECT_DEATH(
        {
            Cpu780 cpu(job.sim);
            UpcMonitor monitor;
            VmsLite os(cpu, monitor, job.vms);
            os.addProcess(prog);
        },
        "exceeds its P0 region");
}

} // namespace vax::test
