/**
 * @file
 * Construction digests: every byte that code generation and VMS-lite
 * boot lay down, pinned against committed values.
 *
 * Codegen.Deterministic compares the generator with itself, so a
 * change that alters every image the same way passes it.  These
 * digests do not: for each built-in profile they hash the users'
 * programs (Experiment's per-user seeds) and the checkpoint of a
 * freshly built 250k-cycle Experiment -- guest memory, processor and
 * monitor state, kernel layout and RTE streams.  Any change to the
 * assembler, the generator's draw order or the boot layout moves one.
 *
 * A fresh machine's TB entries, EBOX latches, trap stack and in-flight
 * memory operations are all zero, so its checkpoint cannot tell two
 * such fields apart.  The mid-run digests hash the same job's
 * checkpoint at cycle 175,000, where they are live: any change to
 * what a checkpoint carries, or in which order, moves one.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/sim_pool.hh"
#include "support/snapshot.hh"
#include "workload/codegen.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t
fnv1a(uint64_t h, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
fnv1aU32(uint64_t h, uint32_t v)
{
    const uint8_t b[4] = {uint8_t(v), uint8_t(v >> 8), uint8_t(v >> 16),
                          uint8_t(v >> 24)};
    return fnv1a(h, b, sizeof b);
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

struct Golden
{
    const char *profile;
    uint64_t images;  ///< every user's entry point and image, in order
    uint64_t machine; ///< Experiment::save bytes before the first cycle
    uint64_t midRun;  ///< Experiment::save bytes at kMidRunCycle
};

constexpr uint64_t kMidRunCycle = 175000;

const Golden kGolden[] = {
    {"timesharing-light", 0xe689552362a1fea8ULL, 0x441032f2916e7cedULL,
     0x6a9a0da3f9eda63fULL},
    {"timesharing-heavy", 0x6e8d9919ea126016ULL, 0x4882747836bac3e9ULL,
     0x125ec299f60f76a2ULL},
    {"educational", 0x7b23be278fb7c6efULL, 0x7b5c11f9a52ccedfULL,
     0x364a841e6c112f03ULL},
    {"scientific", 0x9d644b3024a2b85bULL, 0xe80ecd3ae3876446ULL,
     0x5bf529d28b231c02ULL},
    {"commercial", 0x2b4c01500aff6d4aULL, 0x4987fed86c4a7443ULL,
     0xc67e0f0a29e2025bULL},
};

const Golden &
goldenFor(const std::string &name)
{
    for (const Golden &g : kGolden)
        if (name == g.profile)
            return g;
    ADD_FAILURE() << "no committed digest for profile " << name;
    return kGolden[0];
}

const char *const kRegenerate =
    "construction changed: if the new bytes are intended, commit the "
    "printed digest in tests/test_construction.cc";

} // anonymous namespace

TEST(ConstructionDigest, UserImagesMatchCommittedDigests)
{
    for (const WorkloadProfile &p : allProfiles()) {
        uint64_t h = kFnvBasis;
        for (unsigned u = 0; u < p.numUsers; ++u) {
            // Experiment's per-user seed, so these are its programs.
            CodeGenerator gen(p, p.seed * 0x9E3779B1ULL + 17 * u + 1);
            UserProgram prog = gen.generate(u);
            h = fnv1aU32(h, prog.entry);
            h = fnv1a(h, prog.image.data(), prog.image.size());
        }
        EXPECT_EQ(hex(h), hex(goldenFor(p.name).images))
            << p.name << ": " << kRegenerate;
    }
}

namespace
{

/** FNV-1a of the 250k-cycle job's checkpoint after @p cycles. */
uint64_t
checkpointDigest(const WorkloadProfile &p, uint64_t cycles)
{
    SimJob job = SimJob::forProfile(p, 250000);
    Experiment exp(job.profile, job.cycles, job.sim, job.vms,
                   job.limits);
    if (cycles)
        exp.runChunk(cycles);
    snap::Serializer s;
    exp.save(s);
    std::vector<uint8_t> bytes = s.finish();
    return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

} // anonymous namespace

TEST(ConstructionDigest, BootedMachinesMatchCommittedDigests)
{
    for (const WorkloadProfile &p : allProfiles())
        EXPECT_EQ(hex(checkpointDigest(p, 0)),
                  hex(goldenFor(p.name).machine))
            << p.name << ": " << kRegenerate;
}

TEST(ConstructionDigest, MidRunCheckpointsMatchCommittedDigests)
{
    for (const WorkloadProfile &p : allProfiles())
        EXPECT_EQ(hex(checkpointDigest(p, kMidRunCycle)),
                  hex(goldenFor(p.name).midRun))
            << p.name << ": " << kRegenerate;
}

} // namespace vax::test
