/**
 * @file
 * Counter-record tests: each record's table (support/counters.hh)
 * against an independent listing of the registry names, descriptions
 * and serialization order that every stats dump, checkpoint and
 * campaign .result already carries, and the walkers that merge, save,
 * restore and register those records.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "support/archive.hh"
#include "support/counters.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

/** One counter as the dumps know it.  Listed here by hand, so a
 *  table entry that renames, re-describes, reorders or re-targets a
 *  counter fails instead of silently changing a dump. */
template <class R>
struct Want
{
    const char *name;
    const char *desc;
    uint64_t R::*member;
};

const Want<HwCounters> kHwWant[] = {
    {"cycles", "machine cycles (200 ns each)", &HwCounters::cycles},
    {"instructions", "instructions retired (decode-complete)",
     &HwCounters::instructions},
    {"specifiers", "operand specifiers decoded", &HwCounters::specifiers},
    {"firstSpecifiers", "first specifiers decoded",
     &HwCounters::firstSpecifiers},
    {"indexedSpecifiers", "indexed specifiers decoded",
     &HwCounters::indexedSpecifiers},
    {"bdispBytes", "branch-displacement bytes consumed",
     &HwCounters::bdispBytes},
    {"bdispCount", "instructions with a bdisp field",
     &HwCounters::bdispCount},
    {"immediateBytes", "immediate/absolute specifier bytes",
     &HwCounters::immediateBytes},
    {"dispBytes", "displacement bytes in specifiers",
     &HwCounters::dispBytes},
    {"unalignedRefs", "alignment microtraps", &HwCounters::unalignedRefs},
    {"microTraps", "microtraps taken (abort cycles)",
     &HwCounters::microTraps},
    {"interrupts", "interrupt microcode entries", &HwCounters::interrupts},
    {"contextSwitches", "LDPCTX executions", &HwCounters::contextSwitches},
    {"chmkCalls", "CHMK system services", &HwCounters::chmkCalls},
};

const Want<CacheStats> kCacheWant[] = {
    {"readRefsI", "I-stream read references", &CacheStats::readRefsI},
    {"readMissesI", "I-stream read misses", &CacheStats::readMissesI},
    {"readRefsD", "D-stream read references", &CacheStats::readRefsD},
    {"readMissesD", "D-stream read misses", &CacheStats::readMissesD},
    {"writeRefs", "write references (write-through)",
     &CacheStats::writeRefs},
    {"writeHits", "write hits", &CacheStats::writeHits},
};

const Want<TbStats> kTbWant[] = {
    {"lookupsI", "I-stream TB lookups", &TbStats::lookupsI},
    {"missesI", "I-stream TB misses", &TbStats::missesI},
    {"lookupsD", "D-stream TB lookups", &TbStats::lookupsD},
    {"missesD", "D-stream TB misses", &TbStats::missesD},
    {"processFlushes", "process-half invalidations (LDPCTX)",
     &TbStats::processFlushes},
};

const Want<FaultStats> kFaultWant[] = {
    {"parityErrors", "cache parity errors injected",
     &FaultStats::parityErrors},
    {"tbCorruptions", "TB entries corrupted", &FaultStats::tbCorruptions},
    {"sbiTimeouts", "SBI fill transactions timed out",
     &FaultStats::sbiTimeouts},
    {"machineChecks", "machine-check microcode dispatches",
     &FaultStats::machineChecks},
    {"cacheDisables", "cache degradation fallbacks",
     &FaultStats::cacheDisables},
    {"osMachineChecks", "guest machine-check handler entries",
     &FaultStats::osMachineChecks},
};

const Want<HwTotals> kTotalsWant[] = {
    {"ibLongwordFetches", "I-stream longwords fetched into the IB",
     &HwTotals::ibLongwordFetches},
    {"dataReads", "EBOX D-stream reads", &HwTotals::dataReads},
    {"dataWrites", "EBOX D-stream writes", &HwTotals::dataWrites},
    {"terminalLinesIn", "terminal lines injected by the RTE",
     &HwTotals::terminalLinesIn},
    {"terminalLinesOut", "terminal lines written by the kernel",
     &HwTotals::terminalLinesOut},
    {"diskTransfers", "disk transfers completed",
     &HwTotals::diskTransfers},
};

/** A one-section image whose payload @p put writes, the way every
 *  caller embeds a record. */
template <class Put>
std::vector<uint8_t>
sectionImage(Put put)
{
    snap::Serializer s;
    s.beginSection("rec");
    put(s);
    s.endSection();
    return s.finish();
}

/** A record's own counters, as an archive walks its fields[] table
 *  (HwTotals' nested records are not its own). */
template <class R>
struct Own
{
    R &rec;

    template <class A>
    void
    fields(A &a)
    {
        a.counters(rec);
    }
};

/** Fill every counter of @p rec with a distinct value from @p base. */
template <class R, size_t N>
void
fill(R &rec, const Want<R> (&want)[N], uint64_t base)
{
    for (size_t i = 0; i < N; ++i)
        rec.*want[i].member = base + i;
}

/** Merge, save/restore, registration and any() of one flat record. */
template <class R, size_t N>
void
checkRecord(const Want<R> (&want)[N])
{
    ASSERT_EQ(std::size(R::fields), N);
    R a, b;
    fill(a, want, 100);
    fill(b, want, 1000);

    R sum = a;
    counter::accumulate(sum, b, 3);
    for (size_t i = 0; i < N; ++i)
        EXPECT_EQ(sum.*want[i].member, (100 + i) + 3 * (1000 + i))
            << want[i].name;

    std::vector<uint8_t> image = sectionImage(
        [&a](snap::Serializer &s) { snap::save(s, Own<R>{a}); });
    EXPECT_EQ(image, sectionImage([&](snap::Serializer &s) {
                  for (const Want<R> &w : want)
                      s.putU64(a.*w.member);
              }));
    snap::Deserializer d(image);
    d.beginSection("rec");
    R back;
    Own<R> own{back};
    snap::restore(d, own);
    d.endSection();
    d.finish();
    for (const Want<R> &w : want)
        EXPECT_EQ(back.*w.member, a.*w.member) << w.name;

    stats::Registry reg;
    counter::regStats(reg, "rec", a);
    EXPECT_EQ(reg.size(), N);
    for (const Want<R> &w : want) {
        const stats::Registry::Stat *st =
            reg.find(std::string("rec.") + w.name);
        ASSERT_NE(st, nullptr) << w.name;
        EXPECT_EQ(st->kind, stats::Registry::Kind::Scalar) << w.name;
        EXPECT_EQ(st->desc, w.desc) << w.name;
        EXPECT_EQ(st->asScalar(), a.*w.member) << w.name;
    }

    EXPECT_FALSE(counter::any(R()));
    for (const Want<R> &w : want) {
        R one;
        one.*w.member = 1;
        EXPECT_TRUE(counter::any(one)) << w.name;
    }
}

/** One HwTotals counter by its name under a registry prefix. */
struct Flat
{
    std::string name;
    const char *desc;
    std::function<uint64_t &(HwTotals &)> ref;
};

/** Every HwTotals counter in .result order: the nested records, then
 *  the record's own. */
std::vector<Flat>
allTotals()
{
    std::vector<Flat> out;
    auto nest = [&out](const std::string &prefix, const auto &want,
                       auto sub) {
        for (const auto &w : want)
            out.push_back({prefix + w.name, w.desc,
                           [m = w.member, sub](HwTotals &h)
                               -> uint64_t & { return (h.*sub).*m; }});
    };
    nest("", kHwWant, &HwTotals::counters);
    nest("cache.", kCacheWant, &HwTotals::cache);
    nest("tb.", kTbWant, &HwTotals::tb);
    nest("faults.", kFaultWant, &HwTotals::faults);
    for (const Want<HwTotals> &w : kTotalsWant)
        out.push_back({w.name, w.desc,
                       [m = w.member](HwTotals &h) -> uint64_t & {
                           return h.*m;
                       }});
    return out;
}

} // anonymous namespace

TEST(CounterRecords, HwCounters) { checkRecord(kHwWant); }
TEST(CounterRecords, CacheStats) { checkRecord(kCacheWant); }
TEST(CounterRecords, TbStats) { checkRecord(kTbWant); }
TEST(CounterRecords, FaultStats) { checkRecord(kFaultWant); }
TEST(CounterRecords, HwTotalsOwnCounters) { checkRecord(kTotalsWant); }

TEST(CounterRecords, HwTotalsWalksEveryNestedRecord)
{
    std::vector<Flat> all = allTotals();
    ASSERT_EQ(all.size(), 37u);
    HwTotals a, b;
    for (size_t i = 0; i < all.size(); ++i) {
        all[i].ref(a) = 100 + i;
        all[i].ref(b) = 5000 + i;
    }

    HwTotals sum = a;
    sum.add(b, 3);
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].ref(sum), (100 + i) + 3 * (5000 + i))
            << all[i].name;

    std::vector<uint8_t> image =
        sectionImage([&a](snap::Serializer &s) { snap::save(s, a); });
    EXPECT_EQ(image, sectionImage([&](snap::Serializer &s) {
                  for (const Flat &f : all)
                      s.putU64(f.ref(a));
              }));
    snap::Deserializer d(image);
    d.beginSection("rec");
    HwTotals back;
    snap::restore(d, back);
    d.endSection();
    d.finish();
    for (const Flat &f : all)
        EXPECT_EQ(f.ref(back), f.ref(a)) << f.name;

    stats::Registry reg;
    a.regStats(reg, "composite");
    EXPECT_EQ(reg.size(), all.size());
    for (const Flat &f : all) {
        const stats::Registry::Stat *st = reg.find("composite." + f.name);
        ASSERT_NE(st, nullptr) << f.name;
        EXPECT_EQ(st->kind, stats::Registry::Kind::Scalar) << f.name;
        EXPECT_EQ(st->desc, f.desc) << f.name;
        EXPECT_EQ(st->asScalar(), f.ref(a)) << f.name;
    }

    // A fault-free record registers no .faults.* at all, so fault-free
    // dumps keep the bytes they had before fault injection existed.
    HwTotals clean = a;
    clean.faults = FaultStats();
    stats::Registry clean_reg;
    clean.regStats(clean_reg, "composite");
    EXPECT_EQ(clean_reg.size(), all.size() - std::size(kFaultWant));
    for (const stats::Registry::Stat *st : clean_reg.sorted())
        EXPECT_EQ(st->name.find(".faults."), std::string::npos)
            << st->name;
}

} // namespace vax::test
