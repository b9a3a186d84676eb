/**
 * @file
 * Unit tests of the support library: bit utilities, the deterministic
 * RNG, and the table formatter.
 */

#include <gtest/gtest.h>

#include <vector>

#include "support/bitutil.hh"
#include "support/parse.hh"
#include "support/random.hh"
#include "support/table.hh"

namespace vax::test
{

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xDEADBEEF, 7, 0), 0xEFu);
    EXPECT_EQ(bits(0xDEADBEEF, 15, 8), 0xBEu);
    EXPECT_EQ(bits(0xDEADBEEF, 31, 28), 0xDu);
    EXPECT_EQ(bits(0xFFFFFFFF, 31, 0), 0xFFFFFFFFu);
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(sext(0x80, 8), -128);
    EXPECT_EQ(sext(0x7F, 8), 127);
    EXPECT_EQ(sext(0xFF, 8), -1);
    EXPECT_EQ(sext(0x8000, 16), -32768);
    EXPECT_EQ(sext(0x1234, 16), 0x1234);
    EXPECT_EQ(sext(0xFFFFFFFF, 32), -1);
}

TEST(BitUtil, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 16), 0x1230u);
    EXPECT_EQ(alignUp(0x1234, 16), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 16), 0x1240u);
    EXPECT_TRUE(isAligned(0x100, 4));
    EXPECT_FALSE(isAligned(0x101, 4));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(512), 9u);
    EXPECT_EQ(floorLog2(513), 9u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(65));
    EXPECT_FALSE(isPowerOf2(0));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int32_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng r(17);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.geometric(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng r(19);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(r.geometric(1.5), 1u);
}

TEST(Rng, PickWeightedRespectsZeros)
{
    Rng r(23);
    for (int i = 0; i < 500; ++i) {
        size_t pick = r.pickWeighted({0.0, 1.0, 0.0});
        EXPECT_EQ(pick, 1u);
    }
}

TEST(Rng, FillLongsMatchesSerialDraws)
{
    // Long fills run four jumped-ahead quarters of the stream side by
    // side; the bytes and the final state must be exactly the serial
    // ones, at lengths that do and do not split into lanes evenly.
    for (size_t n : {0, 1, 255, 256, 257, 1023, 14336, 100003}) {
        Rng bulk(31 + n), serial(31 + n);
        std::vector<uint8_t> got(4 * n + 1, 0xEE);
        bulk.fillLongs(got.data(), n);
        for (size_t i = 0; i < n; ++i) {
            uint32_t v = static_cast<uint32_t>(serial.next());
            ASSERT_EQ(got[4 * i] | got[4 * i + 1] << 8 |
                          got[4 * i + 2] << 16 |
                          uint32_t(got[4 * i + 3]) << 24,
                      v)
                << "n=" << n << " i=" << i;
        }
        EXPECT_EQ(got[4 * n], 0xEE) << "n=" << n; // nothing past the end
        EXPECT_EQ(bulk.state(), serial.state()) << "n=" << n;
    }
}

TEST(Rng, PickWeightedProportions)
{
    Rng r(29);
    int counts[3] = {};
    for (int i = 0; i < 30000; ++i)
        ++counts[r.pickWeighted({1.0, 2.0, 1.0})];
    EXPECT_NEAR(counts[1] / 30000.0, 0.5, 0.02);
    EXPECT_NEAR(counts[0] / 30000.0, 0.25, 0.02);
}

TEST(TextTable, FormatsAligned)
{
    TextTable t("caption");
    t.addRow({"Name", "Value"});
    t.addRow({"alpha", "1.00"});
    t.addRow({"b", "22.50"});
    std::string s = t.str();
    EXPECT_NE(s.find("caption"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22.50"), std::string::npos);
}

TEST(TextTable, NumberHelpers)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::pct(12.345, 1), "12.3%");
    EXPECT_EQ(TextTable::count(1234567), "1,234,567");
    EXPECT_EQ(TextTable::count(999), "999");
}

TEST(ParseCount, AcceptsWholeUnsignedNumbersUpToTheMax)
{
    EXPECT_EQ(parseCount("0", 0), 0u);
    EXPECT_EQ(parseCount("42", 42), 42u);
    EXPECT_EQ(parseCount("0x10", UINT64_MAX), 16u);
    EXPECT_EQ(parseCount("010", UINT64_MAX), 8u);
    EXPECT_EQ(parseCount("18446744073709551615", UINT64_MAX), UINT64_MAX);
    // strtoull alone takes every one of these: a sign ("-1" wraps to
    // 2^64-1), a leading blank, trailing junk, a saturated overflow.
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x",
                            "18446744073709551616"})
        EXPECT_FALSE(parseCount(bad, UINT64_MAX)) << "'" << bad << "'";
    EXPECT_FALSE(parseCount("43", 42));
    EXPECT_FALSE(parseCount("4294967296", UINT32_MAX));
}

} // namespace vax::test
