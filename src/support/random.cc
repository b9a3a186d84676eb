#include "support/random.hh"

#include <array>
#include <cmath>

#include "support/logging.hh"

namespace vax
{

namespace
{

/** A 64x64 matrix over GF(2), stored by column. */
struct BitMatrix
{
    uint64_t col[64];
};

constexpr uint64_t
apply(const BitMatrix &m, uint64_t x)
{
    uint64_t y = 0;
    for (unsigned j = 0; j < 64; ++j)
        y ^= m.col[j] & (0 - ((x >> j) & 1));
    return y;
}

/** jumps[k] is the transition 2^k draws long: Rng::step applied 2^k
 *  times.  Computed at compile time by repeated squaring. */
constexpr unsigned kJumpLevels = 24;
constexpr auto jumps = [] {
    std::array<BitMatrix, kJumpLevels> t{};
    for (unsigned j = 0; j < 64; ++j)
        t[0].col[j] = Rng::step(uint64_t(1) << j);
    for (unsigned k = 1; k < kJumpLevels; ++k)
        for (unsigned j = 0; j < 64; ++j)
            t[k].col[j] = apply(t[k - 1], t[k - 1].col[j]);
    return t;
}();

/** The state d draws after state x. */
uint64_t
jump(uint64_t x, uint64_t d)
{
    upc_assert(d < (uint64_t(1) << kJumpLevels));
    for (unsigned k = 0; d; ++k, d >>= 1)
        if (d & 1)
            x = apply(jumps[k], x);
    return x;
}

inline void
storeLe32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

} // anonymous namespace

Rng::Rng(uint64_t seed)
    : state_(seed ? seed : 0x9e3779b97f4a7c15ULL)
{
    // Warm the state so that small seeds diverge quickly.
    for (int i = 0; i < 4; ++i)
        next();
}

int32_t
Rng::range(int32_t lo, int32_t hi)
{
    upc_assert(lo <= hi);
    uint32_t span = static_cast<uint32_t>(hi - lo) + 1;
    return lo + static_cast<int32_t>(span == 0 ? next() : below(span));
}

uint32_t
Rng::geometric(double mean)
{
    upc_assert(mean >= 1.0);
    // Geometric on {1, 2, ...} with the requested mean has success
    // probability 1/mean.
    double p = 1.0 / mean;
    double u = uniform();
    // Inverse CDF; guard the log against u == 0.
    double v = std::log(1.0 - u) / std::log(1.0 - p);
    uint32_t n = 1 + static_cast<uint32_t>(v);
    uint32_t cap = static_cast<uint32_t>(64.0 * mean);
    return n > cap ? cap : n;
}

void
Rng::fillLongs(uint8_t *out, size_t n)
{
    // Each draw waits on the one before, so a long fill runs four
    // quarters of the stream side by side, their starting states
    // found by jumping ahead.
    size_t q = n / 4;
    if (q >= 64) {
        uint64_t s0 = state_, s1 = jump(s0, q), s2 = jump(s1, q),
                 s3 = jump(s2, q);
        for (size_t i = 0; i < q; ++i, out += 4) {
            s0 = step(s0);
            s1 = step(s1);
            s2 = step(s2);
            s3 = step(s3);
            storeLe32(out, static_cast<uint32_t>(s0 * kMultiplier));
            storeLe32(out + 4 * q, static_cast<uint32_t>(s1 * kMultiplier));
            storeLe32(out + 8 * q, static_cast<uint32_t>(s2 * kMultiplier));
            storeLe32(out + 12 * q, static_cast<uint32_t>(s3 * kMultiplier));
        }
        state_ = s3;
        out += 12 * q;
        n -= 4 * q;
    }
    for (size_t i = 0; i < n; ++i, out += 4)
        storeLe32(out, static_cast<uint32_t>(next()));
}

size_t
Rng::pickWeighted(std::span<const double> weights)
{
    double total = 0.0;
    for (double w : weights) {
        upc_assert(w >= 0.0);
        total += w;
    }
    upc_assert(total > 0.0);
    double r = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace vax
