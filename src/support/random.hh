/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in the simulator and workload generator
 * draws from a seeded Xorshift64* stream so that all experiments are
 * reproducible bit-for-bit.
 */

#ifndef UPC780_SUPPORT_RANDOM_HH
#define UPC780_SUPPORT_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "support/logging.hh"

namespace vax
{

/**
 * Xorshift64* generator.
 *
 * Small, fast, and deterministic; quality is more than adequate for
 * workload synthesis.
 */
class Rng
{
  public:
    /** Construct from a nonzero seed (0 is remapped internally). */
    explicit Rng(uint64_t seed = 0x780aceULL);

    /** @{ Inline: the workload generator draws several times per
     *  instruction it emits, and a constant bound's modulo then
     *  compiles to a multiply instead of a divide. */
    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        state_ = step(state_);
        return state_ * kMultiplier;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint32_t
    below(uint32_t bound)
    {
        upc_assert(bound > 0);
        return static_cast<uint32_t>(next() % bound);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0); // 2^53
    }

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }
    /** @} */

    /** Store the low 32 bits of the next n draws at out, as n
     *  little-endian longwords: the same values, and the same final
     *  state, as n calls of next(). */
    void fillLongs(uint8_t *out, size_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int32_t range(int32_t lo, int32_t hi);

    /**
     * Geometric-ish positive count with the given mean (>= 1).
     *
     * Used for loop trip counts and string lengths; truncated at
     * 64 * mean to bound workload run time.
     */
    uint32_t geometric(double mean);

    /**
     * Pick an index according to a weight table.
     *
     * @param weights Non-negative weights; at least one must be > 0.
     * @return Index in [0, weights.size()).
     */
    size_t pickWeighted(std::span<const double> weights);
    /** The same for a braced list of weights, without allocating. */
    size_t
    pickWeighted(std::initializer_list<double> weights)
    {
        return pickWeighted(
            std::span<const double>(weights.begin(), weights.size()));
    }

    /** @{ Raw generator state, for checkpoint/restore: restoring the
     *  state restores the exact future draw stream, which is what
     *  makes a resumed simulation bit-identical to an uninterrupted
     *  one.  setState() bypasses the constructor's warm-up. */
    uint64_t state() const { return state_; }
    void setState(uint64_t s) { state_ = s ? s : 1; }
    /** @} */

    /** The xorshift state transition (linear over GF(2)). */
    static constexpr uint64_t
    step(uint64_t x)
    {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        return x;
    }

  private:
    static constexpr uint64_t kMultiplier = 0x2545f4914f6cdd1dULL;

    uint64_t state_;
};

} // namespace vax

#endif // UPC780_SUPPORT_RANDOM_HH
