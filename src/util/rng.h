#ifndef VLQ_UTIL_RNG_H
#define VLQ_UTIL_RNG_H

#include <cstdint>

namespace vlq {

/**
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Monte-Carlo experiments need a fast, reproducible, splittable RNG.
 * xoshiro256** passes BigCrush and is far faster than std::mt19937_64.
 * Seeding uses splitmix64 so that nearby integer seeds give uncorrelated
 * streams, which lets trial workers derive independent generators from
 * (seed, trialIndex). The per-draw methods are defined here, inline:
 * the sampler calls them once per draw.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t nextU64()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return nextDouble() < p; }

    /**
     * Derive an independent generator for a sub-stream.
     * @param streamIndex index of the sub-stream (e.g. a trial number).
     */
    Rng split(uint64_t streamIndex) const;

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
    uint64_t seed_;
};

} // namespace vlq

#endif // VLQ_UTIL_RNG_H
