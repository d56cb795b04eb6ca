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
 * (seed, trialIndex).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double nextDouble();

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
    uint64_t state_[4];
    uint64_t seed_;
};

} // namespace vlq

#endif // VLQ_UTIL_RNG_H
