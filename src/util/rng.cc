#include "util/rng.h"

namespace vlq {

namespace {

/** splitmix64 step; used to expand seeds into full 256-bit states. */
uint64_t
splitmix64(uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
    : seed_(seed)
{
    uint64_t s = seed;
    for (auto& w : state_)
        w = splitmix64(s);
}

uint64_t
Rng::nextU64()
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

double
Rng::nextDouble()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::nextBelow(uint64_t bound)
{
    // Debiased modulo via rejection sampling.
    uint64_t threshold = -bound % bound;
    for (;;) {
        uint64_t r = nextU64();
        if (r >= threshold)
            return r % bound;
    }
}

Rng
Rng::split(uint64_t streamIndex) const
{
    // Mix the base seed with the stream index through splitmix64 twice to
    // decorrelate consecutive stream indices.
    uint64_t s = seed_ ^ (0xdeadbeefcafef00dULL + streamIndex);
    splitmix64(s);
    uint64_t mixed = splitmix64(s);
    return Rng(mixed);
}

} // namespace vlq
