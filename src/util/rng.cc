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

} // namespace

Rng::Rng(uint64_t seed)
    : seed_(seed)
{
    uint64_t s = seed;
    for (auto& w : state_)
        w = splitmix64(s);
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
