#include "sampler_oracle.h"

namespace vlq {

ReferenceSampler::Shot
ReferenceSampler::sample(Rng& rng) const
{
    Shot shot;
    shot.detectors.resize(dem_.numDetectors());
    shot.erasures.resize(dem_.numErasureSites());
    draw(rng, shot.detectors, shot.observables, &shot.erasures);
    return shot;
}

void
ReferenceSampler::sampleInto(Rng& rng, BitVec& detectors,
                             uint32_t& observables) const
{
    draw(rng, detectors, observables, nullptr);
}

void
ReferenceSampler::sampleInto(Rng& rng, BitVec& detectors,
                             uint32_t& observables, BitVec& erasures) const
{
    draw(rng, detectors, observables, &erasures);
}

void
ReferenceSampler::draw(Rng& rng, BitVec& detectors, uint32_t& observables,
                       BitVec* erasures) const
{
    detectors.clear();
    observables = 0;
    if (erasures != nullptr)
        erasures->clear();
    for (const FaultChannel& ch : dem_.channels()) {
        const double u = rng.nextDouble();
        // Linear scan: channels have at most 15 outcomes.
        double cumulative = 0.0;
        for (const FaultOutcome& o : ch.outcomes) {
            cumulative += o.probability;
            if (u < cumulative) {
                if (erasures != nullptr && ch.erasureSite >= 0)
                    erasures->set(static_cast<uint32_t>(ch.erasureSite),
                                  true);
                for (const uint32_t d : o.detectors)
                    detectors.flip(d);
                observables ^= o.observables;
                break;
            }
        }
    }
}

} // namespace vlq
