#ifndef VLQ_TESTS_SAMPLER_ORACLE_H
#define VLQ_TESTS_SAMPLER_ORACLE_H

#include <cstdint>

#include "dem/detector_model.h"
#include "pauli/bitvec.h"
#include "util/rng.h"

namespace vlq {

/**
 * The reference sampler the tests check FaultSampler against: one
 * uniform draw per channel, in circuit order, reading the model's
 * channels in place. A channel fires when its draw falls below one of
 * its outcomes' cumulative bounds, that is, below its total, and then
 * applies that outcome. No production code uses it.
 *
 * It draws a different stream than FaultSampler's skip-sampling, so
 * the two agree in distribution, not shot for shot. Like FaultSampler
 * it reads the model in place: the model must outlive it.
 */
class ReferenceSampler
{
  public:
    explicit ReferenceSampler(const DetectorErrorModel& dem) : dem_(dem)
    {
    }
    explicit ReferenceSampler(const DetectorErrorModel&& dem) = delete;

    /** Result of one sampled trial. */
    struct Shot
    {
        BitVec detectors;
        uint32_t observables = 0;
        /** Heralded-erasure mask, one bit per erasure site. */
        BitVec erasures;
    };

    /** Sample one trial. */
    Shot sample(Rng& rng) const;

    /** Sample into preallocated storage, heralds discarded. */
    void sampleInto(Rng& rng, BitVec& detectors,
                    uint32_t& observables) const;

    /**
     * Like sampleInto, additionally recording fired heralds into
     * `erasures` (must be sized to numErasureSites). Draws the exact
     * same RNG stream as the three-argument overload.
     */
    void sampleInto(Rng& rng, BitVec& detectors, uint32_t& observables,
                    BitVec& erasures) const;

  private:
    void draw(Rng& rng, BitVec& detectors, uint32_t& observables,
              BitVec* erasures) const;

    const DetectorErrorModel& dem_;
};

} // namespace vlq

#endif // VLQ_TESTS_SAMPLER_ORACLE_H
