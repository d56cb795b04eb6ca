#ifndef VLQ_DEM_SAMPLER_H
#define VLQ_DEM_SAMPLER_H

#include <cstdint>
#include <span>
#include <vector>

#include "dem/detector_model.h"
#include "dem/shot_batch.h"
#include "pauli/bitvec.h"
#include "util/rng.h"

namespace vlq {

/**
 * Fast Monte-Carlo sampler over a detector error model.
 *
 * Each trial draws every fault channel independently (preserving the
 * correlations *within* a channel: a two-qubit depolarizing event picks
 * exactly one of its 15 outcomes) and XORs the chosen outcomes'
 * signatures into a detector bit vector and an observable mask. This is
 * equivalent to, and much faster than, re-simulating the circuit with
 * the Pauli-frame simulator; the equivalence is checked statistically in
 * the test suite.
 *
 * Two sampling paths read the model's outcomes and detector pool in
 * place:
 *
 * - sampleInto(): the reference path; one uniform draw per channel, in
 *   circuit order.
 * - sampleBatchInto(): the Monte-Carlo hot path. Channels are grouped
 *   by firing probability at construction, and each trial visits only
 *   the channels that actually fire, found by geometric skip-sampling
 *   within each group (draws scale with the *fault* count, not the
 *   channel count -- orders of magnitude fewer below threshold).
 *   Outcomes land in a ShotBatch's transposed bit-packed rows. Every
 *   trial draws from its own RNG stream split from the root, so
 *   results are a pure function of (root seed, trial index): batching
 *   and threading cannot change what any trial samples.
 *
 * The sampler copies none of the model's arrays, so the model must
 * outlive it (moving the model is fine: its arrays keep their
 * buffers). A temporary model does not compile.
 */
class FaultSampler
{
  public:
    explicit FaultSampler(const DetectorErrorModel& dem);
    explicit FaultSampler(const DetectorErrorModel&& dem) = delete;

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

    /** Sample into preallocated storage (hot path). */
    void sampleInto(Rng& rng, BitVec& detectors,
                    uint32_t& observables) const;

    /**
     * Like sampleInto, additionally recording fired heralds into
     * `erasures` (must be sized to numErasureSites). Draws the exact
     * same RNG stream as the two-argument overload.
     */
    void sampleInto(Rng& rng, BitVec& detectors, uint32_t& observables,
                    BitVec& erasures) const;

    /**
     * Fill a whole batch: shot s of `batch` samples trial
     * batch.firstTrial() + s from root.split(that trial). The batch
     * must have been reset() for this model's detector/observable
     * counts.
     */
    void sampleBatchInto(const Rng& root, ShotBatch& batch) const;

    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }
    uint32_t numErasureSites() const { return numErasureSites_; }

  private:
    /** A channel that can fire, as the batch path visits it. */
    struct FlatChannel
    {
        double total;      // total probability, the outcomes' sum
        uint32_t begin;    // range into outcomes_
        uint32_t end;
        int32_t erasureSite = -1; // herald bit set on fire, or -1
    };
    /** Channels sharing one firing probability (skip-sampling unit). */
    struct ChannelGroup
    {
        double probability;  // shared channel total, in (0, 1)
        double invLogOneMinusP; // 1 / log1p(-probability), < 0
        double fullExitU;    // P(some channel of the group fires)
        uint32_t begin;      // range into channels_
        uint32_t end;
        bool alwaysFires;    // probability >= 1: no skipping
    };

    void fireChannel(const FlatChannel& ch, double u, uint64_t laneBit,
                     uint32_t laneWord, ShotBatch& batch) const;

    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    uint32_t numErasureSites_ = 0;
    /** The model's channels (circuit order) and outcomes. */
    std::span<const FaultChannel> modelChannels_;
    std::span<const FaultOutcome> outcomes_;
    /** Channels of positive probability, by group. */
    std::vector<FlatChannel> channels_;
    std::vector<ChannelGroup> groups_;
};

} // namespace vlq

#endif // VLQ_DEM_SAMPLER_H
