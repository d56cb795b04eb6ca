#ifndef VLQ_DEM_SAMPLER_H
#define VLQ_DEM_SAMPLER_H

#include <cstdint>
#include <span>
#include <vector>

#include "dem/detector_model.h"
#include "dem/shot_batch.h"
#include "util/rng.h"

namespace vlq {

/**
 * Fast Monte-Carlo sampler over a detector error model.
 *
 * Each trial draws every fault channel independently (preserving the
 * correlations *within* a channel: a two-qubit depolarizing event picks
 * exactly one of its 15 outcomes) and XORs the chosen outcomes'
 * signatures into detector and observable bits. This is equivalent to,
 * and much faster than, re-simulating the circuit with the Pauli-frame
 * simulator; the tests check the equivalence statistically against a
 * one-draw-per-channel reference sampler (tests/sampler_oracle.h).
 *
 * sampleBatchInto() is the one sampling path. Channels are grouped by
 * firing probability at construction, and each trial visits only the
 * channels that actually fire, found by geometric skip-sampling within
 * each group (draws scale with the *fault* count, not the channel
 * count -- orders of magnitude fewer below threshold). Every trial
 * draws from its own RNG stream split from the root, so results are a
 * pure function of (root seed, trial index): batching and threading
 * cannot change what any trial samples.
 *
 * A batch is filled one 64-shot word at a time, in two passes. The
 * first runs every shot's skip loop and only records each fire as
 * (channel, shot, outcome draw); the draw needs no load, since every
 * channel of a group has the group's probability as its total, and it
 * prefetches the channel's record. The second applies the recorded
 * fires, prefetching the outcomes and detector lists of fires a few
 * places ahead, so the loads of several fires are in flight at once.
 * XOR and OR do not depend on order, and each shot draws in the same
 * order as a one-pass loop would. The skip count takes std::log(1 - u)
 * and falls back to std::log1p only where the two could disagree
 * (skipCount()).
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

    /**
     * Fill a whole batch: shot s of `batch` samples trial
     * batch.firstTrial() + s from root.split(that trial). The batch
     * must have been reset() for this model's detector/observable
     * counts.
     */
    void sampleBatchInto(const Rng& root, ShotBatch& batch) const;

    /**
     * Channels a group of firing probability p passes over before its
     * next fire, for a draw u of Rng::nextDouble():
     * floor(log1p(-u) * invLogOneMinusP), where invLogOneMinusP is
     * 1 / log1p(-p). It is computed from std::log(1 - u), which is
     * cheaper; 1 - u is exact for a multiple of 2^-53, so the two logs
     * differ by an ulp or two. Where the product lies within a
     * relative 1e-9 of an integer, a margin millions of ulps wider,
     * it calls std::log1p instead. Public so the tests can hold it to
     * the log1p formula.
     */
    static double skipCount(double u, double invLogOneMinusP);

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

    /** One fire recorded by the first pass over a word. */
    struct Fire
    {
        uint32_t channel; // index into channels_, then into outcomes_
        uint32_t lane;    // shot within the word
        double u;         // outcome draw, uniform in [0, channel total)
    };

    /**
     * Raise ch's herald, if it has one, in the shot of `laneBit` in
     * word `laneWord`, and return the index into outcomes_ of the
     * outcome that draw u picks.
     */
    uint32_t fireChannel(const FlatChannel& ch, double u, uint64_t laneBit,
                         uint32_t laneWord, ShotBatch& batch) const;
    /** Flip outcome o's detectors and observables in that shot. */
    void applyOutcome(const FaultOutcome& o, uint64_t laneBit,
                      uint32_t laneWord, ShotBatch& batch) const;
    /** Second pass: apply one word's recorded fires. */
    void applyFires(std::span<Fire> fires, uint32_t laneWord,
                    ShotBatch& batch) const;

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
