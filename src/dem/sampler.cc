#include "dem/sampler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

FaultSampler::FaultSampler(const DetectorErrorModel& dem)
    : numDetectors_(dem.numDetectors()),
      numObservables_(dem.numObservables()),
      numErasureSites_(dem.numErasureSites())
{
    // Outcomes keep their detector ranges: the pool is copied whole.
    const std::span<const uint32_t> pool = dem.detectorPool();
    detectorIndices_.assign(pool.begin(), pool.end());
    channels_.reserve(dem.channels().size());
    outcomes_.reserve(dem.outcomes().size());
    for (const FaultChannel& ch : dem.channels()) {
        FlatChannel fc;
        fc.erasureSite = ch.erasureSite;
        fc.begin = static_cast<uint32_t>(outcomes_.size());
        double cum = 0.0;
        for (const FaultOutcome& o : ch.outcomes) {
            cum += o.probability;
            const auto begin =
                static_cast<uint32_t>(o.detectors.data() - pool.data());
            outcomes_.push_back(FlatOutcome{
                cum, begin,
                begin + static_cast<uint32_t>(o.detectors.size()),
                o.observables});
        }
        fc.end = static_cast<uint32_t>(outcomes_.size());
        fc.total = cum;
        channels_.push_back(fc);
    }

    // Group channels by firing probability for the skip-sampling path:
    // ascending probability, channel order within a group, which keeps
    // the sampled stream deterministic for a given model. Noise models
    // use a handful of distinct rates, so the group count is small.
    for (uint32_t c = 0; c < channels_.size(); ++c)
        if (channels_[c].total > 0.0)
            groupChannels_.push_back(c);
    std::stable_sort(groupChannels_.begin(), groupChannels_.end(),
                     [this](uint32_t a, uint32_t b) {
                         return channels_[a].total < channels_[b].total;
                     });
    for (uint32_t begin = 0; begin < groupChannels_.size();) {
        const double p = channels_[groupChannels_[begin]].total;
        uint32_t end = begin + 1;
        while (end < groupChannels_.size()
               && channels_[groupChannels_[end]].total == p)
            ++end;
        ChannelGroup g;
        g.probability = p;
        g.alwaysFires = p >= 1.0;
        g.invLogOneMinusP =
            g.alwaysFires ? 0.0 : 1.0 / std::log1p(-p);
        g.fullExitU = g.alwaysFires
            ? 1.0
            : 1.0 - std::pow(1.0 - p, static_cast<double>(end - begin));
        g.begin = begin;
        g.end = end;
        groups_.push_back(g);
        begin = end;
    }
}

FaultSampler::Shot
FaultSampler::sample(Rng& rng) const
{
    Shot shot;
    shot.detectors.resize(numDetectors_);
    shot.erasures.resize(numErasureSites_);
    sampleInto(rng, shot.detectors, shot.observables, shot.erasures);
    return shot;
}

void
FaultSampler::sampleInto(Rng& rng, BitVec& detectors,
                         uint32_t& observables) const
{
    // Heralds discarded; the RNG stream is identical either way.
    thread_local BitVec scratchErasures;
    scratchErasures.resize(numErasureSites_);
    sampleInto(rng, detectors, observables, scratchErasures);
}

void
FaultSampler::sampleInto(Rng& rng, BitVec& detectors,
                         uint32_t& observables, BitVec& erasures) const
{
    detectors.clear();
    observables = 0;
    erasures.clear();
    for (const auto& ch : channels_) {
        double u = rng.nextDouble();
        if (u >= ch.total)
            continue;
        if (ch.erasureSite >= 0)
            erasures.set(static_cast<uint32_t>(ch.erasureSite), true);
        // Linear scan: channels have at most 15 outcomes.
        for (uint32_t i = ch.begin; i < ch.end; ++i) {
            const FlatOutcome& o = outcomes_[i];
            if (u < o.cumulative) {
                for (uint32_t j = o.begin; j < o.end; ++j)
                    detectors.flip(detectorIndices_[j]);
                observables ^= o.observables;
                break;
            }
        }
    }
}

void
FaultSampler::fireChannel(const FlatChannel& ch, double u,
                          uint64_t laneBit, uint32_t laneWord,
                          ShotBatch& batch) const
{
    if (ch.erasureSite >= 0)
        batch.erasureRow(static_cast<uint32_t>(ch.erasureSite))
            [laneWord] |= laneBit;
    // u is uniform in [0, ch.total): the outcome choice conditioned on
    // the channel firing, matching the scalar path's distribution. The
    // last outcome also catches u rounding up to exactly ch.total --
    // the skip already committed this channel to firing, so falling
    // through without applying anything would skew the distribution.
    for (uint32_t i = ch.begin; i < ch.end; ++i) {
        const FlatOutcome& o = outcomes_[i];
        if (u < o.cumulative || i + 1 == ch.end) {
            for (uint32_t j = o.begin; j < o.end; ++j)
                batch.detectorRow(detectorIndices_[j])[laneWord] ^=
                    laneBit;
            uint32_t mask = o.observables;
            while (mask) {
                uint32_t b =
                    static_cast<uint32_t>(std::countr_zero(mask));
                batch.observableRow(b)[laneWord] ^= laneBit;
                mask &= mask - 1;
            }
            return;
        }
    }
}

void
FaultSampler::sampleBatchInto(const Rng& root, ShotBatch& batch) const
{
    VLQ_ASSERT(batch.numDetectors() == numDetectors_
                   && batch.numObservables() == numObservables_,
               "ShotBatch not reset for this sampler's model");
    VLQ_ASSERT(batch.numErasureSites() == numErasureSites_,
               "ShotBatch erasure rows not sized for this model");
    obs::StageTimer obsTimer("sampler.sample_batch");
    const uint32_t shots = batch.numShots();
    for (uint32_t s = 0; s < shots; ++s) {
        Rng rng = root.split(batch.firstTrial() + s);
        const uint32_t laneWord = s / ShotBatch::kWordBits;
        const uint64_t laneBit = uint64_t{1}
            << (s % ShotBatch::kWordBits);
        for (const ChannelGroup& g : groups_) {
            if (g.alwaysFires) {
                for (uint32_t i = g.begin; i < g.end; ++i) {
                    const FlatChannel& ch =
                        channels_[groupChannels_[i]];
                    fireChannel(ch, rng.nextDouble() * ch.total,
                                laneBit, laneWord, batch);
                }
                continue;
            }
            // Geometric skip within the group: draw how many channels
            // stay silent before the next firing one. Expected draws
            // per trial are O(groups + faults), not O(channels).
            uint32_t i = g.begin;
            while (i < g.end) {
                double u = rng.nextDouble();
                // Common case: the whole group stays silent. The exit
                // test u >= 1-(1-p)^remaining equals "skip >= remaining"
                // without paying the log; it is exact for the first
                // draw (remaining == group size) and skipped after a
                // fire, where the log path decides as before.
                if (i == g.begin && u >= g.fullExitU)
                    break;
                double k = std::floor(std::log1p(-u)
                                      * g.invLogOneMinusP);
                if (!(k < static_cast<double>(g.end - i)))
                    break;
                i += static_cast<uint32_t>(k);
                const FlatChannel& ch = channels_[groupChannels_[i]];
                fireChannel(ch, rng.nextDouble() * ch.total, laneBit,
                            laneWord, batch);
                ++i;
            }
        }
    }
    if (obs::metricsEnabled()) {
        static const obs::Counter batches =
            obs::Counter::get("sampler.batches");
        static const obs::Counter shotsSampled =
            obs::Counter::get("sampler.shots");
        batches.add(1);
        shotsSampled.add(shots);
    }
}

} // namespace vlq
