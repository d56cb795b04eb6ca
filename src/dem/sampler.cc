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
      numErasureSites_(dem.numErasureSites()),
      modelChannels_(dem.channels()),
      outcomes_(dem.outcomes())
{
    // Group channels by firing probability for the skip-sampling path:
    // ascending probability, circuit order within a group, which keeps
    // the sampled stream deterministic for a given model. Noise models
    // use a handful of distinct rates (7 or 8 at every paper point), so
    // the sorted rates are found by binary search and the channels are
    // placed by one counting pass; k distinct rates cost
    // O(channels log k + k^2).
    std::vector<double> rates;
    std::vector<uint32_t> next; // channels per rate, then placement slot
    for (const FaultChannel& ch : modelChannels_) {
        const double total = ch.totalProbability();
        if (!(total > 0.0))
            continue;
        const auto it = std::lower_bound(rates.begin(), rates.end(), total);
        const auto rank = it - rates.begin();
        if (it == rates.end() || *it != total) {
            rates.insert(it, total);
            next.insert(next.begin() + rank, 0);
        }
        ++next[static_cast<size_t>(rank)];
    }
    uint32_t begin = 0;
    groups_.reserve(rates.size());
    for (size_t r = 0; r < rates.size(); ++r) {
        const double p = rates[r];
        const uint32_t end = begin + next[r];
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
        next[r] = begin;
        begin = end;
    }
    channels_.resize(begin);
    for (const FaultChannel& ch : modelChannels_) {
        const double total = ch.totalProbability();
        if (!(total > 0.0))
            continue;
        const auto rank =
            std::lower_bound(rates.begin(), rates.end(), total)
            - rates.begin();
        const auto first =
            static_cast<uint32_t>(ch.outcomes.data() - outcomes_.data());
        channels_[next[static_cast<size_t>(rank)]++] = FlatChannel{
            total, first,
            first + static_cast<uint32_t>(ch.outcomes.size()),
            ch.erasureSite};
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
    for (const FaultChannel& ch : modelChannels_) {
        const double u = rng.nextDouble();
        // Linear scan: channels have at most 15 outcomes. The channel
        // fires when u falls below some outcome's cumulative bound,
        // that is, below the channel's total.
        double cumulative = 0.0;
        for (const FaultOutcome& o : ch.outcomes) {
            cumulative += o.probability;
            if (u < cumulative) {
                if (ch.erasureSite >= 0)
                    erasures.set(static_cast<uint32_t>(ch.erasureSite),
                                 true);
                for (const uint32_t d : o.detectors)
                    detectors.flip(d);
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
    double cumulative = 0.0;
    for (uint32_t i = ch.begin; i < ch.end; ++i) {
        const FaultOutcome& o = outcomes_[i];
        cumulative += o.probability;
        if (u < cumulative || i + 1 == ch.end) {
            for (const uint32_t d : o.detectors)
                batch.detectorRow(d)[laneWord] ^= laneBit;
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
                    const FlatChannel& ch = channels_[i];
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
                const FlatChannel& ch = channels_[i];
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
