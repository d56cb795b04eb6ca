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

double
FaultSampler::skipCount(double u, double invLogOneMinusP)
{
    // log(1 - u) and log1p(-u) both land within an ulp or two of the
    // same exact value (1 - u is exact for a draw on the 2^-53 grid),
    // so their products with invLogOneMinusP differ by far less than
    // a relative 1e-9 and floor alike unless one of them lies that
    // close to an integer. There, and only there, log1p decides.
    const double x = std::log(1.0 - u) * invLogOneMinusP;
    const double k = std::floor(x);
    const double margin = 1e-9 * x;
    if (x - k < margin || k + 1.0 - x < margin) [[unlikely]]
        return std::floor(std::log1p(-u) * invLogOneMinusP);
    return k;
}

uint32_t
FaultSampler::fireChannel(const FlatChannel& ch, double u, uint64_t laneBit,
                          uint32_t laneWord, ShotBatch& batch) const
{
    if (ch.erasureSite >= 0)
        batch.erasureRow(static_cast<uint32_t>(ch.erasureSite))
            [laneWord] |= laneBit;
    // u is uniform in [0, ch.total): the outcome choice conditioned on
    // the channel firing. Linear scan: channels have at most 15
    // outcomes. The last outcome also catches u rounding up to exactly
    // ch.total -- the skip already committed this channel to firing,
    // so falling through without applying anything would skew the
    // distribution.
    double cumulative = 0.0;
    for (uint32_t i = ch.begin; i + 1 < ch.end; ++i) {
        cumulative += outcomes_[i].probability;
        if (u < cumulative)
            return i;
    }
    return ch.end - 1;
}

void
FaultSampler::applyOutcome(const FaultOutcome& o, uint64_t laneBit,
                           uint32_t laneWord, ShotBatch& batch) const
{
    for (const uint32_t d : o.detectors)
        batch.detectorRow(d)[laneWord] ^= laneBit;
    uint32_t mask = o.observables;
    while (mask) {
        uint32_t b = static_cast<uint32_t>(std::countr_zero(mask));
        batch.observableRow(b)[laneWord] ^= laneBit;
        mask &= mask - 1;
    }
}

void
FaultSampler::applyFires(std::span<Fire> fires, uint32_t laneWord,
                         ShotBatch& batch) const
{
    // A software pipeline over the fires: kFetch places ahead, prefetch
    // the fire's outcomes; kPick places ahead, pick its outcome (the
    // channel record was prefetched by the first pass), raise its
    // herald and prefetch the outcome's detector list; then apply it.
    // A picked fire's `channel` holds its outcome's index.
    constexpr size_t kPick = 4;
    constexpr size_t kFetch = 8;
    const size_t n = fires.size();
    auto pick = [&](Fire& f) {
        f.channel = fireChannel(channels_[f.channel], f.u,
                                uint64_t{1} << f.lane, laneWord, batch);
        __builtin_prefetch(outcomes_[f.channel].detectors.data());
    };
    for (size_t j = 0; j < std::min(n, kPick); ++j)
        pick(fires[j]);
    for (size_t j = 0; j < n; ++j) {
        if (j + kFetch < n)
            __builtin_prefetch(
                &outcomes_[channels_[fires[j + kFetch].channel].begin]);
        if (j + kPick < n)
            pick(fires[j + kPick]);
        applyOutcome(outcomes_[fires[j].channel],
                     uint64_t{1} << fires[j].lane, laneWord, batch);
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
    // One word's fires; per thread, since workers share the sampler.
    thread_local std::vector<Fire> fires;
    const uint32_t shots = batch.numShots();
    uint64_t fired = 0;
    for (uint32_t laneWord = 0; laneWord < batch.wordsPerRow();
         ++laneWord) {
        const uint32_t first = laneWord * ShotBatch::kWordBits;
        const uint32_t lanes =
            std::min(ShotBatch::kWordBits, shots - first);
        fires.clear();
        for (uint32_t lane = 0; lane < lanes; ++lane) {
            Rng rng = root.split(batch.firstTrial() + first + lane);
            const uint64_t laneBit = uint64_t{1} << lane;
            for (const ChannelGroup& g : groups_) {
                if (g.alwaysFires) {
                    for (uint32_t i = g.begin; i < g.end; ++i) {
                        const FlatChannel& ch = channels_[i];
                        const uint32_t o =
                            fireChannel(ch, rng.nextDouble() * ch.total,
                                        laneBit, laneWord, batch);
                        applyOutcome(outcomes_[o], laneBit, laneWord,
                                     batch);
                        ++fired;
                    }
                    continue;
                }
                // Geometric skip within the group: draw how many
                // channels stay silent before the next firing one.
                // Expected draws per trial are O(groups + faults), not
                // O(channels).
                uint32_t i = g.begin;
                while (i < g.end) {
                    const double u = rng.nextDouble();
                    // Common case: the whole group stays silent. The
                    // exit test u >= 1-(1-p)^remaining equals "skip >=
                    // remaining" without paying the log; it is exact
                    // for the first draw (remaining == group size) and
                    // skipped after a fire, where the log path decides
                    // as before.
                    if (i == g.begin && u >= g.fullExitU)
                        break;
                    const double k = skipCount(u, g.invLogOneMinusP);
                    if (!(k < static_cast<double>(g.end - i)))
                        break;
                    i += static_cast<uint32_t>(k);
                    // Every channel of the group has total
                    // g.probability, so the outcome draw needs no load.
                    __builtin_prefetch(&channels_[i]);
                    fires.push_back(
                        {i, lane, rng.nextDouble() * g.probability});
                    ++i;
                }
            }
        }
        fired += fires.size();
        applyFires(fires, laneWord, batch);
    }
    if (obs::metricsEnabled()) {
        static const obs::Counter batches =
            obs::Counter::get("sampler.batches");
        static const obs::Counter shotsSampled =
            obs::Counter::get("sampler.shots");
        static const obs::Counter firesDrawn =
            obs::Counter::get("sampler.fires");
        batches.add(1);
        shotsSampled.add(shots);
        firesDrawn.add(fired);
    }
}

} // namespace vlq
