#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

MwpmDecoder::MwpmDecoder(const DetectorErrorModel& dem)
    : paths_(DecodingGraph::build(dem)), matcher_(paths_.graph())
{
}

uint32_t
MwpmDecoder::decodeShot(std::span<const uint32_t> events,
                        std::span<const uint32_t> /*erasureSites*/) const
{
    const size_t m = events.size();
    if (m == 0)
        return 0;
    if (m <= kExactMatchingMaxDefects) {
        if (obs::metricsEnabled()) {
            static const obs::Counter exact =
                obs::Counter::get("mwpm.decode.exact");
            exact.add(1);
        }
        const ExactMatching match = paths_.match(events);
        // The sparse matcher fails the same way on a syndrome no
        // matching explains.
        VLQ_ASSERT(match.found, "graph admits no perfect matching");
        return match.observables;
    }
    // The matcher is timed into a histogram only: a trace span per shot
    // would swamp the timeline.
    const bool timed = obs::metricsEnabled();
    const uint64_t start = timed ? obs::traceNowNs() : 0;
    if (timed) {
        static const obs::Counter blossom =
            obs::Counter::get("mwpm.decode.blossom");
        blossom.add(1);
    }
    const uint32_t prediction = matcher_.match(events);
    if (timed) {
        static const obs::Histogram blossomNs =
            obs::Histogram::get("mwpm.blossom");
        blossomNs.record(obs::traceNowNs() - start);
    }
    return prediction;
}

GreedyDecoder::GreedyDecoder(const DetectorErrorModel& dem)
    : paths_(DecodingGraph::build(dem))
{
}

uint32_t
GreedyDecoder::decodeShot(std::span<const uint32_t> events,
                          std::span<const uint32_t> /*erasureSites*/) const
{
    const size_t m = events.size();
    if (m == 0)
        return 0;

    struct Cand
    {
        double w;
        uint32_t i;
        uint32_t j; // j == i means boundary
    };
    // Event i's row at the later events: m - i - 1 entries from
    // offset[i].
    static thread_local std::vector<size_t> offset;
    static thread_local std::vector<double> dist;
    static thread_local std::vector<uint32_t> pathObs;
    static thread_local std::vector<Cand> cands;
    offset.resize(m + 1);
    offset[0] = 0;
    for (size_t i = 0; i < m; ++i)
        offset[i + 1] = offset[i] + (m - i - 1);
    dist.resize(offset[m]);
    pathObs.resize(offset[m]);
    for (size_t i = 0; i + 1 < m; ++i)
        paths_.pairPaths(
            events[i], events.subspan(i + 1),
            std::span<double>(dist).subspan(offset[i], m - i - 1),
            std::span<uint32_t>(pathObs).subspan(offset[i], m - i - 1));
    auto at = [](uint32_t i, uint32_t j) { return offset[i] + (j - i - 1); };
    cands.clear();
    for (uint32_t i = 0; i < m; ++i) {
        for (uint32_t j = i + 1; j < m; ++j) {
            double w = dist[at(i, j)];
            if (std::isfinite(w))
                cands.push_back(Cand{w, i, j});
        }
        double wb = paths_.boundaryDistance(events[i]);
        if (std::isfinite(wb))
            cands.push_back(Cand{wb, i, i});
    }
    // Ties go by index, so the order does not depend on the sort.
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
        return std::tie(a.w, a.i, a.j) < std::tie(b.w, b.i, b.j);
    });

    static thread_local std::vector<uint8_t> used;
    used.assign(m, 0);
    uint32_t obs = 0;
    for (const auto& c : cands) {
        if (used[c.i] || (c.j != c.i && used[c.j]))
            continue;
        used[c.i] = 1;
        if (c.j == c.i) {
            obs ^= paths_.boundaryObservables(events[c.i]);
        } else {
            used[c.j] = 1;
            obs ^= pathObs[at(c.i, c.j)];
        }
    }
    return obs;
}

} // namespace vlq
