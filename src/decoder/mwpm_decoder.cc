#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "decoder/exact_matching.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

MwpmDecoder::MwpmDecoder(const DetectorErrorModel& dem)
    : graph_(MatchingGraph::build(dem)), matcher_(graph_.decodingGraph())
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
        return decodeExact(events);
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

uint32_t
MwpmDecoder::decodeExact(std::span<const uint32_t> events) const
{
    constexpr size_t kMax = kExactMatchingMaxDefects;
    const size_t k = events.size();
    const uint32_t boundary = graph_.boundaryNode();
    std::array<double, kMax * kMax> pairW{};
    std::array<uint32_t, kMax * kMax> pairObs{};
    std::array<double, kMax> bndW{};
    std::array<uint32_t, kMax> bndObs{};
    // Events ascend, so each pair reads the smaller event's row.
    for (size_t i = 0; i < k; ++i) {
        const MatchingGraph::Row row = graph_.row(events[i]);
        bndW[i] = row.dist[boundary];
        bndObs[i] = row.obs[boundary];
        for (size_t j = i + 1; j < k; ++j) {
            pairW[i * k + j] = pairW[j * k + i] = row.dist[events[j]];
            pairObs[i * k + j] = pairObs[j * k + i] = row.obs[events[j]];
        }
    }
    const ExactMatching match = matchDefectsExact(
        std::span<const double>(pairW.data(), k * k),
        std::span<const uint32_t>(pairObs.data(), k * k),
        std::span<const double>(bndW.data(), k),
        std::span<const uint32_t>(bndObs.data(), k));
    // The sparse matcher fails the same way on a syndrome no matching
    // explains.
    VLQ_ASSERT(match.found, "graph admits no perfect matching");
    return match.observables;
}

GreedyDecoder::GreedyDecoder(const DetectorErrorModel& dem)
    : graph_(MatchingGraph::build(dem))
{
}

uint32_t
GreedyDecoder::decodeShot(std::span<const uint32_t> events,
                          std::span<const uint32_t> /*erasureSites*/) const
{
    const size_t m = events.size();
    if (m == 0)
        return 0;
    const uint32_t boundary = graph_.boundaryNode();

    struct Cand
    {
        double w;
        uint32_t i;
        uint32_t j; // j == i means boundary
    };
    static thread_local std::vector<MatchingGraph::Row> rows;
    static thread_local std::vector<Cand> cands;
    rows.clear();
    for (uint32_t e : events)
        rows.push_back(graph_.row(e));
    cands.clear();
    for (uint32_t i = 0; i < m; ++i) {
        for (uint32_t j = i + 1; j < m; ++j) {
            double w = rows[i].dist[events[j]];
            if (std::isfinite(w))
                cands.push_back(Cand{w, i, j});
        }
        double wb = rows[i].dist[boundary];
        if (std::isfinite(wb))
            cands.push_back(Cand{wb, i, i});
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.w < b.w; });

    static thread_local std::vector<uint8_t> used;
    used.assign(m, 0);
    uint32_t obs = 0;
    for (const auto& c : cands) {
        if (used[c.i] || (c.j != c.i && used[c.j]))
            continue;
        used[c.i] = 1;
        if (c.j == c.i) {
            obs ^= rows[c.i].obs[boundary];
        } else {
            used[c.j] = 1;
            obs ^= rows[c.i].obs[events[c.j]];
        }
    }
    return obs;
}

} // namespace vlq
