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
    // Events ascend, so each pair reads the smaller event's row, at the
    // later events and then the boundary.
    std::array<uint32_t, kMax> targets{};
    std::array<float, kMax> dist{};
    std::array<uint8_t, kMax> pathObs{};
    for (size_t i = 0; i < k; ++i) {
        const size_t later = k - i - 1;
        std::copy(events.begin() + static_cast<std::ptrdiff_t>(i + 1),
                  events.end(), targets.begin());
        targets[later] = boundary;
        graph_.paths(events[i],
                     std::span<const uint32_t>(targets.data(), later + 1),
                     std::span<float>(dist.data(), later + 1),
                     std::span<uint8_t>(pathObs.data(), later + 1));
        bndW[i] = dist[later];
        bndObs[i] = pathObs[later];
        for (size_t j = i + 1; j < k; ++j) {
            pairW[i * k + j] = pairW[j * k + i] = dist[j - i - 1];
            pairObs[i * k + j] = pairObs[j * k + i] = pathObs[j - i - 1];
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
    // Event i's row at the later events and then the boundary: m - i
    // entries from offset[i], the ones the candidates below read.
    static thread_local std::vector<uint32_t> targets;
    static thread_local std::vector<size_t> offset;
    static thread_local std::vector<float> dist;
    static thread_local std::vector<uint8_t> pathObs;
    static thread_local std::vector<Cand> cands;
    offset.resize(m + 1);
    offset[0] = 0;
    for (size_t i = 0; i < m; ++i)
        offset[i + 1] = offset[i] + (m - i);
    dist.resize(offset[m]);
    pathObs.resize(offset[m]);
    for (size_t i = 0; i < m; ++i) {
        targets.assign(events.begin() + static_cast<std::ptrdiff_t>(i + 1),
                       events.end());
        targets.push_back(boundary);
        graph_.paths(events[i], targets,
                     std::span<float>(dist).subspan(offset[i], m - i),
                     std::span<uint8_t>(pathObs).subspan(offset[i], m - i));
    }
    auto at = [](uint32_t i, uint32_t j) { return offset[i] + (j - i - 1); };
    cands.clear();
    for (uint32_t i = 0; i < m; ++i) {
        for (uint32_t j = i + 1; j < m; ++j) {
            double w = dist[at(i, j)];
            if (std::isfinite(w))
                cands.push_back(Cand{w, i, j});
        }
        double wb = dist[offset[i + 1] - 1];
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
            obs ^= pathObs[offset[c.i + 1] - 1];
        } else {
            used[c.j] = 1;
            obs ^= pathObs[at(c.i, c.j)];
        }
    }
    return obs;
}

} // namespace vlq
