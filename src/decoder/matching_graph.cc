#include "decoder/matching_graph.h"

#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

namespace {

/** Observable bits the 8-bit path masks can hold. */
constexpr uint32_t kObservableMask = 0xFF;

} // namespace

MatchingGraph
MatchingGraph::build(const DetectorErrorModel& dem)
{
    return build(DecodingGraph::build(dem));
}

MatchingGraph
MatchingGraph::build(DecodingGraph graph)
{
    // Path masks are XORs of edge masks, so checking the edges bounds
    // every entry of every 8-bit row.
    for (const DecodingEdge& e : graph.edges()) {
        if ((e.observables & ~kObservableMask) != 0) {
            std::string msg = "matching decoders store observable masks "
                "in 8 bits (observables 0-7), but edge ("
                + std::to_string(e.a) + ", " + std::to_string(e.b)
                + ") flips mask " + std::to_string(e.observables)
                + "; decode circuits with more observables with "
                  "union-find";
            VLQ_FATAL(msg.c_str());
        }
    }

    return MatchingGraph(std::move(graph));
}

MatchingGraph::MatchingGraph(DecodingGraph graph)
    : graph_(std::move(graph)), rows_(graph_.numNodes(), graph_.numNodes())
{
}

MatchingGraph::Row
MatchingGraph::row(uint32_t a) const
{
    return rows_.get(
        a,
        [this](uint32_t src, std::span<float> dist,
               std::span<uint8_t> pathObs) {
            fillRow(src, dist, pathObs);
        },
        [] {
            if (obs::metricsEnabled()) {
                static const obs::Counter filled =
                    obs::Counter::get("matching.rows_filled");
                filled.add(1);
            }
        });
}

void
MatchingGraph::fillRow(uint32_t src, std::span<float> dist,
                       std::span<uint8_t> pathObs) const
{
    // Every fill is timed, including copies that lose the publish race.
    const bool timed = obs::metricsEnabled();
    const uint64_t start = timed ? obs::traceNowNs() : 0;
    // The search runs in double precision; the row stores it rounded.
    thread_local std::vector<double> d;
    thread_local std::vector<uint32_t> pobs;
    d.resize(dist.size());
    pobs.resize(dist.size());
    graph_.shortestPaths(src, /*viaBoundary=*/true, d, pobs);
    for (size_t t = 0; t < dist.size(); ++t) {
        dist[t] = static_cast<float>(d[t]);
        pathObs[t] = static_cast<uint8_t>(pobs[t]);
    }
    if (timed) {
        static const obs::Histogram fillNs =
            obs::Histogram::get("matching.row_fill");
        fillNs.record(obs::traceNowNs() - start);
    }
}

} // namespace vlq
