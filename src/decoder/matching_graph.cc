#include "decoder/matching_graph.h"

#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
    // Plain Dijkstra in double precision over every node, boundary
    // included, rounded into the row at the end.
    const DecodingGraph::SoA& g = graph_.soa();
    thread_local std::vector<double> d;
    thread_local std::vector<uint32_t> pobs;
    d.assign(dist.size(), kInf);
    pobs.assign(dist.size(), 0);
    d[src] = 0.0;
    using QItem = std::pair<double, uint32_t>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> pq;
    pq.push({0.0, src});
    while (!pq.empty()) {
        auto [dv, v] = pq.top();
        pq.pop();
        if (dv > d[v])
            continue;
        for (uint32_t si = g.vertexBegin[v]; si < g.vertexBegin[v + 1];
             ++si) {
            const uint32_t e = g.slotEdge[si];
            const uint32_t to = g.slotOther[si];
            const double nd = dv + g.edgeWeight[e];
            if (nd < d[to]) {
                d[to] = nd;
                pobs[to] = pobs[v] ^ g.edgeObs[e];
                pq.push({nd, to});
            }
        }
    }
    for (size_t t = 0; t < dist.size(); ++t) {
        dist[t] = static_cast<float>(d[t]);
        pathObs[t] = static_cast<uint8_t>(pobs[t]);
    }
}

} // namespace vlq
