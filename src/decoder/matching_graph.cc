#include "decoder/matching_graph.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <string>

#include "util/logging.h"

namespace vlq {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Observable bits the 8-bit path-mask table can hold. */
constexpr uint32_t kObservableMask = 0xFF;

} // namespace

MatchingGraph
MatchingGraph::build(const DetectorErrorModel& dem)
{
    return build(DecodingGraph::build(dem));
}

MatchingGraph
MatchingGraph::build(const DecodingGraph& graph)
{
    // Path masks are XORs of edge masks, so checking the edges bounds
    // every entry of the 8-bit table.
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

    MatchingGraph g;
    g.numNodes_ = graph.numDetectors();
    g.edgeCount_ = graph.edges().size();
    g.stats_ = graph.stats();

    const uint32_t n = g.stride();
    g.dist_.assign(static_cast<size_t>(n) * n,
                   std::numeric_limits<float>::infinity());
    g.obs_.assign(static_cast<size_t>(n) * n, 0);

    std::vector<double> dist(n);
    std::vector<uint32_t> pobs(n);
    using QItem = std::pair<double, uint32_t>;
    for (uint32_t src = 0; src < n; ++src) {
        std::fill(dist.begin(), dist.end(), kInf);
        std::fill(pobs.begin(), pobs.end(), 0u);
        dist[src] = 0.0;
        std::priority_queue<QItem, std::vector<QItem>,
                            std::greater<QItem>> pq;
        pq.push({0.0, src});
        while (!pq.empty()) {
            auto [d, v] = pq.top();
            pq.pop();
            if (d > dist[v])
                continue;
            for (uint32_t ei : graph.incidentEdges(v)) {
                const DecodingEdge& e = graph.edges()[ei];
                uint32_t to = e.a == v ? e.b : e.a;
                double nd = d + e.weight;
                if (nd < dist[to]) {
                    dist[to] = nd;
                    pobs[to] = pobs[v] ^ e.observables;
                    pq.push({nd, to});
                }
            }
        }
        for (uint32_t t = 0; t < n; ++t) {
            g.dist_[static_cast<size_t>(src) * n + t] =
                static_cast<float>(dist[t]);
            g.obs_[static_cast<size_t>(src) * n + t] =
                static_cast<uint8_t>(pobs[t]);
        }
    }
    return g;
}

double
MatchingGraph::distance(uint32_t a, uint32_t b) const
{
    return dist_[static_cast<size_t>(a) * stride() + b];
}

uint32_t
MatchingGraph::pathObservables(uint32_t a, uint32_t b) const
{
    return obs_[static_cast<size_t>(a) * stride() + b];
}

double
MatchingGraph::boundaryDistance(uint32_t a) const
{
    return distance(a, numNodes_);
}

uint32_t
MatchingGraph::boundaryObservables(uint32_t a) const
{
    return pathObservables(a, numNodes_);
}

} // namespace vlq
