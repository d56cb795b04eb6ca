#include "decoder/matching_graph.h"

#include <limits>
#include <string>

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
    : graph_(std::move(graph)), rows_(graph_.numNodes())
{
}

void
MatchingGraph::paths(uint32_t a, std::span<const uint32_t> targets,
                     std::span<float> dist, std::span<uint8_t> obs) const
{
    // A matching row settles completely when first asked for: its
    // readers always ask for the boundary, which paths may route
    // through, so a partial row would reach most of a graph small
    // enough for the exact path anyway, and a complete row reads as a
    // plain array. The search runs in double precision; the row stores
    // it rounded.
    rows_.get(
        a, targets, dist, obs,
        [this](uint32_t src, std::span<const uint32_t>, uint32_t,
               const DecodingGraph::Frontier*) {
            return graph_.settle(src, /*viaBoundary=*/true, {},
                                 std::numeric_limits<uint32_t>::max());
        },
        [](uint64_t ns, uint32_t) {
            static const obs::Histogram fillNs =
                obs::Histogram::get("matching.row_fill");
            fillNs.record(ns);
        },
        [](bool) {
            if (obs::metricsEnabled()) {
                static const obs::Counter filled =
                    obs::Counter::get("matching.rows_filled");
                filled.add(1);
            }
        });
}

} // namespace vlq
