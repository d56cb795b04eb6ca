#ifndef VLQ_DECODER_MATCHING_GRAPH_H
#define VLQ_DECODER_MATCHING_GRAPH_H

#include <cstdint>
#include <span>

#include "decoder/decoding_graph.h"
#include "decoder/shortest_path_rows.h"
#include "dem/detector_model.h"

namespace vlq {

/**
 * Shortest-path view of the decoding graph used by the matching
 * decoders (exact MWPM and the greedy ablation).
 *
 * Owns the sparse DecodingGraph (shared in structure with the
 * union-find backend) and serves shortest paths from it as rows: row a
 * holds the path weight and the XOR of observable masks along the
 * shortest path from detector a to every node, the boundary included.
 * Readers ask a row for the nodes they need (the matching decoders ask
 * for the later events and the boundary). Building fills no row; a
 * row is filled by one complete shortest-path search
 * (DecodingGraph::settle) when a thread first asks for it, published
 * without blocking, and shared by every thread after that
 * (ShortestPathRows), so a decoder pays only for the detectors its
 * syndromes touch. The `matching.row_fill` histogram times every fill.
 * Paths may route through the boundary node. Weights are stored as
 * floats and masks in 8 bits, so the matching decoders handle
 * observables 0-7 only.
 */
class MatchingGraph
{
  public:
    using BuildStats = DecodingGraph::BuildStats;

    static MatchingGraph build(const DetectorErrorModel& dem);

    /**
     * Serve shortest paths over an existing sparse graph. Exits with a
     * fatal error when an edge flips an observable above 7, which the
     * 8-bit masks cannot represent.
     */
    static MatchingGraph build(DecodingGraph graph);

    /** Number of detector nodes (excludes the boundary). */
    uint32_t numNodes() const { return graph_.numDetectors(); }

    /** Row index of the boundary: numNodes(). */
    uint32_t boundaryNode() const { return graph_.boundaryNode(); }

    /**
     * Shortest paths from node a to every node of `targets`, which may
     * include boundaryNode(): dist[i] receives the path weight to
     * targets[i] (infinity when unreachable) and obs[i] the XOR of
     * observable masks along the path (see ShortestPathRows::get).
     * Thread-safe and never blocks; a call that finds row a
     * unpublished fills it, and the call whose copy is published bumps
     * `matching.rows_filled`.
     */
    void paths(uint32_t a, std::span<const uint32_t> targets,
               std::span<float> dist, std::span<uint8_t> obs) const;

    /** Shortest-path weight between two nodes (row a). */
    double distance(uint32_t a, uint32_t b) const
    {
        float d = 0.0f;
        uint8_t o = 0;
        paths(a, std::span<const uint32_t>(&b, 1), std::span<float>(&d, 1),
              std::span<uint8_t>(&o, 1));
        return d;
    }

    /** XOR of observable masks along the shortest a-b path (row a). */
    uint32_t pathObservables(uint32_t a, uint32_t b) const
    {
        float d = 0.0f;
        uint8_t o = 0;
        paths(a, std::span<const uint32_t>(&b, 1), std::span<float>(&d, 1),
              std::span<uint8_t>(&o, 1));
        return o;
    }

    /** Shortest-path weight from a detector to the boundary. */
    double boundaryDistance(uint32_t a) const
    {
        return distance(a, boundaryNode());
    }

    /** Observable mask along the shortest path to the boundary. */
    uint32_t boundaryObservables(uint32_t a) const
    {
        return pathObservables(a, boundaryNode());
    }

    const BuildStats& stats() const { return graph_.stats(); }

    /** The sparse graph the rows are searched on. */
    const DecodingGraph& decodingGraph() const { return graph_; }

    /** Number of distinct (deduplicated) edges, boundary included. */
    size_t numEdges() const { return graph_.edges().size(); }

  private:
    explicit MatchingGraph(DecodingGraph graph);

    DecodingGraph graph_;
    ShortestPathRows<float, uint8_t> rows_;
};

} // namespace vlq

#endif // VLQ_DECODER_MATCHING_GRAPH_H
