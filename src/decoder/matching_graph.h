#ifndef VLQ_DECODER_MATCHING_GRAPH_H
#define VLQ_DECODER_MATCHING_GRAPH_H

#include <cstdint>
#include <vector>

#include "decoder/decoding_graph.h"
#include "dem/detector_model.h"

namespace vlq {

/**
 * Dense all-pairs view of the decoding graph used by the matching
 * decoders (exact blossom MWPM and the greedy ablation).
 *
 * The sparse edge structure comes from DecodingGraph (shared with the
 * union-find backend); on top of it this precomputes all-pairs shortest
 * paths (with the XOR of observable masks along each path) so per-trial
 * decoding only needs table lookups. The masks are stored in 8 bits, so
 * the matching decoders handle observables 0-7 only.
 */
class MatchingGraph
{
  public:
    using BuildStats = DecodingGraph::BuildStats;

    static MatchingGraph build(const DetectorErrorModel& dem);

    /**
     * Run all-pairs shortest paths over an existing sparse graph.
     * Exits with a fatal error when an edge flips an observable above
     * 7, which the 8-bit mask table cannot represent.
     */
    static MatchingGraph build(const DecodingGraph& graph);

    /** Number of detector nodes (excludes the boundary). */
    uint32_t numNodes() const { return numNodes_; }

    /** Shortest-path weight between two detectors. */
    double distance(uint32_t a, uint32_t b) const;

    /** XOR of observable masks along the shortest a-b path. */
    uint32_t pathObservables(uint32_t a, uint32_t b) const;

    /** Shortest-path weight from a detector to the boundary. */
    double boundaryDistance(uint32_t a) const;

    /** Observable mask along the shortest path to the boundary. */
    uint32_t boundaryObservables(uint32_t a) const;

    const BuildStats& stats() const { return stats_; }

    /** Number of distinct (deduplicated) edges, boundary included. */
    size_t numEdges() const { return edgeCount_; }

  private:
    uint32_t numNodes_ = 0;
    size_t edgeCount_ = 0;
    BuildStats stats_;

    // Dense tables: index boundary as node numNodes_.
    std::vector<float> dist_;     // (numNodes_+1)^2
    std::vector<uint8_t> obs_;    // observable masks along paths

    uint32_t stride() const { return numNodes_ + 1; }
};

} // namespace vlq

#endif // VLQ_DECODER_MATCHING_GRAPH_H
