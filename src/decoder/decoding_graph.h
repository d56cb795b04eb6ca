#ifndef VLQ_DECODER_DECODING_GRAPH_H
#define VLQ_DECODER_DECODING_GRAPH_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dem/detector_model.h"

namespace vlq {

/** One (deduplicated) edge of the decoding graph. */
struct DecodingEdge
{
    uint32_t a = 0;            // smaller endpoint
    uint32_t b = 0;            // larger endpoint (may be the boundary)
    double probability = 0.0;  // combined independent flip probability
    double weight = 0.0;       // log-likelihood ratio ln((1-p)/p)
    uint32_t observables = 0;  // observable mask of the dominant fault
};

/**
 * Sparse decoding graph derived from a detector error model.
 *
 * Nodes are detectors plus one virtual boundary node (index
 * numDetectors()). Every fault outcome flipping one detector contributes
 * a boundary edge; two detectors, a regular edge; more than two (rare
 * correlated events) are greedily decomposed into known edges. Parallel
 * contributions combine as independent flip probabilities
 * (p = p1 + p2 - 2 p1 p2) and edge weights are the standard
 * log-likelihood ratios ln((1-p)/p).
 *
 * This is the shared substrate of all decoder backends: the matching
 * path fills single-source shortest-path rows over it on demand, and
 * the union-find path grows clusters directly on the adjacency lists.
 */
class DecodingGraph
{
  public:
    /** Diagnostics from graph construction. */
    struct BuildStats
    {
        /** Outcomes with >2 detectors that fit known edges. */
        uint32_t decomposed = 0;
        /** Outcomes with >2 detectors needing arbitrary pairing. */
        uint32_t forcedPairings = 0;
        /** Edges whose contributions disagreed on the observable. */
        uint32_t observableConflicts = 0;
    };

    DecodingGraph() = default;

    /** Start a hand-built graph with the given detector count. */
    explicit DecodingGraph(uint32_t numDetectors);

    /** Derive the graph from a detector error model. */
    static DecodingGraph build(const DetectorErrorModel& dem);

    /**
     * Merge one fault contribution into the edge (a, b); b may be
     * boundaryNode(). Parallel contributions combine independently and
     * the strongest contribution's observable mask wins. Call
     * finalize() after the last contribution.
     */
    void addContribution(uint32_t a, uint32_t b, double probability,
                         uint32_t observables);

    /** Recompute weights and adjacency after addContribution calls. */
    void finalize();

    /** Number of detector nodes (excludes the boundary). */
    uint32_t numDetectors() const { return numDetectors_; }

    /** Total node count including the boundary. */
    uint32_t numNodes() const { return numDetectors_ + 1; }

    /** Index of the virtual boundary node. */
    uint32_t boundaryNode() const { return numDetectors_; }

    const std::vector<DecodingEdge>& edges() const { return edges_; }

    /** Indices into edges() of the edges incident to node v. */
    const std::vector<uint32_t>& incidentEdges(uint32_t v) const
    {
        return adjacency_[v];
    }

    /** The endpoint of edge e that is not v. */
    uint32_t otherEndpoint(uint32_t e, uint32_t v) const
    {
        const DecodingEdge& edge = edges_[e];
        return edge.a == v ? edge.b : edge.a;
    }

    /**
     * Index of the edge between a and b (either order; b may be the
     * boundary), or -1 when no fault contributes such an edge.
     */
    int32_t findEdge(uint32_t a, uint32_t b) const;

    /**
     * Structure-of-arrays mirror of edges() + incidentEdges(), rebuilt
     * by finalize(). Hot decoder loops (union-find growth, Dijkstra
     * searches, forest peeling) walk these contiguous arrays instead of
     * chasing vector<vector> adjacency lists and 40-byte edge structs.
     * Slot order matches incidentEdges() exactly and the per-edge
     * arrays are parallel to edges(), so iteration-order-dependent
     * tie-breaks (and therefore decoder output) are unchanged.
     */
    struct SoA
    {
        /**
         * CSR adjacency over all nodes including the boundary: the
         * incident slots of node v are [vertexBegin[v],
         * vertexBegin[v + 1]).
         */
        std::vector<uint32_t> vertexBegin;
        std::vector<uint32_t> slotEdge;  // edge index at each slot
        std::vector<uint32_t> slotOther; // opposite endpoint at the slot

        /** Flat per-edge fields, parallel to edges(). */
        std::vector<uint32_t> edgeA;
        std::vector<uint32_t> edgeB;
        std::vector<double> edgeWeight;
        std::vector<uint32_t> edgeObs;
    };

    const SoA& soa() const { return soa_; }

    /** Smallest positive edge weight (0 when the graph is empty). */
    double minWeight() const { return minWeight_; }

    const BuildStats& stats() const { return stats_; }

  private:
    uint32_t numDetectors_ = 0;
    std::vector<DecodingEdge> edges_;
    std::vector<std::vector<uint32_t>> adjacency_;
    SoA soa_;
    std::vector<double> bestContribution_; // per edge, for obs arbitration
    double minWeight_ = 0.0;
    BuildStats stats_;

    uint32_t edgeIndexFor(uint32_t a, uint32_t b);
    // Map from packed (a << 32 | b) key to edge index.
    std::unordered_map<uint64_t, uint32_t> edgeIndex_;
};

} // namespace vlq

#endif // VLQ_DECODER_DECODING_GRAPH_H
