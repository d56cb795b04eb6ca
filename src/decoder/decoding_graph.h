#ifndef VLQ_DECODER_DECODING_GRAPH_H
#define VLQ_DECODER_DECODING_GRAPH_H

#include <cstdint>
#include <span>
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
 * This is the shared substrate of all decoder backends: each decoder's
 * MatchingPaths fills its boundary table and shortest-path rows with
 * the graph's one shortest-path search (settle, or shortestPaths run to
 * completion), and union-find and sparse blossom grow directly on its
 * CSR adjacency. Every
 * weight is positive, so the search settles nodes from a circular
 * bucket queue (Dial's algorithm) whose buckets are narrower than the
 * lightest edge, and can stop after any bucket with every node settled
 * so far final. Every search starts at its source and keeps no state
 * between calls: a row widens by searching again, further, and the
 * wider stop settles a superset of the narrower one. finalize() sizes
 * the queue, and graphs whose weights span too wide a range for it
 * fall back to a binary-heap Dijkstra. Both give the same rows.
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

    /**
     * Single-source shortest paths from `src` over every node: dist[t]
     * receives the shortest-path weight from src to t (infinity when
     * unreachable) and obs[t] the XOR of observable masks along that
     * path. With `viaBoundary` false no path enters the boundary node,
     * so a detector source leaves dist[boundaryNode()] infinite. Both
     * spans hold numNodes() entries.
     *
     * The result equals, bit for bit, a Dijkstra that settles nodes in
     * (distance, index) order and replaces a found path only with a
     * strictly shorter one: dist[t] is the least double sum
     * dist[u] + weight(u, t) over t's neighbours u, and obs[t] follows
     * the neighbour that attains it first in (dist[u], u) order. So
     * the rows are a deterministic function of the graph, whichever
     * queue finalize() chose. This is settle() run to completion.
     */
    void shortestPaths(uint32_t src, bool viaBoundary,
                       std::span<double> dist,
                       std::span<uint32_t> obs) const;

    /**
     * What one settle() call settled. The spans point into the calling
     * thread's search scratch and stay valid until that thread's next
     * search.
     */
    struct Settled
    {
        /** The nodes settled, in settle order. */
        std::span<const uint32_t> nodes;
        /** By node; final at `nodes`. */
        std::span<const double> dist;
        std::span<const uint32_t> obs;
        /** Every node reachable from the source is settled. */
        bool complete = false;
    };

    /**
     * shortestPaths() from `src`, stopped early: the search settles
     * whole buckets in order and stops after the first bucket that
     * leaves every node of `targets` settled and at least `minSettled`
     * nodes settled in all, or when nothing reachable is left. A
     * search that has settled half the graph's nodes runs to
     * completion, which costs it at most what it already spent; so
     * does a target it cannot reach (the boundary with `viaBoundary`
     * false, or a node in another component).
     *
     * Every settled entry equals shortestPaths()' entry bit for bit.
     * A bucket is narrower than the lightest edge, so once the search
     * reaches a bucket nothing can improve or tie any node in it: a
     * node's distance and mask are final when its bucket is settled,
     * and the complete search performs the same relaxations up to that
     * bucket (their order within a bucket does not matter; see
     * shortestPaths()). The settled set is the union of the buckets
     * settled, so two stops from one source settle nested sets,
     * ordered by size. The heap fallback (see finalize()) always runs
     * to completion.
     */
    Settled settle(uint32_t src, bool viaBoundary,
                   std::span<const uint32_t> targets,
                   uint32_t minSettled) const;

    /** Number of detector nodes (excludes the boundary). */
    uint32_t numDetectors() const { return numDetectors_; }

    /** Total node count including the boundary. */
    uint32_t numNodes() const { return numDetectors_ + 1; }

    /** Index of the virtual boundary node. */
    uint32_t boundaryNode() const { return numDetectors_; }

    const std::vector<DecodingEdge>& edges() const { return edges_; }

    /** Indices into edges() of the edges incident to node v, ascending. */
    std::span<const uint32_t> incidentEdges(uint32_t v) const
    {
        return std::span<const uint32_t>(soa_.slotEdge)
            .subspan(soa_.vertexBegin[v],
                     soa_.vertexBegin[v + 1] - soa_.vertexBegin[v]);
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
     * The graph's adjacency and a structure-of-arrays copy of edges(),
     * built by finalize(). Hot decoder loops (union-find growth, the
     * shortest-path search, forest peeling) walk these contiguous
     * arrays instead of 40-byte edge structs.
     */
    struct SoA
    {
        /**
         * CSR adjacency over all nodes including the boundary: the
         * incident slots of node v are [vertexBegin[v],
         * vertexBegin[v + 1]), in ascending edge order.
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
    SoA soa_;
    std::vector<double> bestContribution_; // per edge, for obs arbitration
    double minWeight_ = 0.0;
    // The search's bucket queue, sized by finalize(): buckets of width
    // bucketWidth_, bucketMask_ + 1 of them (a power of two); a mask
    // of 0 selects the heap search.
    double bucketWidth_ = 0.0;
    uint32_t bucketMask_ = 0;
    BuildStats stats_;

    /** Index of edge (a, b), a <= b; a new edge takes the next index. */
    uint32_t edgeIndexFor(uint32_t a, uint32_t b);
    /** Slot of edge (a, b), a <= b, in edgeTable_, or the empty slot
     *  it would take. */
    size_t edgeSlot(uint32_t a, uint32_t b) const;
    /** Room for `n` edges: the table at most half full, and the edge
     *  arrays reserved. */
    void reserveEdges(size_t n);
    // Edges are numbered in the order their first contribution
    // arrives. This flat open-addressing table holds each edge's index
    // in a slot found by hashing its endpoints and probing linearly;
    // empty slots hold kNoEdge.
    std::vector<uint32_t> edgeTable_;
};

} // namespace vlq

#endif // VLQ_DECODER_DECODING_GRAPH_H
