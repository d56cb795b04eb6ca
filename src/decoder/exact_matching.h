#ifndef VLQ_DECODER_EXACT_MATCHING_H
#define VLQ_DECODER_EXACT_MATCHING_H

#include <cstdint>
#include <span>
#include <vector>

#include "decoder/decoding_graph.h"
#include "decoder/shortest_path_rows.h"

namespace vlq {

/**
 * Syndromes with at most this many detection events are matched
 * exactly by MatchingPaths::match instead of by cluster growth
 * (union-find's default UnionFindOptions::exactSyndromeThreshold) or by
 * sparse blossom (MwpmDecoder's cut-over). Below the code's error
 * threshold most shots fit. It is also the most defects
 * MatchingPaths::match takes.
 */
inline constexpr uint32_t kExactMatchingMaxDefects = 10;

/** One minimum-weight matching found by matchDefectsExact. */
struct ExactMatching
{
    /** False when no matching of finite weight exists. */
    bool found = false;
    double weight = 0.0;
    /** XOR of the observable masks of the chosen entries. */
    uint32_t observables = 0;
    uint32_t pairs = 0;           // defect-defect entries chosen
    uint32_t boundaryMatches = 0; // defect-boundary entries chosen
};

/**
 * Exact minimum-weight matching of k defects, each either paired with
 * another defect or matched to the boundary: the problem every
 * decoder's small-syndrome matching solves (see MatchingPaths::match).
 *
 * The caller fills the tables: `pairWeight` / `pairObs` are k x k,
 * row-major and symmetric (the diagonal is ignored); `boundaryWeight` /
 * `boundaryObs` hold k entries. An infinite weight forbids that entry.
 * k is boundaryWeight.size() and may not exceed 32.
 *
 * Branch-and-bound over pairings. Each defect pays at least
 * min(boundary, cheapest pair / 2) in any completion, and the sum of
 * those floors over the unmatched defects prunes most of the tree. From
 * k = 5 on, a greedy nearest-available pairing seeds the incumbent, so
 * the search mostly proves optimality rather than finding it. The
 * lowest unmatched defect branches boundary-first, then on partners in
 * index order, and only a strictly lighter completion replaces the
 * incumbent: the result is a deterministic function of the tables.
 */
ExactMatching matchDefectsExact(std::span<const double> pairWeight,
                                std::span<const uint32_t> pairObs,
                                std::span<const double> boundaryWeight,
                                std::span<const uint32_t> boundaryObs);

/**
 * A decoder's shortest paths over its decoding graph, as every
 * decoder's matching reads them: MWPM's and union-find's exact
 * small-syndrome matching, union-find's small clusters and greedy's
 * candidate list.
 *
 * A defect's boundary option comes from a table filled at construction
 * by one DecodingGraph::shortestPaths search from the boundary node.
 * Defect pairs come from rows of searches that never route through the
 * boundary (boundary pairing is the matching's separate option), held
 * in one ShortestPathRows: a row settles only as far as the defects a
 * thread reads it at, and is published without blocking and shared by
 * every thread after that. Weights are doubles and masks hold all 32
 * observable bits.
 */
class MatchingPaths
{
  public:
    explicit MatchingPaths(DecodingGraph graph);

    const DecodingGraph& graph() const { return graph_; }

    /** Shortest-path weight from node a to the boundary (or infinity). */
    double boundaryDistance(uint32_t a) const { return boundaryDist_[a]; }

    /** XOR of observable masks along that path. */
    uint32_t boundaryObservables(uint32_t a) const
    {
        return boundaryObs_[a];
    }

    /**
     * Boundary-free shortest paths from detector src to every node of
     * `targets` (see ShortestPathRows::get). Thread-safe and never
     * blocks.
     */
    void pairPaths(uint32_t src, std::span<const uint32_t> targets,
                   std::span<double> dist, std::span<uint32_t> obs) const;

    /**
     * Exact minimum-weight matching of `defects` (ascending, at most
     * kExactMatchingMaxDefects) over these paths, each defect paired or
     * sent to the boundary: fills matchDefectsExact's tables, each pair
     * from the smaller defect's row, so no answer depends on which
     * thread filled which row or how far. One and two defects are
     * decided without the tables, with the solver's tie rule (the
     * boundary wins a tie).
     */
    ExactMatching match(std::span<const uint32_t> defects) const;

  private:
    DecodingGraph graph_;
    std::vector<double> boundaryDist_;
    std::vector<uint32_t> boundaryObs_;
    ShortestPathRows rows_;
};

} // namespace vlq

#endif // VLQ_DECODER_EXACT_MATCHING_H
