#ifndef VLQ_TESTS_BLOSSOM_ORACLE_H
#define VLQ_TESTS_BLOSSOM_ORACLE_H

#include <cstdint>
#include <vector>

namespace vlq {

/** An undirected weighted edge for matching problems. */
struct MatchEdge
{
    int u = 0;
    int v = 0;
    double weight = 0.0;
};

/**
 * Exact maximum-weight matching in general graphs: the dense reference
 * solver the tests check the decoders' matchers against. No decoder
 * uses it.
 *
 * Implementation of Galil's O(V^3) blossom algorithm (the formulation
 * popularized by van Rantwijk and used by networkx). Weights are scaled
 * to even integers internally so that all dual-variable arithmetic is
 * exact; results are deterministic.
 *
 * @param numVertices vertex count (vertices are 0..numVertices-1).
 * @param edges       edge list; self-loops and out-of-range endpoints
 *                    are rejected (fatal error).
 * @param maxCardinality when true, only maximum-cardinality matchings
 *                    are considered (needed to force perfect matchings).
 * @return mate[v] = matched partner of v, or -1 when unmatched.
 */
std::vector<int> maxWeightMatching(int numVertices,
                                   const std::vector<MatchEdge>& edges,
                                   bool maxCardinality);

/**
 * Exact minimum-weight perfect matching: complement weights and run
 * max-cardinality maximum-weight matching. The graph must admit a
 * perfect matching (checked: aborts otherwise).
 *
 * Unlike maxWeightMatching, the solver is warm-started, as Blossom V
 * initializes: greedy per-vertex duals and a greedy matching of tight
 * edges. Duals stay feasible and every matched edge tight, so the
 * result is still optimal and blossom starts from a nearly complete
 * matching. maxWeightMatching keeps the uniform start because its other
 * uses need the free vertices' duals equal: without maxCardinality it
 * stops once their common dual reaches zero, and on a graph without a
 * perfect matching that equality is what makes the result optimal.
 */
std::vector<int> minWeightPerfectMatching(
    int numVertices, const std::vector<MatchEdge>& edges);

} // namespace vlq

#endif // VLQ_TESTS_BLOSSOM_ORACLE_H
