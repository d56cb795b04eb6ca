#ifndef VLQ_TESTS_DISTANCE_ORACLE_H
#define VLQ_TESTS_DISTANCE_ORACLE_H

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "decoder/decoding_graph.h"

namespace vlq {

/**
 * Dense all-pairs shortest paths of a decoding graph, paths through
 * the boundary allowed: the tests' distance oracle, independent of the
 * decoders' rows and boundary table. Row a is
 * DecodingGraph::shortestPaths(a, viaBoundary = true), so no detector
 * pair is dearer than both detectors exiting at the boundary.
 */
class DenseDistances
{
  public:
    explicit DenseDistances(const DecodingGraph& graph);

    uint32_t numDetectors() const { return boundary_; }

    double distance(uint32_t a, uint32_t b) const
    {
        return dist_[size_t{a} * (boundary_ + 1) + b];
    }

    /** XOR of observable masks along the shortest a-b path. */
    uint32_t pathObservables(uint32_t a, uint32_t b) const
    {
        return obs_[size_t{a} * (boundary_ + 1) + b];
    }

    double boundaryDistance(uint32_t a) const
    {
        return distance(a, boundary_);
    }

    uint32_t boundaryObservables(uint32_t a) const
    {
        return pathObservables(a, boundary_);
    }

  private:
    uint32_t boundary_ = 0;
    std::vector<double> dist_;
    std::vector<uint32_t> obs_;
};

/** A matching's total weight and the XOR of its observable masks. */
struct MatchingAnswer
{
    double weight = 0.0;
    uint32_t observables = 0;
};

/**
 * Every matching of `events`, each event paired with another or sent
 * to the boundary along shortest paths: the search every matching
 * decoder optimizes over, so it defines "equal-weight correction".
 */
std::vector<MatchingAnswer> enumerateMatchings(
    const DenseDistances& d, const std::vector<uint32_t>& events);

/**
 * Dense blossom reference (the oracle in tests/blossom_oracle.h),
 * independent of the decoders' solvers: the complete-graph formulation
 * over `d` with a private boundary copy per event (copies joined at
 * zero weight), solved with the uniform-start maxWeightMatching on
 * complemented weights rather than the warm-started
 * minWeightPerfectMatching. The private copies are exact because no
 * pair of `d` is dearer than its two boundary exits.
 */
MatchingAnswer blossomReference(const DenseDistances& d,
                                const std::vector<uint32_t>& events);

/** No detector pair of `d` is dearer than its two boundary exits. */
void expectPairsNoDearerThanBoundary(const DenseDistances& d);

/**
 * Accept a union-find prediction when some matching achieving it is
 * within `relTol` of the minimum matching weight: either the decoders
 * agree, or the syndrome is (near-)degenerate and both corrections are
 * minimum-weight. The tolerance absorbs the UF weight quantization
 * (1/granularity per edge); genuinely wrong pairings differ by at
 * least one full edge weight and stay rejected.
 */
::testing::AssertionResult ufPredictionIsMinWeight(
    uint32_t ufObs, const std::vector<uint32_t>& events,
    const DenseDistances& d, double relTol = 0.05);

} // namespace vlq

#endif // VLQ_TESTS_DISTANCE_ORACLE_H
