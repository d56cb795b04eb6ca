#ifndef VLQ_DECODER_EXACT_MATCHING_H
#define VLQ_DECODER_EXACT_MATCHING_H

#include <cstdint>
#include <span>

namespace vlq {

/**
 * Syndromes with at most this many detection events are matched
 * exactly by matchDefectsExact instead of by cluster growth (union-find's
 * default UnionFindOptions::exactSyndromeThreshold) or by sparse
 * blossom (MwpmDecoder's cut-over). Below the code's error threshold most
 * shots fit.
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
 * another defect or matched to the boundary: the problem both matching
 * decoders solve on small syndromes.
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

} // namespace vlq

#endif // VLQ_DECODER_EXACT_MATCHING_H
