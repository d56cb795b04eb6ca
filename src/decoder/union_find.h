#ifndef VLQ_DECODER_UNION_FIND_H
#define VLQ_DECODER_UNION_FIND_H

#include <cstdint>
#include <span>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/decoding_graph.h"
#include "decoder/exact_matching.h"
#include "dem/detector_model.h"

namespace vlq {

/** Tuning knobs of the union-find decoder. */
struct UnionFindOptions
{
    /**
     * Syndromes with at most this many detection events skip cluster
     * growth entirely and get one exact minimum-weight matching of
     * all defects over global shortest-path distances -- the same
     * formulation as the MWPM decoder, solved by MatchingPaths::match
     * (the matcher MwpmDecoder uses below the same event count), so
     * small syndromes (the bulk of every below-threshold shot) are
     * decoded MWPM-exactly at a fraction of the growth path's cost.
     * 0 disables the fast path (tests of the growth machinery do
     * this); larger values are clamped to kExactMatchingMaxDefects,
     * the most MatchingPaths::match takes.
     */
    uint32_t exactSyndromeThreshold = kExactMatchingMaxDefects;
};

/**
 * Weighted union-find decoder (Delfosse & Nickerson style).
 *
 * Edge weights are quantized into integer growth ticks, 32 for the
 * minimum-weight edge. Every defect (detection event) starts as its
 * own cluster; growth is event-driven:
 * each round, every *active* cluster -- odd defect parity and no
 * boundary contact -- claims its frontier edges (an edge claimed from
 * both endpoints fills twice as fast) and time advances by the
 * smallest tick count that fills some edge. A filled ("grown") edge
 * merges its endpoint clusters (union by frontier size, find with path
 * compression); newly absorbed vertices contribute their incident
 * edges to the frontier. Contact with the virtual boundary node
 * freezes a cluster without unioning into it: two clusters that each
 * reached the boundary before reaching each other are strictly better
 * off matching to the boundary separately, so keeping them apart is
 * exact and stops the shared boundary node from chaining unrelated
 * clusters together. Growth stops when no active cluster remains.
 *
 * Each finished cluster is then peeled independently. Small clusters
 * -- the bulk of the work below threshold -- get an exact
 * minimum-weight matching of their defects over global shortest-path
 * distances (MatchingPaths::match, MWPM's small-syndrome matcher: a
 * boundary table plus boundary-free rows that settle only as far as
 * their readers reach). Large clusters fall back to the classic
 * linear peel of a spanning forest of their grown edges. The XOR of
 * observable masks along the chosen paths is the correction. It agrees
 * with MWPM on small syndromes up to genuine weight degeneracy, but it
 * is neither the faster nor the more accurate backend at large
 * distance: at d=13, p=3e-3 every shot takes the growth path, at about
 * 3.6 times the sparse matcher's cost per shot (a `uf.growth` mean of
 * 81 us against 23 us for `mwpm.blossom` in a metrics-on run of
 * pipebench's large-d grid on a 4-vCPU Xeon), and it fails about ten
 * times as often.
 *
 * Syndromes below UnionFindOptions::exactSyndromeThreshold events
 * short-circuit growth altogether (see the option's doc): the scratch
 * arenas use monotonic stamps, so that fast path touches only
 * O(events) state per shot -- the property the batched Monte-Carlo
 * engine leans on.
 */
class UnionFindDecoder : public Decoder
{
  public:
    /** Diagnostics of one decode call (tests and tuning). */
    struct DecodeInfo
    {
        uint32_t growthRounds = 0;
        uint32_t initialClusters = 0;
        uint32_t matchedPairs = 0;     // defect-defect correction chains
        uint32_t boundaryMatches = 0;  // defect-boundary chains
    };

    explicit UnionFindDecoder(const DetectorErrorModel& dem,
                              UnionFindOptions options = {});

    /** Decode over a pre-built (possibly hand-built) graph. */
    explicit UnionFindDecoder(DecodingGraph graph,
                              UnionFindOptions options = {});

    using Decoder::decode;

    /**
     * The shared batch loop, then this thread's decode-path mix as
     * trace counter tracks. When the batch carries heralded-erasure
     * rows, each shot's erased edges are seeded at zero weight (see
     * decodeWithErasures).
     */
    void decodeBatch(const ShotBatch& batch,
                     std::span<uint32_t> predictions) const override;

    /** decode() variant that also reports diagnostics. */
    uint32_t decode(const BitVec& detectorFlips, DecodeInfo* info) const;

    /**
     * Erasure-aware decode: `erasures` holds one bit per DEM erasure
     * site (a shot's ShotBatch::erased bits). The edges of heralded sites
     * are grown to full support at time zero -- erasure costs nothing,
     * the Delfosse-Nickerson zero-weight seeding -- before ordinary
     * weighted growth, and clusters containing erased edges peel on
     * their spanning forests (exact for erasure-only shots). Requires
     * construction from a DetectorErrorModel (the graph alone cannot
     * map sites to edges).
     */
    uint32_t decodeWithErasures(const BitVec& detectorFlips,
                                const BitVec& erasures,
                                DecodeInfo* info = nullptr) const;

    /**
     * Lower-level erasure decode on explicit edge indices (hand-built
     * graph tests and the batched path).
     */
    uint32_t decodeErasedEdges(const BitVec& detectorFlips,
                               const std::vector<uint32_t>& erasedEdges,
                               DecodeInfo* info = nullptr) const;

    /** Edges seeded by each heralded-erasure site (diagnostics). */
    const std::vector<std::vector<uint32_t>>& erasureSiteEdges() const
    {
        return erasureSiteEdges_;
    }

    const DecodingGraph& graph() const { return paths_.graph(); }

    /** Growth ticks of edge e (the quantized weight). */
    uint32_t edgeCapacity(uint32_t e) const { return capacity_[e]; }

  private:
    /** Seeds the shot's heralded sites, as decodeWithErasures does. */
    uint32_t decodeShot(std::span<const uint32_t> events,
                        std::span<const uint32_t> erasureSites)
        const override;

    /**
     * The decode core, on a pre-extracted ascending event list.
     * `erasedEdges` (possibly with duplicates) is pre-grown at zero
     * weight; pass an empty list for ordinary decoding.
     */
    uint32_t decodeEvents(std::span<const uint32_t> events,
                          std::span<const uint32_t> erasedEdges,
                          DecodeInfo* info) const;

    /** Flatten fired erasure-site indices into their edges. */
    void mapErasureSites(std::span<const uint32_t> sites,
                         std::vector<uint32_t>& edges) const;

    MatchingPaths paths_;
    /** Edge indices seeded by each heralded-erasure site. */
    std::vector<std::vector<uint32_t>> erasureSiteEdges_;
    uint32_t exactSyndromeThreshold_ = 0;
    std::vector<uint16_t> capacity_;
    // Distinguishes this instance in the per-thread scratch, whose
    // edge records carry a copy of capacity_.
    uint64_t scratchEpoch_ = 0;
};

} // namespace vlq

#endif // VLQ_DECODER_UNION_FIND_H
