#ifndef VLQ_DECODER_SPARSE_BLOSSOM_H
#define VLQ_DECODER_SPARSE_BLOSSOM_H

#include <cstdint>
#include <span>
#include <vector>

#include "decoder/decoding_graph.h"

namespace vlq {

/**
 * Exact minimum-weight perfect matching of a syndrome's detection
 * events, grown on the decoding graph itself: sparse blossom (Higgott &
 * Gidney, arXiv:2303.15933; Fusion Blossom's serial solver, Wu & Zhong,
 * arXiv:2305.08307, has the same shape).
 *
 * Each detection event starts a region that grows over the graph's CSR
 * adjacency one weight unit per unit of time, the way union-find's
 * clusters grow. A region's radius is its Edmonds dual. When two
 * regions touch, or a region reaches the boundary, the matcher does
 * what Edmonds' blossom algorithm does with a newly tight edge: it
 * grows an alternating tree (outer regions grow, inner ones shrink,
 * matched ones are frozen), augments along a tree path, or contracts an
 * odd cycle into a blossom, which then grows as one region. An inner
 * blossom whose radius falls to zero is expanded again. Growth stops
 * when every region is matched, to another region or to the boundary;
 * the paths between matched events are shortest paths, so the result is
 * a minimum-weight perfect matching of the events on the graph's
 * shortest-path metric, boundary included. No shortest-path row is
 * filled: a shot costs what its regions touch.
 *
 * Weights are even integers fixed at construction, integerWeight(w) =
 * 2 llround(w 2^20) (the dense Galil solver's scale). Even weights make
 * every collision happen at an integer time, so all dual arithmetic is
 * exact. The largest weight the decoding graph produces is
 * ln(1e14) < 33, or 2^27 units, so a path of up to 2^35 edges fits the
 * int64 radii and times.
 *
 * Every per-shot structure lives in per-thread scratch. Node states
 * carry a shot stamp and read as untouched once the stamp is stale, so
 * nothing is cleared in proportion to the graph. Events are processed
 * in (time, insertion) order, so the matching is a pure function of
 * the graph and the event list (docs/ARCHITECTURE.md invariant 9).
 */
class SparseBlossom
{
  public:
    /** One matched pair of a decoded shot (diagnostics and tests). */
    struct MatchedPair
    {
        uint32_t a = 0;       // detector
        uint32_t b = 0;       // detector, or the graph's boundary node
        int64_t weight = 0;   // integer weight of the path used
        uint32_t observables = 0; // XOR of edge masks along that path
    };

    explicit SparseBlossom(const DecodingGraph& graph);

    /** The integer weight used for an edge of real weight `w`. */
    static int64_t integerWeight(double w);

    /**
     * Match `events` (ascending detectors; may be empty) and return
     * the XOR of the observable masks along the matched paths. When
     * `pairs` is non-null it receives the matched pairs. Panics when
     * the syndrome admits no perfect matching (an odd component with no
     * boundary edge).
     */
    uint32_t match(std::span<const uint32_t> events,
                   std::vector<MatchedPair>* pairs = nullptr) const;

  private:
    class Run;

    /** One adjacency slot: the neighbour across an edge. */
    struct Slot
    {
        int64_t weight;
        uint32_t other;
        uint32_t observables;
    };

    std::vector<uint32_t> begin_; // node v's slots: [begin_[v], begin_[v+1])
    std::vector<Slot> slots_;
    uint32_t boundary_ = 0;       // the graph's boundary node
};

} // namespace vlq

#endif // VLQ_DECODER_SPARSE_BLOSSOM_H
