#ifndef VLQ_DECODER_MWPM_DECODER_H
#define VLQ_DECODER_MWPM_DECODER_H

#include <cstdint>
#include <span>

#include "decoder/decoder.h"
#include "decoder/matching_graph.h"
#include "dem/detector_model.h"

namespace vlq {

/**
 * Minimum-weight perfect-matching decoder (the paper's "maximum
 * likelihood perfect matching").
 *
 * Every detection event is matched to another event or to the
 * boundary, along shortest paths in the decoding graph, at minimum
 * total weight; the XOR of the observable masks along the matched
 * paths is the correction's effect on the logicals. Each event's
 * shortest-path row comes from the MatchingGraph, which fills it on
 * first use and shares it across threads.
 *
 * Syndromes of at most kExactMatchingMaxDefects events -- nearly every
 * shot below threshold -- are solved by matchDefectsExact, the
 * branch-and-bound union-find's fast path also uses, on a table read
 * from the events' rows. Larger syndromes go to the exact
 * blossom algorithm as a perfect matching on the events' complete
 * graph, plus one boundary vertex joined to every event when the event
 * count is odd. That is exact because rows may route through the
 * boundary: no pair of events costs more than both of them exiting
 * there, so some minimum-weight matching sends at most one event to
 * the boundary, and parity says whether it sends one. Both solvers are
 * exact, so the two paths differ only in which of several equal-weight
 * matchings they return.
 */
class MwpmDecoder : public Decoder
{
  public:
    explicit MwpmDecoder(const DetectorErrorModel& dem);

    const MatchingGraph& graph() const { return graph_; }

  private:
    /** Heralds are ignored: they carry no weight in the matching. */
    uint32_t decodeShot(std::span<const uint32_t> events,
                        std::span<const uint32_t> erasureSites)
        const override;
    uint32_t decodeExact(std::span<const uint32_t> events) const;
    uint32_t decodeBlossom(std::span<const uint32_t> events) const;

    MatchingGraph graph_;
};

/**
 * Greedy matching decoder: repeatedly matches the closest available
 * pair (or event-boundary). Used as a decoder-quality ablation; it is
 * strictly weaker than MWPM and lowers the threshold.
 */
class GreedyDecoder : public Decoder
{
  public:
    explicit GreedyDecoder(const DetectorErrorModel& dem);

    const MatchingGraph& graph() const { return graph_; }

  private:
    /** Heralds are ignored, as in MwpmDecoder. */
    uint32_t decodeShot(std::span<const uint32_t> events,
                        std::span<const uint32_t> erasureSites)
        const override;

    MatchingGraph graph_;
};

} // namespace vlq

#endif // VLQ_DECODER_MWPM_DECODER_H
