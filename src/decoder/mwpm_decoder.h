#ifndef VLQ_DECODER_MWPM_DECODER_H
#define VLQ_DECODER_MWPM_DECODER_H

#include <cstdint>
#include <span>

#include "decoder/decoder.h"
#include "decoder/exact_matching.h"
#include "decoder/sparse_blossom.h"
#include "dem/detector_model.h"

namespace vlq {

/**
 * Minimum-weight perfect-matching decoder (the paper's "maximum
 * likelihood perfect matching").
 *
 * Every detection event is matched to another event or to the
 * boundary, along shortest paths in the decoding graph, at minimum
 * total weight; the XOR of the observable masks along the matched
 * paths is the correction's effect on the logicals.
 *
 * Syndromes of at most kExactMatchingMaxDefects events -- nearly every
 * shot below threshold -- are solved by MatchingPaths::match, the
 * small-syndrome matcher union-find runs too, on the decoder's
 * shortest-path rows and boundary table. Larger syndromes go to the
 * sparse-blossom matcher, which grows one region per event on the
 * decoding graph itself and fills no row (SparseBlossom). Both solvers
 * are exact; they differ only in which of several equal-weight
 * matchings they return, and in the matcher's integer edge weights,
 * which can order two matchings whose real weights differ by less than
 * the rounding.
 */
class MwpmDecoder : public Decoder
{
  public:
    explicit MwpmDecoder(const DetectorErrorModel& dem);

    const DecodingGraph& graph() const { return paths_.graph(); }

  private:
    /** Heralds are ignored: they carry no weight in the matching. */
    uint32_t decodeShot(std::span<const uint32_t> events,
                        std::span<const uint32_t> erasureSites)
        const override;

    MatchingPaths paths_;
    SparseBlossom matcher_;
};

/**
 * Greedy matching decoder: repeatedly matches the closest available
 * pair (or event-boundary), reading its own MatchingPaths as MWPM
 * does; equal weights go to the lower event index first. Used as a
 * decoder-quality ablation; it is strictly weaker than MWPM and lowers
 * the threshold.
 */
class GreedyDecoder : public Decoder
{
  public:
    explicit GreedyDecoder(const DetectorErrorModel& dem);

    const DecodingGraph& graph() const { return paths_.graph(); }

  private:
    /** Heralds are ignored, as in MwpmDecoder. */
    uint32_t decodeShot(std::span<const uint32_t> events,
                        std::span<const uint32_t> erasureSites)
        const override;

    MatchingPaths paths_;
};

} // namespace vlq

#endif // VLQ_DECODER_MWPM_DECODER_H
