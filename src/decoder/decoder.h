#ifndef VLQ_DECODER_DECODER_H
#define VLQ_DECODER_DECODER_H

#include <cstdint>
#include <span>

#include "pauli/bitvec.h"

namespace vlq {

class ShotBatch;

/**
 * Interface shared by the decoders (enables decoder ablations). A
 * decoder implements decodeShot(); decode() and the batch loop are
 * shared by all of them.
 */
class Decoder
{
  public:
    virtual ~Decoder() = default;

    /**
     * Predict the observable flips explaining a detection-event set.
     * @param detectorFlips one bit per detector.
     * @return predicted observable bitmask.
     */
    uint32_t decode(const BitVec& detectorFlips) const;

    /**
     * Decode every shot of a batch: predictions[s] receives the
     * predicted observable bitmask for shot s. `predictions` must
     * hold at least batch.numShots() entries.
     *
     * One sparse sweep gathers every shot's events, and its heralds
     * when the batch has erasure rows; then decodeShot() runs once per
     * shot. A batch without heralds agrees with decode() shot-for-shot
     * -- the batched Monte-Carlo engine's reproducibility contract
     * depends on it, and the test suite checks it for every registered
     * decoder. With heralds, union-find agrees with
     * UnionFindDecoder::decodeWithErasures instead, and the matching
     * decoders, which ignore heralds, still agree with decode().
     */
    virtual void decodeBatch(const ShotBatch& batch,
                             std::span<uint32_t> predictions) const;

  protected:
    /**
     * Decode one shot. `events` lists its flipped detectors and
     * `erasureSites` its heralded-erasure sites, both ascending;
     * `erasureSites` is empty when the shot has no heralds. Decoders
     * that cannot use heralds ignore them.
     */
    virtual uint32_t decodeShot(
        std::span<const uint32_t> events,
        std::span<const uint32_t> erasureSites) const = 0;
};

} // namespace vlq

#endif // VLQ_DECODER_DECODER_H
