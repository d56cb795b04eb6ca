#ifndef VLQ_DECODER_DECODER_H
#define VLQ_DECODER_DECODER_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pauli/bitvec.h"

namespace vlq {

class ShotBatch;

/** Interface shared by the decoders (enables decoder ablations). */
class Decoder
{
  public:
    virtual ~Decoder() = default;

    /**
     * Predict the observable flips explaining a detection-event set.
     * @param detectorFlips one bit per detector.
     * @return predicted observable bitmask.
     */
    virtual uint32_t decode(const BitVec& detectorFlips) const = 0;

    /**
     * Decode every shot of a batch: predictions[s] receives the
     * predicted observable bitmask for shot s. `predictions` must
     * hold at least batch.numShots() entries.
     *
     * Backends reuse per-shot scratch (event lists, cluster arenas,
     * edge buffers) across the whole batch. They must agree with
     * decode() shot-for-shot -- the batched Monte-Carlo engine's
     * reproducibility contract depends on it, and the test suite
     * checks it for every registered backend.
     */
    virtual void decodeBatch(const ShotBatch& batch,
                             std::span<uint32_t> predictions) const = 0;

  protected:
    /**
     * Shared decodeBatch core for event-list backends: gathers
     * per-shot event lists with one sparse sweep (reusing a
     * per-thread scratch) and calls `decodeEvents` per shot. The
     * per-shot std::function indirection is noise next to any real
     * decode.
     */
    void decodeBatchEvents(
        const ShotBatch& batch, std::span<uint32_t> predictions,
        const std::function<uint32_t(const std::vector<uint32_t>&)>&
            decodeEvents) const;
};

} // namespace vlq

#endif // VLQ_DECODER_DECODER_H
