#include "decoder/decoder.h"

#include <vector>

#include "dem/shot_batch.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

namespace {

/** Shots skipped (all-zero syndrome) vs decoded, per finished batch. */
void
countBatchShots(uint32_t shots, uint32_t trivial)
{
    if (!obs::metricsEnabled())
        return;
    static const obs::Counter batches =
        obs::Counter::get("decode.batches");
    static const obs::Counter decoded = obs::Counter::get("decode.shots");
    static const obs::Counter trivialShots =
        obs::Counter::get("decode.trivial_shots");
    batches.add(1);
    decoded.add(shots);
    trivialShots.add(trivial);
}

} // namespace

uint32_t
Decoder::decode(const BitVec& detectorFlips) const
{
    return decodeShot(detectorFlips.onesIndices(), {});
}

void
Decoder::decodeBatch(const ShotBatch& batch,
                     std::span<uint32_t> predictions) const
{
    VLQ_ASSERT(predictions.size() >= batch.numShots(),
               "decodeBatch predictions span too small");
    obs::StageTimer obsTimer("decode.batch");
    // Per-thread lists keep their capacity from batch to batch.
    static thread_local std::vector<std::vector<uint32_t>> events;
    static thread_local std::vector<std::vector<uint32_t>> sites;
    const bool heralds = batch.numErasureSites() > 0;
    {
        obs::StageTimer gatherTimer("decode.gather");
        batch.gatherEvents(events);
        if (heralds)
            batch.gatherErasures(sites);
    }
    uint32_t trivial = 0;
    for (uint32_t s = 0; s < batch.numShots(); ++s) {
        if (events[s].empty())
            ++trivial;
        predictions[s] = decodeShot(
            events[s], heralds ? std::span<const uint32_t>(sites[s])
                               : std::span<const uint32_t>());
    }
    countBatchShots(batch.numShots(), trivial);
}

} // namespace vlq
