#include "dem/shot_batch.h"

#include <bit>

#include "util/logging.h"

namespace vlq {

void
ShotBatch::reset(uint32_t numDetectors, uint32_t numObservables,
                 uint32_t numShots, uint64_t firstTrial,
                 uint32_t numErasureSites)
{
    VLQ_ASSERT(numShots > 0, "ShotBatch::reset needs at least one shot");
    numShots_ = numShots;
    numDetectors_ = numDetectors;
    numObservables_ = numObservables;
    numErasureSites_ = numErasureSites;
    firstTrial_ = firstTrial;
    wordsPerRow_ = (numShots + kWordBits - 1) / kWordBits;
    size_t rowBits = static_cast<size_t>(wordsPerRow_) * kWordBits;
    detectorBits_.resize(numDetectors * rowBits);
    detectorBits_.clear();
    observableBits_.resize(numObservables * rowBits);
    observableBits_.clear();
    erasureBits_.resize(numErasureSites * rowBits);
    erasureBits_.clear();
}

uint32_t
ShotBatch::observables(uint32_t shot) const
{
    uint32_t mask = 0;
    uint32_t wi = shot / kWordBits;
    uint32_t bit = shot % kWordBits;
    for (uint32_t o = 0; o < numObservables_; ++o)
        mask |= static_cast<uint32_t>((observableRow(o)[wi] >> bit) & 1)
            << o;
    return mask;
}

void
ShotBatch::extractShot(uint32_t shot, BitVec& detectors) const
{
    if (detectors.size() != numDetectors_)
        detectors.resize(numDetectors_);
    detectors.clear();
    uint32_t wi = shot / kWordBits;
    uint32_t bit = shot % kWordBits;
    uint64_t* out = detectors.wordData();
    for (uint32_t d = 0; d < numDetectors_; ++d) {
        uint64_t v = (detectorRow(d)[wi] >> bit) & 1;
        out[d / kWordBits] |= v << (d % kWordBits);
    }
}

uint64_t
ShotBatch::nonTrivialMask(uint32_t wordIndex) const
{
    uint64_t acc = 0;
    const uint64_t* words = detectorBits_.wordData() + wordIndex;
    for (uint32_t d = 0; d < numDetectors_; ++d)
        acc |= words[static_cast<size_t>(d) * wordsPerRow_];
    return acc;
}

void
ShotBatch::gatherEvents(
    std::vector<std::vector<uint32_t>>& events) const
{
    gatherRows(detectorBits_.wordData(), numDetectors_, events);
}

void
ShotBatch::gatherErasures(
    std::vector<std::vector<uint32_t>>& sites) const
{
    gatherRows(erasureBits_.wordData(), numErasureSites_, sites);
}

void
ShotBatch::gatherRows(const uint64_t* rows, uint32_t numRows,
                      std::vector<std::vector<uint32_t>>& lists) const
{
    if (lists.size() < numShots_)
        lists.resize(numShots_);
    for (uint32_t s = 0; s < numShots_; ++s)
        lists[s].clear();
    // Rows ascending, so each shot's list comes out sorted for free.
    for (uint32_t r = 0; r < numRows; ++r) {
        const uint64_t* row = rows + static_cast<size_t>(r) * wordsPerRow_;
        for (uint32_t wi = 0; wi < wordsPerRow_; ++wi) {
            uint64_t w = row[wi];
            while (w) {
                uint32_t lane =
                    static_cast<uint32_t>(std::countr_zero(w));
                uint32_t shot = wi * kWordBits + lane;
                if (shot < numShots_)
                    lists[shot].push_back(r);
                w &= w - 1;
            }
        }
    }
}

} // namespace vlq
