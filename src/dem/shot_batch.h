#ifndef VLQ_DEM_SHOT_BATCH_H
#define VLQ_DEM_SHOT_BATCH_H

#include <cstdint>
#include <vector>

#include "pauli/bitvec.h"

namespace vlq {

/**
 * A batch of sampled shots in transposed, bit-packed layout.
 *
 * Instead of one detector BitVec per shot, the batch stores one word
 * row per *detector*: bit s of detector d's row is shot s's outcome
 * for that detector (and likewise one row per observable). Shots pack
 * 64 to a word, so whole-batch operations -- "which shots saw any
 * event at all", "which shots failed" -- collapse to a handful of
 * word ops, and decoders can gather per-shot event lists with one
 * sparse sweep over the rows instead of re-scanning a BitVec per
 * shot. This is the layout Stim-style frame samplers use to reach
 * orders-of-magnitude sampler throughput.
 *
 * The batch also records which Monte-Carlo trials it covers
 * (`firstTrial`, `numShots`): shot s is trial firstTrial + s, which
 * is what keeps batched runs bit-identical to any other batching of
 * the same trials.
 */
class ShotBatch
{
  public:
    /** Shots per packed word. */
    static constexpr uint32_t kWordBits = 64;

    ShotBatch() = default;

    /**
     * Size for a batch of `numShots` shots of a model with the given
     * detector/observable counts, covering trials
     * [firstTrial, firstTrial + numShots). Zeroes all rows. Backing
     * storage is reused across calls (no steady-state allocation).
     * `numErasureSites` adds one row per heralded-erasure site; 0 for
     * models without erasure (no overhead).
     */
    void reset(uint32_t numDetectors, uint32_t numObservables,
               uint32_t numShots, uint64_t firstTrial = 0,
               uint32_t numErasureSites = 0);

    uint32_t numShots() const { return numShots_; }
    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }
    uint32_t numErasureSites() const { return numErasureSites_; }
    uint64_t firstTrial() const { return firstTrial_; }

    /** Words per row: ceil(numShots / 64). */
    uint32_t wordsPerRow() const { return wordsPerRow_; }

    /** Row of packed shot bits for one detector. */
    uint64_t* detectorRow(uint32_t detector)
    {
        return detectorBits_.wordData()
            + static_cast<size_t>(detector) * wordsPerRow_;
    }
    const uint64_t* detectorRow(uint32_t detector) const
    {
        return detectorBits_.wordData()
            + static_cast<size_t>(detector) * wordsPerRow_;
    }

    /** Row of packed shot bits for one observable. */
    uint64_t* observableRow(uint32_t observable)
    {
        return observableBits_.wordData()
            + static_cast<size_t>(observable) * wordsPerRow_;
    }
    const uint64_t* observableRow(uint32_t observable) const
    {
        return observableBits_.wordData()
            + static_cast<size_t>(observable) * wordsPerRow_;
    }

    /** Row of packed herald bits for one erasure site. */
    uint64_t* erasureRow(uint32_t site)
    {
        return erasureBits_.wordData()
            + static_cast<size_t>(site) * wordsPerRow_;
    }
    const uint64_t* erasureRow(uint32_t site) const
    {
        return erasureBits_.wordData()
            + static_cast<size_t>(site) * wordsPerRow_;
    }

    /** Shot s's outcome for one detector. */
    bool detector(uint32_t shot, uint32_t det) const
    {
        return (detectorRow(det)[shot / kWordBits]
                >> (shot % kWordBits)) & 1;
    }

    /** Whether erasure site `site` was heralded in shot s. */
    bool erased(uint32_t shot, uint32_t site) const
    {
        return (erasureRow(site)[shot / kWordBits]
                >> (shot % kWordBits)) & 1;
    }

    /** Shot s's observable flips, re-assembled into a bitmask. */
    uint32_t observables(uint32_t shot) const;

    /**
     * Extract shot s's detector column into a per-shot BitVec (sized
     * to numDetectors). The bridge to scalar decode().
     */
    void extractShot(uint32_t shot, BitVec& detectors) const;

    /**
     * Word of lanes with at least one detection event: bit s of word
     * `wordIndex` is set iff shot wordIndex*64+s has any event. One
     * OR-sweep over the rows; lets batch decoders skip trivial shots
     * without touching them.
     */
    uint64_t nonTrivialMask(uint32_t wordIndex) const;

    /**
     * Gather per-shot detection-event lists in one sparse sweep:
     * events[s] receives the flipped detector indices of shot s,
     * ascending (same order as BitVec::onesIndices). `events` is
     * resized/cleared; inner vectors keep their capacity.
     */
    void gatherEvents(std::vector<std::vector<uint32_t>>& events) const;

    /**
     * Gather per-shot heralded-erasure site lists, ascending, same
     * contract as gatherEvents.
     */
    void gatherErasures(std::vector<std::vector<uint32_t>>& sites) const;

  private:
    /**
     * The sparse sweep behind gatherEvents and gatherErasures: lists[s]
     * receives, ascending, the index of every one of the `numRows`
     * packed rows starting at `rows` whose bit s is set.
     */
    void gatherRows(const uint64_t* rows, uint32_t numRows,
                    std::vector<std::vector<uint32_t>>& lists) const;

    uint32_t numShots_ = 0;
    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    uint32_t numErasureSites_ = 0;
    uint32_t wordsPerRow_ = 0;
    uint64_t firstTrial_ = 0;
    BitVec detectorBits_;   // numDetectors rows of wordsPerRow words
    BitVec observableBits_; // numObservables rows of wordsPerRow words
    BitVec erasureBits_;    // numErasureSites rows of wordsPerRow words
};

} // namespace vlq

#endif // VLQ_DEM_SHOT_BATCH_H
