#ifndef VLQ_CORE_EMBEDDING_H
#define VLQ_CORE_EMBEDDING_H

#include <array>
#include <cstdint>
#include <vector>

#include "surface/layout.h"

namespace vlq {

/**
 * Compact-embedding merge map (paper Fig. 7): every Z ancilla co-locates
 * with its upper-right (NE) data transmon and every X ancilla with its
 * lower-left (SW) data transmon; the opposite pairings keep 4-way grid
 * connectivity. Boundary checks whose merge corner falls outside the
 * patch keep a dedicated transmon: (dx-1)/2 + (dz-1)/2 of them on a
 * dx x dz patch, i.e. d-1 on the paper's square patches.
 */
struct CompactMerge
{
    /** Per plaquette: merged data index, or -1 for an unmerged check. */
    std::vector<int32_t> mergedData;

    /** Per plaquette: dense index among unmerged checks, or -1. */
    std::vector<int32_t> unmergedIndex;

    /** Number of unmerged (dedicated-transmon) checks. */
    int numUnmerged = 0;

    /** Per data index: plaquette merged onto this transmon, or -1. */
    std::vector<int32_t> checkAtData;

    static CompactMerge build(const SurfaceLayout& layout);
};

/**
 * The Compact syndrome-extraction schedule (paper Fig. 10): one fixed
 * table, the same on every patch shape.
 *
 * Plaquettes split into four groups by the parity of their column: A/B
 * the X checks and C/D the Z checks. Each group starts its four-CNOT
 * window at a fixed slot of the repeating 8-slot cycle (A=0, C=2, B=4,
 * D=6 in the paper's A0D2, A1D3, A2C0, ... sequence), and each check
 * visits its corners in a fixed order: X checks SW, SE, NE, NW and Z
 * checks NE, SE, SW, NW. A valid schedule satisfies three families of
 * constraints:
 *
 *  1. no data qubit is touched by two checks in the same slot;
 *  2. no check needs a data qubit loaded into a transmon while that
 *     transmon is serving as another check's ancilla (merge conflicts);
 *  3. interleaved neighboring checks still measure the intended
 *     stabilizers (verified by a noiseless tableau run).
 *
 * conflictFree() checks families 1 and 2 and measuresStabilizers()
 * family 3; the tests run both on this table across odd patches from
 * 3x3 to 17x17, and the generator asserts wire-disjointness on every
 * slot it emits. hookScore() is 2: both orders end on a pair whose
 * ancilla "hook" errors lie perpendicular to the matching logical
 * direction.
 */
struct CompactSchedule
{
    /** Group ids. */
    enum Group : uint8_t { A = 0, B = 1, C = 2, D = 3 };

    /** Start slot (0..7) of each group's window in the 8-slot cycle. */
    std::array<int, 4> startSlot{0, 4, 2, 6};

    /** Corner visited at each step by X checks (values are
     *  PlaquetteCorner). */
    std::array<int, 4> orderX{SW, SE, NE, NW};

    /** Corner visited at each step by Z checks. */
    std::array<int, 4> orderZ{NE, SE, SW, NW};

    /** Group of a plaquette: its basis and column parity. */
    Group groupOf(const Plaquette& p) const;

    /** Corner order used by a plaquette's basis. */
    const std::array<int, 4>& orderOf(CheckBasis basis) const
    {
        return basis == CheckBasis::X ? orderX : orderZ;
    }

    /**
     * Check constraint families 1 and 2 structurally.
     * @return true when conflict-free.
     */
    bool conflictFree(const SurfaceLayout& layout,
                      const CompactMerge& merge) const;

    /**
     * Check constraint family 3: noiseless quiescence of all
     * consecutive-round detectors under this schedule, for both
     * initialization bases, via a tableau simulation.
     */
    bool measuresStabilizers(const SurfaceLayout& layout) const;

    /**
     * Hook quality score: number of check types whose mid-window ancilla
     * errors spread onto data pairs perpendicular to the dangerous
     * logical direction (0..2, higher is better).
     */
    int hookScore() const;
};

} // namespace vlq

#endif // VLQ_CORE_EMBEDDING_H
