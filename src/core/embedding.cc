#include "core/embedding.h"

#include <algorithm>
#include <set>

#include "sim/tableau.h"
#include "util/logging.h"

namespace vlq {

CompactMerge
CompactMerge::build(const SurfaceLayout& layout)
{
    CompactMerge merge;
    const auto& plaquettes = layout.plaquettes();
    merge.mergedData.assign(plaquettes.size(), -1);
    merge.unmergedIndex.assign(plaquettes.size(), -1);
    merge.checkAtData.assign(static_cast<size_t>(layout.numData()), -1);

    for (uint32_t c = 0; c < plaquettes.size(); ++c) {
        const Plaquette& p = plaquettes[c];
        // Z checks merge with NE data, X checks with SW (Fig. 7b).
        int corner = (p.basis == CheckBasis::Z) ? NE : SW;
        int32_t q = p.corner[static_cast<size_t>(corner)];
        if (q >= 0) {
            merge.mergedData[c] = q;
            VLQ_ASSERT(merge.checkAtData[static_cast<size_t>(q)] < 0,
                       "two checks merged into one data transmon");
            merge.checkAtData[static_cast<size_t>(q)] =
                static_cast<int32_t>(c);
        } else {
            merge.unmergedIndex[c] = merge.numUnmerged++;
        }
    }
    // Unmerged checks are the right-boundary Z halves and bottom-
    // boundary X halves whose merge corner falls outside the patch:
    // (dz-1)/2 of the former and (dx-1)/2 of the latter, which reduces
    // to the paper's d-1 on square patches.
    VLQ_ASSERT(merge.numUnmerged ==
                   (layout.width() - 1) / 2 + (layout.height() - 1) / 2,
               "unexpected unmerged-check count");
    return merge;
}

CompactSchedule::Group
CompactSchedule::groupOf(const Plaquette& p) const
{
    int parity = (p.cx / 2) % 2;
    if (p.basis == CheckBasis::X)
        return parity == 0 ? A : B;
    return parity == 0 ? C : D;
}

bool
CompactSchedule::conflictFree(const SurfaceLayout& layout,
                              const CompactMerge& merge) const
{
    const auto& plaquettes = layout.plaquettes();

    // Step index of each corner per basis (inverse of the order arrays).
    auto stepOf = [&](CheckBasis basis, int corner) {
        const auto& order = orderOf(basis);
        for (int s = 0; s < 4; ++s)
            if (order[static_cast<size_t>(s)] == corner)
                return s;
        VLQ_PANIC("corner missing from order");
    };

    // Family 1: no data qubit touched by two checks in the same slot of
    // the 8-slot cycle (windows wrap mod 8 round-to-round, so compare
    // mod 8).
    std::vector<std::set<int>> touchSlots(
        static_cast<size_t>(layout.numData()));
    for (const auto& p : plaquettes) {
        for (int corner = 0; corner < 4; ++corner) {
            int32_t q = p.corner[static_cast<size_t>(corner)];
            if (q < 0)
                continue;
            int slot = (startSlot[groupOf(p)] + stepOf(p.basis, corner)) % 8;
            if (!touchSlots[static_cast<size_t>(q)].insert(slot).second)
                return false;
        }
    }

    // Family 2: while check c is using transmon t as its ancilla
    // (its 4-step window plus the reset and measure edges), no other
    // check may perform a transmon-transmon CNOT with the data qubit
    // homed at t. Merged ancillas only; dedicated ancilla transmons
    // never host data.
    for (uint32_t c = 0; c < plaquettes.size(); ++c) {
        int32_t m = merge.mergedData[c];
        if (m < 0)
            continue;
        int start = startSlot[groupOf(plaquettes[c])];
        // Busy slots of the window (mod 8): start..start+3.
        auto busy = [&](int slot) {
            int rel = ((slot - start) % 8 + 8) % 8;
            return rel <= 3;
        };
        // Every *other* check touching data m does a TT CNOT with it.
        for (const auto& p2 : plaquettes) {
            for (int corner = 0; corner < 4; ++corner) {
                if (p2.corner[static_cast<size_t>(corner)] != m)
                    continue;
                if (&p2 == &plaquettes[c])
                    continue; // c itself uses the transmon-mode CNOT
                int slot = (startSlot[groupOf(p2)]
                            + stepOf(p2.basis, corner)) % 8;
                if (busy(slot))
                    return false;
            }
        }
    }
    return true;
}

bool
CompactSchedule::measuresStabilizers(const SurfaceLayout& layout) const
{
    // Noiseless quiescence: run the pipelined schedule on a tableau and
    // require every consecutive-round syndrome difference to vanish.
    // Loads/stores are information-preserving SWAPs, so the abstract
    // check can run directly on data + ancilla wires.
    const auto& plaquettes = layout.plaquettes();
    const uint32_t nData = static_cast<uint32_t>(layout.numData());
    const uint32_t nChecks = static_cast<uint32_t>(plaquettes.size());

    const int rounds = 3;
    for (int basisInit = 0; basisInit < 2; ++basisInit) {
        TableauSimulator sim(nData + nChecks, 777);
        if (basisInit == 1) {
            for (uint32_t q = 0; q < nData; ++q)
                sim.h(q);
        }
        auto ancWire = [&](uint32_t c) { return nData + c; };

        // prev[c] = last outcome, valid[c] = whether one exists.
        std::vector<int> prev(nChecks, -1);

        int maxStart = *std::max_element(startSlot.begin(), startSlot.end());
        int totalSlots = 8 * (rounds - 1) + maxStart + 4;
        for (int g = 0; g <= totalSlots; ++g) {
            for (uint32_t c = 0; c < nChecks; ++c) {
                const Plaquette& p = plaquettes[c];
                int start = startSlot[groupOf(p)];
                // Window instances: r such that 8r + start <= g <=
                // 8r + start + 3.
                int rel = g - start;
                if (rel < 0)
                    continue;
                int r = rel / 8;
                int step = rel % 8;
                if (r >= rounds || step > 3)
                    continue;
                if (step == 0) {
                    sim.reset(ancWire(c));
                    if (p.basis == CheckBasis::X)
                        sim.h(ancWire(c));
                }
                int corner = orderOf(p.basis)[static_cast<size_t>(step)];
                int32_t q = p.corner[static_cast<size_t>(corner)];
                if (q >= 0) {
                    if (p.basis == CheckBasis::Z)
                        sim.cnot(static_cast<size_t>(q), ancWire(c));
                    else
                        sim.cnot(ancWire(c), static_cast<size_t>(q));
                }
                if (step == 3) {
                    if (p.basis == CheckBasis::X)
                        sim.h(ancWire(c));
                    bool outcome = sim.measureZ(ancWire(c));
                    if (prev[c] >= 0 && prev[c] != (outcome ? 1 : 0))
                        return false; // detector fired noiselessly
                    prev[c] = outcome ? 1 : 0;
                }
            }
        }
    }
    return true;
}

int
CompactSchedule::hookScore() const
{
    // Mid-window ancilla errors spread to the data visited at steps 2,3.
    // For X checks those become X data errors whose dangerous chains run
    // vertically (terminating on the top/bottom boundaries), so a
    // horizontal pair {NW,NE} or {SW,SE} is benign; dually for Z checks
    // a vertical pair {NW,SW} or {NE,SE} is benign.
    auto latePair = [](const std::array<int, 4>& order) {
        return std::set<int>{order[2], order[3]};
    };
    int score = 0;
    std::set<int> lx = latePair(orderX);
    if (lx == std::set<int>{NW, NE} || lx == std::set<int>{SW, SE})
        ++score;
    std::set<int> lz = latePair(orderZ);
    if (lz == std::set<int>{NW, SW} || lz == std::set<int>{NE, SE})
        ++score;
    return score;
}

} // namespace vlq
