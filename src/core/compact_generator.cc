#include <algorithm>
#include <cmath>
#include <vector>

#include "core/embedding.h"
#include "core/generator_registry.h"
#include "util/logging.h"

namespace vlq {

namespace {

/**
 * Slot-engine emission of the Compact extraction schedule for one block
 * of R rounds. Data qubits live in the cavity attached to their own
 * transmon; merged checks use that data transmon as their ancilla and
 * reach their co-located data with a transmon-mode CNOT; all other
 * check-data interactions load the data, run a transmon-transmon CNOT,
 * and store it straight back (the paper's Compact policy: data is
 * always stored back to the cavity during syndrome extraction).
 */
class CompactEngine
{
  public:
    CompactEngine(const SurfaceLayout& layout, const CompactMerge& merge)
        : layout_(layout), merge_(merge),
          wireBusy_(2 * static_cast<size_t>(layout.numData())
                        + static_cast<size_t>(merge.numUnmerged),
                    0)
    {
    }

    /** Wire of data q's home transmon. */
    uint32_t transmonWire(uint32_t q) const { return q; }

    /** Wire of data q's cavity mode. */
    uint32_t modeWire(uint32_t q) const
    {
        return static_cast<uint32_t>(layout_.numData())
             + static_cast<uint32_t>(merge_.numUnmerged) + q;
    }

    /** Ancilla wire of check c. */
    uint32_t ancillaWire(uint32_t c) const
    {
        int32_t m = merge_.mergedData[c];
        if (m >= 0)
            return transmonWire(static_cast<uint32_t>(m));
        return static_cast<uint32_t>(layout_.numData())
             + static_cast<uint32_t>(merge_.unmergedIndex[c]);
    }

    /**
     * Advance `clockNs` over the moments emitBlock(numRounds) emits,
     * one addition per moment in emission order, so the sum rounds
     * exactly as the builder's clock does.
     */
    void advanceBlock(int numRounds, const HardwareParams& hw,
                      double& clockNs)
    {
        const int slots = numSlots(numRounds);
        loaded_.assign(static_cast<size_t>(layout_.numData()), false);
        for (int g = 0; g < slots; ++g) {
            gatherSlot(g, numRounds);
            clockNs += std::max(hw.tGate2, hw.tGateTm);
        }
        if (std::find(loaded_.begin(), loaded_.end(), true) != loaded_.end())
            clockNs += hw.tLoadStore;
    }

    /** Emit one block of R rounds; roundOffset numbers the detectors. */
    void
    emitBlock(NoisyBuilder& builder, DetectorBook& book, int numRounds,
              int roundOffset)
    {
        const auto& plaquettes = layout_.plaquettes();
        const HardwareParams& hw = builder.noise().hw;
        const int slots = numSlots(numRounds);
        loaded_.assign(static_cast<size_t>(layout_.numData()), false);

        for (int g = 0; g < slots; ++g) {
            gatherSlot(g, numRounds);

            // One moment per slot, one two-qubit gate long: the slot
            // is pipelined. Its loads are prefetched during the slot
            // before, and its stores and measurements drain into the
            // slot after on wires idle there, so only the CNOTs set
            // the pace. Every operation's error channel is applied;
            // only the idle time a serial slot would add is not.
            builder.momentBegin(std::max(hw.tGate2, hw.tGateTm));

            for (uint32_t q : stores_)
                builder.loadStore(transmonWire(q), modeWire(q));
            for (uint32_t c : resets_) {
                builder.resetQ(ancillaWire(c));
                if (plaquettes[c].basis == CheckBasis::X)
                    builder.gateH(ancillaWire(c));
            }
            for (uint32_t q : loads_)
                builder.loadStore(transmonWire(q), modeWire(q));

            // The schedule guarantees wire-disjoint CNOTs; assert it.
            for (const auto& task : cnots_) {
                uint32_t q = static_cast<uint32_t>(task.data);
                uint32_t anc = ancillaWire(task.check);
                uint32_t dataWireNow = task.transmonMode
                    ? modeWire(q) : transmonWire(q);
                VLQ_ASSERT(!wireBusy_[anc],
                           "compact schedule: ancilla wire conflict");
                wireBusy_[anc] = 1;
                VLQ_ASSERT(!wireBusy_[dataWireNow],
                           "compact schedule: data wire conflict");
                wireBusy_[dataWireNow] = 1;
                bool dataControls =
                    plaquettes[task.check].basis == CheckBasis::Z;
                if (task.transmonMode) {
                    if (dataControls)
                        builder.cnotTM(dataWireNow, anc);
                    else
                        builder.cnotTM(anc, dataWireNow);
                } else {
                    if (dataControls)
                        builder.cnotTT(dataWireNow, anc);
                    else
                        builder.cnotTT(anc, dataWireNow);
                }
            }
            for (const auto& task : cnots_) {
                const uint32_t q = static_cast<uint32_t>(task.data);
                wireBusy_[ancillaWire(task.check)] = 0;
                wireBusy_[task.transmonMode ? modeWire(q)
                                            : transmonWire(q)] = 0;
            }

            for (size_t i = 0; i < finishes_.size(); ++i) {
                uint32_t c = finishes_[i];
                if (plaquettes[c].basis == CheckBasis::X)
                    builder.gateH(ancillaWire(c));
                uint32_t m = builder.measure(ancillaWire(c));
                book.recordRound(builder.circuit(), c, m,
                                 roundOffset + finishRound_[i]);
            }

            builder.momentEnd();
        }

        // Drain: everything returns to the cavity at block end (the
        // stack rotates to the next resident).
        if (std::find(loaded_.begin(), loaded_.end(), true)
            != loaded_.end()) {
            builder.momentBegin(hw.tLoadStore);
            for (uint32_t q = 0; q < static_cast<uint32_t>(loaded_.size());
                 ++q) {
                if (loaded_[q])
                    builder.loadStore(transmonWire(q), modeWire(q));
            }
            builder.momentEnd();
        }
    }

  private:
    struct CnotTask
    {
        uint32_t check;
        int round;
        int32_t data;
        bool transmonMode;
    };

    /** Slots of a block of R rounds: one moment each. */
    int numSlots(int numRounds) const
    {
        int maxStart = 0;
        for (int g = 0; g < 4; ++g)
            maxStart = std::max(maxStart, sched_.startSlot[g]);
        return 8 * (numRounds - 1) + maxStart + 4;
    }

    /**
     * Slot g's activity into the slot lists, and the loads and stores
     * it implies. Lazy load/store (the paper's "minimum number of
     * loads and stores"): a data qubit loaded for a transmon-transmon
     * CNOT stays in its transmon until the transmon is needed as an
     * ancilla or the block ends.
     */
    void gatherSlot(int g, int numRounds)
    {
        const auto& plaquettes = layout_.plaquettes();
        resets_.clear();
        finishes_.clear();
        finishRound_.clear();
        cnots_.clear();
        loads_.clear();
        stores_.clear();
        for (uint32_t c = 0; c < plaquettes.size(); ++c) {
            const Plaquette& p = plaquettes[c];
            int rel = g - sched_.startSlot[sched_.groupOf(p)];
            if (rel < 0)
                continue;
            int r = rel / 8;
            int step = rel % 8;
            if (r >= numRounds || step > 3)
                continue;
            if (step == 0)
                resets_.push_back(c);
            int corner = sched_.orderOf(p.basis)[static_cast<size_t>(step)];
            int32_t q = p.corner[static_cast<size_t>(corner)];
            if (q >= 0) {
                bool tm = (merge_.mergedData[c] == q);
                cnots_.push_back(CnotTask{c, r, q, tm});
            }
            if (step == 3) {
                finishes_.push_back(c);
                finishRound_.push_back(r);
            }
        }
        for (const auto& task : cnots_) {
            if (task.transmonMode)
                continue;
            uint32_t q = static_cast<uint32_t>(task.data);
            if (!loaded_[q]) {
                loads_.push_back(q);
                loaded_[q] = true;
            }
        }
        // Evict data whose home transmon becomes an ancilla now.
        for (uint32_t c : resets_) {
            int32_t m = merge_.mergedData[c];
            if (m >= 0 && loaded_[static_cast<size_t>(m)]) {
                stores_.push_back(static_cast<uint32_t>(m));
                loaded_[static_cast<size_t>(m)] = false;
            }
        }
    }

    const SurfaceLayout& layout_;
    const CompactMerge& merge_;
    const CompactSchedule sched_{};
    // Per-slot lists, reused by every slot.
    std::vector<uint32_t> resets_;   // checks starting
    std::vector<uint32_t> finishes_; // checks measuring
    std::vector<int> finishRound_;
    std::vector<CnotTask> cnots_;
    std::vector<uint32_t> loads_;
    std::vector<uint32_t> stores_;
    std::vector<bool> loaded_;      // data sitting in their transmon
    std::vector<uint8_t> wireBusy_; // wires a CNOT of this slot uses
};

/** The Compact embedding on a dx x dz patch (square or rectangular). */
GeneratedCircuit
generateCompactOnPatch(const GeneratorConfig& config, int dx, int dz)
{
    SurfaceLayout layout(dx, dz);
    CompactMerge merge = CompactMerge::build(layout);
    CompactEngine engine(layout, merge);
    const HardwareParams& hw = config.noise.hw;
    // Wires: data transmons, unmerged ancilla transmons, data modes.
    const uint32_t nData = static_cast<uint32_t>(layout.numData());
    return emitMemoryExperiment(
        config, layout, engine.modeWire(nData), engine.modeWire(0),
        WireKind::CavityMode, [&](NoisyBuilder& builder, DetectorBook& book) {
            return emitPagedRounds(
                builder, config,
                [&](int numRounds, int firstRound) {
                    engine.emitBlock(builder, book, numRounds, firstRound);
                },
                [&](int numRounds, double& clockNs) {
                    engine.advanceBlock(numRounds, hw, clockNs);
                });
        });
}

} // namespace

GeneratedCircuit
generateCompactMemory(const GeneratorConfig& config)
{
    requireValidConfig(config);
    return generateCompactOnPatch(config, config.effectiveDx(),
                                  config.effectiveDz());
}

std::pair<int, int>
compactRectPatchShape(int distance, int distanceX, int distanceZ)
{
    return compactRectPatchShape(distance, distanceX, distanceZ,
                                 BiasedPauliSource{});
}

std::pair<int, int>
compactRectPatchShape(int distance, int distanceX, int distanceZ,
                      const BiasedPauliSource& bias)
{
    if (distanceX != 0 || distanceZ != 0)
        return squarePatchShape(distance, distanceX, distanceZ);
    // Uniform noise keeps the full memory-Z distance but shrinks the
    // patch to the minimum memory-X protection.
    if (!bias.enabled())
        return {3, distance};
    const double sum = bias.rX + bias.rY + bias.rZ;
    const double mXY = (bias.rX + bias.rY) / sum;
    const double mZ = bias.rZ / sum;
    int dx = distance;
    if (mXY <= 0.0) {
        // Pure-Z noise: X-side protection buys nothing beyond the
        // minimum viable patch.
        dx = 3;
    } else if (mZ > mXY) {
        // dx/dz = ln(mZ)/ln(mXY): both logs are negative, Z-dominant
        // mass makes the numerator the smaller magnitude, so the
        // ratio is in (0, 1) and narrows with the bias strength.
        dx = static_cast<int>(
            std::lround(distance * std::log(mZ) / std::log(mXY)));
    } // else X-leaning noise: the full square (nothing can be shed)
    dx = std::min(distance, std::max(3, dx));
    if (dx % 2 == 0)
        ++dx; // patches are odd; distance is odd, so dx + 1 stays legal
    return {dx, distance};
}

GeneratedCircuit
generateCompactRectMemory(const GeneratorConfig& config)
{
    requireValidConfig(config);
    auto [dx, dz] = compactRectPatchShape(
        config.distance, config.distanceX, config.distanceZ,
        config.noise.bias);
    return generateCompactOnPatch(config, dx, dz);
}

} // namespace vlq
