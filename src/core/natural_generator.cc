#include "core/generator_common.h"

namespace vlq {

/**
 * Natural embedding: data qubit q lives in a mode of the cavity
 * attached to its data transmon of the baseline grid; ancilla
 * transmons have no cavity and are shared by the whole stack. A
 * service block loads every data qubit, runs standard extraction
 * rounds on the grid, and stores every data qubit back.
 */
GeneratedCircuit
generateNaturalMemory(const GeneratorConfig& config)
{
    requireValidConfig(config);
    SurfaceLayout layout(config.effectiveDx(), config.effectiveDz());
    const HardwareParams& hw = config.noise.hw;
    // Wires: the transmon grid, then one data cavity mode per data.
    const StandardRoundWires wires = StandardRoundWires::transmonGrid(layout);
    const uint32_t nData = static_cast<uint32_t>(wires.dataWires.size());
    const uint32_t firstMode = static_cast<uint32_t>(
        wires.dataWires.size() + wires.ancWires.size());

    return emitMemoryExperiment(
        config, layout, firstMode + nData, firstMode, WireKind::CavityMode,
        [&](NoisyBuilder& builder, DetectorBook& book) {
            // A load and a store are the same swap with roles reversed.
            auto swapAll = [&] {
                builder.momentBegin(hw.tLoadStore);
                for (uint32_t q = 0; q < nData; ++q)
                    builder.loadStore(wires.dataWires[q], firstMode + q);
                builder.momentEnd();
            };
            return emitPagedRounds(
                builder, config,
                [&](int numRounds, int firstRound) {
                    swapAll();
                    for (int r = 0; r < numRounds; ++r)
                        emitStandardRound(builder, layout, wires, book,
                                          firstRound + r);
                    swapAll();
                },
                [&](int numRounds, double& clockNs) {
                    clockNs += hw.tLoadStore;
                    for (int r = 0; r < numRounds; ++r)
                        advanceStandardRound(hw, clockNs);
                    clockNs += hw.tLoadStore;
                });
        });
}

} // namespace vlq
