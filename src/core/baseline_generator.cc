#include "core/generator_common.h"

namespace vlq {

/**
 * Baseline: rotated surface code on a conventional 2D transmon grid
 * (paper Fig. 2). Data qubits live permanently in transmons; one round
 * is the standard extraction circuit; there are no loads, stores or
 * paging gaps.
 */
GeneratedCircuit
generateBaselineMemory(const GeneratorConfig& config)
{
    requireValidConfig(config);
    SurfaceLayout layout(config.effectiveDx(), config.effectiveDz());
    const StandardRoundWires wires = StandardRoundWires::transmonGrid(layout);
    const uint32_t numWires = static_cast<uint32_t>(
        wires.dataWires.size() + wires.ancWires.size());
    return emitMemoryExperiment(
        config, layout, numWires, 0, WireKind::Transmon,
        [&](NoisyBuilder& builder, DetectorBook& book) {
            for (int r = 0; r < config.effectiveRounds(); ++r)
                emitStandardRound(builder, layout, wires, book, r);
            return 0.0;
        });
}

} // namespace vlq
