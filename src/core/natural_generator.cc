#include <algorithm>

#include "core/generator_common.h"

#include "util/logging.h"

namespace vlq {

namespace {

/**
 * Emit the Natural-embedding schedule. Data qubits live in cavity mode
 * z of the cavity attached to their data transmon; ancilla transmons
 * have no cavity and are shared by the whole stack.
 *
 *  - All-at-once: [gap] load, d rounds, store.
 *  - Interleaved: d x ([gap] load, 1 round, store).
 *
 * The paging gap models the (k-1) other patches of the stack receiving
 * their service interval; its length is (k-1) x the active duration of
 * one service unit, which the caller sums before emitting.
 */
GeneratedCircuit
emitNatural(const GeneratorConfig& config, double gapBeforeBlockNs,
            double gapPerRoundNs)
{
    SurfaceLayout layout(config.effectiveDx(), config.effectiveDz());
    const int rounds = config.effectiveRounds();
    const HardwareParams& hw = config.noise.hw;

    const uint32_t nData = static_cast<uint32_t>(layout.numData());
    const uint32_t nChecks = static_cast<uint32_t>(layout.numChecks());
    // Wires: data transmons, ancilla transmons, data cavity modes.
    const uint32_t nWires = nData + nChecks + nData;

    std::vector<WireKind> kinds(nWires, WireKind::Transmon);
    for (uint32_t q = 0; q < nData; ++q)
        kinds[nData + nChecks + q] = WireKind::CavityMode;
    NoisyBuilder builder(nWires, kinds, config.noise);

    StandardRoundWires wires;
    for (uint32_t q = 0; q < nData; ++q)
        wires.dataWires.push_back(q);
    for (uint32_t c = 0; c < nChecks; ++c)
        wires.ancWires.push_back(nData + c);
    auto modeWire = [&](uint32_t q) { return nData + nChecks + q; };

    // Data start stored in their cavity modes, in the quiescent state of
    // the chosen basis (idealized boundary; DESIGN.md Sec. 5).
    builder.momentBegin(0.0);
    for (uint32_t q = 0; q < nData; ++q) {
        builder.resetIdeal(modeWire(q));
        if (config.memoryBasis == CheckBasis::X)
            builder.hIdeal(modeWire(q));
        builder.setLive(modeWire(q), true);
    }
    builder.momentEnd();

    DetectorBook book(layout, config.memoryBasis);

    auto loadAll = [&] {
        builder.momentBegin(hw.tLoadStore);
        for (uint32_t q = 0; q < nData; ++q)
            builder.loadStore(wires.dataWires[q], modeWire(q));
        builder.momentEnd();
    };
    auto storeAll = loadAll; // same physical operation, reversed roles

    const bool interleaved =
        config.schedule == ExtractionSchedule::Interleaved;

    builder.wait(gapBeforeBlockNs);
    if (interleaved) {
        for (int r = 0; r < rounds; ++r) {
            builder.wait(gapPerRoundNs);
            loadAll();
            emitStandardRound(builder, layout, wires, book, r);
            storeAll();
        }
    } else {
        loadAll();
        for (int r = 0; r < rounds; ++r)
            emitStandardRound(builder, layout, wires, book, r);
        storeAll();
    }

    // Idealized final readout from the cavity modes.
    builder.momentBegin(0.0);
    std::vector<uint32_t> dataMeas(nData);
    for (uint32_t q = 0; q < nData; ++q) {
        if (config.memoryBasis == CheckBasis::X)
            builder.hIdeal(modeWire(q));
        dataMeas[q] = builder.measureIdeal(modeWire(q));
    }
    builder.momentEnd();
    book.finish(builder.circuit(), dataMeas, rounds);

    GeneratedCircuit out;
    double gaps = gapBeforeBlockNs + gapPerRoundNs * rounds;
    out.totalDurationNs = builder.now();
    out.activeDurationNs = builder.now() - gaps;
    out.loadStoreCount = builder.loadStoreCount();
    out.budget = builder.budget();
    out.circuit = std::move(builder.circuit());
    return out;
}

} // namespace

GeneratedCircuit
generateNaturalMemory(const GeneratorConfig& config)
{
    requireValidConfig(config);

    // The gapless emission's moments, summed in emission order as its
    // clock would sum them: initialization (0 ns), the load, round and
    // store moments, the final readout (0 ns).
    const HardwareParams& hw = config.noise.hw;
    const int rounds = config.effectiveRounds();
    double blockDur = 0.0;
    blockDur += 0.0;
    if (config.schedule == ExtractionSchedule::Interleaved) {
        for (int r = 0; r < rounds; ++r) {
            blockDur += hw.tLoadStore;
            advanceStandardRound(hw, blockDur);
            blockDur += hw.tLoadStore;
        }
    } else {
        blockDur += hw.tLoadStore;
        for (int r = 0; r < rounds; ++r)
            advanceStandardRound(hw, blockDur);
        blockDur += hw.tLoadStore;
    }
    blockDur += 0.0;
    double roundDur = blockDur / rounds;
    double waiters = config.cavityDepth - 1;

    double gapBlock = 0.0;
    double gapRound = 0.0;
    if (config.gapModel == PagingGapModel::BlockOnce) {
        gapBlock = waiters * roundDur;
    } else if (config.schedule == ExtractionSchedule::Interleaved) {
        gapRound = waiters * roundDur;
    } else {
        gapBlock = waiters * blockDur;
    }
    return emitNatural(config, std::max(gapBlock, 0.0),
                       std::max(gapRound, 0.0));
}

} // namespace vlq
