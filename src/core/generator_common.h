#ifndef VLQ_CORE_GENERATOR_COMMON_H
#define VLQ_CORE_GENERATOR_COMMON_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/device.h"
#include "circuit/circuit.h"
#include "circuit/moment_tracker.h"
#include "noise/noise_sources.h"
#include "surface/layout.h"

namespace vlq {

/**
 * How the cavity paging gap (the wait while the other k-1 stack
 * residents receive their service) is charged to a trial;
 * emitPagedRounds charges it.
 *
 * BlockOnce is the paper-calibrated model: one dose of
 * (k-1) x round-duration of cavity idle per decoded block. It is the
 * only reading consistent with all of the paper's quantitative claims
 * at once (thresholds ~= baseline for every variant, "very minor"
 * cavity-size effect at the operating point, crossover near k ~ 150).
 * PerRound is the stricter steady-state accounting -- every round
 * (Interleaved) or block (AAO) waits for the full rotation of the
 * stack -- and is exposed as an ablation.
 */
enum class PagingGapModel : uint8_t { BlockOnce, PerRound };

/**
 * Configuration of a memory-experiment circuit: the Monte-Carlo unit
 * from which logical error rates and thresholds are estimated.
 */
struct GeneratorConfig
{
    /** Code distance (odd, >= 3). */
    int distance = 3;

    /**
     * Rectangular-patch overrides: when > 0, distanceX sets the data
     * columns (the memory-X distance) and distanceZ the data rows (the
     * memory-Z distance), replacing `distance` along that axis. 0
     * keeps the square paper patch. Both must be odd and >= 3 when
     * set.
     */
    int distanceX = 0;
    int distanceZ = 0;

    /** Rounds of syndrome extraction; 0 means `distance`. */
    int rounds = 0;

    /**
     * Which check family forms the detectors. CheckBasis::Z is the
     * memory-Z experiment (|0> init, Z readout, X errors decoded);
     * CheckBasis::X is the dual.
     */
    CheckBasis memoryBasis = CheckBasis::Z;

    /** Cavity depth k; drives the paging gap. Ignored by the baseline. */
    int cavityDepth = 10;

    /** AAO or Interleaved (ignored by the baseline). */
    ExtractionSchedule schedule = ExtractionSchedule::AllAtOnce;

    /** Paging-gap accounting (see PagingGapModel). */
    PagingGapModel gapModel = PagingGapModel::BlockOnce;

    /**
     * Full error model: the flat uniform-Pauli rates plus the optional
     * composable sources (bias, readout asymmetry, dephasing, damping,
     * erasure). Assigning a flat NoiseModel resets all sources.
     */
    CompositeNoiseModel noise;

    int effectiveRounds() const { return rounds > 0 ? rounds : distance; }

    /** Effective patch width (data columns / memory-X distance). */
    int effectiveDx() const { return distanceX > 0 ? distanceX : distance; }

    /** Effective patch height (data rows / memory-Z distance). */
    int effectiveDz() const { return distanceZ > 0 ? distanceZ : distance; }

    /**
     * Check the configuration for user errors the layout and schedule
     * code would otherwise hit deep inside an assert (or, worse, not
     * at all): even or too-small distances, negative rounds, cavity
     * depth below 1.
     *
     * @return an empty string when valid, else a human-readable
     *         description of the first problem found.
     */
    std::string validate() const;
};

/**
 * validate() or die: every generator backend calls this on entry, so a
 * bad CLI/env value fails fast with a clear message instead of
 * producing a silent garbage run.
 */
void requireValidConfig(const GeneratorConfig& config);

/**
 * Probability-mass budget of a generated circuit's noise, split by
 * physical source. Each field sums the raw channel probabilities of
 * its category; the split explains *why* a setup's threshold moves
 * (e.g. Interleaved trades cavity idle for load/store mass).
 */
struct NoiseBudget
{
    double gateTT = 0.0;        ///< transmon-transmon CNOTs
    double gateTM = 0.0;        ///< transmon-mode CNOTs
    double gate1 = 0.0;         ///< single-qubit gates
    double loadStore = 0.0;     ///< load/store iSWAPs
    double measurement = 0.0;   ///< readout record flips
    double resetErr = 0.0;      ///< reset errors
    double idleTransmon = 0.0;  ///< decoherence while in a transmon
    double idleCavity = 0.0;    ///< decoherence while in a cavity mode

    double total() const
    {
        return gateTT + gateTM + gate1 + loadStore + measurement
             + resetErr + idleTransmon + idleCavity;
    }
};

/** A generated memory circuit plus schedule diagnostics. */
struct GeneratedCircuit
{
    Circuit circuit{0};

    /** Wall-clock duration of the active (non-gap) schedule, ns. */
    double activeDurationNs = 0.0;

    /** Total duration including paging gaps, ns. */
    double totalDurationNs = 0.0;

    /** Number of load/store operations emitted. */
    int loadStoreCount = 0;

    /** Noise probability mass by physical source. */
    NoiseBudget budget;
};

/**
 * Circuit builder that couples gate emission with lock-step timing and
 * noise: every gate gets its depolarizing channel, every moment close
 * turns live-wire idle time into decoherence channels, and load/store
 * operations swap wire liveness.
 */
class NoisyBuilder
{
  public:
    NoisyBuilder(uint32_t numWires, std::vector<WireKind> kinds,
                 const CompositeNoiseModel& noise);

    Circuit& circuit() { return circuit_; }
    const CompositeNoiseModel& noise() const { return noise_; }
    MomentTracker& tracker() { return tracker_; }

    /** Open a lock-step moment of the given duration. */
    void momentBegin(double durationNs);

    /** Close the moment, emitting idle channels on live idle wires. */
    void momentEnd();

    /** A waiting period (paging gap): idles all live wires. */
    void wait(double durationNs);

    /** Mark/unmark a wire as holding live information. */
    void setLive(uint32_t wire, bool live) { tracker_.setLive(wire, live); }

    /** @{ Noisy primitives; each must be called inside a moment. */
    void gateH(uint32_t q);
    void cnotTT(uint32_t control, uint32_t target);
    void cnotTM(uint32_t control, uint32_t target);
    void loadStore(uint32_t transmon, uint32_t mode);
    void resetQ(uint32_t q);
    uint32_t measure(uint32_t q);
    /** @} */

    /** Noiseless reset (idealized initialization boundary). */
    void resetIdeal(uint32_t q) { circuit_.reset(q); }

    /** Noiseless H (idealized basis change at the boundary). */
    void hIdeal(uint32_t q) { circuit_.h(q); }

    /** Noiseless measurement (idealized final readout). */
    uint32_t measureIdeal(uint32_t q) { return circuit_.measureZ(q, 0.0); }

    int loadStoreCount() const { return loadStoreCount_; }
    double now() const { return tracker_.now(); }
    const NoiseBudget& budget() const { return budget_; }

  private:
    Circuit circuit_;
    MomentTracker tracker_;
    std::vector<WireKind> kinds_;
    CompositeNoiseModel noise_;
    int loadStoreCount_ = 0;
    NoiseBudget budget_;

    void emitIdle(uint32_t wire, double durationNs);

    /** Gate-class noise on one qubit through the composite sources. */
    void emitGateNoise1(uint32_t q, double p, double& budgetField);

    /** Gate-class noise on a two-qubit operand pair. */
    void emitGateNoise2(uint32_t a, uint32_t b, double p,
                        double& budgetField);

    /** Post-gate Pauli-twirled amplitude damping (when enabled). */
    void emitDamping(uint32_t q, double& budgetField);
};

/**
 * Tracks per-check measurement records across rounds and emits the
 * detectors and the logical observable of a memory experiment.
 *
 * It also sizes the circuit's op list from the round structure: every
 * round of a memory experiment emits the same ops, so the ops between
 * the first records of rounds 0 and 1 are one round's, and at round
 * 1's first record the book reserves room for all `rounds` of them and
 * the readout. The list then grows at most once more, where a
 * generator's first round is shorter than the rest.
 */
class DetectorBook
{
  public:
    DetectorBook(const SurfaceLayout& layout, CheckBasis memoryBasis,
                 int rounds);

    /**
     * Record the round-r syndrome measurement of a check; emits the
     * detector (round 0: absolute; later rounds: consecutive XOR).
     */
    void recordRound(Circuit& circuit, uint32_t check, uint32_t meas,
                     int round);

    /**
     * Emit the final data-readout detectors and the logical observable.
     * @param dataMeas measurement record per data index (memory-basis
     *        readout of every data qubit).
     */
    void finish(Circuit& circuit, const std::vector<uint32_t>& dataMeas,
                int finalRound);

  private:
    const SurfaceLayout& layout_;
    CheckBasis basis_;
    int rounds_;
    std::vector<int64_t> prevMeas_;
    /** Rounds whose first record was seen, while sizing (0, 1, 2). */
    int roundsSeen_ = 0;
    /** Ops in the circuit at round 0's first record. */
    size_t firstRecordOps_ = 0;
};

/** Wire assignment consumed by the standard extraction round. */
struct StandardRoundWires
{
    /** Wire holding each data qubit (indexed by layout data index). */
    std::vector<uint32_t> dataWires;

    /** Ancilla wire per plaquette (indexed by plaquette index). */
    std::vector<uint32_t> ancWires;

    /**
     * The transmon grid of paper Fig. 2: data transmons on wires
     * 0..numData-1, then one ancilla transmon per plaquette.
     */
    static StandardRoundWires transmonGrid(const SurfaceLayout& layout);
};

/**
 * Emit one standard syndrome-extraction round (reset, basis change,
 * 4 CNOT steps in the two-pattern order, basis change, measure) on the
 * given wires, recording detectors through `book`. Used verbatim by the
 * baseline and by the Natural embedding while a patch is loaded.
 */
void emitStandardRound(NoisyBuilder& builder, const SurfaceLayout& layout,
                       const StandardRoundWires& wires, DetectorBook& book,
                       int round);

/**
 * Advance `clockNs` over the moments of one emitStandardRound, one
 * addition per moment in emission order, so the sum rounds exactly as
 * NoisyBuilder's clock does: a generator can size its paging gap
 * before it emits anything.
 */
void advanceStandardRound(const HardwareParams& hw, double& clockNs);

/**
 * Emit the memory experiment around a generator's rounds on `numWires`
 * wires. Data qubit q rests on its home wire `firstHomeWire + q`, of
 * kind `homeKind`, before the first round and after the last; every
 * other wire is a transmon. `emitRounds` emits every round and returns
 * the paging gap it charged (ns), which the active duration excludes.
 *
 * The boundary is idealized: each data qubit starts on its home wire
 * in the quiescent state of the memory basis and is read there, all
 * noiselessly and in 0-ns moments. A trial then counts the logical
 * error of its rounds and paging gaps alone, as one block of a longer
 * computation that neither prepares nor destroys the patch, and every
 * embedding is charged for the same thing: a noisy readout from a
 * cavity would add a load that the baseline does not pay.
 */
GeneratedCircuit emitMemoryExperiment(
    const GeneratorConfig& config, const SurfaceLayout& layout,
    uint32_t numWires, uint32_t firstHomeWire, WireKind homeKind,
    const std::function<double(NoisyBuilder&, DetectorBook&)>& emitRounds);

/**
 * The paging-gap model of the cavity embeddings: emit the config's
 * rounds as service blocks, with the waits the patch spends while the
 * other k-1 residents of its stack are serviced (k =
 * `config.cavityDepth`), and return the gap charged (ns).
 *
 * `emitBlock(n, first)` emits one block of n rounds, from loading the
 * patch to storing it back, numbering its detectors from round
 * `first`; `advanceBlock(n, clockNs)` adds that block's moments to
 * `clockNs` one at a time in emission order, so the sum rounds as the
 * builder's clock does. AllAtOnce is one R-round block, Interleaved R
 * one-round blocks; their gapless durations are summed first, and
 * roundDur is the sum over R. BlockOnce waits (k-1) x roundDur once,
 * before the first block; PerRound waits (k-1) x roundDur before every
 * Interleaved block, or (k-1) x the whole block before the AllAtOnce
 * one. Every wait is emitted, zero-length ones included.
 */
double emitPagedRounds(
    NoisyBuilder& builder, const GeneratorConfig& config,
    const std::function<void(int numRounds, int firstRound)>& emitBlock,
    const std::function<void(int numRounds, double& clockNs)>&
        advanceBlock);

/**
 * Dispatch: generate the memory circuit for any evaluation setup.
 * Resolved through the generator registry
 * (core/generator_registry.h), so registered backends -- including
 * out-of-tree ones -- are selectable without a switch.
 */
GeneratedCircuit generateMemoryCircuit(EmbeddingKind embedding,
                                       const GeneratorConfig& config);

/** Paper baseline: surface code on a conventional 2D transmon grid. */
GeneratedCircuit generateBaselineMemory(const GeneratorConfig& config);

/** Natural embedding (AAO or Interleaved per config.schedule). */
GeneratedCircuit generateNaturalMemory(const GeneratorConfig& config);

/** Compact embedding (AAO or Interleaved per config.schedule). */
GeneratedCircuit generateCompactMemory(const GeneratorConfig& config);

/**
 * Rectangular Compact variant for biased-noise devices: the Compact
 * merge and schedule on a dx x dz patch. Honors
 * GeneratorConfig::distanceX/distanceZ; when neither is set the
 * default shape is bias-aware (compactRectPatchShape's 4-arg
 * overload): uniform noise keeps the historical narrow patch (dx = 3
 * columns, dz = `distance` rows) bit-identically, while an enabled
 * `config.noise.bias` derives dx from the Pauli mass ratios --
 * strongly Z-biased noise stays at 3 columns, milder bias widens the
 * patch, and X-leaning noise keeps the full square.
 */
GeneratedCircuit generateCompactRectMemory(const GeneratorConfig& config);

} // namespace vlq

#endif // VLQ_CORE_GENERATOR_COMMON_H
