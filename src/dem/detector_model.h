#ifndef VLQ_DEM_DETECTOR_MODEL_H
#define VLQ_DEM_DETECTOR_MODEL_H

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.h"

namespace vlq {

/**
 * One possible outcome of a fault channel: with `probability`, the
 * listed detectors and observables flip. `detectors` views the owning
 * model's detector pool (see DetectorErrorModel).
 */
struct FaultOutcome
{
    double probability = 0.0;
    std::span<const uint32_t> detectors; // sorted, deduplicated
    uint32_t observables = 0;            // bitmask over observables
};

/**
 * An independent physical fault mechanism (one noise channel of the
 * circuit). Outcomes are mutually exclusive; probabilities sum to at
 * most 1 (the remainder is "no error"). Outcomes whose signature is
 * empty are dropped -- they are indistinguishable from no error --
 * except for heralded channels, which keep them so the herald fires
 * with the channel's full physical probability. Every channel keeps at
 * least one outcome. `outcomes` views the owning model's outcome array.
 */
struct FaultChannel
{
    /** Index of the originating operation in the source circuit. */
    uint32_t opIndex = 0;

    std::span<const FaultOutcome> outcomes;

    /** True for heralded-erasure channels: firing raises a herald. */
    bool heralded = false;

    /**
     * Dense index of this channel among heralded channels (the bit it
     * sets in a shot's erasure mask), or -1 when not heralded.
     */
    int32_t erasureSite = -1;

    /**
     * Total probability that any recorded outcome fires. Outcomes of
     * one channel are mutually exclusive, so this is their plain sum
     * (independent channels sharing a signature are instead combined
     * with the XOR rule downstream, in the decoding graph).
     */
    double totalProbability() const;
};

/** Metadata of one detector, copied from the circuit. */
struct DetectorMeta
{
    CheckBasis basis = CheckBasis::Z;
    float x = 0.0f;
    float y = 0.0f;
    float t = 0.0f;
};

/**
 * Detector error model: the complete map from physical fault mechanisms
 * to detector/observable flips for a given noisy circuit.
 *
 * Storage is three flat arrays: the channels (in circuit order), every
 * channel's outcomes (one contiguous run per channel), and one pool
 * holding every outcome's detector indices back to back. A channel's
 * `outcomes` and an outcome's `detectors` are spans into those arrays,
 * and the sampler and decoding graph read them in place. Building a
 * model allocates each array once: the channel and outcome arrays for
 * the most the circuit's noise ops can produce, the pool for two
 * detectors per outcome (it grows only past that).
 *
 * Built by backward sensitivity propagation: walking the circuit in
 * reverse while maintaining, per qubit, the set of detectors an X or Z
 * error at that point would flip. Each set is dense 64-bit words plus
 * the range of words that may be non-zero; observables live in their
 * own mask. A fault reaches only the detectors of the next round or
 * two, so the range stays a few words wide and each gate, and each
 * outcome appended to the pool, costs O(range) instead of
 * O(detectors/64). A channel's outcomes are XORs of its qubits' X and
 * Z sets, all computed at once per channel; a channel whose sets are
 * all empty (observables included) is skipped outright. Exact for
 * Clifford+Pauli circuits. The forward
 * Pauli-frame simulator provides an independent implementation used to
 * cross-validate this builder in the test suite.
 *
 * A model is immutable once built. Copies re-point their spans at the
 * copy's own arrays, and moves keep the arrays' buffers, so both are
 * safe. The spans stay valid for the model's lifetime.
 */
class DetectorErrorModel
{
  public:
    DetectorErrorModel() = default;
    DetectorErrorModel(const DetectorErrorModel& other);
    DetectorErrorModel& operator=(const DetectorErrorModel& other);
    DetectorErrorModel(DetectorErrorModel&&) noexcept = default;
    DetectorErrorModel& operator=(DetectorErrorModel&&) noexcept = default;

    /** Build the model for a circuit with detectors/observables. */
    static DetectorErrorModel build(const Circuit& circuit);

    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }

    /** Number of heralded-erasure sites (bits in a shot erasure mask). */
    uint32_t numErasureSites() const { return numErasureSites_; }

    /** Most detectors any one outcome flips (0 when there is none). */
    uint32_t maxOutcomeDetectors() const { return maxOutcomeDetectors_; }

    const std::vector<FaultChannel>& channels() const { return channels_; }

    /** Every channel's outcomes, one contiguous run per channel (the
     *  runs are not in channel order). */
    std::span<const FaultOutcome> outcomes() const { return outcomes_; }

    /** The pool every outcome's `detectors` points into. */
    std::span<const uint32_t> detectorPool() const { return detectorPool_; }

    const std::vector<DetectorMeta>& detectorMeta() const { return meta_; }

    /** Sum over channels of their total probability (diagnostics). */
    double totalFaultMass() const;

  private:
    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    uint32_t numErasureSites_ = 0;
    uint32_t maxOutcomeDetectors_ = 0;
    std::vector<FaultChannel> channels_;
    std::vector<FaultOutcome> outcomes_;
    std::vector<uint32_t> detectorPool_;
    std::vector<DetectorMeta> meta_;
};

} // namespace vlq

#endif // VLQ_DEM_DETECTOR_MODEL_H
