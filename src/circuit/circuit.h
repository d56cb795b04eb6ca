#ifndef VLQ_CIRCUIT_CIRCUIT_H
#define VLQ_CIRCUIT_CIRCUIT_H

#include <cstdint>
#include <string>
#include <vector>

namespace vlq {

/**
 * Operation codes for the Clifford + noise circuit IR.
 *
 * The IR deliberately contains only what the VLQ evaluation needs:
 * Clifford gates (H, S, X, Y, Z, CNOT, SWAP), reset and Z-basis
 * measurement, and explicit Pauli noise channels. Loads/stores between a
 * transmon and a cavity mode are represented as SWAP plus their own noise
 * channels, so every architecture variant lowers to the same IR.
 */
enum class OpCode : uint8_t {
    H,
    S,
    X,
    Y,
    Z,
    CNOT,
    SWAP,
    RESET,
    MEASURE_Z,
    /** 1-qubit depolarizing: X, Y, Z each with probability p/3. */
    DEPOLARIZE1,
    /** 2-qubit depolarizing: each of the 15 non-identity Paulis, p/15. */
    DEPOLARIZE2,
    X_ERROR,
    Y_ERROR,
    Z_ERROR,
    /**
     * 1-qubit Pauli channel with independent X/Y/Z weights: X with
     * probability `p`, Y with `py`, Z with `pz` (mutually exclusive).
     */
    PAULI_CHANNEL_1,
    /**
     * Heralded erasure: with probability `p` the qubit is erased — it is
     * replaced by the maximally mixed state (uniform I/X/Y/Z, each p/4)
     * and a classical herald flag is raised for the decoder.
     */
    HERALDED_ERASE,
};

/** True for noise channels (including measurement flips handled apart). */
bool opIsNoise(OpCode code);

/** True for operations acting on two qubits. */
bool opIsTwoQubit(OpCode code);

/** Stable mnemonic, e.g. "CNOT". */
const char* opName(OpCode code);

/**
 * One instruction. For MEASURE_Z, `p` is the classical flip probability
 * of the recorded outcome and `meas` is the measurement record index.
 */
struct Operation
{
    OpCode code;
    uint32_t q0 = 0;
    uint32_t q1 = 0;
    double p = 0.0;
    int32_t meas = -1;
    /** Y/Z weights; meaningful only for PAULI_CHANNEL_1. */
    double py = 0.0;
    double pz = 0.0;
};

/** Which parity-check family a detector belongs to. */
enum class CheckBasis : uint8_t { Z = 0, X = 1 };

/**
 * A detector is a parity of measurement records that is deterministic in
 * the absence of noise; a flip signals a nearby fault. Coordinates are
 * diagnostic (plaquette position and round).
 */
struct Detector
{
    std::vector<uint32_t> measurements;
    CheckBasis basis = CheckBasis::Z;
    float x = 0.0f;
    float y = 0.0f;
    float t = 0.0f;
};

/**
 * A logical observable: parity of measurement records whose flip is a
 * logical error. The decoder's job is to predict these flips.
 */
struct Observable
{
    std::vector<uint32_t> measurements;
};

/**
 * A quantum circuit with noise annotations, measurement records,
 * detectors and logical observables.
 *
 * Append-only builder API; the detector error model and all simulators
 * consume the finished op list.
 */
class Circuit
{
  public:
    /** Create an empty circuit on a fixed number of qubits (wires). */
    explicit Circuit(uint32_t numQubits);

    uint32_t numQubits() const { return numQubits_; }
    uint32_t numMeasurements() const { return numMeasurements_; }

    /** @{ Clifford gate appends. */
    void h(uint32_t q);
    void s(uint32_t q);
    void x(uint32_t q);
    void y(uint32_t q);
    void z(uint32_t q);
    void cnot(uint32_t control, uint32_t target);
    void swapGate(uint32_t a, uint32_t b);
    void reset(uint32_t q);
    /** @} */

    /**
     * Z-basis measurement with classical flip probability flipP.
     * @return the measurement record index.
     */
    uint32_t measureZ(uint32_t q, double flipP = 0.0);

    /** @{ Noise appends; silently skipped when p <= 0. */
    void depolarize1(uint32_t q, double p);
    void depolarize2(uint32_t a, uint32_t b, double p);
    void xError(uint32_t q, double p);
    void yError(uint32_t q, double p);
    void zError(uint32_t q, double p);
    /** Exclusive X/Y/Z channel; skipped when px + py + pz <= 0. */
    void pauliChannel1(uint32_t q, double px, double py, double pz);
    /** Heralded erasure with probability p; skipped when p <= 0. */
    void heraldedErase(uint32_t q, double p);
    /** @} */

    /** Make room for `count` ops in all, so appends up to it never copy. */
    void reserveOps(size_t count) { ops_.reserve(count); }

    /** Register a detector; returns its index. */
    uint32_t addDetector(Detector detector);

    /** Register a new (empty) observable; returns its index. */
    uint32_t addObservable();

    /** Add a measurement record to an existing observable. */
    void observableInclude(uint32_t observable, uint32_t measurement);

    const std::vector<Operation>& ops() const { return ops_; }
    const std::vector<Detector>& detectors() const { return detectors_; }
    const std::vector<Observable>& observables() const
    {
        return observables_;
    }

    /** Count operations with the given opcode. */
    size_t countOps(OpCode code) const;

    /** Total probability-weighted noise channels (diagnostics). */
    double totalNoiseMass() const;

    /** Human-readable dump, one op per line. */
    std::string str() const;

  private:
    uint32_t numQubits_;
    uint32_t numMeasurements_ = 0;
    std::vector<Operation> ops_;
    std::vector<Detector> detectors_;
    std::vector<Observable> observables_;

    void checkQubit(uint32_t q) const;
    void append1(OpCode code, uint32_t q, double p = 0.0);
    void append2(OpCode code, uint32_t a, uint32_t b, double p = 0.0);
};

} // namespace vlq

#endif // VLQ_CIRCUIT_CIRCUIT_H
