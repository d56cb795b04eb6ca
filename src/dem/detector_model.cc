#include "dem/detector_model.h"

#include <algorithm>
#include <bit>
#include <initializer_list>
#include <limits>

#include "util/logging.h"

namespace vlq {

double
FaultChannel::totalProbability() const
{
    // Outcomes of one channel are mutually exclusive physical events, so
    // exclusive summation is exact here. The XOR combination rule
    // p = p1(1-p2) + p2(1-p1) applies only across *independent* channels
    // and lives in DecodingGraph, where contributions from different
    // channels meet on a shared edge.
    double p = 0.0;
    for (const auto& o : outcomes)
        p += o.probability;
    VLQ_ASSERT(p <= 1.0 + 1e-9, "fault channel mass exceeds 1");
    return p;
}

namespace {

/**
 * The detectors and observables one Pauli error flips. Detector bits
 * are dense words (a slice of a shared arena); every word outside
 * [lo, hi) is zero, so XORs, clears and reads touch only that range.
 */
struct Signature
{
    uint64_t* words = nullptr;
    uint32_t lo = 0;
    uint32_t hi = 0; // lo == hi: no detector bit set
    uint32_t observables = 0;
};

/** Shrink [lo, hi) past zero words at either end. */
void
trim(Signature& s)
{
    while (s.lo < s.hi && s.words[s.lo] == 0)
        ++s.lo;
    while (s.hi > s.lo && s.words[s.hi - 1] == 0)
        --s.hi;
}

/** Widen [lo, hi) to cover [lo, hi) of another range. */
void
cover(Signature& s, uint32_t lo, uint32_t hi)
{
    if (s.lo == s.hi) {
        s.lo = lo;
        s.hi = hi;
    } else {
        s.lo = std::min(s.lo, lo);
        s.hi = std::max(s.hi, hi);
    }
}

void
xorInto(Signature& dst, const Signature& src)
{
    if (src.lo < src.hi) {
        const uint32_t lo = src.lo;
        const uint32_t hi = src.hi;
        for (uint32_t w = lo; w < hi; ++w)
            dst.words[w] ^= src.words[w];
        cover(dst, lo, hi);
        trim(dst);
    }
    dst.observables ^= src.observables;
}

void
clear(Signature& s)
{
    std::fill(s.words + s.lo, s.words + s.hi, uint64_t{0});
    s.lo = s.hi = 0;
    s.observables = 0;
}

/**
 * Every XOR of up to four base signatures, over the union of their
 * word ranges: combination `code` XORs the bases whose bits are set in
 * it (bit i selects base i), so combination 0 flips nothing. A fault
 * channel's outcomes are such combinations of its qubits' X and Z
 * sensitivities; computing all of them at once costs one word XOR per
 * combination and word, where XORing each outcome's parts anew reads
 * every part once per outcome.
 */
class Combinations
{
  public:
    explicit Combinations(size_t numWords) : words_(16 * numWords) {}

    /**
     * Combine `bases` (at most four). Returns false when every base is
     * empty (no detector, no observable): then so is every combination.
     */
    bool set(std::initializer_list<const Signature*> bases)
    {
        const Signature* const* base = bases.begin();
        const auto n = static_cast<uint32_t>(bases.size());
        lo_ = std::numeric_limits<uint32_t>::max();
        hi_ = 0;
        uint32_t anyObservable = 0;
        for (uint32_t i = 0; i < n; ++i) {
            if (base[i]->lo < base[i]->hi) {
                lo_ = std::min(lo_, base[i]->lo);
                hi_ = std::max(hi_, base[i]->hi);
            }
            anyObservable |= base[i]->observables;
        }
        const bool anyDetector = hi_ > 0;
        if (!anyDetector)
            lo_ = 0;
        const uint32_t width = hi_ - lo_;
        std::fill(words_.begin(), words_.begin() + width, uint64_t{0});
        observables_[0] = 0;
        // Each combination is the one without its lowest base, XOR
        // that base. A base's words outside its range are zero.
        for (uint32_t code = 1; code < (1u << n); ++code) {
            const uint32_t rest = code & (code - 1);
            const Signature& b =
                *base[static_cast<uint32_t>(std::countr_zero(code))];
            uint64_t* dst = words_.data() + code * width;
            const uint64_t* src = words_.data() + rest * width;
            for (uint32_t w = 0; w < width; ++w)
                dst[w] = src[w] ^ b.words[lo_ + w];
            observables_[code] = observables_[rest] ^ b.observables;
        }
        return anyDetector || anyObservable != 0;
    }

    /** First detector word of every combination. */
    uint32_t lo() const { return lo_; }
    /** Detector words per combination. */
    uint32_t width() const { return hi_ - lo_; }
    const uint64_t* words(uint32_t code) const
    {
        return words_.data() + code * width();
    }
    uint32_t observables(uint32_t code) const { return observables_[code]; }

  private:
    std::vector<uint64_t> words_;
    uint32_t observables_[16] = {};
    uint32_t lo_ = 0;
    uint32_t hi_ = 0;
};

/** Most outcomes the channel of `op` can have (0: not a channel). */
size_t
maxOutcomes(const Operation& op)
{
    switch (op.code) {
      case OpCode::MEASURE_Z:
        return op.p > 0.0 ? 1 : 0;
      case OpCode::DEPOLARIZE1:
      case OpCode::PAULI_CHANNEL_1:
        return 3;
      case OpCode::DEPOLARIZE2:
        return 15;
      case OpCode::X_ERROR:
      case OpCode::Y_ERROR:
      case OpCode::Z_ERROR:
        return 1;
      case OpCode::HERALDED_ERASE:
        return 4;
      default:
        return 0;
    }
}

/**
 * Appends channels and outcomes straight into the model's flat arrays.
 * The channel and outcome arrays are reserved for the most the
 * circuit's channels can produce, so they never move: a channel's
 * span into the outcome array is set when it closes. The pool is
 * reserved for two detectors per outcome; past that it grows and every
 * outcome's span is re-pointed at the new buffer.
 */
class ModelWriter
{
  public:
    ModelWriter(const Circuit& circuit, std::vector<FaultChannel>& channels,
                std::vector<FaultOutcome>& outcomes,
                std::vector<uint32_t>& pool)
        : channels_(channels), outcomes_(outcomes), pool_(pool)
    {
        size_t maxChannels = 0;
        size_t maxOutcomeCount = 0;
        for (const Operation& op : circuit.ops()) {
            const size_t n = maxOutcomes(op);
            maxChannels += n > 0 ? 1 : 0;
            maxOutcomeCount += n;
        }
        channels_.reserve(maxChannels);
        outcomes_.reserve(maxOutcomeCount);
        pool_.reserve(2 * maxOutcomeCount);
    }

    /**
     * Append the outcome "combination `code` of `c` flips", unless it
     * flips nothing and `keepEmpty` is false. Detectors ascend.
     */
    void outcome(double probability, const Combinations& c, uint32_t code,
                 bool keepEmpty = false)
    {
        const uint64_t* words = c.words(code);
        const uint32_t width = c.width();
        size_t n = 0;
        for (uint32_t w = 0; w < width; ++w)
            n += static_cast<size_t>(std::popcount(words[w]));
        const uint32_t observables = c.observables(code);
        if (n == 0 && observables == 0 && !keepEmpty)
            return;
        VLQ_ASSERT(outcomes_.size() < outcomes_.capacity(),
                   "fault channel has more outcomes than its op allows");
        reservePool(n);
        const size_t begin = pool_.size();
        for (uint32_t w = 0; w < width; ++w) {
            const uint32_t base = (c.lo() + w) * 64;
            for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
                pool_.push_back(
                    base + static_cast<uint32_t>(std::countr_zero(bits)));
        }
        FaultOutcome o;
        o.probability = probability;
        o.detectors = std::span<const uint32_t>(pool_.data() + begin, n);
        o.observables = observables;
        outcomes_.push_back(o);
        widest_ = std::max(widest_, n);
    }

    /** Most detectors any outcome written so far flips. */
    size_t widest() const { return widest_; }

    /** Close the channel of op `opIndex`; dropped if it has no outcome. */
    void endChannel(size_t opIndex, bool heralded = false)
    {
        if (outcomes_.size() == channelBegin_)
            return;
        FaultChannel ch;
        ch.opIndex = static_cast<uint32_t>(opIndex);
        ch.heralded = heralded;
        ch.outcomes = std::span<const FaultOutcome>(
            outcomes_.data() + channelBegin_,
            outcomes_.size() - channelBegin_);
        channels_.push_back(ch);
        channelBegin_ = outcomes_.size();
    }

  private:
    /** Make room for `n` more pool entries. */
    void reservePool(size_t n)
    {
        if (pool_.capacity() - pool_.size() >= n)
            return;
        pool_.reserve(std::max(2 * pool_.capacity(), pool_.size() + n));
        // The pool moved. Outcomes fill it in order, so each one's run
        // starts where the previous one's ends.
        size_t begin = 0;
        for (FaultOutcome& o : outcomes_) {
            o.detectors = std::span<const uint32_t>(pool_.data() + begin,
                                                    o.detectors.size());
            begin += o.detectors.size();
        }
    }

    std::vector<FaultChannel>& channels_;
    std::vector<FaultOutcome>& outcomes_;
    std::vector<uint32_t>& pool_;
    size_t channelBegin_ = 0;
    size_t widest_ = 0;
};

} // namespace

DetectorErrorModel::DetectorErrorModel(const DetectorErrorModel& other)
    : numDetectors_(other.numDetectors_),
      numObservables_(other.numObservables_),
      numErasureSites_(other.numErasureSites_),
      maxOutcomeDetectors_(other.maxOutcomeDetectors_),
      channels_(other.channels_),
      outcomes_(other.outcomes_),
      detectorPool_(other.detectorPool_),
      meta_(other.meta_)
{
    // The copied spans still point into `other`; re-point them at the
    // same offsets of this model's arrays.
    for (FaultOutcome& o : outcomes_)
        o.detectors = std::span<const uint32_t>(
            detectorPool_.data()
                + (o.detectors.data() - other.detectorPool_.data()),
            o.detectors.size());
    for (FaultChannel& ch : channels_)
        ch.outcomes = std::span<const FaultOutcome>(
            outcomes_.data() + (ch.outcomes.data() - other.outcomes_.data()),
            ch.outcomes.size());
}

DetectorErrorModel&
DetectorErrorModel::operator=(const DetectorErrorModel& other)
{
    if (this != &other)
        *this = DetectorErrorModel(other);
    return *this;
}

DetectorErrorModel
DetectorErrorModel::build(const Circuit& circuit)
{
    DetectorErrorModel dem;
    dem.numDetectors_ = static_cast<uint32_t>(circuit.detectors().size());
    dem.numObservables_ =
        static_cast<uint32_t>(circuit.observables().size());
    VLQ_ASSERT(dem.numObservables_ <= 32, "too many observables");

    dem.meta_.reserve(dem.numDetectors_);
    for (const auto& d : circuit.detectors())
        dem.meta_.push_back(DetectorMeta{d.basis, d.x, d.y, d.t});

    // Which detectors contain measurement m (measDets[measBegin[m],
    // measBegin[m + 1])), and which observables (a mask). Membership is
    // a parity: listing m twice cancels.
    const uint32_t numMeas = circuit.numMeasurements();
    std::vector<uint32_t> measBegin(numMeas + 1, 0);
    for (const auto& det : circuit.detectors())
        for (uint32_t m : det.measurements)
            ++measBegin[m + 1];
    for (uint32_t m = 0; m < numMeas; ++m)
        measBegin[m + 1] += measBegin[m];
    std::vector<uint32_t> measDets(measBegin[numMeas]);
    std::vector<uint32_t> fill(measBegin.begin(), measBegin.end() - 1);
    for (uint32_t d = 0; d < dem.numDetectors_; ++d)
        for (uint32_t m : circuit.detectors()[d].measurements)
            measDets[fill[m]++] = d;
    std::vector<uint32_t> measObs(numMeas, 0);
    for (uint32_t o = 0; o < dem.numObservables_; ++o)
        for (uint32_t m : circuit.observables()[o].measurements)
            measObs[m] ^= 1u << o;

    // Backward sensitivity sets: dx[q] = what an X error on q at the
    // current (reverse) position flips; dz likewise. One more arena
    // slot backs `record`, which holds one measurement's record flip at
    // a time.
    const uint32_t nQubits = circuit.numQubits();
    const size_t numWords = (dem.numDetectors_ + 63) / 64;
    std::vector<uint64_t> arena((2 * size_t{nQubits} + 1) * numWords, 0);
    std::vector<Signature> dx(nQubits);
    std::vector<Signature> dz(nQubits);
    for (uint32_t q = 0; q < nQubits; ++q) {
        dx[q].words = arena.data() + (2 * size_t{q}) * numWords;
        dz[q].words = arena.data() + (2 * size_t{q} + 1) * numWords;
    }
    Signature record;
    record.words = arena.data() + 2 * size_t{nQubits} * numWords;

    // A channel's outcomes are combinations of its qubits' sensitivity
    // sets. One-qubit channels combine (X, Z): code 1 is X, 2 is Z and
    // 3 is Y. DEPOLARIZE2 combines (X q1, Z q1, X q0, Z q0), so code
    // 4a + b is Pauli a on q0 and b on q1, in the same 1 = X, 2 = Z,
    // 3 = Y numbering. A channel whose every base is empty has no
    // outcome and is skipped, unless heralded.
    const auto& ops = circuit.ops();
    Combinations comb(numWords);
    ModelWriter out(circuit, dem.channels_, dem.outcomes_,
                    dem.detectorPool_);
    for (size_t idx = ops.size(); idx-- > 0;) {
        const Operation& op = ops[idx];
        switch (op.code) {
          case OpCode::MEASURE_Z: {
            // An X error before the measurement flips the record (and
            // persists). Record-flip noise is its own channel.
            const uint32_t m = static_cast<uint32_t>(op.meas);
            for (uint32_t i = measBegin[m]; i < measBegin[m + 1]; ++i) {
                const uint32_t w = measDets[i] / 64;
                record.words[w] ^= uint64_t{1} << (measDets[i] % 64);
                cover(record, w, w + 1);
            }
            trim(record);
            record.observables = measObs[m];
            xorInto(dx[op.q0], record);
            if (op.p > 0.0 && comb.set({&record})) {
                out.outcome(op.p, comb, 1);
                out.endChannel(idx);
            }
            clear(record);
            break;
          }
          case OpCode::RESET:
            clear(dx[op.q0]);
            clear(dz[op.q0]);
            break;
          case OpCode::H:
            std::swap(dx[op.q0], dz[op.q0]);
            break;
          case OpCode::S:
            // X before S becomes Y after: sensitive to both sets.
            xorInto(dx[op.q0], dz[op.q0]);
            break;
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
            break; // Pauli gates do not change Pauli-frame sensitivity
          case OpCode::CNOT:
            // Forward: X(c) -> X(c)X(t), Z(t) -> Z(c)Z(t).
            xorInto(dx[op.q0], dx[op.q1]);
            xorInto(dz[op.q1], dz[op.q0]);
            break;
          case OpCode::SWAP:
            std::swap(dx[op.q0], dx[op.q1]);
            std::swap(dz[op.q0], dz[op.q1]);
            break;
          case OpCode::DEPOLARIZE1: {
            if (!comb.set({&dx[op.q0], &dz[op.q0]}))
                break;
            const double p3 = op.p / 3.0;
            out.outcome(p3, comb, 1); // X
            out.outcome(p3, comb, 3); // Y
            out.outcome(p3, comb, 2); // Z
            out.endChannel(idx);
            break;
          }
          case OpCode::DEPOLARIZE2: {
            if (!comb.set({&dx[op.q1], &dz[op.q1], &dx[op.q0], &dz[op.q0]}))
                break;
            const double p15 = op.p / 15.0;
            for (uint32_t code = 1; code < 16; ++code)
                out.outcome(p15, comb, code);
            out.endChannel(idx);
            break;
          }
          case OpCode::X_ERROR:
          case OpCode::Z_ERROR:
            if (comb.set({op.code == OpCode::X_ERROR ? &dx[op.q0]
                                                     : &dz[op.q0]})) {
                out.outcome(op.p, comb, 1);
                out.endChannel(idx);
            }
            break;
          case OpCode::Y_ERROR:
            if (comb.set({&dx[op.q0], &dz[op.q0]})) {
                out.outcome(op.p, comb, 3);
                out.endChannel(idx);
            }
            break;
          case OpCode::PAULI_CHANNEL_1:
            if (!comb.set({&dx[op.q0], &dz[op.q0]}))
                break;
            if (op.p > 0.0)
                out.outcome(op.p, comb, 1);
            if (op.py > 0.0)
                out.outcome(op.py, comb, 3);
            if (op.pz > 0.0)
                out.outcome(op.pz, comb, 2);
            out.endChannel(idx);
            break;
          case OpCode::HERALDED_ERASE: {
            // The erased qubit is replaced by the maximally mixed state:
            // uniform I/X/Y/Z, each p/4. Empty signatures (always the I
            // branch, possibly more) are KEPT so the channel fires --
            // and the herald raises -- with the full probability p.
            const double p4 = op.p / 4.0;
            comb.set({&dx[op.q0], &dz[op.q0]});
            for (uint32_t code : {0u, 1u, 3u, 2u})
                out.outcome(p4, comb, code, true);
            out.endChannel(idx, true);
            break;
          }
        }
    }

    dem.maxOutcomeDetectors_ = static_cast<uint32_t>(out.widest());

    // Channels were written in reverse circuit order.
    std::reverse(dem.channels_.begin(), dem.channels_.end());
    for (auto& ch : dem.channels_)
        if (ch.heralded)
            ch.erasureSite =
                static_cast<int32_t>(dem.numErasureSites_++);
    return dem;
}

double
DetectorErrorModel::totalFaultMass() const
{
    double mass = 0.0;
    for (const auto& ch : channels_)
        mass += ch.totalProbability();
    return mass;
}

} // namespace vlq
