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
 * Appends channels and outcomes straight into the model's flat arrays.
 * Spans are set by finish(), once the arrays stop growing; until then
 * each outcome's and channel's end offset is kept on the side.
 */
class ModelWriter
{
  public:
    /**
     * Append the outcome "the XOR of `parts` flips", unless it flips
     * nothing and `keepEmpty` is false. Detectors are read off the
     * union of the parts' word ranges, ascending.
     */
    void outcome(double probability,
                 std::initializer_list<const Signature*> parts,
                 bool keepEmpty = false)
    {
        uint32_t lo = std::numeric_limits<uint32_t>::max();
        uint32_t hi = 0;
        uint32_t observables = 0;
        for (const Signature* s : parts) {
            if (s->lo < s->hi) {
                lo = std::min(lo, s->lo);
                hi = std::max(hi, s->hi);
            }
            observables ^= s->observables;
        }
        const size_t begin = pool_.size();
        for (uint32_t w = lo; w < hi; ++w) {
            uint64_t bits = 0;
            for (const Signature* s : parts)
                bits ^= s->words[w];
            while (bits != 0) {
                pool_.push_back(
                    w * 64 + static_cast<uint32_t>(std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
        if (pool_.size() == begin && observables == 0 && !keepEmpty)
            return;
        FaultOutcome o;
        o.probability = probability;
        o.observables = observables;
        outcomes_.push_back(o);
        detectorEnds_.push_back(static_cast<uint32_t>(pool_.size()));
    }

    /** Close the channel of op `opIndex`; dropped if it has no outcome. */
    void endChannel(size_t opIndex, bool heralded = false)
    {
        if (outcomes_.size() == channelBegin_)
            return;
        FaultChannel ch;
        ch.opIndex = static_cast<uint32_t>(opIndex);
        ch.heralded = heralded;
        channels_.push_back(ch);
        channelBegin_ = static_cast<uint32_t>(outcomes_.size());
        channelEnds_.push_back(channelBegin_);
    }

    /**
     * Hand the arrays over, point every span at them, and put the
     * channels (written in reverse circuit order) in circuit order.
     */
    void finish(std::vector<FaultChannel>& channels,
                std::vector<FaultOutcome>& outcomes,
                std::vector<uint32_t>& pool)
    {
        pool = std::move(pool_);
        outcomes = std::move(outcomes_);
        channels = std::move(channels_);
        uint32_t begin = 0;
        for (size_t i = 0; i < outcomes.size(); ++i) {
            outcomes[i].detectors = std::span<const uint32_t>(
                pool.data() + begin, detectorEnds_[i] - begin);
            begin = detectorEnds_[i];
        }
        begin = 0;
        for (size_t i = 0; i < channels.size(); ++i) {
            channels[i].outcomes = std::span<const FaultOutcome>(
                outcomes.data() + begin, channelEnds_[i] - begin);
            begin = channelEnds_[i];
        }
        std::reverse(channels.begin(), channels.end());
    }

  private:
    std::vector<FaultChannel> channels_;
    std::vector<FaultOutcome> outcomes_;
    std::vector<uint32_t> pool_;
    std::vector<uint32_t> detectorEnds_; // per outcome
    std::vector<uint32_t> channelEnds_;  // per channel
    uint32_t channelBegin_ = 0;
};

} // namespace

DetectorErrorModel::DetectorErrorModel(const DetectorErrorModel& other)
    : numDetectors_(other.numDetectors_),
      numObservables_(other.numObservables_),
      numErasureSites_(other.numErasureSites_),
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
    // current (reverse) position flips; dz likewise. Two more arena
    // slots back `identity`, which stays empty, and `record`, which
    // holds one measurement's record flip at a time.
    const uint32_t nQubits = circuit.numQubits();
    const size_t numWords = (dem.numDetectors_ + 63) / 64;
    std::vector<uint64_t> arena((2 * size_t{nQubits} + 2) * numWords, 0);
    std::vector<Signature> dx(nQubits);
    std::vector<Signature> dz(nQubits);
    for (uint32_t q = 0; q < nQubits; ++q) {
        dx[q].words = arena.data() + (2 * size_t{q}) * numWords;
        dz[q].words = arena.data() + (2 * size_t{q} + 1) * numWords;
    }
    Signature identity;
    identity.words = arena.data() + 2 * size_t{nQubits} * numWords;
    Signature record;
    record.words = identity.words + numWords;

    const auto& ops = circuit.ops();
    ModelWriter out;
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
            if (op.p > 0.0) {
                out.outcome(op.p, {&record});
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
            const double p3 = op.p / 3.0;
            const Signature* x = &dx[op.q0];
            const Signature* z = &dz[op.q0];
            out.outcome(p3, {x});
            out.outcome(p3, {x, z}); // Y
            out.outcome(p3, {z});
            out.endChannel(idx);
            break;
          }
          case OpCode::DEPOLARIZE2: {
            const double p15 = op.p / 15.0;
            const Signature* id = &identity;
            for (int code = 1; code < 16; ++code) {
                const int pa = code >> 2;
                const int pb = code & 3;
                out.outcome(p15, {(pa & 1) ? &dx[op.q0] : id,
                                  (pa & 2) ? &dz[op.q0] : id,
                                  (pb & 1) ? &dx[op.q1] : id,
                                  (pb & 2) ? &dz[op.q1] : id});
            }
            out.endChannel(idx);
            break;
          }
          case OpCode::X_ERROR:
            out.outcome(op.p, {&dx[op.q0]});
            out.endChannel(idx);
            break;
          case OpCode::Y_ERROR:
            out.outcome(op.p, {&dx[op.q0], &dz[op.q0]});
            out.endChannel(idx);
            break;
          case OpCode::Z_ERROR:
            out.outcome(op.p, {&dz[op.q0]});
            out.endChannel(idx);
            break;
          case OpCode::PAULI_CHANNEL_1: {
            const Signature* x = &dx[op.q0];
            const Signature* z = &dz[op.q0];
            if (op.p > 0.0)
                out.outcome(op.p, {x});
            if (op.py > 0.0)
                out.outcome(op.py, {x, z});
            if (op.pz > 0.0)
                out.outcome(op.pz, {z});
            out.endChannel(idx);
            break;
          }
          case OpCode::HERALDED_ERASE: {
            // The erased qubit is replaced by the maximally mixed state:
            // uniform I/X/Y/Z, each p/4. Empty signatures (always the I
            // branch, possibly more) are KEPT so the channel fires --
            // and the herald raises -- with the full probability p.
            const double p4 = op.p / 4.0;
            const Signature* x = &dx[op.q0];
            const Signature* z = &dz[op.q0];
            out.outcome(p4, {&identity}, true);
            out.outcome(p4, {x}, true);
            out.outcome(p4, {x, z}, true);
            out.outcome(p4, {z}, true);
            out.endChannel(idx, true);
            break;
          }
        }
    }

    out.finish(dem.channels_, dem.outcomes_, dem.detectorPool_);
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
