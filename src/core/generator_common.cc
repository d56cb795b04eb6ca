#include "core/generator_common.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace vlq {

namespace {

/** Describe one patch-dimension problem, or return "" when fine. */
std::string
checkOddDistance(const char* label, int value, bool allowZero)
{
    if (allowZero && value == 0)
        return "";
    std::ostringstream ss;
    if (value < 3) {
        ss << label << " must be >= 3 (got " << value << ")";
        return ss.str();
    }
    if (value % 2 == 0) {
        ss << label << " must be odd (got " << value << ")";
        return ss.str();
    }
    return "";
}

} // namespace

std::string
GeneratorConfig::validate() const
{
    std::string err = checkOddDistance("distance", distance, false);
    if (err.empty())
        err = checkOddDistance("distanceX", distanceX, true);
    if (err.empty())
        err = checkOddDistance("distanceZ", distanceZ, true);
    if (!err.empty())
        return err;
    if (rounds < 0) {
        std::ostringstream ss;
        ss << "rounds must be >= 0 (got " << rounds << "; 0 means "
           << "`distance` rounds)";
        return ss.str();
    }
    if (cavityDepth < 1) {
        std::ostringstream ss;
        ss << "cavityDepth must be >= 1 (got " << cavityDepth << ")";
        return ss.str();
    }
    return "";
}

void
requireValidConfig(const GeneratorConfig& config)
{
    std::string err = config.validate();
    if (!err.empty()) {
        std::string msg = "invalid GeneratorConfig: " + err;
        VLQ_FATAL(msg.c_str());
    }
}

NoisyBuilder::NoisyBuilder(uint32_t numWires, std::vector<WireKind> kinds,
                           const CompositeNoiseModel& noise)
    : circuit_(numWires), tracker_(numWires), kinds_(std::move(kinds)),
      noise_(noise)
{
    VLQ_ASSERT(kinds_.size() == numWires, "wire kind count mismatch");
}

void
NoisyBuilder::emitIdle(uint32_t wire, double durationNs)
{
    WireKind kind = kinds_[wire];
    double& budgetField = (kind == WireKind::Transmon)
        ? budget_.idleTransmon : budget_.idleCavity;
    double p = noise_.idleError(kind, durationNs);
    if (!noise_.bias.enabled()) {
        circuit_.depolarize1(wire, p);
    } else {
        double px, py, pz;
        noise_.bias.split(p, px, py, pz);
        circuit_.pauliChannel1(wire, px, py, pz);
    }
    budgetField += p;
    if (noise_.dephasing.enabled()) {
        double pzExtra = noise_.dephasing.dephasingError(kind, durationNs);
        circuit_.zError(wire, pzExtra);
        budgetField += pzExtra;
    }
}

void
NoisyBuilder::emitDamping(uint32_t q, double& budgetField)
{
    if (!noise_.damping.enabled())
        return;
    double px, py, pz;
    AmplitudeDampingSource::twirl(noise_.damping.gamma, px, py, pz);
    circuit_.pauliChannel1(q, px, py, pz);
    budgetField += px + py + pz;
}

void
NoisyBuilder::emitGateNoise1(uint32_t q, double p, double& budgetField)
{
    double pErase = noise_.erasure.enabled()
        ? noise_.erasure.fraction * p : 0.0;
    double pPauli = p - pErase;
    if (noise_.bias.enabled()) {
        double px, py, pz;
        noise_.bias.split(pPauli, px, py, pz);
        circuit_.pauliChannel1(q, px, py, pz);
    } else {
        circuit_.depolarize1(q, pPauli);
    }
    if (pErase > 0.0) {
        if (noise_.erasure.heralded)
            circuit_.heraldedErase(q, pErase);
        else
            circuit_.depolarize1(q, 0.75 * pErase);
    }
    budgetField += p;
    emitDamping(q, budgetField);
}

void
NoisyBuilder::emitGateNoise2(uint32_t a, uint32_t b, double p,
                             double& budgetField)
{
    double pErase = noise_.erasure.enabled()
        ? noise_.erasure.fraction * p : 0.0;
    double pPauli = p - pErase;
    if (noise_.bias.enabled()) {
        // Independent single-qubit biased channels with half the gate
        // budget each (a correlated biased 2-qubit channel is not
        // representable in the IR).
        double px, py, pz;
        noise_.bias.split(pPauli / 2.0, px, py, pz);
        circuit_.pauliChannel1(a, px, py, pz);
        circuit_.pauliChannel1(b, px, py, pz);
    } else {
        circuit_.depolarize2(a, b, pPauli);
    }
    if (pErase > 0.0) {
        for (uint32_t q : {a, b}) {
            if (noise_.erasure.heralded)
                circuit_.heraldedErase(q, pErase / 2.0);
            else
                circuit_.depolarize1(q, 0.75 * pErase / 2.0);
        }
    }
    budgetField += p;
    emitDamping(a, budgetField);
    emitDamping(b, budgetField);
}

void
NoisyBuilder::momentBegin(double durationNs)
{
    tracker_.beginMoment(durationNs);
}

void
NoisyBuilder::momentEnd()
{
    tracker_.endMoment([this](uint32_t w, double dt) { emitIdle(w, dt); });
}

void
NoisyBuilder::wait(double durationNs)
{
    tracker_.wait(durationNs,
                  [this](uint32_t w, double dt) { emitIdle(w, dt); });
}

void
NoisyBuilder::gateH(uint32_t q)
{
    circuit_.h(q);
    emitGateNoise1(q, noise_.p1, budget_.gate1);
    tracker_.touch(q);
}

void
NoisyBuilder::cnotTT(uint32_t control, uint32_t target)
{
    circuit_.cnot(control, target);
    emitGateNoise2(control, target, noise_.p2, budget_.gateTT);
    tracker_.touch(control);
    tracker_.touch(target);
}

void
NoisyBuilder::cnotTM(uint32_t control, uint32_t target)
{
    circuit_.cnot(control, target);
    emitGateNoise2(control, target, noise_.pTm, budget_.gateTM);
    tracker_.touch(control);
    tracker_.touch(target);
}

void
NoisyBuilder::loadStore(uint32_t transmon, uint32_t mode)
{
    circuit_.swapGate(transmon, mode);
    emitGateNoise2(transmon, mode, noise_.pLoadStore, budget_.loadStore);
    tracker_.touch(transmon);
    tracker_.touch(mode);
    // Liveness moves with the information.
    bool tLive = tracker_.isLive(transmon);
    bool mLive = tracker_.isLive(mode);
    tracker_.setLive(transmon, mLive);
    tracker_.setLive(mode, tLive);
    ++loadStoreCount_;
}

void
NoisyBuilder::resetQ(uint32_t q)
{
    circuit_.reset(q);
    // Reset errors are X flips by nature; skip p == 0 entirely so the
    // default error-free reset adds no dead weight anywhere downstream.
    if (noise_.pReset > 0.0) {
        circuit_.xError(q, noise_.pReset);
        budget_.resetErr += noise_.pReset;
    }
    tracker_.touch(q);
    tracker_.setLive(q, true);
}

uint32_t
NoisyBuilder::measure(uint32_t q)
{
    // measFlip() is exactly pMeas when the readout source inherits both
    // sides, so uniform configs emit byte-identical records.
    double pm = noise_.measFlip();
    uint32_t m = circuit_.measureZ(q, pm);
    budget_.measurement += pm;
    tracker_.touch(q);
    tracker_.setLive(q, false);
    return m;
}

DetectorBook::DetectorBook(const SurfaceLayout& layout,
                           CheckBasis memoryBasis, int rounds)
    : layout_(layout), basis_(memoryBasis), rounds_(rounds),
      prevMeas_(layout.plaquettes().size(), -1)
{
}

void
DetectorBook::recordRound(Circuit& circuit, uint32_t check, uint32_t meas,
                          int round)
{
    if (round == roundsSeen_ && round < 2) {
        ++roundsSeen_;
        const size_t ops = circuit.ops().size();
        if (round == 0) {
            firstRecordOps_ = ops;
        } else {
            // Past this record come R-2 more rounds and the end of the
            // last, at most R-1 rounds' ops, then the readout: an H and
            // a measurement per data qubit.
            const size_t perRound = ops - firstRecordOps_;
            circuit.reserveOps(
                ops + static_cast<size_t>(rounds_ - 1) * perRound
                + 2 * static_cast<size_t>(layout_.numData()));
        }
    }
    const Plaquette& p = layout_.plaquettes()[check];
    if (p.basis == basis_) {
        Detector det;
        det.measurements.push_back(meas);
        if (prevMeas_[check] >= 0) {
            det.measurements.push_back(
                static_cast<uint32_t>(prevMeas_[check]));
        }
        det.basis = p.basis;
        det.x = static_cast<float>(p.cx);
        det.y = static_cast<float>(p.cy);
        det.t = static_cast<float>(round);
        circuit.addDetector(std::move(det));
    }
    prevMeas_[check] = meas;
}

void
DetectorBook::finish(Circuit& circuit, const std::vector<uint32_t>& dataMeas,
                     int finalRound)
{
    VLQ_ASSERT(dataMeas.size() ==
                   static_cast<size_t>(layout_.numData()),
               "need one readout per data qubit");
    for (uint32_t c : layout_.checksOf(basis_)) {
        const Plaquette& p = layout_.plaquettes()[c];
        Detector det;
        for (uint32_t q : p.data)
            det.measurements.push_back(dataMeas[q]);
        VLQ_ASSERT(prevMeas_[c] >= 0, "check never measured");
        det.measurements.push_back(static_cast<uint32_t>(prevMeas_[c]));
        det.basis = p.basis;
        det.x = static_cast<float>(p.cx);
        det.y = static_cast<float>(p.cy);
        det.t = static_cast<float>(finalRound);
        circuit.addDetector(std::move(det));
    }

    uint32_t obs = circuit.addObservable();
    std::vector<uint32_t> support = (basis_ == CheckBasis::Z)
        ? layout_.logicalZSupport()
        : layout_.logicalXSupport();
    for (uint32_t q : support)
        circuit.observableInclude(obs, dataMeas[q]);
}

StandardRoundWires
StandardRoundWires::transmonGrid(const SurfaceLayout& layout)
{
    const uint32_t nData = static_cast<uint32_t>(layout.numData());
    const uint32_t nChecks = static_cast<uint32_t>(layout.numChecks());
    StandardRoundWires wires;
    for (uint32_t q = 0; q < nData; ++q)
        wires.dataWires.push_back(q);
    for (uint32_t c = 0; c < nChecks; ++c)
        wires.ancWires.push_back(nData + c);
    return wires;
}

void
emitStandardRound(NoisyBuilder& builder, const SurfaceLayout& layout,
                  const StandardRoundWires& wires, DetectorBook& book,
                  int round)
{
    const HardwareParams& hw = builder.noise().hw;
    const auto& plaquettes = layout.plaquettes();

    // Reset all ancillas.
    builder.momentBegin(hw.tReset);
    for (uint32_t c = 0; c < plaquettes.size(); ++c)
        builder.resetQ(wires.ancWires[c]);
    builder.momentEnd();

    // Basis change for X checks.
    builder.momentBegin(hw.tGate1);
    for (uint32_t c = 0; c < plaquettes.size(); ++c)
        if (plaquettes[c].basis == CheckBasis::X)
            builder.gateH(wires.ancWires[c]);
    builder.momentEnd();

    // Four CNOT steps; the layout's two-pattern order guarantees no wire
    // is touched twice in a step and the interleaved checks commute.
    for (int step = 0; step < 4; ++step) {
        builder.momentBegin(hw.tGate2);
        for (uint32_t c = 0; c < plaquettes.size(); ++c) {
            int32_t q = layout.dataAtStep(plaquettes[c], step);
            if (q < 0)
                continue;
            uint32_t dataWire = wires.dataWires[static_cast<uint32_t>(q)];
            uint32_t ancWire = wires.ancWires[c];
            if (plaquettes[c].basis == CheckBasis::Z)
                builder.cnotTT(dataWire, ancWire);
            else
                builder.cnotTT(ancWire, dataWire);
        }
        builder.momentEnd();
    }

    builder.momentBegin(hw.tGate1);
    for (uint32_t c = 0; c < plaquettes.size(); ++c)
        if (plaquettes[c].basis == CheckBasis::X)
            builder.gateH(wires.ancWires[c]);
    builder.momentEnd();

    // Measure all ancillas and emit this round's detectors.
    builder.momentBegin(hw.tMeasure);
    for (uint32_t c = 0; c < plaquettes.size(); ++c) {
        uint32_t m = builder.measure(wires.ancWires[c]);
        book.recordRound(builder.circuit(), c, m, round);
    }
    builder.momentEnd();
}

void
advanceStandardRound(const HardwareParams& hw, double& clockNs)
{
    clockNs += hw.tReset;
    clockNs += hw.tGate1;
    for (int step = 0; step < 4; ++step)
        clockNs += hw.tGate2;
    clockNs += hw.tGate1;
    clockNs += hw.tMeasure;
}

GeneratedCircuit
emitMemoryExperiment(
    const GeneratorConfig& config, const SurfaceLayout& layout,
    uint32_t numWires, uint32_t firstHomeWire, WireKind homeKind,
    const std::function<double(NoisyBuilder&, DetectorBook&)>& emitRounds)
{
    const uint32_t nData = static_cast<uint32_t>(layout.numData());
    const bool memoryX = config.memoryBasis == CheckBasis::X;
    std::vector<WireKind> kinds(numWires, WireKind::Transmon);
    for (uint32_t q = 0; q < nData; ++q)
        kinds[firstHomeWire + q] = homeKind;
    NoisyBuilder builder(numWires, std::move(kinds), config.noise);
    DetectorBook book(layout, config.memoryBasis, config.effectiveRounds());

    builder.momentBegin(0.0);
    for (uint32_t q = 0; q < nData; ++q) {
        builder.resetIdeal(firstHomeWire + q);
        if (memoryX)
            builder.hIdeal(firstHomeWire + q);
        builder.setLive(firstHomeWire + q, true);
    }
    builder.momentEnd();

    const double gapNs = emitRounds(builder, book);

    builder.momentBegin(0.0);
    std::vector<uint32_t> dataMeas(nData);
    for (uint32_t q = 0; q < nData; ++q) {
        if (memoryX)
            builder.hIdeal(firstHomeWire + q);
        dataMeas[q] = builder.measureIdeal(firstHomeWire + q);
    }
    builder.momentEnd();
    book.finish(builder.circuit(), dataMeas, config.effectiveRounds());

    GeneratedCircuit out;
    out.totalDurationNs = builder.now();
    out.activeDurationNs = builder.now() - gapNs;
    out.loadStoreCount = builder.loadStoreCount();
    out.budget = builder.budget();
    out.circuit = std::move(builder.circuit());
    return out;
}

double
emitPagedRounds(
    NoisyBuilder& builder, const GeneratorConfig& config,
    const std::function<void(int numRounds, int firstRound)>& emitBlock,
    const std::function<void(int numRounds, double& clockNs)>& advanceBlock)
{
    const int rounds = config.effectiveRounds();
    const bool interleaved =
        config.schedule == ExtractionSchedule::Interleaved;
    double blockDur = 0.0;
    if (interleaved) {
        for (int r = 0; r < rounds; ++r)
            advanceBlock(1, blockDur);
    } else {
        advanceBlock(rounds, blockDur);
    }
    const double roundDur = blockDur / rounds;
    const double waiters = config.cavityDepth - 1;

    double gapBlock = 0.0;
    double gapRound = 0.0;
    if (config.gapModel == PagingGapModel::BlockOnce)
        gapBlock = waiters * roundDur;
    else if (interleaved)
        gapRound = waiters * roundDur;
    else
        gapBlock = waiters * blockDur;
    gapBlock = std::max(gapBlock, 0.0);
    gapRound = std::max(gapRound, 0.0);

    builder.wait(gapBlock);
    if (interleaved) {
        for (int r = 0; r < rounds; ++r) {
            builder.wait(gapRound);
            emitBlock(1, r);
        }
    } else {
        emitBlock(rounds, 0);
    }
    return gapBlock + gapRound * rounds;
}

} // namespace vlq
