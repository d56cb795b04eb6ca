#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <type_traits>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/decoding_graph.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/memory_experiment.h"
#include "obs/metrics.h"
#include "sim/frame.h"
#include "util/rng.h"

namespace vlq {
namespace {

GeneratorConfig
smallConfig(EmbeddingKind, double p,
            ExtractionSchedule sched = ExtractionSchedule::AllAtOnce,
            CheckBasis basis = CheckBasis::Z)
{
    GeneratorConfig cfg;
    cfg.distance = 3;
    cfg.memoryBasis = basis;
    cfg.schedule = sched;
    cfg.cavityDepth = 3;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

TEST(Dem, RepetitionToyCircuit)
{
    // Two-qubit "repetition code": one parity check measured twice.
    Circuit c(3);
    c.xError(0, 0.1); // channel 0
    c.cnot(0, 2);
    c.cnot(1, 2);
    uint32_t m0 = c.measureZ(2);
    c.reset(2);
    c.cnot(0, 2);
    c.cnot(1, 2);
    uint32_t m1 = c.measureZ(2);
    uint32_t md = c.measureZ(0);
    Detector d0;
    d0.measurements = {m0};
    c.addDetector(d0);
    Detector d1;
    d1.measurements = {m0, m1};
    c.addDetector(d1);
    uint32_t obs = c.addObservable();
    c.observableInclude(obs, md);

    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    const auto& ch = dem.channels()[0];
    ASSERT_EQ(ch.outcomes.size(), 1u);
    // X on qubit 0 flips m0 and m1 and the data readout: detector 0
    // (m0) fires, detector 1 (m0 xor m1) stays quiet, observable flips.
    ASSERT_EQ(ch.outcomes[0].detectors.size(), 1u);
    EXPECT_EQ(ch.outcomes[0].detectors[0], 0u);
    EXPECT_EQ(ch.outcomes[0].observables, 1u);
    EXPECT_NEAR(ch.outcomes[0].probability, 0.1, 1e-12);
}

TEST(Dem, MeasurementFlipChannel)
{
    Circuit c(1);
    uint32_t m0 = c.measureZ(0, 0.2);
    uint32_t m1 = c.measureZ(0, 0.0);
    Detector d;
    d.measurements = {m0, m1};
    c.addDetector(d);
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    ASSERT_EQ(dem.channels()[0].outcomes[0].detectors.size(), 1u);
    EXPECT_EQ(dem.channels()[0].outcomes[0].detectors[0], 0u);
    EXPECT_NEAR(dem.channels()[0].outcomes[0].probability, 0.2, 1e-12);
}

TEST(Dem, DepolarizeSplitsOutcomes)
{
    Circuit c(1);
    c.depolarize1(0, 0.3);
    uint32_t m = c.measureZ(0);
    Detector d;
    d.measurements = {m};
    c.addDetector(d);
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    // X and Y flip the Z measurement; Z does not (empty, dropped).
    EXPECT_EQ(dem.channels()[0].outcomes.size(), 2u);
    EXPECT_NEAR(dem.channels()[0].totalProbability(), 0.2, 1e-12);
}

/**
 * Cross-validation on real circuits: the backward-built DEM must match
 * forward Pauli-frame injection for every outcome of every channel.
 */
class DemForwardBackward
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(DemForwardBackward, SignaturesMatchForwardInjection)
{
    auto [embInt, schedInt] = GetParam();
    EmbeddingKind emb = static_cast<EmbeddingKind>(embInt);
    GeneratorConfig cfg = smallConfig(
        emb, 2e-3, static_cast<ExtractionSchedule>(schedInt));
    GeneratedCircuit gen = generateMemoryCircuit(emb, cfg);
    const Circuit& circuit = gen.circuit;
    DetectorErrorModel dem = DetectorErrorModel::build(circuit);
    FrameSimulator frame(circuit);

    for (const auto& ch : dem.channels()) {
        const Operation& op = circuit.ops()[ch.opIndex];
        // Enumerate the op's physical outcomes and forward-propagate.
        std::vector<std::pair<std::vector<uint32_t>, uint32_t>> expected;
        auto addExpected = [&](const BitVec& measFlips) {
            BitVec det = FrameSimulator::detectorFlips(circuit, measFlips);
            uint32_t obs =
                FrameSimulator::observableFlips(circuit, measFlips);
            auto ones = det.onesIndices();
            if (!ones.empty() || obs != 0)
                expected.push_back({ones, obs});
        };
        switch (op.code) {
          case OpCode::DEPOLARIZE1:
            for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                addExpected(frame.propagateInjected(ch.opIndex, p));
            break;
          case OpCode::DEPOLARIZE2:
            for (int code = 1; code < 16; ++code) {
                Pauli pa = static_cast<Pauli>(code >> 2);
                Pauli pb = static_cast<Pauli>(code & 3);
                addExpected(
                    frame.propagateInjected(ch.opIndex, pa, pb));
            }
            break;
          case OpCode::MEASURE_Z:
            addExpected(frame.propagateMeasurementFlip(ch.opIndex));
            break;
          case OpCode::X_ERROR:
            addExpected(frame.propagateInjected(ch.opIndex, Pauli::X));
            break;
          default:
            FAIL() << "unexpected channel op";
        }
        // Compare as multisets.
        ASSERT_EQ(ch.outcomes.size(), expected.size())
            << "op " << ch.opIndex;
        for (const auto& o : ch.outcomes) {
            bool found = false;
            for (auto& e : expected) {
                if (std::ranges::equal(e.first, o.detectors)
                    && e.second == o.observables) {
                    found = true;
                    e.second = 0xffffffff; // consume
                    e.first.clear();
                    break;
                }
            }
            EXPECT_TRUE(found) << "op " << ch.opIndex;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Setups, DemForwardBackward,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1)));

TEST(Dem, FaultMassMatchesCircuitNoise)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Natural, 2e-3);
    GeneratedCircuit gen = generateNaturalMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    // Fault mass <= raw noise mass (invisible outcomes are dropped).
    EXPECT_LE(dem.totalFaultMass(),
              gen.circuit.totalNoiseMass() + 1e-9);
    EXPECT_GT(dem.totalFaultMass(), 0.0);
}

TEST(Sampler, MatchesFrameSimulatorStatistically)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Baseline2D, 8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    FrameSimulator frame(gen.circuit);

    const int trials = 6000;
    Rng rngA(42);
    Rng rngB(43);
    double sumA = 0.0;
    double sumB = 0.0;
    int obsA = 0;
    int obsB = 0;
    BitVec det(dem.numDetectors());
    uint32_t obsMask = 0;
    for (int i = 0; i < trials; ++i) {
        sampler.sampleInto(rngA, det, obsMask);
        sumA += static_cast<double>(det.popcount());
        obsA += (obsMask & 1u) ? 1 : 0;
        BitVec flips = frame.sampleMeasurementFlips(rngB);
        BitVec det2 = FrameSimulator::detectorFlips(gen.circuit, flips);
        sumB += static_cast<double>(det2.popcount());
        obsB += (FrameSimulator::observableFlips(gen.circuit, flips) & 1u)
            ? 1 : 0;
    }
    double meanA = sumA / trials;
    double meanB = sumB / trials;
    EXPECT_NEAR(meanA, meanB, 0.12 * std::max(meanA, meanB));
    EXPECT_NEAR(static_cast<double>(obsA) / trials,
                static_cast<double>(obsB) / trials, 0.02);
}

TEST(Dem, DetectorMetadataCarriesGeometry)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Baseline2D, 2e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    ASSERT_EQ(dem.detectorMeta().size(), dem.numDetectors());
    float maxT = 0.0f;
    for (const auto& meta : dem.detectorMeta()) {
        EXPECT_EQ(meta.basis, CheckBasis::Z);
        EXPECT_GE(meta.x, 0.0f);
        EXPECT_GE(meta.y, 0.0f);
        maxT = std::max(maxT, meta.t);
    }
    // Final (data-readout) detector layer is at t = rounds.
    EXPECT_EQ(maxT, 3.0f);
}

TEST(Dem, InterleavedXBasisBuilds)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Natural, 2e-3,
                                      ExtractionSchedule::Interleaved,
                                      CheckBasis::X);
    GeneratedCircuit gen = generateNaturalMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    EXPECT_GT(dem.numDetectors(), 0u);
    EXPECT_EQ(dem.numObservables(), 1u);
    for (const auto& meta : dem.detectorMeta())
        EXPECT_EQ(meta.basis, CheckBasis::X);
}

TEST(Dem, ChannelsOrderedByOpIndex)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Compact, 2e-3);
    GeneratedCircuit gen = generateCompactMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    for (size_t i = 1; i < dem.channels().size(); ++i)
        EXPECT_LE(dem.channels()[i - 1].opIndex,
                  dem.channels()[i].opIndex);
}

TEST(Dem, ExclusiveOutcomesSumExactlyInDecodingGraph)
{
    // One channel whose X and Y branches land on the same edge: the
    // branches are mutually exclusive, so the edge probability is the
    // plain sum 0.1 + 0.1 = 0.2 -- NOT the independent-flip combination
    // 0.1 + 0.1 - 2*0.1*0.1 = 0.18. Run at p >= 0.1 where the two
    // disagree by far more than rounding.
    Circuit c(1);
    c.reset(0);
    c.pauliChannel1(0, 0.1, 0.1, 0.05);
    uint32_t m = c.measureZ(0);
    Detector d;
    d.measurements = {m};
    c.addDetector(d);
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    DecodingGraph g = DecodingGraph::build(dem);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_NEAR(g.edges()[0].probability, 0.2, 1e-12);

    // Two INDEPENDENT channels with the same signature keep the XOR
    // rule: either flips alone, both cancel.
    Circuit c2(1);
    c2.reset(0);
    c2.xError(0, 0.1);
    c2.xError(0, 0.1);
    uint32_t m2 = c2.measureZ(0);
    Detector d2;
    d2.measurements = {m2};
    c2.addDetector(d2);
    DetectorErrorModel dem2 = DetectorErrorModel::build(c2);
    ASSERT_EQ(dem2.channels().size(), 2u);
    DecodingGraph g2 = DecodingGraph::build(dem2);
    ASSERT_EQ(g2.edges().size(), 1u);
    EXPECT_NEAR(g2.edges()[0].probability,
                0.1 + 0.1 - 2 * 0.1 * 0.1, 1e-12);
}

TEST(Dem, ZeroProbabilityNoiseEmitsNothing)
{
    // pReset = 0 (the atPhysicalRate default) must suppress the
    // reset-flip ops entirely: fewer circuit ops, strictly fewer DEM
    // channels than the same config with reset noise on, and never a
    // zero-probability outcome anywhere.
    GeneratorConfig cfg0 = smallConfig(EmbeddingKind::Baseline2D, 2e-3);
    ASSERT_EQ(cfg0.noise.pReset, 0.0);
    GeneratedCircuit without = generateBaselineMemory(cfg0);
    GeneratorConfig cfg = cfg0;
    cfg.noise.pReset = 2e-3;
    GeneratedCircuit with = generateBaselineMemory(cfg);
    EXPECT_LT(without.circuit.ops().size(), with.circuit.ops().size());

    DetectorErrorModel demWith = DetectorErrorModel::build(with.circuit);
    DetectorErrorModel demWithout =
        DetectorErrorModel::build(without.circuit);
    EXPECT_LT(demWithout.channels().size(), demWith.channels().size());
    for (const auto& ch : demWithout.channels())
        for (const auto& o : ch.outcomes)
            EXPECT_GT(o.probability, 0.0);
}

TEST(Sampler, ZeroNoiseSamplesNothing)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Compact, 0.0);
    cfg.noise.idleScale = 0.0;
    GeneratedCircuit gen = generateCompactMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    Rng rng(1);
    auto shot = sampler.sample(rng);
    EXPECT_TRUE(shot.detectors.none());
    EXPECT_EQ(shot.observables, 0u);
}

// The sampler reads its model's arrays in place, so it cannot be built
// from a temporary model, which would die first.
static_assert(
    std::is_constructible_v<FaultSampler, const DetectorErrorModel&>);
static_assert(!std::is_constructible_v<FaultSampler, DetectorErrorModel>);
static_assert(
    !std::is_constructible_v<FaultSampler, const DetectorErrorModel&&>);

/** FNV-1a over 64-bit values: an order-sensitive fingerprint. */
class Digest
{
  public:
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void addDouble(double v) { add(std::bit_cast<uint64_t>(v)); }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Every channel field and every outcome's bits, in channel order. */
uint64_t
demDigest(const DetectorErrorModel& dem)
{
    Digest h;
    h.add(dem.numDetectors());
    h.add(dem.numObservables());
    h.add(dem.numErasureSites());
    h.add(dem.channels().size());
    for (const auto& ch : dem.channels()) {
        h.add(ch.opIndex);
        h.add(ch.heralded ? 1 : 0);
        h.add(static_cast<uint64_t>(static_cast<int64_t>(ch.erasureSite)));
        h.add(ch.outcomes.size());
        for (const auto& o : ch.outcomes) {
            h.addDouble(o.probability);
            h.add(o.detectors.size());
            for (uint32_t d : o.detectors)
                h.add(d);
            h.add(o.observables);
        }
    }
    return h.value();
}

/** Edges (endpoints, probability and weight bits, observables),
 *  adjacency and build stats. */
uint64_t
graphDigest(const DecodingGraph& g)
{
    Digest h;
    h.add(g.numDetectors());
    h.add(g.edges().size());
    for (const DecodingEdge& e : g.edges()) {
        h.add(e.a);
        h.add(e.b);
        h.addDouble(e.probability);
        h.addDouble(e.weight);
        h.add(e.observables);
    }
    for (uint32_t v = 0; v < g.numNodes(); ++v) {
        h.add(g.incidentEdges(v).size());
        for (uint32_t e : g.incidentEdges(v))
            h.add(e);
    }
    h.addDouble(g.minWeight());
    h.add(g.stats().decomposed);
    h.add(g.stats().forcedPairings);
    h.add(g.stats().observableConflicts);
    return h.value();
}

/** Every row of the first 4096 shots the batch sampler draws. */
uint64_t
shotDigest(const DetectorErrorModel& dem)
{
    constexpr uint32_t kShots = 4096;
    FaultSampler sampler(dem);
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), kShots, 0,
                dem.numErasureSites());
    sampler.sampleBatchInto(Rng(0x5eed), batch);
    Digest h;
    for (uint32_t d = 0; d < batch.numDetectors(); ++d)
        for (uint32_t w = 0; w < batch.wordsPerRow(); ++w)
            h.add(batch.detectorRow(d)[w]);
    for (uint32_t o = 0; o < batch.numObservables(); ++o)
        for (uint32_t w = 0; w < batch.wordsPerRow(); ++w)
            h.add(batch.observableRow(o)[w]);
    for (uint32_t s = 0; s < batch.numErasureSites(); ++s)
        for (uint32_t w = 0; w < batch.wordsPerRow(); ++w)
            h.add(batch.erasureRow(s)[w]);
    return h.value();
}

TEST(Dem, CopiesAndMovesViewTheirOwnArrays)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Compact, 2e-3);
    cfg.noise.erasure.fraction = 0.5;
    auto original = std::make_unique<DetectorErrorModel>(
        DetectorErrorModel::build(generateCompactMemory(cfg).circuit));
    const uint64_t expected = demDigest(*original);
    ASSERT_GT(original->numErasureSites(), 0u);

    DetectorErrorModel copy(*original);
    DetectorErrorModel assigned;
    assigned = *original;
    original.reset(); // a copy must not read the original's arrays
    auto inside = [](auto part, auto whole) {
        const std::less_equal<> le;
        return le(whole.data(), part.data())
            && le(part.data() + part.size(), whole.data() + whole.size());
    };
    for (const DetectorErrorModel* dem : {&copy, &assigned}) {
        EXPECT_EQ(demDigest(*dem), expected);
        for (const auto& ch : dem->channels()) {
            EXPECT_TRUE(inside(ch.outcomes, dem->outcomes()));
            for (const auto& o : ch.outcomes)
                EXPECT_TRUE(inside(o.detectors, dem->detectorPool()));
        }
    }

    DetectorErrorModel moved(std::move(copy));
    EXPECT_EQ(demDigest(moved), expected);
    assigned = std::move(moved);
    EXPECT_EQ(demDigest(assigned), expected);
}

/** One pinned configuration and its committed fingerprints. */
struct DigestCase
{
    int setup;      // paperSetups() index
    int distance;
    char basis;     // 'Z' or 'X'
    int noise;      // 0 flat, 1 heralded erasure, 2 Z-biased
    uint64_t dem;
    uint64_t graph;
    uint64_t shots;
};

/**
 * Guards the fault model's bit-identity: any change to a channel, an
 * outcome's probability bits or detector list, a decoding-graph edge or
 * a sampled shot changes a digest. Every setup is pinned at d 3 and 5;
 * Baseline and Compact-Interleaved also at d 7 and 13, where set-up
 * costs the most. Regenerate the table only for an intentional change
 * to the model; the failure message prints the new rows.
 */
TEST(DemDigest, FaultModelGraphAndShotsMatchCommittedDigests)
{
    const DigestCase cases[] = {
        {0, 3, 'Z', 0, 0x7abd3d858607dd65ULL,
         0xe8e33a84b17604ccULL, 0x5ae7e82382f92a49ULL},
        {0, 3, 'X', 0, 0xccb593a2f98531c5ULL,
         0x970082d4d43cbb7fULL, 0xbb87de2846b3c34eULL},
        {0, 5, 'Z', 0, 0xb57cbc3e059d829dULL,
         0xcb50062c2af6e874ULL, 0x46a94f9001665432ULL},
        {0, 5, 'X', 0, 0x9e5e5a54246b27f5ULL,
         0x8b52086d6df6d2a0ULL, 0xdcb5149404975a73ULL},
        {1, 3, 'Z', 0, 0x4fb276d502e6d9bcULL,
         0xa6d4f4a6bfc1d7beULL, 0x3bbd098bd568c758ULL},
        {1, 3, 'X', 0, 0xd00dd54bb3fab11fULL,
         0xf9cab8ceb0efba02ULL, 0x1a37c32622a31ef2ULL},
        {1, 5, 'Z', 0, 0x522cd644602827d3ULL,
         0x0bd7ab7d068d6409ULL, 0xf58197229199c3e7ULL},
        {1, 5, 'X', 0, 0xe997700bd02a9e4cULL,
         0xdda285b4b9168816ULL, 0xce2d14e50dc03dbdULL},
        {2, 3, 'Z', 0, 0xb1e7b3873be8e5aeULL,
         0x603e7632ba9b1b75ULL, 0xb61b574128023ff7ULL},
        {2, 3, 'X', 0, 0x162591f798269461ULL,
         0x7dd97ad2da0d618bULL, 0xeace4bc85838ff3aULL},
        {2, 5, 'Z', 0, 0x9619695ff175cb27ULL,
         0x013b393c903ee374ULL, 0x098b167204ab37a2ULL},
        {2, 5, 'X', 0, 0x4ce537d42c70f935ULL,
         0x27d8991e201c199dULL, 0x91bb5f35bfd3b101ULL},
        {3, 3, 'Z', 0, 0x54d24046f37556a8ULL,
         0x6ae561df595b5a57ULL, 0xc600d19078dbb6e8ULL},
        {3, 3, 'X', 0, 0x8fff2a5ffe8e982fULL,
         0xbe454d1fd8ae2f3dULL, 0x118959b1bf73ea67ULL},
        {3, 5, 'Z', 0, 0xd8a3541005675606ULL,
         0xde0a3edf879ed573ULL, 0xfcd7e600a14973beULL},
        {3, 5, 'X', 0, 0xe0c2484ac14984eeULL,
         0xe366e4c1cfbe0ea4ULL, 0x9ae4a975b4bc0ceaULL},
        {4, 3, 'Z', 0, 0x94e56b627e6d6e2dULL,
         0xe4eb07e4c0c1f397ULL, 0x31662e726f8f63aaULL},
        {4, 3, 'X', 0, 0x83797a19dd2dbc54ULL,
         0x0e27d0d6dc417dd4ULL, 0xe2123bf934422c29ULL},
        {4, 5, 'Z', 0, 0xe4df3d994bb1d0e4ULL,
         0x498d06ce5aaf3a49ULL, 0xf9e8b416b4f85abaULL},
        {4, 5, 'X', 0, 0xc98d0947475ee8beULL,
         0x01c4a67238f8f5ddULL, 0xf8fb61d6ec28ebabULL},
        {0, 3, 'Z', 1, 0xc552e51b9bfa29c6ULL,
         0xc7c23d6689017edcULL, 0x7a082a515f05fa7eULL},
        {4, 3, 'X', 2, 0x7c9f9d49ad3bffd7ULL,
         0xda6352e4069c6ebdULL, 0x98d8790b6cf24236ULL},
        {0, 7, 'Z', 0, 0x9cafdefcc4f15a08ULL,
         0x0c18886a19154649ULL, 0xd8f1476eb567ee60ULL},
        {0, 7, 'X', 0, 0x2d93f16dbceeffa0ULL,
         0xe0038796f04cc062ULL, 0x0c88293668024c0aULL},
        {4, 7, 'Z', 0, 0x598f130a0d354525ULL,
         0x2dc28ca75c22245bULL, 0xf4d6db48c4672dd6ULL},
        {4, 7, 'X', 0, 0x518eaca7f9cbb308ULL,
         0x81dcf8ba16cbae5dULL, 0xea25f6f68dce6f47ULL},
        {0, 13, 'Z', 0, 0xfa10cd521234f33eULL,
         0x49a577c888c1269dULL, 0xa9a59787747badc8ULL},
        {0, 13, 'X', 0, 0x97d33f2b1f8bebd5ULL,
         0x36429a06506410eaULL, 0x305655f08a3bf7f6ULL},
        {4, 13, 'Z', 0, 0x63913842e7349c05ULL,
         0x04c01ca672b4c1e8ULL, 0xd7e96820d4be5bf4ULL},
        {4, 13, 'X', 0, 0x0b3a3a31c96b347cULL,
         0x12f155b83b10313eULL, 0x277c429335c9076fULL},
        {0, 7, 'Z', 1, 0x417083f9af6aa9cbULL,
         0x23fe374510a8dc15ULL, 0x2693269e0df529dfULL},
        {4, 7, 'X', 2, 0xd2dd6a71609b66fcULL,
         0x8887fc8b8ad1e56cULL, 0x6585d722ade0e5daULL},
    };
    const std::vector<EvaluationSetup> setups = paperSetups();
    std::string fresh;
    for (const DigestCase& c : cases) {
        GeneratorConfig cfg;
        cfg.distance = c.distance;
        cfg.memoryBasis = c.basis == 'X' ? CheckBasis::X : CheckBasis::Z;
        cfg.schedule = setups[static_cast<size_t>(c.setup)].schedule;
        cfg.noise = NoiseModel::atPhysicalRate(
            3e-3, HardwareParams::transmonsWithMemory());
        if (c.noise == 1)
            cfg.noise.erasure.fraction = 0.5;
        else if (c.noise == 2)
            cfg.noise.bias.rZ = 10.0;
        GeneratedCircuit gen = generateMemoryCircuit(
            setups[static_cast<size_t>(c.setup)].embedding, cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        if (c.noise == 1) {
            EXPECT_GT(dem.numErasureSites(), 0u);
        } else if (c.noise == 2) {
            EXPECT_GT(gen.circuit.countOps(OpCode::PAULI_CHANNEL_1), 0u);
        }
        const uint64_t got[3] = {demDigest(dem),
                                 graphDigest(DecodingGraph::build(dem)),
                                 shotDigest(dem)};
        const std::string label = "setup " + std::to_string(c.setup)
            + " d=" + std::to_string(c.distance) + " " + c.basis
            + " noise " + std::to_string(c.noise);
        EXPECT_EQ(got[0], c.dem) << label << ": DEM";
        EXPECT_EQ(got[1], c.graph) << label << ": decoding graph";
        EXPECT_EQ(got[2], c.shots) << label << ": sampled shots";
        char row[160];
        std::snprintf(row, sizeof(row),
                      "        {%d, %d, '%c', %d, 0x%016" PRIx64
                      "ULL,\n         0x%016" PRIx64 "ULL, 0x%016" PRIx64
                      "ULL},\n",
                      c.setup, c.distance, c.basis, c.noise, got[0],
                      got[1], got[2]);
        fresh += row;
    }
    if (HasFailure())
        ADD_FAILURE() << "digest table for the current code:\n" << fresh;
}

/** One pinned decoder configuration and its committed digests. */
struct DecoderDigestCase
{
    int setup;      // paperSetups() index
    int distance;
    char basis;     // 'Z' or 'X'
    int noise;      // 0 flat, 1/3 heralded erasure (fraction 0.5/1.0),
                    // 2 Z-biased
    double p;
    /** Per registered decoder: decodeBatch then decode() predictions. */
    uint64_t decoders[3];
    /** Union-find's DecodeInfo, decode() and decodeWithErasures(). */
    uint64_t unionFindInfo;
};

/**
 * Guards the decoders' bit-identity on DemDigest's configurations plus
 * four d=7 points above threshold, a d=11 point, and a fully heralded
 * point where erasure seeding changes union-find's predictions: every
 * registered decoder's batch and per-shot predictions, and union-find's
 * diagnostics and erasure-aware decode, over 512 sampled shots each.
 * The counters prove the sweep reaches MWPM's sparse-blossom path,
 * union-find's growth path and its erasure seeding. Regenerate the
 * table only for an intentional change to a decoder's output; the
 * failure message prints the new rows.
 */
TEST(DecoderDigest, PredictionsMatchCommittedDigests)
{
    const DecoderDigestCase cases[] = {
        {0, 3, 'Z', 0, 3e-03,
         {0x3b7fbe252fd39b45ULL, 0xc727aec7c841a825ULL,
          0x3b7fbe252fd39b45ULL},
         0x974bab13938ca665ULL},
        {0, 3, 'X', 0, 3e-03,
         {0x2c8c7f840c407ea5ULL, 0xa79e8666938fa725ULL,
          0x2c8c7f840c407ea5ULL},
         0x3c6ebadecb6e09a5ULL},
        {0, 5, 'Z', 0, 3e-03,
         {0xcabe68ed4fb751e5ULL, 0x6668ad202c2a73a5ULL,
          0xcabe68ed4fb751e5ULL},
         0x603f3305b97290e5ULL},
        {0, 5, 'X', 0, 3e-03,
         {0x69d28ee7f41bd3a5ULL, 0xc9b350b9efc4ede5ULL,
          0x69d28ee7f41bd3a5ULL},
         0xed8546843328ece5ULL},
        {1, 3, 'Z', 0, 3e-03,
         {0x8d63c868750cf7e5ULL, 0x9ece4db50631be85ULL,
          0x8d63c868750cf7e5ULL},
         0x8c3fd8e8cd4f4d85ULL},
        {1, 3, 'X', 0, 3e-03,
         {0x555c1e44776f3d85ULL, 0x2549f126eb4f97e5ULL,
          0x555c1e44776f3d85ULL},
         0x59917b29ec00f725ULL},
        {1, 5, 'Z', 0, 3e-03,
         {0x7fb52279602d1c25ULL, 0xf632b3d49ad6c405ULL,
          0x7fb52279602d1c25ULL},
         0x319dd85f769b30a5ULL},
        {1, 5, 'X', 0, 3e-03,
         {0x4f249149d6cc82a5ULL, 0xd21680b93a4d9e45ULL,
          0x4f249149d6cc82a5ULL},
         0xd624d1f7983a3f05ULL},
        {2, 3, 'Z', 0, 3e-03,
         {0x059e2eb665d34b25ULL, 0x4c26ca153ebac665ULL,
          0x059e2eb665d34b25ULL},
         0x1be126486f883a45ULL},
        {2, 3, 'X', 0, 3e-03,
         {0xf035a41c45298b85ULL, 0x48470e21c6dc0c05ULL,
          0xf035a41c45298b85ULL},
         0x48df4b0f729bf605ULL},
        {2, 5, 'Z', 0, 3e-03,
         {0x8013c4cf290b0c85ULL, 0xe94aac790f750c65ULL,
          0x8013c4cf290b0c85ULL},
         0xe6db7d7f692e0b65ULL},
        {2, 5, 'X', 0, 3e-03,
         {0xe89aee685f0f8305ULL, 0x421cd24874cec725ULL,
          0xe89aee685f0f8305ULL},
         0x1427059e96bf9685ULL},
        {3, 3, 'Z', 0, 3e-03,
         {0x5800f97f2a8b7865ULL, 0xce93f1bde19d7e65ULL,
          0x5800f97f2a8b7865ULL},
         0x26bd894fa9111645ULL},
        {3, 3, 'X', 0, 3e-03,
         {0xa9c2264455559f65ULL, 0x425c9fc42d3455a5ULL,
          0xa9c2264455559f65ULL},
         0x3aac46a36c139c05ULL},
        {3, 5, 'Z', 0, 3e-03,
         {0xf57afac1ba481245ULL, 0x7a8b4a34b034ef65ULL,
          0xf57afac1ba481245ULL},
         0x9603110b591f2065ULL},
        {3, 5, 'X', 0, 3e-03,
         {0x04b93a5f23885fe5ULL, 0xf2e3c6d6b86b2505ULL,
          0x04b93a5f23885fe5ULL},
         0xeb5aa7883a681e25ULL},
        {4, 3, 'Z', 0, 3e-03,
         {0x0becc29466b6ba25ULL, 0xf072cc21857ecb05ULL,
          0x0becc29466b6ba25ULL},
         0xf77ac972f244a205ULL},
        {4, 3, 'X', 0, 3e-03,
         {0x430a95eca9cd16e5ULL, 0xab5e3fc74445a245ULL,
          0x430a95eca9cd16e5ULL},
         0xf967cc39794e8b45ULL},
        {4, 5, 'Z', 0, 3e-03,
         {0xef98f955c3a8c4e5ULL, 0xebaea0355b0fa905ULL,
          0xef98f955c3a8c4e5ULL},
         0xbe151d85012eb805ULL},
        {4, 5, 'X', 0, 3e-03,
         {0xa7f80985e7cef4e5ULL, 0xfa77988bf5aa9345ULL,
          0xe0e7e354f37676c5ULL},
         0x1938bd1ef7d1d025ULL},
        {0, 3, 'Z', 1, 3e-03,
         {0xbc89df3f64024605ULL, 0xf6f6b0a27179fce5ULL,
          0xbc89df3f64024605ULL},
         0xbdc368fa2177f547ULL},
        {4, 3, 'X', 2, 3e-03,
         {0x44819ccfa8daf1a5ULL, 0x2571449a3ae00fc5ULL,
          0x44819ccfa8daf1a5ULL},
         0x61e7e7246cfbe2a5ULL},
        {0, 7, 'Z', 0, 8e-03,
         {0x0270b0ea30bb11c5ULL, 0x662c5802d799cf65ULL,
          0x172b595f4047b505ULL},
         0xe720dd49f4b8c0e5ULL},
        {0, 7, 'X', 0, 8e-03,
         {0xba48b1eb6a2e3005ULL, 0x7e16c15549be5ca5ULL,
          0x25cb50cc74127005ULL},
         0x1b722378cea2b565ULL},
        {4, 7, 'Z', 0, 8e-03,
         {0x89a8041e8c7a61c5ULL, 0xbeba9ab352134fc5ULL,
          0x8c877ad27c6069c5ULL},
         0xd04db71a7c7c6cc5ULL},
        {4, 7, 'X', 0, 8e-03,
         {0x66a53552be505aa5ULL, 0xdc1a790466fee065ULL,
          0xa23fcb53546f83a5ULL},
         0x1efd2240c37e97e5ULL},
        {0, 11, 'Z', 0, 8e-03,
         {0xe398c4d2e0ee2945ULL, 0xe52d9ed9d7a61385ULL,
          0x46965973d83d3ee5ULL},
         0x5ff56cb15f229ca5ULL},
        {0, 5, 'Z', 3, 5e-03,
         {0x164c4b30d31177c5ULL, 0xba15fb0da9b83ae5ULL,
          0xaa790ecc1bccc324ULL},
         0xba7bf08e26bb9f42ULL},
    };
    constexpr uint32_t kShots = 512;
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const obs::MetricsSnapshot before = obs::snapshotMetrics();
    const std::vector<EvaluationSetup> setups = paperSetups();
    ASSERT_EQ(decoderRegistry().size(), 3u);
    std::string fresh;
    // Shots whose union-find prediction erasure seeding changes.
    int seededChanges = 0;
    for (const DecoderDigestCase& c : cases) {
        GeneratorConfig cfg;
        cfg.distance = c.distance;
        cfg.memoryBasis = c.basis == 'X' ? CheckBasis::X : CheckBasis::Z;
        cfg.schedule = setups[static_cast<size_t>(c.setup)].schedule;
        cfg.noise = NoiseModel::atPhysicalRate(
            c.p, HardwareParams::transmonsWithMemory());
        if (c.noise == 1 || c.noise == 3)
            cfg.noise.erasure.fraction = c.noise == 1 ? 0.5 : 1.0;
        else if (c.noise == 2)
            cfg.noise.bias.rZ = 10.0;
        const DetectorErrorModel dem = DetectorErrorModel::build(
            generateMemoryCircuit(
                setups[static_cast<size_t>(c.setup)].embedding, cfg)
                .circuit);
        FaultSampler sampler(dem);
        ShotBatch batch;
        batch.reset(dem.numDetectors(), dem.numObservables(), kShots, 0,
                    dem.numErasureSites());
        sampler.sampleBatchInto(Rng(0xdec0de), batch);
        std::vector<BitVec> detectors(kShots);
        std::vector<BitVec> erasures(kShots,
                                     BitVec(dem.numErasureSites()));
        for (uint32_t s = 0; s < kShots; ++s) {
            batch.extractShot(s, detectors[s]);
            for (uint32_t site = 0; site < dem.numErasureSites(); ++site)
                erasures[s].set(site, batch.erased(s, site));
        }

        uint64_t got[4] = {};
        size_t slot = 0;
        for (const DecoderRegistration& reg : decoderRegistry()) {
            const std::unique_ptr<Decoder> dec = makeDecoder(reg.kind, dem);
            std::vector<uint32_t> predictions(kShots);
            dec->decodeBatch(batch, std::span<uint32_t>(predictions));
            Digest h;
            for (uint32_t s = 0; s < kShots; ++s) {
                h.add(predictions[s]);
                h.add(dec->decode(detectors[s]));
            }
            got[slot++] = h.value();
        }
        const UnionFindDecoder uf(dem);
        Digest h;
        auto addInfo = [&h](uint32_t prediction,
                            const UnionFindDecoder::DecodeInfo& info) {
            h.add(prediction);
            h.add(info.growthRounds);
            h.add(info.initialClusters);
            h.add(info.matchedPairs);
            h.add(info.boundaryMatches);
        };
        for (uint32_t s = 0; s < kShots; ++s) {
            UnionFindDecoder::DecodeInfo info;
            const uint32_t plain = uf.decode(detectors[s], &info);
            addInfo(plain, info);
            const uint32_t erased =
                uf.decodeWithErasures(detectors[s], erasures[s], &info);
            addInfo(erased, info);
            seededChanges += erased != plain;
        }
        got[3] = h.value();

        const std::string label = "setup " + std::to_string(c.setup)
            + " d=" + std::to_string(c.distance) + " " + c.basis
            + " noise " + std::to_string(c.noise);
        for (size_t i = 0; i < 3; ++i)
            EXPECT_EQ(got[i], c.decoders[i])
                << label << ": " << decoderRegistry()[i].name;
        EXPECT_EQ(got[3], c.unionFindInfo) << label << ": union-find info";
        char row[200];
        std::snprintf(row, sizeof(row),
                      "        {%d, %d, '%c', %d, %.0e,\n"
                      "         {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                      "ULL,\n          0x%016" PRIx64 "ULL},\n"
                      "         0x%016" PRIx64 "ULL},\n",
                      c.setup, c.distance, c.basis, c.noise, c.p, got[0],
                      got[1], got[2], got[3]);
        fresh += row;
    }
    const obs::MetricsSnapshot after = obs::snapshotMetrics();
    obs::setMetricsEnabled(wasEnabled);
    for (const char* counter : {"mwpm.decode.blossom", "uf.decode.growth",
                                "uf.decode.erasure_shots"})
        EXPECT_GT(after.counter(counter), before.counter(counter))
            << counter;
    EXPECT_GT(seededChanges, 0);
    if (HasFailure())
        ADD_FAILURE() << "digest table for the current code:\n" << fresh;
}

} // namespace
} // namespace vlq
