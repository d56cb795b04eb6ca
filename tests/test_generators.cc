#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/generator_common.h"
#include "core/generator_registry.h"
#include "sim/frame.h"
#include "sim/tableau.h"
#include "util/rng.h"

namespace vlq {
namespace {

GeneratorConfig
noiselessConfig(int d, CheckBasis basis,
                ExtractionSchedule schedule = ExtractionSchedule::AllAtOnce)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.memoryBasis = basis;
    cfg.schedule = schedule;
    cfg.cavityDepth = 4;
    cfg.noise = NoiseModel::atPhysicalRate(
        0.0, HardwareParams::transmonsWithMemory());
    cfg.noise.idleScale = 0.0;
    return cfg;
}

GeneratorConfig
noisyConfig(int d, CheckBasis basis, ExtractionSchedule schedule, double p)
{
    GeneratorConfig cfg = noiselessConfig(d, basis, schedule);
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

/** All detectors of a noiseless run must be quiet (tableau-verified). */
void
expectNoiselessDetectorsQuiet(const Circuit& circuit, uint64_t seed)
{
    TableauSimulator sim(circuit.numQubits(), seed);
    std::vector<bool> records = sim.runCircuit(circuit);
    for (size_t i = 0; i < circuit.detectors().size(); ++i) {
        bool parity = false;
        for (uint32_t m : circuit.detectors()[i].measurements)
            parity ^= records[m];
        EXPECT_FALSE(parity) << "detector " << i << " fired noiselessly";
    }
}

struct SetupParam
{
    EmbeddingKind embedding;
    ExtractionSchedule schedule;
    CheckBasis basis;
};

class GeneratorQuiescence
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GeneratorQuiescence, NoiselessDetectorsAreDeterministicallyQuiet)
{
    auto [embInt, schedInt, basisInt] = GetParam();
    EmbeddingKind emb = static_cast<EmbeddingKind>(embInt);
    ExtractionSchedule sched = static_cast<ExtractionSchedule>(schedInt);
    CheckBasis basis = static_cast<CheckBasis>(basisInt);

    GeneratorConfig cfg = noiselessConfig(3, basis, sched);
    GeneratedCircuit gen = generateMemoryCircuit(emb, cfg);
    // Two different tableau seeds: results must be quiet regardless of
    // the random first-round outcomes of the opposite-basis checks.
    expectNoiselessDetectorsQuiet(gen.circuit, 11);
    expectNoiselessDetectorsQuiet(gen.circuit, 22);
}

INSTANTIATE_TEST_SUITE_P(
    AllSetups, GeneratorQuiescence,
    ::testing::Combine(::testing::Values(0, 1, 2), // embedding
                       ::testing::Values(0, 1),    // schedule
                       ::testing::Values(0, 1)));  // basis

TEST(Generators, BaselineStructure)
{
    GeneratorConfig cfg = noiselessConfig(3, CheckBasis::Z);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    const Circuit& c = gen.circuit;
    // d rounds of 8 ancilla measurements + 9 final data measurements.
    EXPECT_EQ(c.numMeasurements(), 3u * 8u + 9u);
    // Detectors: 4 Z-checks x (3 rounds + final).
    EXPECT_EQ(c.detectors().size(), 4u * 4u);
    EXPECT_EQ(c.observables().size(), 1u);
    EXPECT_EQ(gen.loadStoreCount, 0);
    // 4 CNOT slots/round on 4-weight and 2-weight plaquettes:
    // total CNOTs/round = sum of weights = 4*4 + 4*2 = 24.
    EXPECT_EQ(c.countOps(OpCode::CNOT), 3u * 24u);
}

TEST(Generators, NaturalAaoLoadStoreCount)
{
    GeneratorConfig cfg = noiselessConfig(3, CheckBasis::Z,
                                          ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateNaturalMemory(cfg);
    // One load + one store of 9 data qubits.
    EXPECT_EQ(gen.loadStoreCount, 2 * 9);
}

TEST(Generators, NaturalInterleavedLoadStoreCount)
{
    GeneratorConfig cfg = noiselessConfig(3, CheckBasis::Z,
                                          ExtractionSchedule::Interleaved);
    GeneratedCircuit gen = generateNaturalMemory(cfg);
    // Load+store per round per data qubit.
    EXPECT_EQ(gen.loadStoreCount, 2 * 9 * 3);
}

TEST(Generators, CompactUsesTransmonModeCnots)
{
    GeneratorConfig cfg = noiselessConfig(3, CheckBasis::Z);
    GeneratedCircuit gen = generateCompactMemory(cfg);
    // Merged checks talk to their co-located data without loads; the
    // rest go through load/CNOT/store. Every round still runs 24 CNOTs
    // (in SWAP-wrapped form for the loaded ones).
    EXPECT_GT(gen.loadStoreCount, 0);
    EXPECT_EQ(gen.circuit.countOps(OpCode::CNOT),
              3u * 24u + static_cast<size_t>(gen.loadStoreCount) * 0u);
}

TEST(Generators, InterleavedTakesLongerThanAao)
{
    GeneratorConfig aao = noisyConfig(3, CheckBasis::Z,
                                      ExtractionSchedule::AllAtOnce, 1e-3);
    GeneratorConfig il = noisyConfig(3, CheckBasis::Z,
                                     ExtractionSchedule::Interleaved, 1e-3);
    GeneratedCircuit a = generateNaturalMemory(aao);
    GeneratedCircuit b = generateNaturalMemory(il);
    EXPECT_GT(b.activeDurationNs, a.activeDurationNs);
    EXPECT_GT(b.loadStoreCount, a.loadStoreCount);
}

TEST(Generators, PagingGapScalesWithCavityDepthPerRound)
{
    GeneratorConfig cfg = noisyConfig(3, CheckBasis::Z,
                                      ExtractionSchedule::AllAtOnce, 1e-3);
    cfg.gapModel = PagingGapModel::PerRound;
    cfg.cavityDepth = 2;
    double t2 = generateNaturalMemory(cfg).totalDurationNs;
    cfg.cavityDepth = 10;
    double t10 = generateNaturalMemory(cfg).totalDurationNs;
    // Strict steady-state AAO: total duration = k x active duration.
    EXPECT_NEAR(t10 / t2, 5.0, 0.01);
}

TEST(Generators, PagingGapBlockOnceIsOneRoundDose)
{
    GeneratorConfig cfg = noisyConfig(3, CheckBasis::Z,
                                      ExtractionSchedule::AllAtOnce, 1e-3);
    cfg.gapModel = PagingGapModel::BlockOnce;
    cfg.cavityDepth = 1;
    GeneratedCircuit noGap = generateNaturalMemory(cfg);
    cfg.cavityDepth = 10;
    GeneratedCircuit gap = generateNaturalMemory(cfg);
    double roundDur = noGap.activeDurationNs / 3.0;
    EXPECT_NEAR(gap.totalDurationNs - gap.activeDurationNs,
                9.0 * roundDur, 1.0);
    EXPECT_NEAR(gap.activeDurationNs, noGap.activeDurationNs, 1.0);
}

TEST(Generators, PerRoundGapExceedsBlockOnce)
{
    GeneratorConfig cfg = noisyConfig(3, CheckBasis::Z,
                                      ExtractionSchedule::Interleaved,
                                      1e-3);
    cfg.gapModel = PagingGapModel::BlockOnce;
    double tBlock = generateCompactMemory(cfg).totalDurationNs;
    cfg.gapModel = PagingGapModel::PerRound;
    double tRound = generateCompactMemory(cfg).totalDurationNs;
    EXPECT_GT(tRound, tBlock);
}

TEST(Generators, NoiseMassGrowsWithP)
{
    GeneratorConfig lo = noisyConfig(3, CheckBasis::Z,
                                     ExtractionSchedule::AllAtOnce, 1e-3);
    GeneratorConfig hi = noisyConfig(3, CheckBasis::Z,
                                     ExtractionSchedule::AllAtOnce, 1e-2);
    double mLo = generateNaturalMemory(lo).circuit.totalNoiseMass();
    double mHi = generateNaturalMemory(hi).circuit.totalNoiseMass();
    EXPECT_GT(mHi, 5.0 * mLo);
}

TEST(Generators, RoundsDefaultToDistance)
{
    GeneratorConfig cfg = noiselessConfig(5, CheckBasis::Z);
    EXPECT_EQ(cfg.effectiveRounds(), 5);
    cfg.rounds = 2;
    EXPECT_EQ(cfg.effectiveRounds(), 2);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    EXPECT_EQ(gen.circuit.numMeasurements(), 2u * 24u + 25u);
}

TEST(Generators, MemoryXDetectorsUseXChecks)
{
    GeneratorConfig cfg = noiselessConfig(3, CheckBasis::X);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    for (const auto& det : gen.circuit.detectors())
        EXPECT_EQ(det.basis, CheckBasis::X);
}

TEST(Generators, BudgetCategoriesMatchSetupStructure)
{
    GeneratorConfig cfg = noisyConfig(3, CheckBasis::Z,
                                      ExtractionSchedule::AllAtOnce, 2e-3);
    GeneratedCircuit base = generateBaselineMemory(cfg);
    // The baseline has no memory hardware at all.
    EXPECT_EQ(base.budget.loadStore, 0.0);
    EXPECT_EQ(base.budget.gateTM, 0.0);
    EXPECT_EQ(base.budget.idleCavity, 0.0);
    EXPECT_GT(base.budget.gateTT, 0.0);
    EXPECT_GT(base.budget.measurement, 0.0);
    EXPECT_GT(base.budget.idleTransmon, 0.0);

    GeneratedCircuit nat = generateNaturalMemory(cfg);
    EXPECT_GT(nat.budget.loadStore, 0.0);
    EXPECT_GT(nat.budget.idleCavity, 0.0);
    EXPECT_EQ(nat.budget.gateTM, 0.0); // Natural has no TM CNOTs

    GeneratedCircuit comp = generateCompactMemory(cfg);
    EXPECT_GT(comp.budget.gateTM, 0.0); // co-located checks use TM
    EXPECT_GT(comp.budget.loadStore, 0.0);
}

TEST(Generators, BudgetTotalMatchesCircuitNoiseMass)
{
    GeneratorConfig cfg = noisyConfig(3, CheckBasis::Z,
                                      ExtractionSchedule::Interleaved,
                                      2e-3);
    GeneratedCircuit gen = generateCompactMemory(cfg);
    EXPECT_NEAR(gen.budget.total(), gen.circuit.totalNoiseMass(), 1e-9);
}

TEST(Generators, InterleavedPaysMoreLoadStoreMassThanAao)
{
    GeneratorConfig aao = noisyConfig(5, CheckBasis::Z,
                                      ExtractionSchedule::AllAtOnce, 2e-3);
    GeneratorConfig il = noisyConfig(5, CheckBasis::Z,
                                     ExtractionSchedule::Interleaved,
                                     2e-3);
    EXPECT_GT(generateNaturalMemory(il).budget.loadStore,
              generateNaturalMemory(aao).budget.loadStore);
}

TEST(Generators, CompactLazyLoadsBeatStoreBackPolicy)
{
    // With lazy load/store, Compact's per-round load/store count must
    // stay within ~3x Natural-Interleaved's 2 per data per round
    // (the paper: "similar cost as Natural, Interleaved").
    GeneratorConfig cfg = noisyConfig(5, CheckBasis::Z,
                                      ExtractionSchedule::AllAtOnce, 2e-3);
    GeneratedCircuit comp = generateCompactMemory(cfg);
    int perDataPerRound = comp.loadStoreCount / (5 * 25);
    EXPECT_LE(perDataPerRound, 3);
}

// ---------------------------------------------------------------------------
// Generator registry
// ---------------------------------------------------------------------------

TEST(GeneratorRegistry, RoundTripsNameKindAndFactory)
{
    ASSERT_GE(generatorRegistry().size(), 4u);
    for (const GeneratorBackend& entry : generatorRegistry()) {
        EXPECT_EQ(parseEmbeddingKind(entry.name), entry.kind)
            << entry.name;
        EXPECT_STREQ(embeddingKindName(entry.kind), entry.name);
        EXPECT_EQ(makeGenerator(entry.kind), entry.generate)
            << entry.name;
        EXPECT_EQ(makeGenerator(entry.name), entry.generate)
            << entry.name;
        EXPECT_EQ(generatorBackend(entry.kind).cost, entry.cost);
        ASSERT_NE(entry.shape, nullptr) << entry.name;
    }
}

TEST(GeneratorRegistry, ShapeHooksResolvePatchDimensions)
{
    auto square = generatorBackend(EmbeddingKind::Compact).shape;
    EXPECT_EQ(square(7, 0, 0), (std::pair<int, int>{7, 7}));
    EXPECT_EQ(square(7, 3, 0), (std::pair<int, int>{3, 7}));
    auto rect = generatorBackend(EmbeddingKind::CompactRect).shape;
    EXPECT_EQ(rect(7, 0, 0), (std::pair<int, int>{3, 7}));
    EXPECT_EQ(rect(7, 5, 0), (std::pair<int, int>{5, 7}));
    EXPECT_EQ(rect(7, 5, 9), (std::pair<int, int>{5, 9}));
}

TEST(GeneratorRegistry, BiasAwareRectShapeDerivesColumnsFromPauliMass)
{
    // A disabled (uniform) source keeps the 3-arg hook's answer
    // bit-identically -- the historical narrow default.
    BiasedPauliSource uniform;
    EXPECT_EQ(compactRectPatchShape(7, 0, 0, uniform),
              compactRectPatchShape(7, 0, 0));
    EXPECT_EQ(compactRectPatchShape(11, 0, 0, uniform),
              (std::pair<int, int>{3, 11}));
    // Explicit overrides always win, bias or not.
    BiasedPauliSource mild{1.0, 1.0, 4.0};
    EXPECT_EQ(compactRectPatchShape(7, 5, 0, mild),
              (std::pair<int, int>{5, 7}));
    EXPECT_EQ(compactRectPatchShape(7, 5, 9, mild),
              (std::pair<int, int>{5, 9}));
    // Strong Z bias narrows to the 3-column floor.
    BiasedPauliSource strong{0.005, 0.005, 0.99};
    EXPECT_EQ(compactRectPatchShape(11, 0, 0, strong),
              (std::pair<int, int>{3, 11}));
    // Mild Z bias lands between floor and square, rounded up to odd:
    // mZ = 2/3, mXY = 1/3, 11 * ln(2/3)/ln(1/3) = 4.06 -> 4 -> 5.
    EXPECT_EQ(compactRectPatchShape(11, 0, 0, mild),
              (std::pair<int, int>{5, 11}));
    // X-leaning noise can shed no protection: the full square.
    BiasedPauliSource xLeaning{4.0, 1.0, 1.0};
    EXPECT_EQ(compactRectPatchShape(11, 0, 0, xLeaning),
              (std::pair<int, int>{11, 11}));
    // Degenerate all-Z noise pins the floor rather than dividing by
    // ln(0).
    BiasedPauliSource allZ{0.0, 0.0, 1.0};
    EXPECT_EQ(compactRectPatchShape(11, 0, 0, allZ),
              (std::pair<int, int>{3, 11}));
}

TEST(Generators, UniformBiasKeepsCompactRectCircuitBitIdentical)
{
    // The bias-aware default must not perturb uniform-noise runs: the
    // implicit default circuit equals the explicit historical {3, d}
    // patch on every structural diagnostic.
    GeneratorConfig implicit = noisyConfig(
        5, CheckBasis::Z, ExtractionSchedule::AllAtOnce, 2e-3);
    GeneratorConfig pinned = implicit;
    pinned.distanceX = 3;
    pinned.distanceZ = 5;
    GeneratedCircuit a = generateCompactRectMemory(implicit);
    GeneratedCircuit b = generateCompactRectMemory(pinned);
    EXPECT_EQ(a.circuit.numMeasurements(), b.circuit.numMeasurements());
    EXPECT_EQ(a.circuit.detectors().size(),
              b.circuit.detectors().size());
    EXPECT_EQ(a.loadStoreCount, b.loadStoreCount);
    EXPECT_DOUBLE_EQ(a.totalDurationNs, b.totalDurationNs);
    EXPECT_DOUBLE_EQ(a.budget.total(), b.budget.total());
}

TEST(Generators, BiasedNoiseWidensTheDefaultRectPatch)
{
    // With a mild Z bias at d = 11 the default patch is 5 x 11 (see
    // the shape test above); the generated circuit must match the
    // explicitly-pinned 5 x 11 patch, not the uniform 3 x 11 one.
    GeneratorConfig biased = noisyConfig(
        11, CheckBasis::Z, ExtractionSchedule::AllAtOnce, 2e-3);
    biased.noise.bias = BiasedPauliSource{1.0, 1.0, 4.0};
    GeneratorConfig pinned = biased;
    pinned.distanceX = 5;
    pinned.distanceZ = 11;
    GeneratorConfig narrow = biased;
    narrow.distanceX = 3;
    narrow.distanceZ = 11;
    GeneratedCircuit implicitRect = generateCompactRectMemory(biased);
    GeneratedCircuit wide = generateCompactRectMemory(pinned);
    GeneratedCircuit narrowRect = generateCompactRectMemory(narrow);
    EXPECT_EQ(implicitRect.circuit.numMeasurements(),
              wide.circuit.numMeasurements());
    EXPECT_EQ(implicitRect.loadStoreCount, wide.loadStoreCount);
    EXPECT_NE(implicitRect.circuit.numMeasurements(),
              narrowRect.circuit.numMeasurements());
}

TEST(GeneratorRegistry, ParsesAliasesCaseInsensitively)
{
    EXPECT_EQ(parseEmbeddingKind("Baseline"), EmbeddingKind::Baseline2D);
    EXPECT_EQ(parseEmbeddingKind("baseline2d"), EmbeddingKind::Baseline2D);
    EXPECT_EQ(parseEmbeddingKind("2d"), EmbeddingKind::Baseline2D);
    EXPECT_EQ(parseEmbeddingKind("NATURAL"), EmbeddingKind::Natural);
    EXPECT_EQ(parseEmbeddingKind("compact"), EmbeddingKind::Compact);
    EXPECT_EQ(parseEmbeddingKind("Compact-Rect"),
              EmbeddingKind::CompactRect);
    EXPECT_EQ(parseEmbeddingKind("rect"), EmbeddingKind::CompactRect);
    EXPECT_FALSE(parseEmbeddingKind("compct").has_value());
    EXPECT_FALSE(parseEmbeddingKind("").has_value());
    EXPECT_EQ(makeGenerator("compct"), nullptr);
}

TEST(GeneratorRegistry, EveryBackendGeneratesAViableCircuit)
{
    for (const GeneratorBackend& entry : generatorRegistry()) {
        GeneratorConfig cfg = noisyConfig(
            3, CheckBasis::Z, ExtractionSchedule::AllAtOnce, 2e-3);
        GeneratedCircuit gen = entry.generate(cfg);
        EXPECT_GT(gen.circuit.numMeasurements(), 0u) << entry.name;
        EXPECT_EQ(gen.circuit.observables().size(), 1u) << entry.name;
        EXPECT_GT(gen.circuit.detectors().size(), 0u) << entry.name;
    }
}

TEST(GeneratorRegistry, DispatchMatchesDirectCalls)
{
    GeneratorConfig cfg = noisyConfig(
        3, CheckBasis::Z, ExtractionSchedule::Interleaved, 2e-3);
    GeneratedCircuit viaRegistry =
        generateMemoryCircuit(EmbeddingKind::Compact, cfg);
    GeneratedCircuit direct = generateCompactMemory(cfg);
    EXPECT_EQ(viaRegistry.circuit.numMeasurements(),
              direct.circuit.numMeasurements());
    EXPECT_EQ(viaRegistry.loadStoreCount, direct.loadStoreCount);
    EXPECT_DOUBLE_EQ(viaRegistry.totalDurationNs,
                     direct.totalDurationNs);
}

TEST(GeneratorRegistry, EnvKnobSelectsBackendOrDiesOnTypos)
{
    ::setenv("VLQ_EMBEDDING_TESTVAR", "Compact-Rect", 1);
    EXPECT_EQ(embeddingKindFromEnv(EmbeddingKind::Baseline2D,
                                   "VLQ_EMBEDDING_TESTVAR"),
              EmbeddingKind::CompactRect);
    ::unsetenv("VLQ_EMBEDDING_TESTVAR");
    EXPECT_EQ(embeddingKindFromEnv(EmbeddingKind::Natural,
                                   "VLQ_EMBEDDING_TESTVAR"),
              EmbeddingKind::Natural);
    // A typo'd value must be a hard error listing the valid keys,
    // never a silent fallback to some default backend.
    ::setenv("VLQ_EMBEDDING_TESTVAR", "compct", 1);
    EXPECT_EXIT(embeddingKindFromEnv(EmbeddingKind::Compact,
                                     "VLQ_EMBEDDING_TESTVAR"),
                ::testing::ExitedWithCode(1),
                "not a registered embedding backend \\(valid: "
                "baseline, natural, compact, compact-rect\\)");
    ::unsetenv("VLQ_EMBEDDING_TESTVAR");
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(GeneratorValidation, AcceptsTheDefaultAndRectConfigs)
{
    GeneratorConfig cfg;
    EXPECT_EQ(cfg.validate(), "");
    cfg.distanceX = 3;
    cfg.distanceZ = 7;
    EXPECT_EQ(cfg.validate(), "");
    EXPECT_EQ(cfg.effectiveDx(), 3);
    EXPECT_EQ(cfg.effectiveDz(), 7);
}

TEST(GeneratorValidation, RejectsBadDistancesRoundsAndCavityDepth)
{
    GeneratorConfig cfg;
    cfg.distance = 4;
    EXPECT_NE(cfg.validate().find("odd"), std::string::npos);
    cfg.distance = 1;
    EXPECT_NE(cfg.validate().find(">= 3"), std::string::npos);
    cfg.distance = -3;
    EXPECT_NE(cfg.validate().find(">= 3"), std::string::npos);

    cfg = GeneratorConfig{};
    cfg.distanceX = 4;
    EXPECT_NE(cfg.validate().find("distanceX"), std::string::npos);
    cfg.distanceX = 0;
    cfg.distanceZ = 2;
    EXPECT_NE(cfg.validate().find("distanceZ"), std::string::npos);

    cfg = GeneratorConfig{};
    cfg.rounds = -1;
    EXPECT_NE(cfg.validate().find("rounds"), std::string::npos);

    cfg = GeneratorConfig{};
    cfg.cavityDepth = 0;
    EXPECT_NE(cfg.validate().find("cavityDepth"), std::string::npos);
}

TEST(GeneratorValidation, EveryBackendDiesFastOnInvalidConfig)
{
    for (const GeneratorBackend& entry : generatorRegistry()) {
        GeneratorConfig cfg = noiselessConfig(3, CheckBasis::Z);
        cfg.distance = 4;
        EXPECT_EXIT(entry.generate(cfg), ::testing::ExitedWithCode(1),
                    "invalid GeneratorConfig.*odd")
            << entry.name;
    }
    GeneratorConfig cfg = noiselessConfig(3, CheckBasis::Z);
    cfg.cavityDepth = 0;
    EXPECT_EXIT(generateCompactMemory(cfg),
                ::testing::ExitedWithCode(1), "cavityDepth");
}

// ---------------------------------------------------------------------------
// Rectangular patches through the generators
// ---------------------------------------------------------------------------

class RectGeneratorQuiescence
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(RectGeneratorQuiescence, NoiselessRectDetectorsAreQuiet)
{
    auto [kindInt, dxInt, basisInt] = GetParam();
    // Shapes: (3,5) and (5,3) exercise both aspect orientations.
    GeneratorConfig cfg = noiselessConfig(
        3, static_cast<CheckBasis>(basisInt),
        ExtractionSchedule::Interleaved);
    cfg.distanceX = dxInt;
    cfg.distanceZ = dxInt == 3 ? 5 : 3;
    const GeneratorBackend& backend =
        generatorBackend(static_cast<EmbeddingKind>(kindInt));
    GeneratedCircuit gen = backend.generate(cfg);
    expectNoiselessDetectorsQuiet(gen.circuit, 11);
    expectNoiselessDetectorsQuiet(gen.circuit, 22);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, RectGeneratorQuiescence,
    ::testing::Combine(::testing::Values(0, 1, 2, 3), // embedding
                       ::testing::Values(3, 5),       // dx (dz = other)
                       ::testing::Values(0, 1)));     // basis

TEST(RectGenerators, CompactRectDefaultsToNarrowPatch)
{
    // Without explicit distanceX/distanceZ the biased-noise backend
    // keeps dz = distance rows but narrows to dx = 3 columns.
    GeneratorConfig cfg = noiselessConfig(5, CheckBasis::Z);
    GeneratedCircuit gen = generateCompactRectMemory(cfg);
    // 5 rounds x (3*5 - 1) checks + 15 final data readouts.
    EXPECT_EQ(gen.circuit.numMeasurements(), 5u * 14u + 15u);

    // Explicit square dimensions override the narrow default.
    cfg.distanceX = 5;
    cfg.distanceZ = 5;
    GeneratedCircuit sq = generateCompactRectMemory(cfg);
    EXPECT_EQ(sq.circuit.numMeasurements(), 5u * 24u + 25u);
}

TEST(RectGenerators, RectangularFrameSampleIsQuiet)
{
    GeneratorConfig cfg = noiselessConfig(3, CheckBasis::Z);
    cfg.distanceX = 3;
    cfg.distanceZ = 7;
    GeneratedCircuit gen = generateCompactRectMemory(cfg);
    FrameSimulator sim(gen.circuit);
    Rng rng(7);
    BitVec flips = sim.sampleMeasurementFlips(rng);
    BitVec det = FrameSimulator::detectorFlips(gen.circuit, flips);
    EXPECT_TRUE(det.none());
    EXPECT_EQ(FrameSimulator::observableFlips(gen.circuit, flips), 0u);
}

TEST(Generators, SampledNoiselessRunIsQuiet)
{
    // The frame simulator agrees: with zero noise no detector fires.
    GeneratorConfig cfg = noiselessConfig(5, CheckBasis::Z);
    GeneratedCircuit gen = generateCompactMemory(cfg);
    FrameSimulator sim(gen.circuit);
    Rng rng(7);
    BitVec flips = sim.sampleMeasurementFlips(rng);
    BitVec det = FrameSimulator::detectorFlips(gen.circuit, flips);
    EXPECT_TRUE(det.none());
    EXPECT_EQ(FrameSimulator::observableFlips(gen.circuit, flips), 0u);
}

/** FNV-1a over 64-bit values: an order-sensitive fingerprint. */
class CircuitFingerprint
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
    void addFloat(float v) { add(std::bit_cast<uint32_t>(v)); }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Every op, detector and observable of a generated circuit, and its
 * schedule diagnostics (durations, load/stores, noise budget).
 */
uint64_t
circuitDigest(const GeneratedCircuit& gen)
{
    CircuitFingerprint h;
    h.add(gen.circuit.numQubits());
    for (const Operation& op : gen.circuit.ops()) {
        h.add(static_cast<uint64_t>(op.code));
        h.add(op.q0);
        h.add(op.q1);
        h.addDouble(op.p);
        h.add(static_cast<uint64_t>(static_cast<int64_t>(op.meas)));
        h.addDouble(op.py);
        h.addDouble(op.pz);
    }
    for (const Detector& det : gen.circuit.detectors()) {
        h.add(det.measurements.size());
        for (uint32_t m : det.measurements)
            h.add(m);
        h.add(static_cast<uint64_t>(det.basis));
        h.addFloat(det.x);
        h.addFloat(det.y);
        h.addFloat(det.t);
    }
    for (const Observable& o : gen.circuit.observables()) {
        h.add(o.measurements.size());
        for (uint32_t m : o.measurements)
            h.add(m);
    }
    h.addDouble(gen.activeDurationNs);
    h.addDouble(gen.totalDurationNs);
    h.add(static_cast<uint64_t>(gen.loadStoreCount));
    h.add(uint64_t{0}); // a retired field's slot: keeps the pinned digests
    for (double mass : {gen.budget.gateTT, gen.budget.gateTM, gen.budget.gate1,
                        gen.budget.loadStore, gen.budget.measurement,
                        gen.budget.resetErr, gen.budget.idleTransmon,
                        gen.budget.idleCavity})
        h.addDouble(mass);
    return h.value();
}

/** One pinned circuit: a setup, its patch and its digest. */
struct Pinned
{
    const char* embedding;
    const char* schedule;
    char basis;
    int distance;
    uint64_t digest;
    int distanceX = 0; // explicit patch width, 0 = distance
    int distanceZ = 0; // explicit patch height, 0 = distance
    PagingGapModel gapModel = PagingGapModel::BlockOnce;
    int cavityDepth = 10;
    int rounds = 0; // 0 = distance

    /** True when the gap-model fields are not the config defaults. */
    bool pinsGap() const
    {
        return gapModel != PagingGapModel::BlockOnce || cavityDepth != 10
            || rounds != 0;
    }
};

/**
 * Digest of one setup at p = 3e-3; by default at the default cavity
 * depth, gap model and round count.
 */
Pinned
emitPinned(const GeneratorBackend& backend, ExtractionSchedule schedule,
           CheckBasis basis, int d, int distanceX = 0, int distanceZ = 0,
           PagingGapModel gapModel = PagingGapModel::BlockOnce,
           int cavityDepth = 10, int rounds = 0)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.distanceX = distanceX;
    cfg.distanceZ = distanceZ;
    cfg.memoryBasis = basis;
    cfg.schedule = schedule;
    cfg.gapModel = gapModel;
    cfg.cavityDepth = cavityDepth;
    cfg.rounds = rounds;
    cfg.noise = NoiseModel::atPhysicalRate(
        3e-3, HardwareParams::transmonsWithMemory());
    return Pinned{backend.name,
                  schedule == ExtractionSchedule::Interleaved
                      ? "interleaved"
                      : "all-at-once",
                  basis == CheckBasis::Z ? 'Z' : 'X',
                  d,
                  circuitDigest(generateMemoryCircuit(backend.kind, cfg)),
                  distanceX,
                  distanceZ,
                  gapModel,
                  cavityDepth,
                  rounds};
}

/**
 * Compare emitted digests with a pinned table row by row; on any
 * mismatch the failure message prints the table for the current code.
 */
void
expectPinned(std::span<const Pinned> pinned, const std::vector<Pinned>& got)
{
    std::ostringstream fresh;
    bool same = got.size() == pinned.size();
    for (size_t i = 0; i < got.size(); ++i) {
        const Pinned& g = got[i];
        fresh << "        {\"" << g.embedding << "\", \"" << g.schedule
              << "\", '" << g.basis << "', " << g.distance << ", 0x"
              << std::hex << g.digest << std::dec << "ULL";
        if (g.distanceX != 0 || g.distanceZ != 0 || g.pinsGap())
            fresh << ", " << g.distanceX << ", " << g.distanceZ;
        if (g.pinsGap())
            fresh << ",\n         PagingGapModel::"
                  << (g.gapModel == PagingGapModel::PerRound ? "PerRound"
                                                             : "BlockOnce")
                  << ", " << g.cavityDepth << ", " << g.rounds;
        fresh << "},\n";
        if (i < pinned.size()) {
            const Pinned& p = pinned[i];
            const bool match = std::string(p.embedding) == g.embedding
                && std::string(p.schedule) == g.schedule
                && p.basis == g.basis && p.distance == g.distance
                && p.distanceX == g.distanceX
                && p.distanceZ == g.distanceZ && p.gapModel == g.gapModel
                && p.cavityDepth == g.cavityDepth && p.rounds == g.rounds
                && p.digest == g.digest;
            EXPECT_TRUE(match) << g.embedding << " " << g.schedule << " "
                               << g.basis << " d=" << g.distance << " "
                               << g.distanceX << "x" << g.distanceZ
                               << " k=" << g.cavityDepth
                               << " rounds=" << g.rounds;
            same = same && match;
        }
    }
    EXPECT_EQ(got.size(), pinned.size());
    if (!same)
        ADD_FAILURE() << "digest table for the current code:\n"
                      << fresh.str();
}

/** Each schedule a backend emits: both when it is virtualized. */
std::vector<ExtractionSchedule>
schedulesOf(const GeneratorBackend& backend)
{
    std::vector<ExtractionSchedule> schedules = {
        ExtractionSchedule::AllAtOnce};
    if (backend.virtualized)
        schedules.push_back(ExtractionSchedule::Interleaved);
    return schedules;
}

/**
 * Pins every registered embedding x schedule x basis at d 3/5/7 (p =
 * 3e-3, the default cavity depth of 10, so every virtualized setup
 * charges a paging gap) op for op. The generators size that gap before
 * they emit; a change to the emitted circuit fails here, and the
 * failure message prints the table for the current code. Regenerate
 * it only for an intentional change to the circuits.
 */
TEST(CircuitDigest, EveryRegisteredSetupEmitsThePinnedCircuit)
{
    const Pinned pinned[] = {
        {"baseline", "all-at-once", 'Z', 3, 0x136caf3d8ce04ba8ULL},
        {"baseline", "all-at-once", 'Z', 5, 0x9d86a3a5ad99f751ULL},
        {"baseline", "all-at-once", 'Z', 7, 0x631f5d54ed728930ULL},
        {"baseline", "all-at-once", 'X', 3, 0xaa8be289141ce542ULL},
        {"baseline", "all-at-once", 'X', 5, 0x70ce037211fcb3a9ULL},
        {"baseline", "all-at-once", 'X', 7, 0x3a46deafe86b05feULL},
        {"natural", "all-at-once", 'Z', 3, 0x62ff94c838a8fb2eULL},
        {"natural", "all-at-once", 'Z', 5, 0x9c4bed0307ae2e0aULL},
        {"natural", "all-at-once", 'Z', 7, 0xb71c94d2e947b148ULL},
        {"natural", "all-at-once", 'X', 3, 0xda49704655ad4c74ULL},
        {"natural", "all-at-once", 'X', 5, 0x826970efd7bc868aULL},
        {"natural", "all-at-once", 'X', 7, 0xe460979bb2fe0ac6ULL},
        {"natural", "interleaved", 'Z', 3, 0xa1777f0b42b36444ULL},
        {"natural", "interleaved", 'Z', 5, 0x55c2e841fcaea1bdULL},
        {"natural", "interleaved", 'Z', 7, 0x9cd70f1656552f81ULL},
        {"natural", "interleaved", 'X', 3, 0x73da30e54ad4b6aeULL},
        {"natural", "interleaved", 'X', 5, 0x62a7d2af272e017dULL},
        {"natural", "interleaved", 'X', 7, 0xc2679af87fc7f65bULL},
        {"compact", "all-at-once", 'Z', 3, 0x1fd384192de99eb4ULL},
        {"compact", "all-at-once", 'Z', 5, 0xb174d24a6ae08424ULL},
        {"compact", "all-at-once", 'Z', 7, 0x789d3b925dcca81dULL},
        {"compact", "all-at-once", 'X', 3, 0x372308623e58d776ULL},
        {"compact", "all-at-once", 'X', 5, 0x29f629d1906e46a0ULL},
        {"compact", "all-at-once", 'X', 7, 0x8cff6f00e912cc1bULL},
        {"compact", "interleaved", 'Z', 3, 0xc2b4346a5aaa75eaULL},
        {"compact", "interleaved", 'Z', 5, 0xf9b977412c5b6f33ULL},
        {"compact", "interleaved", 'Z', 7, 0x9d582fa20f4332aULL},
        {"compact", "interleaved", 'X', 3, 0x70d1cfccfb182b70ULL},
        {"compact", "interleaved", 'X', 5, 0x6d8616ed258ff07fULL},
        {"compact", "interleaved", 'X', 7, 0x1c6abb157eb19f4cULL},
        {"compact-rect", "all-at-once", 'Z', 3, 0x1fd384192de99eb4ULL},
        {"compact-rect", "all-at-once", 'Z', 5, 0xb6883e919f07e2a6ULL},
        {"compact-rect", "all-at-once", 'Z', 7, 0x3293fd9bd1e0129ULL},
        {"compact-rect", "all-at-once", 'X', 3, 0x372308623e58d776ULL},
        {"compact-rect", "all-at-once", 'X', 5, 0x2a267b347905c1b5ULL},
        {"compact-rect", "all-at-once", 'X', 7, 0xae4d55b48185e2d7ULL},
        {"compact-rect", "interleaved", 'Z', 3, 0xc2b4346a5aaa75eaULL},
        {"compact-rect", "interleaved", 'Z', 5, 0x7ed884fbded486b4ULL},
        {"compact-rect", "interleaved", 'Z', 7, 0x39dbb1873e8dff05ULL},
        {"compact-rect", "interleaved", 'X', 3, 0x70d1cfccfb182b70ULL},
        {"compact-rect", "interleaved", 'X', 5, 0x97fb1fd15d8af637ULL},
        {"compact-rect", "interleaved", 'X', 7, 0xf5afff185097f03bULL},
    };
    std::vector<Pinned> got;
    for (const GeneratorBackend& backend : generatorRegistry())
        for (const ExtractionSchedule schedule : schedulesOf(backend))
            for (const CheckBasis basis : {CheckBasis::Z, CheckBasis::X})
                for (const int d : {3, 5, 7})
                    got.push_back(emitPinned(backend, schedule, basis, d));
    expectPinned(pinned, got);
}

/**
 * Pins the Compact generators past d=7 (the large-d workload runs
 * Compact-Interleaved at d=13): compact and compact-rect, both
 * schedules and bases, at d 9/11/13, then explicit 5x9 and 9x5 patches
 * (distanceX x distanceZ, 9 rounds). Same settings as the table above.
 */
TEST(CircuitDigest, CompactSetupsPastDistanceSevenEmitThePinnedCircuit)
{
    const Pinned pinned[] = {
        {"compact", "all-at-once", 'Z', 9, 0x76cb0b757b291e46ULL},
        {"compact", "all-at-once", 'Z', 11, 0x880bebcf1e336e5eULL},
        {"compact", "all-at-once", 'Z', 13, 0x30602308173de04dULL},
        {"compact", "all-at-once", 'Z', 9, 0x3f95f5a7b8afbcbdULL, 5, 9},
        {"compact", "all-at-once", 'Z', 9, 0x68bf64a9855f2c93ULL, 9, 5},
        {"compact", "all-at-once", 'X', 9, 0x16a4158323e0b149ULL},
        {"compact", "all-at-once", 'X', 11, 0xdb3a7120cca3db98ULL},
        {"compact", "all-at-once", 'X', 13, 0xe4d84090ba90349eULL},
        {"compact", "all-at-once", 'X', 9, 0x4122fe2d1f4e653dULL, 5, 9},
        {"compact", "all-at-once", 'X', 9, 0x9fa4e1e835ae5ffbULL, 9, 5},
        {"compact", "interleaved", 'Z', 9, 0xadb668311043aee2ULL},
        {"compact", "interleaved", 'Z', 11, 0xd1aabfcde4b0f41ULL},
        {"compact", "interleaved", 'Z', 13, 0xa652c7b2ed0a864bULL},
        {"compact", "interleaved", 'Z', 9, 0xfb47b14b98c4a73ULL, 5, 9},
        {"compact", "interleaved", 'Z', 9, 0x8e09aac0c3f3c52aULL, 9, 5},
        {"compact", "interleaved", 'X', 9, 0x657739d0a33d5fdULL},
        {"compact", "interleaved", 'X', 11, 0x88f5674ac49b3347ULL},
        {"compact", "interleaved", 'X', 13, 0xd62b6af263909038ULL},
        {"compact", "interleaved", 'X', 9, 0xb0edc24a3ef6c8bULL, 5, 9},
        {"compact", "interleaved", 'X', 9, 0xbf1708fe493e328aULL, 9, 5},
        {"compact-rect", "all-at-once", 'Z', 9, 0xd73f7f61438d1bbcULL},
        {"compact-rect", "all-at-once", 'Z', 11, 0x91878c815bc619e2ULL},
        {"compact-rect", "all-at-once", 'Z', 13, 0xcff740d7519399fdULL},
        {"compact-rect", "all-at-once", 'Z', 9, 0x3f95f5a7b8afbcbdULL, 5, 9},
        {"compact-rect", "all-at-once", 'Z', 9, 0x68bf64a9855f2c93ULL, 9, 5},
        {"compact-rect", "all-at-once", 'X', 9, 0x6cccce8b7ec1014ULL},
        {"compact-rect", "all-at-once", 'X', 11, 0xc9cf725576c62968ULL},
        {"compact-rect", "all-at-once", 'X', 13, 0xd2596f43f065be12ULL},
        {"compact-rect", "all-at-once", 'X', 9, 0x4122fe2d1f4e653dULL, 5, 9},
        {"compact-rect", "all-at-once", 'X', 9, 0x9fa4e1e835ae5ffbULL, 9, 5},
        {"compact-rect", "interleaved", 'Z', 9, 0xc8fe88b74cae1635ULL},
        {"compact-rect", "interleaved", 'Z', 11, 0xf905b7dfbe296d0fULL},
        {"compact-rect", "interleaved", 'Z', 13, 0x1245233a84b18d77ULL},
        {"compact-rect", "interleaved", 'Z', 9, 0xfb47b14b98c4a73ULL, 5, 9},
        {"compact-rect", "interleaved", 'Z', 9, 0x8e09aac0c3f3c52aULL, 9, 5},
        {"compact-rect", "interleaved", 'X', 9, 0x88b7dd6f39dea145ULL},
        {"compact-rect", "interleaved", 'X', 11, 0xa7b16ae447a84ab1ULL},
        {"compact-rect", "interleaved", 'X', 13, 0x69d19fb28495268cULL},
        {"compact-rect", "interleaved", 'X', 9, 0xb0edc24a3ef6c8bULL, 5, 9},
        {"compact-rect", "interleaved", 'X', 9, 0xbf1708fe493e328aULL, 9, 5},
    };
    std::vector<Pinned> got;
    for (const EmbeddingKind kind :
         {EmbeddingKind::Compact, EmbeddingKind::CompactRect}) {
        const GeneratorBackend& backend = generatorBackend(kind);
        for (const ExtractionSchedule schedule : schedulesOf(backend))
            for (const CheckBasis basis : {CheckBasis::Z, CheckBasis::X}) {
                for (const int d : {9, 11, 13})
                    got.push_back(emitPinned(backend, schedule, basis, d));
                got.push_back(emitPinned(backend, schedule, basis, 9, 5, 9));
                got.push_back(emitPinned(backend, schedule, basis, 9, 9, 5));
            }
    }
    expectPinned(pinned, got);
}

/**
 * Pins the paging-gap model itself: natural and compact, both
 * schedules and bases, at d 3/5, under BlockOnce at cavity depth 1 (no
 * gap), PerRound at depth 4, and PerRound at depth 4 over 2 rounds
 * (fewer than d, so a block is shorter than d rounds). The tables above
 * hold only BlockOnce at depth 10 over d rounds.
 */
TEST(CircuitDigest, EveryPagingGapModelEmitsThePinnedCircuit)
{
    const Pinned pinned[] = {
        {"natural", "all-at-once", 'Z', 3, 0x28a1118a5ea98fb8ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "all-at-once", 'Z', 3, 0x62ff94c838a8fb2eULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "all-at-once", 'Z', 3, 0xc47959c17c0fc016ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"natural", "all-at-once", 'Z', 5, 0x8bed2808e1193b25ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "all-at-once", 'Z', 5, 0xf655f970284ff798ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "all-at-once", 'Z', 5, 0x2aa06c8dbe217c59ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"natural", "all-at-once", 'X', 3, 0xe61e388756899b22ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "all-at-once", 'X', 3, 0xda49704655ad4c74ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "all-at-once", 'X', 3, 0x247b323d7c657e34ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"natural", "all-at-once", 'X', 5, 0xd028e0d3d31b5ce1ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "all-at-once", 'X', 5, 0xf348db3c52e4fe24ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "all-at-once", 'X', 5, 0x35f133aaf42bbb65ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"natural", "interleaved", 'Z', 3, 0x675bcd7d915cb6f2ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "interleaved", 'Z', 3, 0x3f7b26935be2ef3bULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "interleaved", 'Z', 3, 0xbb455530e1697b3ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"natural", "interleaved", 'Z', 5, 0x8d960ae3bcdfbfd0ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "interleaved", 'Z', 5, 0xe45e238192670eabULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "interleaved", 'Z', 5, 0xf4cc199c7939ad69ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"natural", "interleaved", 'X', 3, 0xd3a952cd85148bacULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "interleaved", 'X', 3, 0x7005b3ad02f851d5ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "interleaved", 'X', 3, 0xc9f81ce8a5937251ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"natural", "interleaved", 'X', 5, 0x9beeac0d052e73bcULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"natural", "interleaved", 'X', 5, 0xf1eafbc2047a2fbfULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"natural", "interleaved", 'X', 5, 0x4c57334cd462420dULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "all-at-once", 'Z', 3, 0xd0e638e092cca441ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "all-at-once", 'Z', 3, 0x1fd384192de99eb4ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "all-at-once", 'Z', 3, 0xc2272a201a30045fULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "all-at-once", 'Z', 5, 0x8e6176309bcbf974ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "all-at-once", 'Z', 5, 0x87c3e3b9d6c49f59ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "all-at-once", 'Z', 5, 0xd578356e503bd879ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "all-at-once", 'X', 3, 0xeac3845c130fa197ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "all-at-once", 'X', 3, 0x372308623e58d776ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "all-at-once", 'X', 3, 0x57c8fe086e026cc1ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "all-at-once", 'X', 5, 0x64b940833f39a5d4ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "all-at-once", 'X', 5, 0x8d5b698978875121ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "all-at-once", 'X', 5, 0x76048e1e3b737d69ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "interleaved", 'Z', 3, 0xd7fbc38c29a129e4ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "interleaved", 'Z', 3, 0xacdbe62152defc09ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "interleaved", 'Z', 3, 0xb9ab493570aac85dULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "interleaved", 'Z', 5, 0xf8caa22b372d115bULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "interleaved", 'Z', 5, 0x8f294206e3a2824cULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "interleaved", 'Z', 5, 0x2dab13158491b07fULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "interleaved", 'X', 3, 0xb2e87f2be0ede662ULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "interleaved", 'X', 3, 0x189d9b5ab10ff467ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "interleaved", 'X', 3, 0x42c57c93018603d7ULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
        {"compact", "interleaved", 'X', 5, 0xc75321d7258bccbbULL, 0, 0,
         PagingGapModel::BlockOnce, 1, 0},
        {"compact", "interleaved", 'X', 5, 0xcf353dcc0e61a58ULL, 0, 0,
         PagingGapModel::PerRound, 4, 0},
        {"compact", "interleaved", 'X', 5, 0xe95bea7d5c647b2bULL, 0, 0,
         PagingGapModel::PerRound, 4, 2},
    };
    struct Gap
    {
        PagingGapModel model;
        int cavityDepth;
        int rounds;
    };
    const Gap gaps[] = {{PagingGapModel::BlockOnce, 1, 0},
                        {PagingGapModel::PerRound, 4, 0},
                        {PagingGapModel::PerRound, 4, 2}};
    std::vector<Pinned> got;
    for (const EmbeddingKind kind :
         {EmbeddingKind::Natural, EmbeddingKind::Compact}) {
        const GeneratorBackend& backend = generatorBackend(kind);
        for (const ExtractionSchedule schedule : schedulesOf(backend))
            for (const CheckBasis basis : {CheckBasis::Z, CheckBasis::X})
                for (const int d : {3, 5})
                    for (const Gap& gap : gaps)
                        got.push_back(emitPinned(backend, schedule, basis, d,
                                                 0, 0, gap.model,
                                                 gap.cavityDepth,
                                                 gap.rounds));
    }
    expectPinned(pinned, got);
}

} // namespace
} // namespace vlq
