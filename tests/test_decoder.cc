#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/exact_matching.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find.h"
#include "distance_oracle.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "obs/metrics.h"
#include "sim/frame.h"
#include "util/rng.h"

namespace vlq {
namespace {

GeneratorConfig
configFor(int d, double p, ExtractionSchedule sched,
          CheckBasis basis = CheckBasis::Z)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.memoryBasis = basis;
    cfg.schedule = sched;
    cfg.cavityDepth = 3;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

/** One entry of the decoder's pair rows: the a-b path weight. */
double
pairDistance(const MatchingPaths& g, uint32_t a, uint32_t b)
{
    double d = 0.0;
    uint32_t o = 0;
    g.pairPaths(a, std::span<const uint32_t>(&b, 1), std::span<double>(&d, 1),
                std::span<uint32_t>(&o, 1));
    return d;
}

// The matching graph: the decoding graph as the decoders' matching
// reads it, through MatchingPaths.
TEST(MatchingGraphTest, BuildsFromBaseline)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    const MatchingPaths g(DecodingGraph::build(dem));
    EXPECT_EQ(g.graph().numDetectors(), dem.numDetectors());
    EXPECT_GT(g.graph().edges().size(), 0u);
    // Every detector should reach the boundary.
    for (uint32_t i = 0; i < g.graph().numDetectors(); ++i)
        EXPECT_TRUE(std::isfinite(g.boundaryDistance(i))) << i;
}

TEST(MatchingGraphTest, DistanceIsMetricLike)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    const MatchingPaths g(DecodingGraph::build(dem));
    const uint32_t n = g.graph().numDetectors();
    for (uint32_t a = 0; a < n; ++a) {
        EXPECT_EQ(pairDistance(g, a, a), 0.0);
        for (uint32_t b = a + 1; b < std::min(n, a + 5); ++b) {
            EXPECT_DOUBLE_EQ(pairDistance(g, a, b), pairDistance(g, b, a));
            EXPECT_GT(pairDistance(g, a, b), 0.0);
        }
    }
}

/**
 * The defining property of a distance-d code with MWPM decoding: every
 * single fault outcome is corrected (no logical error from any one
 * fault). Run for every setup at d=3.
 */
class SingleFaultCorrection
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SingleFaultCorrection, EverySingleFaultIsCorrected)
{
    auto [embInt, schedInt, basisInt] = GetParam();
    EmbeddingKind emb = static_cast<EmbeddingKind>(embInt);
    GeneratorConfig cfg =
        configFor(3, 2e-3, static_cast<ExtractionSchedule>(schedInt),
                  static_cast<CheckBasis>(basisInt));
    GeneratedCircuit gen = generateMemoryCircuit(emb, cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);

    int checked = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : ch.outcomes) {
            BitVec det(dem.numDetectors());
            for (uint32_t dIdx : o.detectors)
                det.flip(dIdx);
            uint32_t predicted = decoder.decode(det);
            EXPECT_EQ(predicted, o.observables)
                << "channel at op " << ch.opIndex << " not corrected";
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

INSTANTIATE_TEST_SUITE_P(
    AllSetups, SingleFaultCorrection,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1),
                       ::testing::Values(0, 1)));

TEST(MwpmDecoderTest, EmptySyndromeNoCorrection)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);
    BitVec det(dem.numDetectors());
    EXPECT_EQ(decoder.decode(det), 0u);
}

TEST(MwpmDecoderTest, TwoFaultsAtDistanceFive)
{
    // At d=5, any combination of two single faults must be corrected.
    GeneratorConfig cfg = configFor(5, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);

    // Sample a subset of channel pairs (the full cross product is
    // large); stride through deterministically.
    const auto& chs = dem.channels();
    int checked = 0;
    for (size_t i = 0; i < chs.size(); i += 97) {
        for (size_t j = i + 1; j < chs.size(); j += 131) {
            const auto& oi = chs[i].outcomes.front();
            const auto& oj = chs[j].outcomes.front();
            BitVec det(dem.numDetectors());
            for (uint32_t d : oi.detectors)
                det.flip(d);
            for (uint32_t d : oj.detectors)
                det.flip(d);
            uint32_t truth = oi.observables ^ oj.observables;
            EXPECT_EQ(decoder.decode(det), truth)
                << "pair " << i << "," << j;
            ++checked;
        }
    }
    EXPECT_GT(checked, 50);
}

TEST(GreedyDecoderTest, CorrectsMostSingleFaults)
{
    // Greedy matching is the decoder-quality ablation: unlike exact
    // MWPM it may mispair even a single fault's two events when a
    // boundary edge looks locally cheaper, so we only require a high
    // correction fraction (MWPM is required to reach 100% above).
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    GreedyDecoder decoder(dem);
    int total = 0;
    int wrong = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : ch.outcomes) {
            BitVec det(dem.numDetectors());
            for (uint32_t dIdx : o.detectors)
                det.flip(dIdx);
            if (decoder.decode(det) != o.observables)
                ++wrong;
            ++total;
        }
    }
    EXPECT_GT(total, 100);
    // Empirically greedy mispredicts ~28% of single faults at d=3
    // (boundary edges accumulate probability and look locally cheap);
    // the point of this test is that it is far from random (50%) while
    // MWPM achieves 0% -- the gap IS the ablation.
    EXPECT_LT(static_cast<double>(wrong) / total, 0.40)
        << wrong << "/" << total;
    EXPECT_GT(wrong, 0) << "greedy unexpectedly optimal";
}

TEST(MwpmDecoderTest, OddEventCountUsesBoundary)
{
    // A single boundary-adjacent fault fires one detector; the decoder
    // must match it to the boundary, not fail on odd parity.
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);
    int oddCases = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : ch.outcomes) {
            if (o.detectors.size() != 1)
                continue;
            BitVec det(dem.numDetectors());
            det.flip(o.detectors[0]);
            EXPECT_EQ(decoder.decode(det), o.observables);
            ++oddCases;
        }
    }
    EXPECT_GT(oddCases, 10);
}

TEST(MwpmDecoderTest, ThreeFaultsStillDecodedAtDistanceSeven)
{
    // d=7 corrects any 3 faults; sample triples deterministically.
    GeneratorConfig cfg = configFor(7, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);
    const auto& chs = dem.channels();
    int checked = 0;
    for (size_t i = 0; i < chs.size(); i += 487) {
        for (size_t j = i + 151; j < chs.size(); j += 911) {
            for (size_t k = j + 77; k < chs.size(); k += 1303) {
                const auto& oi = chs[i].outcomes.front();
                const auto& oj = chs[j].outcomes.front();
                const auto& ok = chs[k].outcomes.front();
                BitVec det(dem.numDetectors());
                for (uint32_t d : oi.detectors)
                    det.flip(d);
                for (uint32_t d : oj.detectors)
                    det.flip(d);
                for (uint32_t d : ok.detectors)
                    det.flip(d);
                uint32_t truth = oi.observables ^ oj.observables
                               ^ ok.observables;
                EXPECT_EQ(decoder.decode(det), truth)
                    << i << "," << j << "," << k;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 20);
}

TEST(MatchingGraphTest, CompactGraphAlsoGraphlike)
{
    GeneratorConfig cfg = configFor(5, 2e-3,
                                    ExtractionSchedule::Interleaved);
    GeneratedCircuit gen = generateCompactMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    const MatchingPaths g(DecodingGraph::build(dem));
    EXPECT_EQ(g.graph().stats().forcedPairings, 0u);
    for (uint32_t i = 0; i < g.graph().numDetectors(); ++i)
        EXPECT_TRUE(std::isfinite(g.boundaryDistance(i)));
}

TEST(MatchingGraphTest, FewForcedPairings)
{
    // The standard extraction circuits should produce an almost
    // perfectly graph-like error model.
    for (int embInt : {0, 1, 2}) {
        GeneratorConfig cfg = configFor(3, 2e-3,
                                        ExtractionSchedule::AllAtOnce);
        GeneratedCircuit gen = generateMemoryCircuit(
            static_cast<EmbeddingKind>(embInt), cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        EXPECT_EQ(DecodingGraph::build(dem).stats().forcedPairings, 0u)
            << "embedding " << embInt;
    }
}

/**
 * Masks hold all 32 observable bits: on a hand-built graph whose edges
 * flip observables 7, 12, 20 and 31, the pair rows, the boundary table,
 * the matcher and union-find built on the graph return them intact.
 */
TEST(MatchingGraphTest, ObservableBitsAboveSevenSurvive)
{
    DecodingGraph graph(3);
    const uint32_t B = graph.boundaryNode();
    graph.addContribution(0, 1, 0.01, 1u << 20);
    graph.addContribution(1, 2, 0.01, 1u << 12);
    graph.addContribution(2, B, 0.01, 1u << 7);
    graph.addContribution(0, B, 0.001, 1u << 31);
    graph.finalize();
    const MatchingPaths g(graph);

    const std::vector<uint32_t> targets = {1, 2};
    std::vector<double> dist(2);
    std::vector<uint32_t> pathObs(2);
    g.pairPaths(0, targets, std::span<double>(dist),
                std::span<uint32_t>(pathObs));
    EXPECT_EQ(pathObs[0], 1u << 20);
    EXPECT_EQ(pathObs[1], (1u << 20) ^ (1u << 12));
    EXPECT_EQ(g.boundaryObservables(0), 1u << 31);
    EXPECT_EQ(g.boundaryObservables(1), (1u << 12) ^ (1u << 7));
    EXPECT_EQ(g.boundaryObservables(2), 1u << 7);

    // Pair 0-1 and send 2 to the boundary: every other matching is
    // dearer.
    const std::vector<uint32_t> all = {0, 1, 2};
    const ExactMatching m = g.match(all);
    ASSERT_TRUE(m.found);
    EXPECT_EQ(m.observables, (1u << 20) ^ (1u << 7));
    EXPECT_EQ(m.pairs, 1u);
    EXPECT_EQ(m.boundaryMatches, 1u);
    EXPECT_EQ(g.match(std::vector<uint32_t>{0}).observables, 1u << 31);
    EXPECT_EQ(g.match(std::vector<uint32_t>{0, 1}).observables, 1u << 20);

    const UnionFindDecoder uf(graph);
    BitVec det(3);
    for (const uint32_t v : all)
        det.flip(v);
    EXPECT_EQ(uf.decode(det), (1u << 20) ^ (1u << 7));
}

/**
 * Building a decoder fills no row: a d=13 MWPM decoder publishes none.
 * On a d=3 graph every detector's row read at every node equals the
 * boundary-free complete search bit for bit, and equals one-node reads
 * of a second table, which extend its rows one target at a time. A row
 * read whole is published once however often it is read. The dense
 * oracle of Baseline and Compact-Interleaved graphs never prices a pair
 * above two boundary exits.
 */
TEST(MatchingGraphTest, BuildFillsNoRowAndRowsMatchPointApi)
{
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    auto rowsFilled = [] {
        return obs::snapshotMetrics().counter("rows.filled");
    };

    const DetectorErrorModel large = DetectorErrorModel::build(
        generateBaselineMemory(
            configFor(13, 3e-3, ExtractionSchedule::AllAtOnce))
            .circuit);
    uint64_t before = rowsFilled();
    const std::unique_ptr<Decoder> mwpm =
        makeDecoder(DecoderKind::Mwpm, large);
    EXPECT_EQ(rowsFilled() - before, 0u);

    const DetectorErrorModel dem = DetectorErrorModel::build(
        generateBaselineMemory(
            configFor(3, 2e-3, ExtractionSchedule::AllAtOnce))
            .circuit);
    const MatchingPaths g(DecodingGraph::build(dem));
    const MatchingPaths points(DecodingGraph::build(dem));
    const uint32_t n = g.graph().numNodes();
    std::vector<uint32_t> everyNode(n);
    std::iota(everyNode.begin(), everyNode.end(), 0u);
    std::vector<double> dist(n);
    std::vector<uint32_t> pathObs(n);
    std::vector<double> refDist(n);
    std::vector<uint32_t> refObs(n);
    before = rowsFilled();
    for (uint32_t a = 0; a + 1 < n; ++a) {
        for (int pass = 0; pass < 2; ++pass)
            g.pairPaths(a, everyNode, std::span<double>(dist),
                        std::span<uint32_t>(pathObs));
        g.graph().shortestPaths(a, /*viaBoundary=*/false, refDist, refObs);
        EXPECT_EQ(dist, refDist) << a;
        EXPECT_EQ(pathObs, refObs) << a;
        EXPECT_TRUE(std::isinf(dist.back())) << a;
    }
    EXPECT_EQ(rowsFilled() - before, n - 1);
    for (uint32_t a = 0; a + 1 < n; ++a) {
        g.graph().shortestPaths(a, /*viaBoundary=*/false, refDist, refObs);
        for (uint32_t b = 0; b < n; ++b) {
            double d = 0.0;
            uint32_t o = 0;
            points.pairPaths(a, std::span<const uint32_t>(&b, 1),
                             std::span<double>(&d, 1),
                             std::span<uint32_t>(&o, 1));
            EXPECT_EQ(std::bit_cast<uint64_t>(d),
                      std::bit_cast<uint64_t>(refDist[b]))
                << a << "-" << b;
            EXPECT_EQ(o, refObs[b]) << a << "-" << b;
        }
    }
    obs::setMetricsEnabled(wasEnabled);

    expectPairsNoDearerThanBoundary(DenseDistances(g.graph()));
    expectPairsNoDearerThanBoundary(
        DenseDistances(DecodingGraph::build(DetectorErrorModel::build(
            generateCompactMemory(
                configFor(3, 2e-3, ExtractionSchedule::Interleaved))
                .circuit))));
}

/**
 * MwpmDecoder's prediction against the blossom reference over the
 * dense oracle `dense` of the decoder's graph: the same mask, or (on a
 * small syndrome, where the exact matcher answers and
 * may pick another of several optima) the mask of a matching whose
 * weight equals the reference's up to blossom's 2^-20 weight scaling.
 * Larger syndromes reach the sparse-blossom matcher, which can differ
 * from the reference only in the choice among equal-weight matchings
 * and on near-ties that its integer edge weights order differently
 * from the real weights; no seeded shot here hits either, so they must
 * agree exactly. tests/test_sparse_blossom.cc checks the matcher's
 * weight exactly, in its own integer metric.
 */
::testing::AssertionResult
agreesWithBlossom(const MwpmDecoder& mwpm, const DenseDistances& dense,
                  const BitVec& det)
{
    const std::vector<uint32_t> events = det.onesIndices();
    const uint32_t got = mwpm.decode(det);
    if (events.empty())
        return got == 0 ? ::testing::AssertionSuccess()
                        : ::testing::AssertionFailure()
                              << "empty syndrome predicted " << got;
    const MatchingAnswer ref = blossomReference(dense, events);
    if (got == ref.observables)
        return ::testing::AssertionSuccess();
    if (events.size() > kExactMatchingMaxDefects)
        return ::testing::AssertionFailure()
            << events.size() << " events: predicted " << got
            << ", blossom " << ref.observables;
    for (const MatchingAnswer& a : enumerateMatchings(dense, events))
        if (a.observables == got && a.weight <= ref.weight + 1e-4)
            return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << events.size() << " events: predicted " << got
        << " is not a minimum-weight mask (blossom " << ref.observables
        << ", weight " << ref.weight << ")";
}

TEST(MwpmDecoderTest, AgreesWithBlossomOnEveryFaultPairAtDistanceThree)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder mwpm(dem);
    const DenseDistances dense(mwpm.graph());

    int singles = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : ch.outcomes) {
            BitVec det(dem.numDetectors());
            for (uint32_t d : o.detectors)
                det.flip(d);
            ASSERT_TRUE(agreesWithBlossom(mwpm, dense, det))
                << "op " << ch.opIndex;
            ++singles;
        }
    }
    EXPECT_GT(singles, 100);

    const auto& chs = dem.channels();
    int pairs = 0;
    for (size_t i = 0; i < chs.size(); ++i) {
        for (size_t j = i + 1; j < chs.size(); ++j) {
            BitVec det(dem.numDetectors());
            for (uint32_t d : chs[i].outcomes.front().detectors)
                det.flip(d);
            for (uint32_t d : chs[j].outcomes.front().detectors)
                det.flip(d);
            ASSERT_TRUE(agreesWithBlossom(mwpm, dense, det))
                << "pair " << i << "," << j;
            ++pairs;
        }
    }
    EXPECT_GT(pairs, 30000);
}

/** Shots of a seeded sample that reach each MWPM solver. */
struct SolverMix
{
    int exact = 0;   // 1..10 events
    int blossom = 0; // more than 10 events
};

SolverMix
checkSampledShots(int d, double p, int shots, uint64_t seed)
{
    GeneratorConfig cfg = configFor(d, p, ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    MwpmDecoder mwpm(dem);
    const DenseDistances dense(mwpm.graph());
    Rng root(seed);
    BitVec det(dem.numDetectors());
    uint32_t obsFlips = 0;
    SolverMix mix;
    for (int s = 0; s < shots; ++s) {
        Rng rng = root.split(static_cast<uint64_t>(s));
        sampler.sampleInto(rng, det, obsFlips);
        EXPECT_TRUE(agreesWithBlossom(mwpm, dense, det))
            << "d=" << d << " p=" << p << " shot " << s;
        const size_t events = det.onesIndices().size();
        if (events > kExactMatchingMaxDefects)
            ++mix.blossom;
        else if (events > 0)
            ++mix.exact;
    }
    return mix;
}

TEST(MwpmDecoderTest, AgreesWithBlossomOnSampledShots)
{
    // Below threshold the exact matcher answers; above it the shots
    // outgrow the 10-event limit and sparse blossom does.
    SolverMix below = checkSampledShots(5, 1e-3, 2000, 0xb10550);
    SolverMix above = checkSampledShots(7, 1e-2, 300, 0xb10551);
    EXPECT_GT(below.exact, 500);
    EXPECT_GT(above.blossom, 200);
}

} // namespace
} // namespace vlq
