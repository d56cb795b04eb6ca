#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "blossom_oracle.h"
#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/exact_matching.h"
#include "decoder/matching_graph.h"
#include "decoder/mwpm_decoder.h"
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

TEST(MatchingGraphTest, BuildsFromBaseline)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MatchingGraph g = MatchingGraph::build(dem);
    EXPECT_EQ(g.numNodes(), dem.numDetectors());
    EXPECT_GT(g.numEdges(), 0u);
    // Every detector should reach the boundary.
    for (uint32_t i = 0; i < g.numNodes(); ++i)
        EXPECT_TRUE(std::isfinite(g.boundaryDistance(i))) << i;
}

TEST(MatchingGraphTest, DistanceIsMetricLike)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MatchingGraph g = MatchingGraph::build(dem);
    for (uint32_t a = 0; a < g.numNodes(); ++a) {
        EXPECT_EQ(g.distance(a, a), 0.0f);
        for (uint32_t b = a + 1; b < std::min(g.numNodes(), a + 5); ++b) {
            EXPECT_FLOAT_EQ(g.distance(a, b), g.distance(b, a));
            EXPECT_GT(g.distance(a, b), 0.0);
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
    MatchingGraph g = MatchingGraph::build(dem);
    EXPECT_EQ(g.stats().forcedPairings, 0u);
    for (uint32_t i = 0; i < g.numNodes(); ++i)
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
        MatchingGraph g = MatchingGraph::build(dem);
        EXPECT_EQ(g.stats().forcedPairings, 0u)
            << "embedding " << embInt;
    }
}

TEST(MatchingGraphDeathTest, RejectsObservablesAboveBitSeven)
{
    // Rows keep 8 mask bits per path; a 9th observable would decode
    // wrong silently, so building -- which fills no row -- must
    // refuse it.
    DecodingGraph g(2);
    g.addContribution(0, 1, 0.01, 1u << 7);
    g.addContribution(1, g.boundaryNode(), 0.01, 0);
    g.addContribution(0, g.boundaryNode(), 0.02, 1u << 8);
    g.finalize();
    EXPECT_DEATH(MatchingGraph::build(g), "8 bits");

    DecodingGraph ok(2);
    ok.addContribution(0, 1, 0.01, 1u << 7);
    ok.addContribution(1, ok.boundaryNode(), 0.01, 0);
    ok.finalize();
    MatchingGraph built = MatchingGraph::build(ok);
    EXPECT_EQ(built.pathObservables(0, 1), 1u << 7);
}

/**
 * Rows may route through the boundary, so no detector pair is dearer
 * than both detectors exiting there (up to float rounding). The dense
 * reference below relies on this when it gives every event a private
 * boundary copy; a Dijkstra that excluded the boundary, as
 * union-find's does, would break it.
 */
void
expectPairsNoDearerThanBoundary(const MatchingGraph& g)
{
    for (uint32_t a = 0; a < g.numNodes(); ++a) {
        for (uint32_t b = 0; b < g.numNodes(); ++b)
            EXPECT_LE(g.distance(a, b), g.boundaryDistance(a)
                                            + g.boundaryDistance(b) + 1e-4)
                << a << "-" << b;
    }
}

/**
 * Rows are filled on first use, not at build: building a d=13 MWPM
 * decoder fills none, and on a d=3 graph every row agrees with the
 * point API and is filled exactly once however often it is read. Rows
 * of Baseline and Compact-Interleaved graphs never price a pair above
 * two boundary exits.
 */
TEST(MatchingGraphTest, BuildFillsNoRowAndRowsMatchPointApi)
{
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    auto rowsFilled = [] {
        return obs::snapshotMetrics().counter("matching.rows_filled");
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
    const MatchingGraph g = MatchingGraph::build(dem);
    std::vector<uint32_t> everyNode(g.numNodes());
    std::iota(everyNode.begin(), everyNode.end(), 0u);
    before = rowsFilled();
    everyNode.push_back(g.boundaryNode());
    std::vector<float> dist(everyNode.size());
    std::vector<uint8_t> pathObs(everyNode.size());
    for (uint32_t a = 0; a < g.numNodes(); ++a) {
        g.paths(a, everyNode, dist, pathObs);
        for (uint32_t b = 0; b < g.numNodes(); ++b) {
            EXPECT_EQ(dist[b], g.distance(a, b)) << a << "-" << b;
            EXPECT_EQ(pathObs[b], g.pathObservables(a, b)) << a << "-" << b;
        }
        EXPECT_EQ(dist.back(), g.boundaryDistance(a)) << a;
        EXPECT_EQ(pathObs.back(), g.boundaryObservables(a)) << a;
    }
    expectPairsNoDearerThanBoundary(g);
    EXPECT_EQ(rowsFilled() - before, g.numNodes());
    obs::setMetricsEnabled(wasEnabled);

    expectPairsNoDearerThanBoundary(
        MatchingGraph::build(DetectorErrorModel::build(
            generateCompactMemory(
                configFor(3, 2e-3, ExtractionSchedule::Interleaved))
                .circuit)));
}

/** A matching's total weight and the XOR of its observable masks. */
struct MatchingAnswer
{
    double weight = 0.0;
    uint32_t observables = 0;
};

/**
 * Dense blossom reference (the oracle in tests/blossom_oracle.h),
 * independent of both of the decoder's solvers:
 * the complete-graph formulation over the decoder's own distance table
 * with a private boundary copy per event (copies joined at zero
 * weight), solved with the uniform-start maxWeightMatching on
 * complemented weights rather than the warm-started
 * minWeightPerfectMatching.
 */
MatchingAnswer
blossomReference(const MatchingGraph& g,
                 const std::vector<uint32_t>& events)
{
    const int m = static_cast<int>(events.size());
    std::vector<MatchEdge> edges;
    for (int i = 0; i < m; ++i) {
        const uint32_t ei = events[static_cast<size_t>(i)];
        for (int j = i + 1; j < m; ++j) {
            double w = g.distance(ei, events[static_cast<size_t>(j)]);
            if (std::isfinite(w))
                edges.push_back(MatchEdge{i, j, w});
        }
        if (std::isfinite(g.boundaryDistance(ei)))
            edges.push_back(MatchEdge{i, m + i, g.boundaryDistance(ei)});
        for (int j = i + 1; j < m; ++j)
            edges.push_back(MatchEdge{m + i, m + j, 0.0});
    }
    double maxw = 0.0;
    for (const MatchEdge& e : edges)
        maxw = std::max(maxw, e.weight);
    for (MatchEdge& e : edges)
        e.weight = maxw + 1.0 - e.weight;
    std::vector<int> mate = maxWeightMatching(2 * m, edges, true);
    for (int v = 0; v < 2 * m; ++v)
        EXPECT_GE(mate[static_cast<size_t>(v)], 0) << "unmatched " << v;
    MatchingAnswer ref;
    for (int i = 0; i < m; ++i) {
        const uint32_t ei = events[static_cast<size_t>(i)];
        const int j = mate[static_cast<size_t>(i)];
        if (j == m + i) {
            ref.weight += g.boundaryDistance(ei);
            ref.observables ^= g.boundaryObservables(ei);
        } else if (j > i && j < m) {
            const uint32_t ej = events[static_cast<size_t>(j)];
            ref.weight += g.distance(ei, ej);
            ref.observables ^= g.pathObservables(ei, ej);
        }
    }
    return ref;
}

/** Every event-pair / event-boundary matching, as (weight, mask). */
void
enumerateMatchings(const MatchingGraph& g,
                   const std::vector<uint32_t>& events,
                   std::vector<bool>& used, MatchingAnswer partial,
                   std::vector<MatchingAnswer>& out)
{
    size_t i = 0;
    while (i < events.size() && used[i])
        ++i;
    if (i == events.size()) {
        out.push_back(partial);
        return;
    }
    used[i] = true;
    if (std::isfinite(g.boundaryDistance(events[i])))
        enumerateMatchings(
            g, events, used,
            {partial.weight + g.boundaryDistance(events[i]),
             partial.observables ^ g.boundaryObservables(events[i])},
            out);
    for (size_t j = i + 1; j < events.size(); ++j) {
        const double w = g.distance(events[i], events[j]);
        if (used[j] || !std::isfinite(w))
            continue;
        used[j] = true;
        enumerateMatchings(
            g, events, used,
            {partial.weight + w,
             partial.observables
                 ^ g.pathObservables(events[i], events[j])},
            out);
        used[j] = false;
    }
    used[i] = false;
}

/**
 * MwpmDecoder's prediction against the blossom reference: the same
 * mask, or (on a small syndrome, where the exact matcher answers and
 * may pick another of several optima) the mask of a matching whose
 * weight equals the reference's up to blossom's 2^-20 weight scaling.
 * Larger syndromes reach the sparse-blossom matcher, which can differ
 * from the reference only in the choice among equal-weight matchings
 * and on near-ties that its integer edge weights order differently
 * from the float rows; no seeded shot here hits either, so they must
 * agree exactly. tests/test_sparse_blossom.cc checks the matcher's
 * weight exactly, in its own integer metric.
 */
::testing::AssertionResult
agreesWithBlossom(const MwpmDecoder& mwpm, const BitVec& det)
{
    const std::vector<uint32_t> events = det.onesIndices();
    const uint32_t got = mwpm.decode(det);
    if (events.empty())
        return got == 0 ? ::testing::AssertionSuccess()
                        : ::testing::AssertionFailure()
                              << "empty syndrome predicted " << got;
    const MatchingAnswer ref = blossomReference(mwpm.graph(), events);
    if (got == ref.observables)
        return ::testing::AssertionSuccess();
    if (events.size() > kExactMatchingMaxDefects)
        return ::testing::AssertionFailure()
            << events.size() << " events: predicted " << got
            << ", blossom " << ref.observables;
    std::vector<MatchingAnswer> all;
    std::vector<bool> used(events.size(), false);
    enumerateMatchings(mwpm.graph(), events, used, {}, all);
    for (const MatchingAnswer& a : all)
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

    int singles = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : ch.outcomes) {
            BitVec det(dem.numDetectors());
            for (uint32_t d : o.detectors)
                det.flip(d);
            ASSERT_TRUE(agreesWithBlossom(mwpm, det))
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
            ASSERT_TRUE(agreesWithBlossom(mwpm, det))
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
    Rng root(seed);
    BitVec det(dem.numDetectors());
    uint32_t obsFlips = 0;
    SolverMix mix;
    for (int s = 0; s < shots; ++s) {
        Rng rng = root.split(static_cast<uint64_t>(s));
        sampler.sampleInto(rng, det, obsFlips);
        EXPECT_TRUE(agreesWithBlossom(mwpm, det))
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
