#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "distance_oracle.h"
#include "mc/monte_carlo.h"
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

BitVec
syndromeOf(std::span<const uint32_t> detectors, uint32_t numDetectors)
{
    BitVec v(numDetectors);
    for (uint32_t d : detectors)
        v.flip(d);
    return v;
}

BitVec
syndromeOf(std::initializer_list<uint32_t> detectors, uint32_t numDetectors)
{
    return syndromeOf(
        std::span<const uint32_t>(detectors.begin(), detectors.size()),
        numDetectors);
}

// ---------------------------------------------------------------------------
// DecodingGraph construction
// ---------------------------------------------------------------------------

TEST(DecodingGraphTest, HandBuiltAccumulation)
{
    DecodingGraph g(3);
    EXPECT_EQ(g.numDetectors(), 3u);
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.boundaryNode(), 3u);

    g.addContribution(0, 1, 0.01, 5);
    g.addContribution(1, 0, 0.02, 7); // same edge, stronger, new obs
    g.addContribution(1, 2, 0.01, 0);
    g.addContribution(0, g.boundaryNode(), 0.03, 1);
    g.finalize();

    ASSERT_EQ(g.edges().size(), 3u);
    const DecodingEdge& e01 = g.edges()[0];
    EXPECT_EQ(e01.a, 0u);
    EXPECT_EQ(e01.b, 1u);
    EXPECT_NEAR(e01.probability, 0.01 + 0.02 - 2 * 0.01 * 0.02, 1e-12);
    EXPECT_EQ(e01.observables, 7u); // the stronger contribution wins
    EXPECT_EQ(g.stats().observableConflicts, 1u);

    EXPECT_EQ(g.incidentEdges(0).size(), 2u);
    EXPECT_EQ(g.incidentEdges(1).size(), 2u);
    EXPECT_EQ(g.incidentEdges(2).size(), 1u);
    EXPECT_EQ(g.incidentEdges(3).size(), 1u);
    EXPECT_EQ(g.otherEndpoint(0, 0u), 1u);
    EXPECT_EQ(g.otherEndpoint(0, 1u), 0u);

    // Weight = ln((1-p)/p); the boundary edge (p=0.03) is cheapest.
    double w03 = std::log((1.0 - 0.03) / 0.03);
    EXPECT_NEAR(g.minWeight(), w03, 1e-12);
}

TEST(DecodingGraphTest, DemBuildEdgesBoundShortestPaths)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    DecodingGraph sparse = DecodingGraph::build(dem);
    const DenseDistances dense(sparse);

    EXPECT_EQ(sparse.numDetectors(), dem.numDetectors());
    EXPECT_EQ(dense.numDetectors(), dem.numDetectors());
    EXPECT_GT(sparse.edges().size(), 0u);

    // Every single edge is itself a shortest-path upper bound.
    for (const DecodingEdge& e : sparse.edges()) {
        double d = e.b == sparse.boundaryNode()
            ? dense.boundaryDistance(e.a)
            : dense.distance(e.a, e.b);
        EXPECT_LE(d, e.weight);
        EXPECT_GT(d, 0.0);
    }
}

/**
 * A circuit of fresh qubits, each measured once with the given flip
 * probability, and detectors over those measurements: measurement m's
 * flip is one fault channel whose signature is exactly the detectors
 * listing m, so any detector pattern can be written down directly.
 */
Circuit
measurementFlipCircuit(const std::vector<double>& flipP,
                       const std::vector<std::vector<uint32_t>>& detectors)
{
    Circuit c(static_cast<uint32_t>(flipP.size()));
    std::vector<uint32_t> meas;
    for (uint32_t q = 0; q < flipP.size(); ++q)
        meas.push_back(c.measureZ(q, flipP[q]));
    for (const auto& ms : detectors) {
        Detector d;
        for (uint32_t m : ms)
            d.measurements.push_back(meas[m]);
        c.addDetector(d);
    }
    return c;
}

void
expectEdge(const DecodingGraph& g, uint32_t index, uint32_t a, uint32_t b,
           double probability)
{
    ASSERT_LT(index, g.edges().size());
    const DecodingEdge& e = g.edges()[index];
    EXPECT_EQ(e.a, a) << "edge " << index;
    EXPECT_EQ(e.b, b) << "edge " << index;
    EXPECT_DOUBLE_EQ(e.probability, probability) << "edge " << index;
}

double
xorP(double a, double b)
{
    return a + b - 2.0 * a * b;
}

TEST(DecodingGraphTest, ThreeDetectorOutcomesSplitIntoKnownEdges)
{
    // m0 flips {0,1} and m1 flips {2}: a known pair and a known
    // boundary hit. m2 flips {0,1,2} and decomposes onto both. m3 flips
    // {3,4,5}, which no other fault explains: (3,4) is an arbitrary
    // pairing and 5 an unknown boundary hit.
    Circuit c = measurementFlipCircuit(
        {0.01, 0.02, 0.03, 0.04},
        {{0, 2}, {0, 2}, {1, 2}, {3}, {3}, {3}});
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 4u);
    ASSERT_EQ(dem.channels()[2].outcomes[0].detectors.size(), 3u);
    ASSERT_EQ(dem.channels()[3].outcomes[0].detectors.size(), 3u);

    DecodingGraph g = DecodingGraph::build(dem);
    const uint32_t B = g.boundaryNode();
    ASSERT_EQ(g.edges().size(), 4u);
    expectEdge(g, 0, 0, 1, xorP(0.01, 0.03));
    expectEdge(g, 1, 2, B, xorP(0.02, 0.03));
    expectEdge(g, 2, 3, 4, 0.04);
    expectEdge(g, 3, 5, B, 0.04);
    EXPECT_EQ(g.stats().decomposed, 1u);
    EXPECT_EQ(g.stats().forcedPairings, 1u);
}

TEST(DecodingGraphTest, FiveDetectorOutcomeWithArbitraryPairIsForced)
{
    // m0 flips {0,1}, m1 flips {4}; m2 flips {0,1,2,3,4}. Its
    // decomposition uses the known pair (0,1) and the known boundary
    // hit of 4, but (2,3) pairs arbitrarily: the outcome counts as a
    // forced pairing even though its last piece was a known one.
    Circuit c = measurementFlipCircuit(
        {0.01, 0.02, 0.03},
        {{0, 2}, {0, 2}, {2}, {2}, {1, 2}});
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 3u);
    ASSERT_EQ(dem.channels()[2].outcomes[0].detectors.size(), 5u);

    DecodingGraph g = DecodingGraph::build(dem);
    const uint32_t B = g.boundaryNode();
    ASSERT_EQ(g.edges().size(), 3u);
    expectEdge(g, 0, 0, 1, xorP(0.01, 0.03));
    expectEdge(g, 1, 4, B, xorP(0.02, 0.03));
    expectEdge(g, 2, 2, 3, 0.03);
    EXPECT_EQ(g.stats().decomposed, 0u);
    EXPECT_EQ(g.stats().forcedPairings, 1u);
}

// ---------------------------------------------------------------------------
// Union-find on hand-built graphs: growth, merging, peeling
// ---------------------------------------------------------------------------

/** Options forcing the growth+peel machinery (no exact fast path). */
UnionFindOptions
growthOnly()
{
    UnionFindOptions opt;
    opt.exactSyndromeThreshold = 0;
    return opt;
}

/**
 * Chain: B -(p=.03,obs 1)- 0 -(p=.01)- 1 -(p=.02,obs 2)- 2 -(p=.03)- B
 * Weights: 3.48 / 4.60 / 3.89 / 3.48.
 */
DecodingGraph
chainGraph()
{
    DecodingGraph g(3);
    g.addContribution(0, g.boundaryNode(), 0.03, 1);
    g.addContribution(0, 1, 0.01, 0);
    g.addContribution(1, 2, 0.02, 2);
    g.addContribution(2, g.boundaryNode(), 0.03, 0);
    g.finalize();
    return g;
}

TEST(UnionFindTest, EmptySyndromeNoCorrection)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    EXPECT_EQ(uf.decode(BitVec(3), &info), 0u);
    EXPECT_EQ(info.growthRounds, 0u);
    EXPECT_EQ(info.matchedPairs, 0u);
    EXPECT_EQ(info.boundaryMatches, 0u);
}

TEST(UnionFindTest, SingleDefectMatchesToNearestBoundary)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    EXPECT_EQ(uf.decode(syndromeOf({0}, 3)), 1u);
    EXPECT_EQ(uf.decode(syndromeOf({2}, 3)), 0u);
}

TEST(UnionFindTest, AdjacentDefectsMergeThroughDirectEdge)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // 0-1 direct (4.60, grown from both ends) beats 0's boundary
    // (3.48, grown from one end only).
    EXPECT_EQ(uf.decode(syndromeOf({0, 1}, 3), &info), 0u);
    EXPECT_EQ(info.initialClusters, 2u);
    EXPECT_EQ(info.matchedPairs, 1u);
    EXPECT_EQ(info.boundaryMatches, 0u);
    EXPECT_EQ(uf.decode(syndromeOf({1, 2}, 3)), 2u);
}

TEST(UnionFindTest, FarDefectsFreezeAtTheirBoundaries)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // Boundary pairing (3.48 + 3.48) beats the middle path (8.49):
    // both clusters freeze on boundary contact and peel separately.
    EXPECT_EQ(uf.decode(syndromeOf({0, 2}, 3), &info), 1u);
    EXPECT_EQ(info.matchedPairs, 0u);
    EXPECT_EQ(info.boundaryMatches, 2u);
}

TEST(UnionFindTest, MiddleDefectTakesCheaperBoundaryPath)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    // From 1: right path 3.89+3.48=7.37 beats left 4.60+3.48=8.07.
    EXPECT_EQ(uf.decode(syndromeOf({1}, 3)), 2u);
}

/**
 * Tree: 0 -(obs 1)- 1 -(obs 0)- 2, 1 -(obs 8)- 3 -(obs 4)- B,
 * uniform p=0.01. Exercises absorption of pristine vertices and
 * multi-edge peeling.
 */
DecodingGraph
treeGraph()
{
    DecodingGraph g(4);
    g.addContribution(0, 1, 0.01, 1);
    g.addContribution(1, 2, 0.01, 0);
    g.addContribution(1, 3, 0.01, 8);
    g.addContribution(3, g.boundaryNode(), 0.01, 4);
    g.finalize();
    return g;
}

TEST(UnionFindTest, ClustersGrowThroughPristineVertices)
{
    UnionFindDecoder uf(treeGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // Defects at 0 and 2 meet around vertex 1.
    EXPECT_EQ(uf.decode(syndromeOf({0, 2}, 4), &info), 1u);
    EXPECT_EQ(info.matchedPairs, 1u);
    EXPECT_EQ(info.boundaryMatches, 0u);
    EXPECT_GT(info.growthRounds, 0u);
}

TEST(UnionFindTest, PeelingWalksWholeBoundaryPath)
{
    UnionFindDecoder uf(treeGraph(), growthOnly());
    // Lone defect at 0: only escape is 0-1-3-B, XOR 1^8^4 = 13.
    EXPECT_EQ(uf.decode(syndromeOf({0}, 4)), 13u);
}

TEST(UnionFindTest, EvenClusterOfFourResolvesInternally)
{
    UnionFindDecoder uf(treeGraph(), growthOnly());
    // All four defects: peeling pairs 0-1 and 2..3 along tree edges;
    // total correction is XOR of all tree edges used with odd defect
    // counts below them: 0-1 (obs 1), 1-2 (obs 0), 1-3 (obs 8)...
    // exact expectation: peel leaves 0,2,3: obs 1 ^ 0 ^ 8 = 9, leaving
    // vertex 1 defect-free (it absorbed three flips + its own).
    EXPECT_EQ(uf.decode(syndromeOf({0, 1, 2, 3}, 4)), 9u);
}

TEST(UnionFindTest, WeightQuantizationTracksRatios)
{
    UnionFindDecoder uf(chainGraph(), UnionFindOptions{});
    const auto& edges = uf.graph().edges();
    double minW = uf.graph().minWeight();
    for (uint32_t e = 0; e < edges.size(); ++e) {
        double exact = edges[e].weight / minW * 32.0;
        EXPECT_NEAR(uf.edgeCapacity(e), exact, 0.51) << "edge " << e;
    }
}

TEST(UnionFindTest, ExactSyndromeFastPathMatchesGrowthPath)
{
    // The default decoder short-circuits small syndromes into one
    // exact global matching; it must reproduce (or improve to an
    // equal-weight solution of) every hand-built growth-path answer.
    UnionFindDecoder grown(chainGraph(), growthOnly());
    UnionFindDecoder fast(chainGraph());
    for (const std::vector<uint32_t>& defects :
         std::vector<std::vector<uint32_t>>{
             {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}) {
        BitVec det = syndromeOf(defects, 3);
        EXPECT_EQ(fast.decode(det), grown.decode(det))
            << "defect set size " << defects.size();
    }

    UnionFindDecoder grownTree(treeGraph(), growthOnly());
    UnionFindDecoder fastTree(treeGraph());
    EXPECT_EQ(fastTree.decode(syndromeOf({0}, 4)), 13u);
    EXPECT_EQ(fastTree.decode(syndromeOf({0, 1, 2, 3}, 4)), 9u);
}

// ---------------------------------------------------------------------------
// Agreement with MWPM on real detector error models
// ---------------------------------------------------------------------------

TEST(UnionFindAgreementTest, AllSingleFaultsAtDistanceThree)
{
    for (int embInt : {0, 1, 2}) {
        GeneratorConfig cfg = configFor(3, 2e-3,
                                        ExtractionSchedule::AllAtOnce);
        GeneratedCircuit gen = generateMemoryCircuit(
            static_cast<EmbeddingKind>(embInt), cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        MwpmDecoder mwpm(dem);
        UnionFindDecoder uf(dem);
        const DenseDistances dense(uf.graph());
        int checked = 0;
        for (const auto& ch : dem.channels()) {
            for (const auto& o : ch.outcomes) {
                BitVec det = syndromeOf(o.detectors,
                                        dem.numDetectors());
                uint32_t predicted = uf.decode(det);
                if (predicted != mwpm.decode(det)) {
                    std::vector<uint32_t> events = det.onesIndices();
                    EXPECT_TRUE(
                        ufPredictionIsMinWeight(predicted, events, dense))
                        << "embedding " << embInt << " op "
                        << ch.opIndex;
                }
                ++checked;
            }
        }
        EXPECT_GT(checked, 100);
    }
}

TEST(UnionFindAgreementTest, AllFaultPairsAtDistanceThree)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem);
    const DenseDistances dense(uf.graph());

    const auto& chs = dem.channels();
    // The full cross product: cheap because the equal-weight
    // enumeration only runs on (rare) disagreements.
    int checked = 0;
    int disagreements = 0;
    for (size_t i = 0; i < chs.size(); ++i) {
        for (size_t j = i + 1; j < chs.size(); ++j) {
            const auto& oi = chs[i].outcomes.front();
            const auto& oj = chs[j].outcomes.front();
            BitVec det = syndromeOf(oi.detectors, dem.numDetectors());
            for (uint32_t d : oj.detectors)
                det.flip(d);
            uint32_t predicted = uf.decode(det);
            if (predicted != mwpm.decode(det)) {
                ++disagreements;
                std::vector<uint32_t> events = det.onesIndices();
                ASSERT_TRUE(ufPredictionIsMinWeight(predicted, events, dense))
                    << "pair " << i << "," << j;
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 30000);
    // Disagreements must be rare degenerate ties, not the norm.
    EXPECT_LT(disagreements, checked / 10);
}

TEST(UnionFindAgreementTest, FaultPairsAtDistanceFive)
{
    GeneratorConfig cfg = configFor(5, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem);
    const DenseDistances dense(uf.graph());

    const auto& chs = dem.channels();
    int checked = 0;
    for (size_t i = 0; i < chs.size(); i += 37) {
        for (size_t j = i + 1; j < chs.size(); j += 53) {
            const auto& oi = chs[i].outcomes.front();
            const auto& oj = chs[j].outcomes.front();
            BitVec det = syndromeOf(oi.detectors, dem.numDetectors());
            for (uint32_t d : oj.detectors)
                det.flip(d);
            uint32_t predicted = uf.decode(det);
            if (predicted != mwpm.decode(det)) {
                std::vector<uint32_t> events = det.onesIndices();
                ASSERT_TRUE(ufPredictionIsMinWeight(predicted, events, dense))
                    << "pair " << i << "," << j;
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 50);
}

TEST(UnionFindAgreementTest, SampledShotsMostlyAgreeWithMwpm)
{
    GeneratorConfig cfg = configFor(3, 5e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem);

    Rng root(0x5eedf00d);
    const int shots = 400;
    int agree = 0;
    BitVec det(dem.numDetectors());
    uint32_t obsFlips = 0;
    for (int i = 0; i < shots; ++i) {
        Rng rng = root.split(static_cast<uint64_t>(i));
        sampler.sampleInto(rng, det, obsFlips);
        if (uf.decode(det) == mwpm.decode(det))
            ++agree;
    }
    EXPECT_GE(agree, shots * 9 / 10) << agree << "/" << shots;
}

// ---------------------------------------------------------------------------
// Factory and registry
// ---------------------------------------------------------------------------

TEST(DecoderFactoryTest, RegistryHasBuiltins)
{
    ASSERT_GE(decoderRegistry().size(), 3u);
    EXPECT_STREQ(decoderKindName(DecoderKind::Mwpm), "mwpm");
    EXPECT_STREQ(decoderKindName(DecoderKind::Greedy), "greedy");
    EXPECT_STREQ(decoderKindName(DecoderKind::UnionFind), "union-find");
}

TEST(DecoderFactoryTest, ParsesNamesAndAliases)
{
    EXPECT_EQ(parseDecoderKind("mwpm"), DecoderKind::Mwpm);
    EXPECT_EQ(parseDecoderKind("MWPM"), DecoderKind::Mwpm);
    EXPECT_EQ(parseDecoderKind("blossom"), DecoderKind::Mwpm);
    EXPECT_EQ(parseDecoderKind("greedy"), DecoderKind::Greedy);
    EXPECT_EQ(parseDecoderKind("union-find"), DecoderKind::UnionFind);
    EXPECT_EQ(parseDecoderKind("UnionFind"), DecoderKind::UnionFind);
    EXPECT_EQ(parseDecoderKind("uf"), DecoderKind::UnionFind);
    EXPECT_FALSE(parseDecoderKind("bogus").has_value());
    EXPECT_FALSE(parseDecoderKind("").has_value());
}

TEST(DecoderFactoryTest, MakesEveryRegisteredBackend)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    BitVec empty(dem.numDetectors());
    for (const DecoderRegistration& entry : decoderRegistry()) {
        std::unique_ptr<Decoder> dec = makeDecoder(entry.kind, dem);
        ASSERT_NE(dec, nullptr) << entry.name;
        EXPECT_EQ(dec->decode(empty), 0u) << entry.name;
    }
    EXPECT_NE(makeDecoder("uf", dem), nullptr);
    EXPECT_EQ(makeDecoder("bogus", dem), nullptr);
}

TEST(DecoderFactoryTest, EnvKnobSelectsBackend)
{
    ::setenv("VLQ_DECODER_TESTVAR", "Union-Find", 1);
    EXPECT_EQ(decoderKindFromEnv(DecoderKind::Mwpm,
                                 "VLQ_DECODER_TESTVAR"),
              DecoderKind::UnionFind);
    ::setenv("VLQ_DECODER_TESTVAR", "greedy", 1);
    EXPECT_EQ(decoderKindFromEnv(DecoderKind::Mwpm,
                                 "VLQ_DECODER_TESTVAR"),
              DecoderKind::Greedy);
    // A typo'd value must be a hard error listing the valid keys,
    // never a silent fallback to some default backend.
    ::setenv("VLQ_DECODER_TESTVAR", "nonsense", 1);
    EXPECT_EXIT(decoderKindFromEnv(DecoderKind::UnionFind,
                                   "VLQ_DECODER_TESTVAR"),
                ::testing::ExitedWithCode(1),
                "not a registered decoder \\(valid: mwpm, greedy, "
                "union-find\\)");
    ::unsetenv("VLQ_DECODER_TESTVAR");
    EXPECT_EQ(decoderKindFromEnv(DecoderKind::Greedy,
                                 "VLQ_DECODER_TESTVAR"),
              DecoderKind::Greedy);
}

// ---------------------------------------------------------------------------
// End to end through Monte-Carlo
// ---------------------------------------------------------------------------

TEST(UnionFindMcTest, LogicalErrorWithinTwiceMwpmBelowThreshold)
{
    GeneratorConfig cfg = configFor(3, 5e-3,
                                    ExtractionSchedule::AllAtOnce);
    McOptions mwpmOpts;
    mwpmOpts.trials = 1200;
    mwpmOpts.seed = 0x5eed;
    McOptions ufOpts = mwpmOpts;
    ufOpts.decoder = DecoderKind::UnionFind;

    LogicalErrorPoint a = estimateLogicalError(EmbeddingKind::Baseline2D,
                                               cfg, mwpmOpts);
    LogicalErrorPoint b = estimateLogicalError(EmbeddingKind::Baseline2D,
                                               cfg, ufOpts);
    EXPECT_GT(a.combinedRate(), 0.0);
    EXPECT_GT(b.combinedRate(), 0.0);
    // Acceptance bar: UF stays within 2x of MWPM below threshold (with
    // a small absolute slack for binomial noise at these trial counts).
    EXPECT_LE(b.combinedRate(), 2.0 * a.combinedRate() + 0.02)
        << "uf " << b.combinedRate() << " mwpm " << a.combinedRate();
}

// ---------------------------------------------------------------------------
// Erasure-aware decoding (zero-weight cluster seeding)
// ---------------------------------------------------------------------------

// chainGraph edge indices follow insertion order:
// 0 = (0,B) obs 1, 1 = (0,1) obs 0, 2 = (1,2) obs 2, 3 = (2,B) obs 0.

TEST(UnionFindErasureTest, ErasedEdgeSeedsClusterAtZeroWeight)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // Defects 0 and 1 with the 0-1 edge erased: the edge is pre-grown
    // to full support before any growth round, so the pair resolves
    // with zero rounds even though 0's boundary edge is cheaper.
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({0, 1}, 3), {1}, &info),
              0u);
    EXPECT_EQ(info.growthRounds, 0u);
}

TEST(UnionFindErasureTest, ErasedBoundaryEdgeIsAFreeExit)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // Lone defect at 0, its boundary edge erased: the defect leaves
    // through the free exit without growing at all.
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({0}, 3), {0}, &info), 1u);
    EXPECT_EQ(info.growthRounds, 0u);
    EXPECT_EQ(info.boundaryMatches, 1u);

    // Erasing an edge the syndrome never touches changes nothing.
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({0}, 3), {2}), 1u);
}

TEST(UnionFindErasureTest, ErasedBoundaryExitBeatsGlobalTable)
{
    // 1's own boundary edge is so unlikely (p = 0.001) that every
    // weighted path routes 1 -> 0 -> B (obs 4 ^ 1 = 5). Erasing the
    // 1-B edge must override that: the erased edge is free NOW, no
    // matter what the precomputed distance table says.
    DecodingGraph g(2);
    g.addContribution(0, g.boundaryNode(), 0.2, 1);  // edge 0
    g.addContribution(0, 1, 0.2, 4);                 // edge 1
    g.addContribution(1, g.boundaryNode(), 0.001, 2); // edge 2
    g.finalize();

    UnionFindDecoder uf(g, growthOnly());
    EXPECT_EQ(uf.decode(syndromeOf({1}, 2)), 5u);
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({1}, 2), {2}), 2u);
    // The exact-matching fast path must reach the same answer (it has
    // to be bypassed whenever erasures are present).
    UnionFindDecoder fast(g);
    EXPECT_EQ(fast.decodeErasedEdges(syndromeOf({1}, 2), {2}), 2u);
}

TEST(UnionFindErasureTest, ErasureOnlyShotsDecodeExactly)
{
    GeneratorConfig cfg = configFor(3, 5e-3,
                                    ExtractionSchedule::AllAtOnce);
    cfg.noise.erasure.fraction = 1.0;
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    ASSERT_GT(dem.numErasureSites(), 0u);
    UnionFindDecoder uf(dem);

    // Delfosse-Nickerson peeling is exact on erased supports: for every
    // outcome of every heralded channel, decoding its syndrome with the
    // herald raised recovers the exact observable flip.
    int checked = 0;
    for (const auto& ch : dem.channels()) {
        if (ch.erasureSite < 0)
            continue;
        BitVec erasures(dem.numErasureSites());
        erasures.set(static_cast<size_t>(ch.erasureSite), true);
        for (const auto& o : ch.outcomes) {
            if (o.detectors.empty())
                continue;
            BitVec det = syndromeOf(o.detectors, dem.numDetectors());
            EXPECT_EQ(uf.decodeWithErasures(det, erasures),
                      o.observables)
                << "op " << ch.opIndex << " site " << ch.erasureSite;
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(UnionFindErasureTest, BatchDecodeMatchesScalarWithErasures)
{
    GeneratorConfig cfg = configFor(3, 8e-3,
                                    ExtractionSchedule::AllAtOnce);
    cfg.noise.erasure.fraction = 0.6;
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    UnionFindDecoder uf(dem);

    const uint32_t shots = 96;
    Rng root(0xe7a5eb17);
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0,
                dem.numErasureSites());
    sampler.sampleBatchInto(root, batch);
    std::vector<uint32_t> predictions(shots);
    uf.decodeBatch(batch, predictions);

    // Erasure-mask propagation: decoding each shot's extracted
    // detector column with the heralds recorded in the batch's
    // transposed erasure rows must reproduce the batched predictions
    // shot for shot.
    BitVec det(dem.numDetectors());
    size_t heraldsSeen = 0;
    for (uint32_t s = 0; s < shots; ++s) {
        batch.extractShot(s, det);
        BitVec era(dem.numErasureSites());
        for (uint32_t site = 0; site < dem.numErasureSites(); ++site)
            if (batch.erased(s, site))
                era.set(site, true);
        heraldsSeen += era.popcount();
        EXPECT_EQ(predictions[s], uf.decodeWithErasures(det, era))
            << "shot " << s;
    }
    // The config is chosen so heralds actually fire in this batch.
    EXPECT_GT(heraldsSeen, 0u);

    // The scalar sampling path raises heralds too (the two paths draw
    // different streams but the same distribution).
    BitVec era(dem.numErasureSites());
    uint32_t obs = 0;
    size_t scalarHeralds = 0;
    for (uint32_t s = 0; s < shots; ++s) {
        Rng rng = root.split(s);
        sampler.sampleInto(rng, det, obs, era);
        scalarHeralds += era.popcount();
    }
    EXPECT_GT(scalarHeralds, 0u);
}

TEST(UnionFindErasureTest, HeraldedErasureLowersLogicalError)
{
    // Same total error budget, d = 5: converting every fault to
    // heralded erasure must beat the pure-Pauli rate (the decoder pays
    // nothing to span heralded faults). Deterministic under the fixed
    // seed.
    GeneratorConfig pauli = configFor(5, 5e-3,
                                      ExtractionSchedule::AllAtOnce);
    GeneratorConfig erased = pauli;
    erased.noise.erasure.fraction = 1.0;
    McOptions opts;
    opts.trials = 800;
    opts.seed = 0x5eed;
    opts.decoder = DecoderKind::UnionFind;
    double pauliRate = estimateLogicalError(EmbeddingKind::Baseline2D,
                                            pauli, opts)
                           .combinedRate();
    double erasedRate = estimateLogicalError(EmbeddingKind::Baseline2D,
                                             erased, opts)
                            .combinedRate();
    EXPECT_LT(erasedRate, pauliRate)
        << "erased " << erasedRate << " pauli " << pauliRate;
}

} // namespace
} // namespace vlq
