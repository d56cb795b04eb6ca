#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/generator_common.h"
#include "core/generator_registry.h"
#include "decoder/decoding_graph.h"
#include "decoder/shortest_path_rows.h"
#include "dem/detector_model.h"
#include "mc/memory_experiment.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace vlq {
namespace {

/**
 * The reference search: a binary-heap Dijkstra that settles nodes in
 * (distance, index) order and replaces a found path only with a
 * strictly shorter one. DecodingGraph::shortestPaths promises exactly
 * its rows, whichever queue it runs.
 */
void
referenceShortestPaths(const DecodingGraph& g, uint32_t src,
                       bool viaBoundary, std::vector<double>& dist,
                       std::vector<uint32_t>& obs)
{
    const DecodingGraph::SoA& soa = g.soa();
    dist.assign(g.numNodes(), std::numeric_limits<double>::infinity());
    obs.assign(g.numNodes(), 0u);
    dist[src] = 0.0;
    using QItem = std::pair<double, uint32_t>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> pq;
    pq.push({0.0, src});
    while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d > dist[v])
            continue;
        for (uint32_t si = soa.vertexBegin[v]; si < soa.vertexBegin[v + 1];
             ++si) {
            const uint32_t to = soa.slotOther[si];
            if (!viaBoundary && to == g.boundaryNode())
                continue;
            const uint32_t e = soa.slotEdge[si];
            const double nd = d + soa.edgeWeight[e];
            if (nd < dist[to]) {
                dist[to] = nd;
                obs[to] = obs[v] ^ soa.edgeObs[e];
                pq.push({nd, to});
            }
        }
    }
}

/**
 * Compare every row of `g` -- every source, both search modes -- with
 * the reference, distances bit for bit and masks exactly.
 */
void
expectRowsMatchReference(const DecodingGraph& g, const std::string& label)
{
    const uint32_t n = g.numNodes();
    std::vector<double> refDist;
    std::vector<uint32_t> refObs;
    std::vector<double> dist(n);
    std::vector<uint32_t> obs(n);
    uint64_t distMismatches = 0;
    uint64_t obsMismatches = 0;
    std::string first;
    for (const bool viaBoundary : {true, false}) {
        for (uint32_t src = 0; src < n; ++src) {
            referenceShortestPaths(g, src, viaBoundary, refDist, refObs);
            g.shortestPaths(src, viaBoundary, dist, obs);
            for (uint32_t t = 0; t < n; ++t) {
                const bool distDiffers =
                    std::bit_cast<uint64_t>(dist[t])
                    != std::bit_cast<uint64_t>(refDist[t]);
                const bool obsDiffers = obs[t] != refObs[t];
                distMismatches += distDiffers;
                obsMismatches += obsDiffers;
                if ((distDiffers || obsDiffers) && first.empty())
                    first = "src " + std::to_string(src) + " -> "
                        + std::to_string(t) + (viaBoundary ? "" : " (no "
                                                   "boundary paths)");
            }
        }
    }
    EXPECT_EQ(distMismatches, 0u) << label << ", first at " << first;
    EXPECT_EQ(obsMismatches, 0u) << label << ", first at " << first;
}

GeneratorConfig
pointConfig(int d, double p, ExtractionSchedule schedule, CheckBasis basis)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.memoryBasis = basis;
    cfg.schedule = schedule;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

DecodingGraph
graphFor(EmbeddingKind embedding, const GeneratorConfig& cfg)
{
    return DecodingGraph::build(DetectorErrorModel::build(
        generateMemoryCircuit(embedding, cfg).circuit));
}

std::string
pointLabel(EmbeddingKind embedding, const GeneratorConfig& cfg, double p)
{
    return std::string(embeddingKindName(embedding)) + " "
        + (cfg.schedule == ExtractionSchedule::Interleaved ? "interleaved"
                                                           : "all-at-once")
        + " d=" + std::to_string(cfg.distance) + " p=" + std::to_string(p)
        + " "
        + (cfg.memoryBasis == CheckBasis::X ? "X" : "Z");
}

/**
 * Fewest decoding-graph edges whose faults flip observable 0 without
 * firing a detector: a breadth-first search over (node, observable-0
 * parity) from the boundary at even parity to the boundary at odd
 * parity. -1 when no such path exists.
 */
int
circuitDistance(const DecodingGraph& g)
{
    const uint32_t boundary = g.boundaryNode();
    std::vector<int> depth(2 * size_t{g.numNodes()}, -1);
    std::vector<uint32_t> queue = {2 * boundary};
    depth[2 * boundary] = 0;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
        const uint32_t v = queue[qi] / 2;
        const uint32_t parity = queue[qi] % 2;
        for (const uint32_t e : g.incidentEdges(v)) {
            const uint32_t next = 2 * g.otherEndpoint(e, v)
                + (parity ^ (g.edges()[e].observables & 1u));
            if (depth[next] < 0) {
                depth[next] = depth[queue[qi]] + 1;
                queue.push_back(next);
            }
        }
    }
    return depth[2 * boundary + 1];
}

/**
 * Every registered embedding x schedule x basis at d 3/5/7 decodes on a
 * graph whose shortest undetectable logical error is the patch's
 * distance in the memory basis, as the backend's shape resolves it:
 * the column count for memory-X, the row count for memory-Z (d, except
 * compact-rect's default 3-column patch). Every fault outcome maps onto
 * the graph's edges without a forced pairing or an observable conflict.
 */
TEST(CircuitDistance, EveryRegisteredSetupHasItsPatchDistance)
{
    int cases = 0;
    for (const GeneratorBackend& backend : generatorRegistry()) {
        std::vector<ExtractionSchedule> schedules = {
            ExtractionSchedule::AllAtOnce};
        if (backend.virtualized)
            schedules.push_back(ExtractionSchedule::Interleaved);
        for (const ExtractionSchedule schedule : schedules)
            for (const CheckBasis basis : {CheckBasis::Z, CheckBasis::X})
                for (const int d : {3, 5, 7}) {
                    const GeneratorConfig cfg =
                        pointConfig(d, 3e-3, schedule, basis);
                    const DecodingGraph g = graphFor(backend.kind, cfg);
                    const auto [dx, dz] = backend.shape(d, 0, 0);
                    const std::string label =
                        pointLabel(backend.kind, cfg, 3e-3);
                    EXPECT_EQ(circuitDistance(g),
                              basis == CheckBasis::X ? dx : dz)
                        << label;
                    EXPECT_EQ(g.stats().forcedPairings, 0u) << label;
                    EXPECT_EQ(g.stats().observableConflicts, 0u) << label;
                    ++cases;
                }
    }
    EXPECT_EQ(cases, 42);
}

TEST(ShortestPaths, RowsMatchReferenceOnEveryEmbeddingAndBasis)
{
    for (const GeneratorBackend& backend : generatorRegistry()) {
        std::vector<ExtractionSchedule> schedules = {
            ExtractionSchedule::AllAtOnce};
        if (backend.virtualized)
            schedules.push_back(ExtractionSchedule::Interleaved);
        for (const ExtractionSchedule schedule : schedules)
            for (const int d : {3, 5})
                for (const double p : {3e-3, 2e-2})
                    for (const CheckBasis basis :
                         {CheckBasis::Z, CheckBasis::X}) {
                        const GeneratorConfig cfg =
                            pointConfig(d, p, schedule, basis);
                        expectRowsMatchReference(
                            graphFor(backend.kind, cfg),
                            pointLabel(backend.kind, cfg, p));
                    }
    }
}

TEST(ShortestPaths, RowsMatchReferenceAtDistanceSeven)
{
    const std::vector<EvaluationSetup> setups = paperSetups();
    for (const EvaluationSetup& setup : {setups[0], setups[4]}) {
        for (const CheckBasis basis : {CheckBasis::Z, CheckBasis::X}) {
            const GeneratorConfig cfg =
                pointConfig(7, 3e-3, setup.schedule, basis);
            expectRowsMatchReference(graphFor(setup.embedding, cfg),
                                     pointLabel(setup.embedding, cfg, 3e-3));
        }
    }
}

TEST(ShortestPaths, RowsMatchReferenceUnderErasureAndBias)
{
    const std::vector<EvaluationSetup> setups = paperSetups();
    for (const EvaluationSetup& setup : {setups[0], setups[4]}) {
        GeneratorConfig erased =
            pointConfig(5, 3e-3, setup.schedule, CheckBasis::Z);
        erased.noise.erasure.fraction = 0.5;
        erased.noise.erasure.heralded = true;
        expectRowsMatchReference(
            graphFor(setup.embedding, erased),
            pointLabel(setup.embedding, erased, 3e-3) + " erasure 0.5");

        GeneratorConfig biased =
            pointConfig(5, 3e-3, setup.schedule, CheckBasis::Z);
        biased.noise.bias.rZ = 10.0;
        expectRowsMatchReference(
            graphFor(setup.embedding, biased),
            pointLabel(setup.embedding, biased, 3e-3) + " rZ=10");
    }
}

TEST(ShortestPaths, RowsMatchReferenceWhenWeightsSpanTooWideForBuckets)
{
    // At p = 0.5 weightOf's clamp leaves edges of weight ~4e-6 next to
    // edges of weight ~2: far more bucket widths than the queue holds,
    // so the search takes its heap path.
    const GeneratorConfig cfg = pointConfig(
        5, 0.5, ExtractionSchedule::AllAtOnce, CheckBasis::Z);
    const DecodingGraph g = graphFor(EmbeddingKind::Baseline2D, cfg);
    double maxWeight = 0.0;
    for (const DecodingEdge& e : g.edges())
        maxWeight = std::max(maxWeight, e.weight);
    EXPECT_LT(g.minWeight(), 1e-5);
    EXPECT_GT(maxWeight / g.minWeight(), 1e5);
    expectRowsMatchReference(g,
                             pointLabel(EmbeddingKind::Baseline2D, cfg, 0.5));
}

/**
 * A hand-built 12 x 12 x 4 lattice: space-like edges between grid
 * neighbours, time-like edges between layers, boundary edges on the
 * two open sides, every edge with a random 2-bit mask. Uniform weights
 * tie almost every pair of paths, which is where the search's tie rule
 * decides the masks.
 */
DecodingGraph
uniformLattice(double spaceP, double timeP, uint64_t seed)
{
    constexpr uint32_t kSide = 12;
    constexpr uint32_t kLayers = 4;
    auto node = [](uint32_t x, uint32_t y, uint32_t t) {
        return (t * kSide + y) * kSide + x;
    };
    DecodingGraph g(kSide * kSide * kLayers);
    Rng rng(seed);
    auto edge = [&](uint32_t a, uint32_t b, double p) {
        g.addContribution(a, b, p, static_cast<uint32_t>(rng.nextBelow(4)));
    };
    for (uint32_t t = 0; t < kLayers; ++t) {
        for (uint32_t y = 0; y < kSide; ++y) {
            for (uint32_t x = 0; x < kSide; ++x) {
                const uint32_t v = node(x, y, t);
                if (x + 1 < kSide)
                    edge(v, node(x + 1, y, t), spaceP);
                if (y + 1 < kSide)
                    edge(v, node(x, y + 1, t), spaceP);
                if (t + 1 < kLayers)
                    edge(v, node(x, y, t + 1), timeP);
                if (x == 0 || x + 1 == kSide)
                    edge(v, g.boundaryNode(), spaceP);
            }
        }
    }
    g.finalize();
    return g;
}

TEST(ShortestPaths, RowsMatchReferenceOnUniformLattices)
{
    expectRowsMatchReference(uniformLattice(1e-2, 1e-2, 7),
                             "uniform lattice");
    expectRowsMatchReference(uniformLattice(1e-2, 1e-4, 8),
                             "uniform lattice, heavier time-like edges");
}

TEST(ShortestPaths, EdgelessGraphReachesOnlyTheSource)
{
    DecodingGraph g(4);
    g.finalize();
    EXPECT_EQ(g.minWeight(), 0.0);
    expectRowsMatchReference(g, "edgeless graph");
    std::vector<double> dist(g.numNodes());
    std::vector<uint32_t> obs(g.numNodes());
    g.shortestPaths(2, /*viaBoundary=*/true, dist, obs);
    for (uint32_t t = 0; t < g.numNodes(); ++t) {
        EXPECT_EQ(dist[t],
                  t == 2 ? 0.0 : std::numeric_limits<double>::infinity());
        EXPECT_EQ(obs[t], 0u);
    }
}

/**
 * Random request sequences through a row table over `g`, in both
 * search modes: each request asks a source from a small pool (so rows
 * are asked again) for one to four targets, each near the source (among
 * its 16 nearest nodes) or anywhere, the boundary included, ascending or
 * not. Every entry read must equal the reference bit for bit, and a
 * row's published extent may only grow. Returns the wider copies
 * published, so callers can check that extension ran.
 */
uint64_t
expectRowTableMatchesReference(const DecodingGraph& g,
                               const std::string& label, uint64_t seed)
{
    constexpr uint32_t kRequests = 200;
    const uint32_t n = g.numNodes();
    Rng rng(seed);
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const uint64_t extendedBefore =
        obs::snapshotMetrics().counter("rows.extended");
    for (const bool viaBoundary : {true, false}) {
        ShortestPathRows rows(n);
        std::vector<uint32_t> sources(std::min<uint32_t>(n, 12));
        for (uint32_t& src : sources)
            src = static_cast<uint32_t>(rng.nextBelow(n));
        std::vector<std::vector<double>> refDist(n);
        std::vector<std::vector<uint32_t>> refObs(n);
        std::vector<std::vector<uint32_t>> nearest(n);
        std::vector<uint32_t> lastSettled(n, 0);
        std::vector<uint32_t> targets;
        std::vector<double> dist;
        std::vector<uint32_t> obs;
        uint64_t mismatches = 0;
        uint64_t shrinks = 0;
        std::string first;
        auto search = [&](uint32_t src, std::span<const uint32_t> t,
                          uint32_t minSettled) {
            return g.settle(src, viaBoundary, t, minSettled);
        };
        for (uint32_t r = 0; r < kRequests; ++r) {
            const uint32_t src = sources[rng.nextBelow(sources.size())];
            if (refDist[src].empty()) {
                referenceShortestPaths(g, src, viaBoundary, refDist[src],
                                       refObs[src]);
                std::vector<uint32_t>& order = nearest[src];
                order.resize(n);
                for (uint32_t t = 0; t < n; ++t)
                    order[t] = t;
                std::stable_sort(order.begin(), order.end(),
                                 [&](uint32_t a, uint32_t b) {
                                     return refDist[src][a]
                                         < refDist[src][b];
                                 });
                order.resize(std::min<uint32_t>(n, 16));
            }
            targets.resize(1 + rng.nextBelow(4));
            for (uint32_t& t : targets)
                t = rng.nextBelow(2) == 0
                    ? nearest[src][rng.nextBelow(nearest[src].size())]
                    : static_cast<uint32_t>(rng.nextBelow(n));
            if (rng.nextBelow(2) == 0)
                std::sort(targets.begin(), targets.end());
            dist.assign(targets.size(), -1.0);
            obs.assign(targets.size(), ~0u);
            rows.get(src, targets, std::span<double>(dist),
                     std::span<uint32_t>(obs), search);
            for (size_t i = 0; i < targets.size(); ++i) {
                const uint32_t t = targets[i];
                const bool differs = std::bit_cast<uint64_t>(dist[i])
                        != std::bit_cast<uint64_t>(refDist[src][t])
                    || obs[i] != refObs[src][t];
                mismatches += differs;
                if (differs && first.empty())
                    first = "src " + std::to_string(src) + " -> "
                        + std::to_string(t)
                        + (viaBoundary ? "" : " (no boundary paths)");
            }
            shrinks += rows.settled(src) < lastSettled[src];
            lastSettled[src] = rows.settled(src);
        }
        EXPECT_EQ(mismatches, 0u) << label << ", first at " << first;
        EXPECT_EQ(shrinks, 0u) << label;
    }
    const uint64_t extensions =
        obs::snapshotMetrics().counter("rows.extended") - extendedBefore;
    obs::setMetricsEnabled(wasEnabled);
    return extensions;
}

TEST(RowTable, RandomRequestsMatchReferenceOnEveryEmbeddingAndBasis)
{
    uint64_t seed = 1;
    for (const GeneratorBackend& backend : generatorRegistry()) {
        std::vector<ExtractionSchedule> schedules = {
            ExtractionSchedule::AllAtOnce};
        if (backend.virtualized)
            schedules.push_back(ExtractionSchedule::Interleaved);
        for (const ExtractionSchedule schedule : schedules)
            for (const int d : {3, 5})
                for (const CheckBasis basis :
                     {CheckBasis::Z, CheckBasis::X}) {
                    const GeneratorConfig cfg =
                        pointConfig(d, 3e-3, schedule, basis);
                    expectRowTableMatchesReference(
                        graphFor(backend.kind, cfg),
                        pointLabel(backend.kind, cfg, 3e-3), seed++);
                }
    }
}

TEST(RowTable, RandomRequestsMatchReferenceAtDistancesSevenAndThirteen)
{
    const std::vector<EvaluationSetup> setups = paperSetups();
    uint64_t seed = 100;
    for (const EvaluationSetup& setup : {setups[0], setups[4]}) {
        for (const CheckBasis basis : {CheckBasis::Z, CheckBasis::X}) {
            const GeneratorConfig cfg =
                pointConfig(7, 3e-3, setup.schedule, basis);
            expectRowTableMatchesReference(
                graphFor(setup.embedding, cfg),
                pointLabel(setup.embedding, cfg, 3e-3), seed++);
        }
    }
    // Rows of a d=13 graph stay far from complete, so near and far
    // requests extend them.
    const GeneratorConfig large = pointConfig(
        13, 3e-3, ExtractionSchedule::AllAtOnce, CheckBasis::Z);
    EXPECT_GT(expectRowTableMatchesReference(
                  graphFor(EmbeddingKind::Baseline2D, large),
                  pointLabel(EmbeddingKind::Baseline2D, large, 3e-3),
                  seed),
              0u)
        << "no row was extended";
}

TEST(RowTable, RandomRequestsMatchReferenceOnHeapPathAndHandBuiltGraphs)
{
    const GeneratorConfig cfg = pointConfig(
        5, 0.5, ExtractionSchedule::AllAtOnce, CheckBasis::Z);
    expectRowTableMatchesReference(
        graphFor(EmbeddingKind::Baseline2D, cfg),
        pointLabel(EmbeddingKind::Baseline2D, cfg, 0.5) + " (heap path)",
        200);
    EXPECT_GT(expectRowTableMatchesReference(uniformLattice(1e-2, 1e-2, 7),
                                             "uniform lattice", 201),
              0u)
        << "no row was extended";
    expectRowTableMatchesReference(uniformLattice(1e-2, 1e-4, 8),
                                   "uniform lattice, heavier time-like "
                                   "edges",
                                   202);
    DecodingGraph edgeless(4);
    edgeless.finalize();
    expectRowTableMatchesReference(edgeless, "edgeless graph", 203);
}

/**
 * Two stops from one source, the way a row widens: a first search
 * stops at a target next to the source, and a second asks for twice
 * its nodes. Both settle whole buckets, so the first set lies inside
 * the second, every settled entry equals the heap reference bit for
 * bit, and the targets are settled. A search whose target lies
 * beyond half the graph runs to completion and reports exactly the
 * reachable nodes.
 */
TEST(RowTable, StopsFromOneSourceNestAndMatchTheReference)
{
    const GeneratorConfig cfg = pointConfig(
        13, 3e-3, ExtractionSchedule::AllAtOnce, CheckBasis::Z);
    const DecodingGraph g = graphFor(EmbeddingKind::Baseline2D, cfg);
    const uint32_t n = g.numNodes();
    const uint32_t src = n / 2;
    std::vector<double> refDist;
    std::vector<uint32_t> refObs;
    referenceShortestPaths(g, src, /*viaBoundary=*/true, refDist, refObs);
    std::vector<uint32_t> reachable;
    for (uint32_t t = 0; t < n; ++t)
        if (std::isfinite(refDist[t]))
            reachable.push_back(t);

    // The settled nodes in node order, each checked against the
    // reference (the spans die with the next search).
    auto settledNodes = [&](const DecodingGraph::Settled& s) {
        std::vector<uint32_t> nodes(s.nodes.begin(), s.nodes.end());
        for (const uint32_t t : nodes) {
            EXPECT_EQ(std::bit_cast<uint64_t>(s.dist[t]),
                      std::bit_cast<uint64_t>(refDist[t]))
                << t;
            EXPECT_EQ(s.obs[t], refObs[t]) << t;
        }
        std::sort(nodes.begin(), nodes.end());
        EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()),
                  nodes.end())
            << "a node settled twice";
        return nodes;
    };

    const uint32_t target = src + 1;
    const DecodingGraph::Settled first =
        g.settle(src, /*viaBoundary=*/true,
                 std::span<const uint32_t>(&target, 1), 0);
    ASSERT_FALSE(first.complete);
    const std::vector<uint32_t> near = settledNodes(first);
    EXPECT_TRUE(std::binary_search(near.begin(), near.end(), target));
    ASSERT_LT(4 * near.size(), n)
        << "the first stop leaves no room for a partial second one";

    const DecodingGraph::Settled second =
        g.settle(src, /*viaBoundary=*/true, {},
                 static_cast<uint32_t>(2 * near.size()));
    EXPECT_FALSE(second.complete);
    const std::vector<uint32_t> wide = settledNodes(second);
    EXPECT_GE(wide.size(), 2 * near.size());
    EXPECT_TRUE(std::includes(wide.begin(), wide.end(), near.begin(),
                              near.end()))
        << "the wider stop misses nodes the first one settled";

    // A target beyond half the graph: the search that settles it has
    // settled more than half, so it runs on to completion.
    std::vector<uint32_t> byDistance = reachable;
    std::stable_sort(byDistance.begin(), byDistance.end(),
                     [&](uint32_t a, uint32_t b) {
                         return refDist[a] < refDist[b];
                     });
    const size_t rank = 3 * byDistance.size() / 5;
    ASSERT_GT(2 * rank, n);
    const uint32_t far = byDistance[rank];
    const DecodingGraph::Settled whole = g.settle(
        src, /*viaBoundary=*/true, std::span<const uint32_t>(&far, 1), 0);
    EXPECT_TRUE(whole.complete);
    EXPECT_EQ(settledNodes(whole), reachable);
}

} // namespace
} // namespace vlq
