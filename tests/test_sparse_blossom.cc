#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "blossom_oracle.h"
#include "core/generator_common.h"
#include "core/generator_registry.h"
#include "decoder/decoding_graph.h"
#include "decoder/exact_matching.h"
#include "decoder/sparse_blossom.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/memory_experiment.h"
#include "pauli/bitvec.h"
#include "util/rng.h"

namespace vlq {
namespace {

constexpr int64_t kUnreachable = std::numeric_limits<int64_t>::max();

/**
 * Shortest paths from src in the matcher's integer metric, boundary
 * included, by a binary-heap Dijkstra: the weight and one path's mask
 * to every node.
 */
void
integerPaths(const DecodingGraph& g, uint32_t src, std::vector<int64_t>& dist,
             std::vector<uint32_t>& obs)
{
    const DecodingGraph::SoA& soa = g.soa();
    dist.assign(g.numNodes(), kUnreachable);
    obs.assign(g.numNodes(), 0u);
    dist[src] = 0;
    using QItem = std::pair<int64_t, uint32_t>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> pq;
    pq.push({0, src});
    while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d > dist[v])
            continue;
        for (uint32_t si = soa.vertexBegin[v]; si < soa.vertexBegin[v + 1];
             ++si) {
            const uint32_t to = soa.slotOther[si];
            const uint32_t e = soa.slotEdge[si];
            const int64_t nd =
                d + SparseBlossom::integerWeight(soa.edgeWeight[e]);
            if (nd < dist[to]) {
                dist[to] = nd;
                obs[to] = obs[v] ^ soa.edgeObs[e];
                pq.push({nd, to});
            }
        }
    }
}

/** Integer shortest paths between a syndrome's events and the boundary. */
struct Metric
{
    std::vector<uint32_t> events;
    std::vector<std::vector<int64_t>> dist; // per event, every node
    std::vector<std::vector<uint32_t>> obs;
    uint32_t boundary = 0;

    Metric(const DecodingGraph& g, std::vector<uint32_t> ev)
        : events(std::move(ev)), dist(events.size()), obs(events.size()),
          boundary(g.boundaryNode())
    {
        for (size_t i = 0; i < events.size(); ++i)
            integerPaths(g, events[i], dist[i], obs[i]);
    }

    size_t index(uint32_t event) const
    {
        return static_cast<size_t>(
            std::lower_bound(events.begin(), events.end(), event)
            - events.begin());
    }
};

/** A matching's total integer weight and mask; found=false if none. */
struct Answer
{
    bool found = false;
    int64_t weight = 0;
    uint32_t observables = 0;
};

/**
 * The dense oracle: minimum-weight perfect matching of the events over
 * the integer metric, each event with a private boundary copy (copies
 * joined at zero weight), solved by the uniform-start Galil solver on
 * complemented weights. A weight D enters as D / 2^21, which the
 * solver's 2 llround(w 2^20) scaling maps back to D exactly, so the
 * oracle optimizes the matcher's own integer objective.
 */
Answer
denseOracle(const Metric& metric)
{
    const int m = static_cast<int>(metric.events.size());
    constexpr double kUnit = 1.0 / double{1 << 21};
    std::vector<MatchEdge> edges;
    for (int i = 0; i < m; ++i) {
        const auto& row = metric.dist[static_cast<size_t>(i)];
        for (int j = i + 1; j < m; ++j) {
            const int64_t d = row[metric.events[static_cast<size_t>(j)]];
            if (d != kUnreachable)
                edges.push_back(
                    MatchEdge{i, j, static_cast<double>(d) * kUnit});
        }
        const int64_t db = row[metric.boundary];
        if (db != kUnreachable)
            edges.push_back(
                MatchEdge{i, m + i, static_cast<double>(db) * kUnit});
        for (int j = i + 1; j < m; ++j)
            edges.push_back(MatchEdge{m + i, m + j, 0.0});
    }
    double maxw = 0.0;
    for (const MatchEdge& e : edges)
        maxw = std::max(maxw, e.weight);
    for (MatchEdge& e : edges)
        e.weight = maxw + 1.0 - e.weight;
    const std::vector<int> mate = maxWeightMatching(2 * m, edges, true);
    Answer ref;
    ref.found = true;
    for (int i = 0; i < m; ++i) {
        const int j = mate[static_cast<size_t>(i)];
        const auto& row = metric.dist[static_cast<size_t>(i)];
        const auto& obs = metric.obs[static_cast<size_t>(i)];
        if (j < 0) {
            ref.found = false;
        } else if (j == m + i) {
            ref.weight += row[metric.boundary];
            ref.observables ^= obs[metric.boundary];
        } else if (j > i && j < m) {
            const uint32_t ej = metric.events[static_cast<size_t>(j)];
            ref.weight += row[ej];
            ref.observables ^= obs[ej];
        } else if (j >= m) {
            ref.found = false; // matched to another event's boundary copy
        }
    }
    return ref;
}

/** Tallies of one instance family. */
struct Tally
{
    int instances = 0;
    int ties = 0; // equal weight, different mask
    size_t maxEvents = 0;
};

/**
 * The matcher against the oracle on one syndrome: every event matched
 * once, every pair's path a shortest path, the total weight equal to
 * the oracle's, and the returned mask the pairs' XOR. A mask that
 * differs from the oracle's is an equal-weight tie.
 */
void
expectOptimal(const DecodingGraph& g, const SparseBlossom& matcher,
              std::vector<uint32_t> events, const std::string& label,
              Tally& tally)
{
    const Metric metric(g, std::move(events));
    const Answer ref = denseOracle(metric);
    ASSERT_TRUE(ref.found) << label;
    std::vector<SparseBlossom::MatchedPair> pairs;
    const uint32_t got = matcher.match(metric.events, &pairs);

    std::vector<int> seen(metric.events.size(), 0);
    int64_t total = 0;
    uint32_t mask = 0;
    for (const SparseBlossom::MatchedPair& p : pairs) {
        const size_t ia = metric.index(p.a);
        ASSERT_LT(ia, metric.events.size()) << label;
        ++seen[ia];
        if (p.b != metric.boundary)
            ++seen[metric.index(p.b)];
        const int64_t d = metric.dist[ia][p.b];
        EXPECT_EQ(p.weight, d) << label << ": pair " << p.a << "-" << p.b
                               << " takes a path longer than the shortest";
        total += p.weight;
        mask ^= p.observables;
    }
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << label << ": event " << metric.events[i];
    EXPECT_EQ(mask, got) << label;
    EXPECT_EQ(total, ref.weight) << label << ": " << metric.events.size()
                                 << " events";
    ++tally.instances;
    tally.maxEvents = std::max(tally.maxEvents, metric.events.size());
    if (got != ref.observables)
        ++tally.ties;
}

void
report(const char* family, const Tally& tally)
{
    std::printf("%s: %d instances, up to %zu events, %d equal-weight "
                "ties with a different mask\n",
                family, tally.instances, tally.maxEvents, tally.ties);
}

/**
 * A hand-built rows x cols x layers lattice: grid edges in each layer,
 * time-like edges between layers, and a diagonal per cell, so odd
 * cycles (and with them blossoms) are everywhere. `sides` of the four
 * sides (left, right, top, bottom) carry boundary edges. Each edge
 * gets a random 2-bit mask. uniform: every edge at one probability,
 * so nearly every pair of matchings ties; otherwise probabilities are
 * log-uniform over [1e-3, 1e-1].
 */
DecodingGraph
lattice(uint32_t rows, uint32_t cols, uint32_t layers, int sides,
        bool uniform, Rng& rng)
{
    auto node = [&](uint32_t r, uint32_t c, uint32_t t) {
        return (t * rows + r) * cols + c;
    };
    DecodingGraph g(rows * cols * layers);
    auto edge = [&](uint32_t a, uint32_t b) {
        const double p =
            uniform ? 1e-2 : std::pow(10.0, -1.0 - 2.0 * rng.nextDouble());
        g.addContribution(a, b, p, static_cast<uint32_t>(rng.nextBelow(4)));
    };
    for (uint32_t t = 0; t < layers; ++t) {
        for (uint32_t r = 0; r < rows; ++r) {
            for (uint32_t c = 0; c < cols; ++c) {
                const uint32_t v = node(r, c, t);
                if (c + 1 < cols)
                    edge(v, node(r, c + 1, t));
                if (r + 1 < rows)
                    edge(v, node(r + 1, c, t));
                if (r + 1 < rows && c + 1 < cols)
                    edge(v, node(r + 1, c + 1, t));
                if (t + 1 < layers)
                    edge(v, node(r, c, t + 1));
                const bool onSide = (sides > 0 && c == 0)
                    || (sides > 1 && c + 1 == cols)
                    || (sides > 2 && r == 0) || (sides > 3 && r + 1 == rows);
                if (onSide)
                    edge(v, g.boundaryNode());
            }
        }
    }
    g.finalize();
    return g;
}

/** `k` distinct detectors of g, ascending. */
std::vector<uint32_t>
randomEvents(const DecodingGraph& g, size_t k, Rng& rng)
{
    std::vector<uint32_t> all(g.numDetectors());
    for (uint32_t i = 0; i < all.size(); ++i)
        all[i] = i;
    for (size_t i = 0; i < k; ++i)
        std::swap(all[i], all[i + rng.nextBelow(all.size() - i)]);
    all.resize(k);
    std::sort(all.begin(), all.end());
    return all;
}

void
checkLattices(bool uniform, uint64_t seed, const char* family)
{
    Rng rng(seed);
    Tally tally;
    for (int trial = 0; trial < 60; ++trial) {
        const int sides = trial % 5; // 0: no boundary at all
        const DecodingGraph g = lattice(8, 8, 3, sides, uniform, rng);
        const SparseBlossom matcher(g);
        size_t k = 11 + rng.nextBelow(70);
        if (sides == 0)
            k &= ~size_t{1}; // a closed lattice needs an even count
        expectOptimal(g, matcher, randomEvents(g, k, rng),
                      std::string(family) + " trial "
                          + std::to_string(trial),
                      tally);
    }
    report(family, tally);
    EXPECT_EQ(tally.instances, 60);
}

TEST(SparseBlossomOracle, MatchesDenseSolverOnRandomWeightLattices)
{
    checkLattices(false, 0x5b1, "random-weight lattices");
}

TEST(SparseBlossomOracle, MatchesDenseSolverOnUniformWeightLattices)
{
    checkLattices(true, 0x5b2, "uniform-weight lattices");
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

/**
 * Sampled shots of one circuit with more than `minEvents` events (the
 * shots MwpmDecoder sends to the matcher), up to `wanted` of them from
 * at most 16 batches of 512 samples, each checked against the oracle.
 * Returns how many were checked.
 */
int
checkSampledShots(EmbeddingKind embedding, const GeneratorConfig& cfg,
                  size_t minEvents, int wanted, uint64_t seed, Tally& tally)
{
    const DetectorErrorModel dem = DetectorErrorModel::build(
        generateMemoryCircuit(embedding, cfg).circuit);
    const DecodingGraph g = DecodingGraph::build(dem);
    const SparseBlossom matcher(g);
    const FaultSampler sampler(dem);
    constexpr uint32_t kShots = 512;
    ShotBatch batch;
    const std::string label = std::string(embeddingKindName(embedding))
        + (cfg.schedule == ExtractionSchedule::Interleaved ? " interleaved"
                                                           : "")
        + " d=" + std::to_string(cfg.distance)
        + (cfg.memoryBasis == CheckBasis::X ? " X" : " Z");
    BitVec det(dem.numDetectors());
    int checked = 0;
    for (uint64_t b = 0; b < 16 && checked < wanted; ++b) {
        batch.reset(dem.numDetectors(), dem.numObservables(), kShots,
                    b * kShots, dem.numErasureSites());
        sampler.sampleBatchInto(Rng(seed), batch);
        for (uint32_t s = 0; s < kShots && checked < wanted; ++s) {
            batch.extractShot(s, det);
            std::vector<uint32_t> events = det.onesIndices();
            if (events.size() <= minEvents)
                continue;
            expectOptimal(g, matcher, std::move(events),
                          label + " trial "
                              + std::to_string(b * kShots + s),
                          tally);
            ++checked;
        }
    }
    return checked;
}

TEST(SparseBlossomOracle, MatchesDenseSolverOnSampledShotsOfEveryEmbedding)
{
    Tally tally;
    uint64_t seed = 0xb1055;
    for (const GeneratorBackend& backend : generatorRegistry()) {
        std::vector<ExtractionSchedule> schedules = {
            ExtractionSchedule::AllAtOnce};
        if (backend.virtualized)
            schedules.push_back(ExtractionSchedule::Interleaved);
        for (const ExtractionSchedule schedule : schedules) {
            for (const int d : {3, 5, 7}) {
                for (const CheckBasis basis :
                     {CheckBasis::Z, CheckBasis::X}) {
                    int checked = 0;
                    for (const double p : {8e-3, 1.5e-2})
                        checked += checkSampledShots(
                            backend.kind, pointConfig(d, p, schedule, basis),
                            kExactMatchingMaxDefects, 6, ++seed, tally);
                    EXPECT_GT(checked, 0)
                        << backend.name << " d=" << d << " has no shot of "
                        << "more than " << kExactMatchingMaxDefects
                        << " events";
                }
            }
        }
    }
    report("sampled shots, d 3/5/7", tally);
}

TEST(SparseBlossomOracle, MatchesDenseSolverAtLargeDistance)
{
    Tally tally;
    uint64_t seed = 0xb1d;
    const std::vector<EvaluationSetup> setups = paperSetups();
    for (const size_t setup : {size_t{0}, size_t{4}})
        for (const int d : {9, 11, 13})
            for (const CheckBasis basis : {CheckBasis::Z, CheckBasis::X})
                EXPECT_EQ(checkSampledShots(setups[setup].embedding,
                                            pointConfig(d, 8e-3,
                                                        setups[setup].schedule,
                                                        basis),
                                            kExactMatchingMaxDefects, 2,
                                            ++seed, tally),
                          2);
    report("sampled shots, d 9/11/13", tally);
}

TEST(SparseBlossomOracle, MatchesDenseSolverWhenWeightsNearlyVanish)
{
    // At p = 0.5 weightOf's clamp leaves edges of weight ~4e-6, which
    // discretize to 8 units, next to edges of ~2e6 units.
    Tally tally;
    EXPECT_EQ(checkSampledShots(EmbeddingKind::Baseline2D,
                                pointConfig(5, 0.5,
                                            ExtractionSchedule::AllAtOnce,
                                            CheckBasis::Z),
                                kExactMatchingMaxDefects, 20, 0x5e, tally),
              20);
    report("d=5 p=0.5", tally);
}

TEST(SparseBlossomOracle, OddComponentWithoutBoundaryPanics)
{
    // Nodes 0-1-2 form a path with no boundary edge; nodes 3-4 have one.
    DecodingGraph g(5);
    g.addContribution(0, 1, 1e-2, 0);
    g.addContribution(1, 2, 1e-2, 0);
    g.addContribution(3, 4, 1e-2, 0);
    g.addContribution(4, g.boundaryNode(), 1e-2, 1);
    g.finalize();
    const SparseBlossom matcher(g);
    EXPECT_EQ(matcher.match(std::vector<uint32_t>{0, 2}), 0u);
    EXPECT_EQ(matcher.match(std::vector<uint32_t>{3}), 1u);
    EXPECT_DEATH(matcher.match(std::vector<uint32_t>{0, 1, 2}),
                 "no perfect matching");
}

TEST(SparseBlossomOracle, EmptySyndromeMatchesNothing)
{
    DecodingGraph g(2);
    g.addContribution(0, 1, 1e-2, 1);
    g.finalize();
    std::vector<SparseBlossom::MatchedPair> pairs;
    EXPECT_EQ(SparseBlossom(g).match({}, &pairs), 0u);
    EXPECT_TRUE(pairs.empty());
}

} // namespace
} // namespace vlq
