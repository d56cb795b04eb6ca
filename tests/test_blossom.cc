#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blossom_oracle.h"
#include "decoder/exact_matching.h"
#include "util/rng.h"

namespace vlq {
namespace {

/** Brute-force maximum-weight matching by recursion (n <= 10). */
struct BruteForce
{
    int n;
    std::vector<std::vector<double>> w;
    std::vector<std::vector<bool>> has;

    BruteForce(int n_, const std::vector<MatchEdge>& edges)
        : n(n_), w(static_cast<size_t>(n_),
                   std::vector<double>(static_cast<size_t>(n_), 0.0)),
          has(static_cast<size_t>(n_),
              std::vector<bool>(static_cast<size_t>(n_), false))
    {
        for (const auto& e : edges) {
            w[static_cast<size_t>(e.u)][static_cast<size_t>(e.v)] =
                e.weight;
            w[static_cast<size_t>(e.v)][static_cast<size_t>(e.u)] =
                e.weight;
            has[static_cast<size_t>(e.u)][static_cast<size_t>(e.v)] = true;
            has[static_cast<size_t>(e.v)][static_cast<size_t>(e.u)] = true;
        }
    }

    /** Best (cardinality, weight), lexicographic if maxCard. */
    std::pair<int, double>
    best(std::vector<bool>& used, bool maxCard) const
    {
        int first = -1;
        for (int v = 0; v < n; ++v) {
            if (!used[static_cast<size_t>(v)]) {
                first = v;
                break;
            }
        }
        if (first < 0)
            return {0, 0.0};
        used[static_cast<size_t>(first)] = true;
        // Option: leave `first` unmatched.
        auto bestResult = best(used, maxCard);
        for (int v = first + 1; v < n; ++v) {
            if (used[static_cast<size_t>(v)] ||
                !has[static_cast<size_t>(first)][static_cast<size_t>(v)])
                continue;
            used[static_cast<size_t>(v)] = true;
            auto sub = best(used, maxCard);
            std::pair<int, double> cand{
                sub.first + 1,
                sub.second +
                    w[static_cast<size_t>(first)][static_cast<size_t>(v)]};
            used[static_cast<size_t>(v)] = false;
            bool better;
            if (maxCard) {
                better = cand.first > bestResult.first ||
                         (cand.first == bestResult.first &&
                          cand.second > bestResult.second + 1e-9);
            } else {
                better = cand.second > bestResult.second + 1e-9;
            }
            if (better)
                bestResult = cand;
        }
        used[static_cast<size_t>(first)] = false;
        return bestResult;
    }
};

double
matchingWeight(const std::vector<int>& mate,
               const std::vector<MatchEdge>& edges, int* cardinality)
{
    double total = 0.0;
    int card = 0;
    for (const auto& e : edges) {
        if (mate[static_cast<size_t>(e.u)] == e.v) {
            total += e.weight;
            ++card;
        }
    }
    if (cardinality)
        *cardinality = card;
    return total;
}

TEST(Blossom, SingleEdge)
{
    std::vector<MatchEdge> edges{{0, 1, 5.0}};
    auto mate = maxWeightMatching(2, edges, false);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[1], 0);
}

TEST(Blossom, PrefersHeavyEdge)
{
    // Path 0-1-2: only one edge can match; takes the heavier.
    std::vector<MatchEdge> edges{{0, 1, 1.0}, {1, 2, 3.0}};
    auto mate = maxWeightMatching(3, edges, false);
    EXPECT_EQ(mate[1], 2);
    EXPECT_EQ(mate[0], -1);
}

TEST(Blossom, MaxCardinalityOverridesWeight)
{
    // Path 0-1(10)-2(1)-3(10): pure weight would take a single heavy
    // edge plus one other; max cardinality must take {0-1, 2-3}.
    std::vector<MatchEdge> edges{{0, 1, 10.0}, {1, 2, 11.0}, {2, 3, 10.0}};
    auto mate = maxWeightMatching(4, edges, true);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[2], 3);
}

TEST(Blossom, TriangleBlossom)
{
    // Odd cycle forces blossom machinery.
    std::vector<MatchEdge> edges{
        {0, 1, 6.0}, {1, 2, 6.0}, {0, 2, 6.0}, {2, 3, 5.0}};
    auto mate = maxWeightMatching(4, edges, false);
    EXPECT_EQ(mate[2], 3);
    // 0 or 1 matched together.
    EXPECT_EQ(mate[0], 1);
}

TEST(Blossom, NestedBlossomExample)
{
    // Classic networkx test: nested S-blossom, relabeled and expanded.
    std::vector<MatchEdge> edges{
        {1, 2, 19}, {1, 3, 20}, {1, 8, 8}, {2, 3, 25}, {2, 4, 18},
        {3, 5, 18}, {4, 5, 13}, {4, 7, 7}, {5, 6, 7}};
    // Shift to 0-based.
    for (auto& e : edges) {
        --e.u;
        --e.v;
    }
    auto mate = maxWeightMatching(8, edges, false);
    // Expected (1-based): {1:8, 2:3, 4:7, 5:6} from networkx test suite.
    EXPECT_EQ(mate[0], 7);
    EXPECT_EQ(mate[1], 2);
    EXPECT_EQ(mate[3], 6);
    EXPECT_EQ(mate[4], 5);
}

TEST(Blossom, SBlossomRelabelExpand)
{
    // networkx: create S-blossom, relabel as T, expand.
    std::vector<MatchEdge> edges{
        {1, 2, 23}, {1, 5, 22}, {1, 6, 15}, {2, 3, 25},
        {3, 4, 22}, {4, 5, 25}, {4, 8, 14}, {5, 7, 13}};
    for (auto& e : edges) {
        --e.u;
        --e.v;
    }
    auto mate = maxWeightMatching(8, edges, false);
    // Expected: {1:6, 2:3, 4:8, 5:7} (1-based).
    EXPECT_EQ(mate[0], 5);
    EXPECT_EQ(mate[1], 2);
    EXPECT_EQ(mate[3], 7);
    EXPECT_EQ(mate[4], 6);
}

TEST(Blossom, TBlossomAugmenting)
{
    // networkx: create blossom, relabel as T in more than one way,
    // expand, augment.
    std::vector<MatchEdge> edges{
        {1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50},
        {1, 6, 30}, {3, 9, 35}, {4, 8, 35}, {5, 7, 26}, {9, 10, 5}};
    for (auto& e : edges) {
        --e.u;
        --e.v;
    }
    auto mate = maxWeightMatching(10, edges, false);
    // Expected: {1:6, 2:3, 4:8, 5:7, 9:10}.
    EXPECT_EQ(mate[0], 5);
    EXPECT_EQ(mate[1], 2);
    EXPECT_EQ(mate[3], 7);
    EXPECT_EQ(mate[4], 6);
    EXPECT_EQ(mate[8], 9);
}

TEST(MinWeightPerfect, SimpleSquare)
{
    // Square 0-1-2-3 with cheap opposite pairs.
    std::vector<MatchEdge> edges{
        {0, 1, 1.0}, {1, 2, 9.0}, {2, 3, 1.0}, {3, 0, 9.0},
        {0, 2, 10.0}, {1, 3, 10.0}};
    auto mate = minWeightPerfectMatching(4, edges);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[2], 3);
}

TEST(MinWeightPerfect, RejectsImpossible)
{
    std::vector<MatchEdge> edges{{0, 1, 1.0}};
    EXPECT_DEATH(minWeightPerfectMatching(4, edges), "perfect");
}

class BlossomRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BlossomRandom, MatchesBruteForceWeight)
{
    Rng rng(GetParam());
    int perfect = 0;
    for (int trial = 0; trial < 40; ++trial) {
        int n = 4 + static_cast<int>(rng.nextBelow(5)); // 4..8
        std::vector<MatchEdge> edges;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (rng.nextDouble() < 0.6) {
                    double w =
                        std::round(rng.nextDouble() * 20.0) / 2.0;
                    edges.push_back(MatchEdge{u, v, w});
                }
            }
        }
        if (edges.empty())
            continue;
        for (bool maxCard : {false, true}) {
            auto mate = maxWeightMatching(n, edges, maxCard);
            int card = 0;
            double got = matchingWeight(mate, edges, &card);
            BruteForce bf(n, edges);
            std::vector<bool> used(static_cast<size_t>(n), false);
            auto [bestCard, bestW] = bf.best(used, maxCard);
            if (maxCard) {
                EXPECT_EQ(card, bestCard)
                    << "n=" << n << " trial=" << trial;
                EXPECT_NEAR(got, bestW, 1e-6)
                    << "n=" << n << " trial=" << trial;
            } else {
                EXPECT_NEAR(got, bestW, 1e-6)
                    << "n=" << n << " trial=" << trial;
            }
        }

        // The warm-started perfect matcher against the brute-force
        // minimum, found as the heaviest max-cardinality matching on
        // complemented weights.
        double maxw = 0.0;
        for (const auto& e : edges)
            maxw = std::max(maxw, e.weight);
        std::vector<MatchEdge> complemented = edges;
        for (auto& e : complemented)
            e.weight = maxw + 1.0 - e.weight;
        BruteForce bf(n, complemented);
        std::vector<bool> used(static_cast<size_t>(n), false);
        auto [bestCard, bestC] = bf.best(used, true);
        if (2 * bestCard != n)
            continue;
        ++perfect;
        auto mate = minWeightPerfectMatching(n, edges);
        int card = 0;
        double got = matchingWeight(mate, edges, &card);
        EXPECT_EQ(2 * card, n) << "n=" << n << " trial=" << trial;
        EXPECT_NEAR(got, bestCard * (maxw + 1.0) - bestC, 1e-6)
            << "n=" << n << " trial=" << trial;
    }
    EXPECT_GT(perfect, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomRandom,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808, 909, 1010));

/**
 * The warm start is exact on complete graphs of decoder scale: half-
 * integer weights make many equal-weight matchings, so greedy passes
 * see many tight edges, and the weight must still equal the uniform
 * start's on the same complemented problem.
 */
TEST(MinWeightPerfect, WarmStartMatchesUniformStartOnTiedCompleteGraphs)
{
    Rng rng(0x3a7b10);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 20 + 2 * static_cast<int>(rng.nextBelow(31));
        std::vector<MatchEdge> edges;
        double maxw = 0.0;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                const double w = std::round(rng.nextDouble() * 20.0) / 2.0;
                edges.push_back(MatchEdge{u, v, w});
                maxw = std::max(maxw, w);
            }
        }
        std::vector<MatchEdge> complemented = edges;
        for (auto& e : complemented)
            e.weight = maxw + 1.0 - e.weight;

        int warmCard = 0;
        int coldCard = 0;
        const double warm =
            matchingWeight(minWeightPerfectMatching(n, edges), edges,
                           &warmCard);
        const double cold = matchingWeight(
            maxWeightMatching(n, complemented, true), edges, &coldCard);
        ASSERT_EQ(2 * warmCard, n) << "trial " << trial;
        ASSERT_EQ(2 * coldCard, n) << "trial " << trial;
        EXPECT_NEAR(warm, cold, 1e-6) << "trial " << trial << " n=" << n;
    }
}

TEST(Blossom, ZeroWeightEdgesMatchUnderMaxCardinality)
{
    // The decoder tests' boundary-copy reference relies on zero-weight
    // boundary-boundary edges being usable under max cardinality.
    std::vector<MatchEdge> edges{
        {0, 1, 4.0}, {2, 3, 0.0}, {0, 2, 0.0}, {1, 3, 0.0}};
    auto mate = maxWeightMatching(4, edges, true);
    for (int v = 0; v < 4; ++v)
        EXPECT_GE(mate[static_cast<size_t>(v)], 0);
}

TEST(Blossom, TiedWeightsDeterministic)
{
    std::vector<MatchEdge> edges{
        {0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0}, {3, 0, 2.0}};
    auto a = maxWeightMatching(4, edges, true);
    auto b = maxWeightMatching(4, edges, true);
    EXPECT_EQ(a, b);
    int card = 0;
    matchingWeight(a, edges, &card);
    EXPECT_EQ(card, 2);
}

TEST(Blossom, FractionalWeightsExact)
{
    // Weights quantized at 2^-20; nearby values must still order
    // correctly.
    std::vector<MatchEdge> edges{{0, 1, 1.0000, }, {1, 2, 1.0001}};
    auto mate = maxWeightMatching(3, edges, false);
    EXPECT_EQ(mate[1], 2);
}

TEST(Blossom, EmptyGraph)
{
    auto mate = maxWeightMatching(3, {}, false);
    for (int v = 0; v < 3; ++v)
        EXPECT_EQ(mate[static_cast<size_t>(v)], -1);
}

TEST(MinWeightPerfect, PrefersCheapPerfectOverGreedyChoice)
{
    // Greedy would grab the 0.1 edge and strand the rest expensively;
    // exact matching takes the globally cheapest perfect matching.
    std::vector<MatchEdge> edges{
        {0, 1, 0.1}, {0, 2, 1.0}, {1, 3, 1.0}, {2, 3, 10.0},
        {0, 3, 10.0}, {1, 2, 10.0}};
    auto mate = minWeightPerfectMatching(4, edges);
    EXPECT_EQ(mate[0], 2);
    EXPECT_EQ(mate[1], 3);
}

TEST(Blossom, LargeCompleteGraphRuns)
{
    // Smoke test at decoder-relevant scale.
    Rng rng(12345);
    const int n = 60;
    std::vector<MatchEdge> edges;
    for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
            edges.push_back(MatchEdge{u, v, rng.nextDouble() * 10.0});
    auto mate = maxWeightMatching(n, edges, true);
    for (int v = 0; v < n; ++v)
        EXPECT_GE(mate[static_cast<size_t>(v)], 0);
}

/**
 * Every matching of a k-defect instance (each defect paired or sent to
 * the boundary over finite entries), as (weight, observable mask).
 */
void
enumerateDefectMatchings(size_t k, const std::vector<double>& pairW,
                         const std::vector<uint32_t>& pairObs,
                         const std::vector<double>& bndW,
                         const std::vector<uint32_t>& bndObs,
                         std::vector<bool>& used, double w, uint32_t obs,
                         std::vector<std::pair<double, uint32_t>>& out)
{
    size_t i = 0;
    while (i < k && used[i])
        ++i;
    if (i == k) {
        out.push_back({w, obs});
        return;
    }
    used[i] = true;
    if (std::isfinite(bndW[i]))
        enumerateDefectMatchings(k, pairW, pairObs, bndW, bndObs, used,
                                 w + bndW[i], obs ^ bndObs[i], out);
    for (size_t j = i + 1; j < k; ++j) {
        if (used[j] || !std::isfinite(pairW[i * k + j]))
            continue;
        used[j] = true;
        enumerateDefectMatchings(k, pairW, pairObs, bndW, bndObs, used,
                                 w + pairW[i * k + j],
                                 obs ^ pairObs[i * k + j], out);
        used[j] = false;
    }
    used[i] = false;
}

/**
 * The decoders' shared exact matcher against brute force. A k-defect
 * instance is a maximum-weight matching on k vertices: pairing i with
 * j gains bnd_i + bnd_j - w_ij over sending both to the boundary. A
 * forbidden boundary entry costs a huge finite weight there, so an
 * instance with no finite matching shows up as a brute-force optimum
 * that pays it.
 */
TEST(ExactMatching, MatchesBruteForceOnRandomInstances)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kForbidden = 1e6;
    Rng rng(0xe8ac7);
    int feasible = 0;
    int infeasible = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const size_t k = 1 + static_cast<size_t>(trial % 10);
        // Half-integer weights make equal-weight matchings common;
        // every third instance forbids about half of its entries.
        const double pForbid = trial % 3 == 0 ? 0.5 : 0.1;
        auto weight = [&] {
            return rng.nextDouble() < pForbid
                ? kInf
                : std::round(rng.nextDouble() * 20.0) / 2.0;
        };
        std::vector<double> pairW(k * k, kInf);
        std::vector<uint32_t> pairObs(k * k, 0);
        std::vector<double> bndW(k);
        std::vector<uint32_t> bndObs(k);
        for (size_t i = 0; i < k; ++i) {
            bndW[i] = weight();
            bndObs[i] = static_cast<uint32_t>(rng.nextBelow(256));
            for (size_t j = i + 1; j < k; ++j) {
                pairW[i * k + j] = pairW[j * k + i] = weight();
                pairObs[i * k + j] = pairObs[j * k + i] =
                    static_cast<uint32_t>(rng.nextBelow(256));
            }
        }
        ExactMatching got =
            matchDefectsExact(pairW, pairObs, bndW, bndObs);

        std::vector<double> bndCost(k);
        double allBoundary = 0.0;
        for (size_t i = 0; i < k; ++i) {
            bndCost[i] = std::isfinite(bndW[i]) ? bndW[i] : kForbidden;
            allBoundary += bndCost[i];
        }
        std::vector<MatchEdge> gains;
        for (size_t i = 0; i < k; ++i)
            for (size_t j = i + 1; j < k; ++j)
                if (std::isfinite(pairW[i * k + j]))
                    gains.push_back(MatchEdge{
                        static_cast<int>(i), static_cast<int>(j),
                        bndCost[i] + bndCost[j] - pairW[i * k + j]});
        BruteForce bf(static_cast<int>(k), gains);
        std::vector<bool> used(k, false);
        const double best = allBoundary - bf.best(used, false).second;

        if (best >= kForbidden / 2) {
            ++infeasible;
            EXPECT_FALSE(got.found) << "trial " << trial << " k=" << k;
            continue;
        }
        ++feasible;
        ASSERT_TRUE(got.found) << "trial " << trial << " k=" << k;
        EXPECT_NEAR(got.weight, best, 1e-9)
            << "trial " << trial << " k=" << k;
        EXPECT_EQ(2 * got.pairs + got.boundaryMatches, k);
        // The mask must be that of some minimum-weight matching.
        std::vector<std::pair<double, uint32_t>> all;
        std::vector<bool> mark(k, false);
        enumerateDefectMatchings(k, pairW, pairObs, bndW, bndObs, mark,
                                 0.0, 0, all);
        bool fromMinimum = false;
        for (const auto& [w, o] : all)
            fromMinimum |= o == got.observables && w <= best + 1e-9;
        EXPECT_TRUE(fromMinimum) << "trial " << trial << " k=" << k
                                 << " mask " << got.observables;
    }
    EXPECT_GT(feasible, 400);
    EXPECT_GT(infeasible, 10);
}

TEST(ExactMatching, TiesPreferTheBoundary)
{
    // Pairing the two defects costs exactly what two boundary chains
    // cost; the solver branches boundary-first and keeps the first
    // optimum it finds.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> pairW{kInf, 2.0, 2.0, kInf};
    std::vector<uint32_t> pairObs{0, 1, 1, 0};
    std::vector<double> bndW{1.0, 1.0};
    std::vector<uint32_t> bndObs{2, 4};
    ExactMatching m = matchDefectsExact(pairW, pairObs, bndW, bndObs);
    ASSERT_TRUE(m.found);
    EXPECT_EQ(m.weight, 2.0);
    EXPECT_EQ(m.observables, 6u);
    EXPECT_EQ(m.boundaryMatches, 2u);
    EXPECT_EQ(m.pairs, 0u);
}

} // namespace
} // namespace vlq
