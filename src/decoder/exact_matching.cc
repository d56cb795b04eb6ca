#include "decoder/exact_matching.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace vlq {

namespace {

constexpr size_t kMaxDefects = 32; // one bit per defect in `used`

/** Depth-first pairing search; holds the incumbent between branches. */
struct PairingSearch
{
    size_t k;
    const double* pairW;
    const uint32_t* pairObs;
    const double* bndW;
    const uint32_t* bndObs;
    const double* defLB;
    double bestW = std::numeric_limits<double>::infinity();
    uint32_t bestObs = 0;
    uint32_t bestPairs = 0;
    uint32_t bestBnds = 0;

    void
    run(uint32_t used, double w, double lbRemaining, uint32_t o,
        uint32_t pairs, uint32_t bnds)
    {
        if (w + lbRemaining >= bestW)
            return;
        size_t i = 0;
        while (i < k && ((used >> i) & 1u))
            ++i;
        if (i == k) {
            bestW = w;
            bestObs = o;
            bestPairs = pairs;
            bestBnds = bnds;
            return;
        }
        uint32_t mi = used | (1u << i);
        if (std::isfinite(bndW[i]))
            run(mi, w + bndW[i], lbRemaining - defLB[i], o ^ bndObs[i],
                pairs, bnds + 1);
        for (size_t j = i + 1; j < k; ++j) {
            if ((used >> j) & 1u)
                continue;
            double wij = pairW[i * k + j];
            if (std::isfinite(wij))
                run(mi | (1u << j), w + wij,
                    lbRemaining - defLB[i] - defLB[j],
                    o ^ pairObs[i * k + j], pairs + 1, bnds);
        }
    }
};

} // namespace

ExactMatching
matchDefectsExact(std::span<const double> pairWeight,
                  std::span<const uint32_t> pairObs,
                  std::span<const double> boundaryWeight,
                  std::span<const uint32_t> boundaryObs)
{
    const size_t k = boundaryWeight.size();
    VLQ_ASSERT(k <= kMaxDefects, "exact matching limited to 32 defects");
    VLQ_ASSERT(pairWeight.size() >= k * k && pairObs.size() >= k * k
                   && boundaryObs.size() >= k,
               "exact matching tables smaller than k");
    const double* pairW = pairWeight.data();
    const double* bndW = boundaryWeight.data();

    // Per-defect floor: what the defect pays at least in any
    // completion (an infinite floor means it has no option at all, and
    // the search proves that without help from the bound).
    std::array<double, kMaxDefects> defLB{};
    for (size_t i = 0; i < k; ++i) {
        double floor_i = bndW[i];
        for (size_t j = 0; j < k; ++j)
            if (j != i)
                floor_i = std::min(floor_i, 0.5 * pairW[i * k + j]);
        defLB[i] = std::isfinite(floor_i) ? floor_i : 0.0;
    }

    PairingSearch search{k, pairW, pairObs.data(), bndW,
                         boundaryObs.data(), defLB.data()};
    // Greedy nearest-available incumbent. When its weight already
    // equals the optimum, keeping its answer is a legitimate
    // minimum-weight (degenerate) solution.
    if (k >= 5) {
        uint32_t gUsed = 0;
        double gW = 0.0;
        uint32_t gObs = 0;
        uint32_t gPairs = 0;
        uint32_t gBnds = 0;
        bool feasible = true;
        for (size_t i = 0; i < k; ++i) {
            if ((gUsed >> i) & 1u)
                continue;
            double best = bndW[i];
            int bj = -1;
            for (size_t j = i + 1; j < k; ++j)
                if (!((gUsed >> j) & 1u) && pairW[i * k + j] < best) {
                    best = pairW[i * k + j];
                    bj = static_cast<int>(j);
                }
            if (!std::isfinite(best)) {
                feasible = false;
                break;
            }
            gUsed |= 1u << i;
            if (bj >= 0) {
                gUsed |= 1u << bj;
                gObs ^= pairObs[i * k + static_cast<size_t>(bj)];
                ++gPairs;
            } else {
                gObs ^= boundaryObs[i];
                ++gBnds;
            }
            gW += best;
        }
        if (feasible) {
            search.bestW = gW;
            search.bestObs = gObs;
            search.bestPairs = gPairs;
            search.bestBnds = gBnds;
        }
    }

    double lb0 = 0.0;
    for (size_t i = 0; i < k; ++i)
        lb0 += defLB[i];
    search.run(0, 0.0, lb0, 0, 0, 0);

    ExactMatching result;
    if (std::isfinite(search.bestW)) {
        result.found = true;
        result.weight = search.bestW;
        result.observables = search.bestObs;
        result.pairs = search.bestPairs;
        result.boundaryMatches = search.bestBnds;
    }
    return result;
}

MatchingPaths::MatchingPaths(DecodingGraph graph)
    : graph_(std::move(graph)),
      boundaryDist_(graph_.numNodes()),
      boundaryObs_(graph_.numNodes()),
      rows_(graph_.numNodes())
{
    graph_.shortestPaths(graph_.boundaryNode(), /*viaBoundary=*/true,
                         boundaryDist_, boundaryObs_);
}

void
MatchingPaths::pairPaths(uint32_t src, std::span<const uint32_t> targets,
                         std::span<double> dist,
                         std::span<uint32_t> obs) const
{
    rows_.get(src, targets, dist, obs,
              [this](uint32_t s, std::span<const uint32_t> t,
                     uint32_t minSettled) {
                  return graph_.settle(s, /*viaBoundary=*/false, t,
                                       minSettled);
              });
}

ExactMatching
MatchingPaths::match(std::span<const uint32_t> defects) const
{
    constexpr size_t kMax = kExactMatchingMaxDefects;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const size_t k = defects.size();
    VLQ_ASSERT(k <= kMax, "MatchingPaths::match takes at most "
                          "kExactMatchingMaxDefects defects");
    // Lone defect: the boundary table's chain is the matching.
    if (k == 1) {
        const double b = boundaryDist_[defects[0]];
        if (!std::isfinite(b))
            return {};
        return {true, b, boundaryObs_[defects[0]], 0, 1};
    }
    // Defect pair: one compare, no tables.
    if (k == 2) {
        double w = kInf;
        uint32_t o = 0;
        pairPaths(defects[0], defects.subspan(1), std::span<double>(&w, 1),
                  std::span<uint32_t>(&o, 1));
        const double b = boundaryDist_[defects[0]] + boundaryDist_[defects[1]];
        if (w < b)
            return {true, w, o, 1, 0};
        if (!std::isfinite(b))
            return {};
        return {true, b,
                boundaryObs_[defects[0]] ^ boundaryObs_[defects[1]], 0, 2};
    }
    // The diagonal stays unset: matchDefectsExact never reads it.
    std::array<double, kMax * kMax> pairW;
    std::array<uint32_t, kMax * kMax> pairObs;
    std::array<double, kMax> bndW;
    std::array<uint32_t, kMax> bndObs;
    for (size_t i = 0; i < k; ++i) {
        bndW[i] = boundaryDist_[defects[i]];
        bndObs[i] = boundaryObs_[defects[i]];
    }
    for (size_t i = 0; i + 1 < k; ++i) {
        // Row i of the tables, right of the diagonal, then mirrored.
        const size_t row = i * k + i + 1;
        pairPaths(defects[i], defects.subspan(i + 1),
                  std::span<double>(pairW).subspan(row, k - i - 1),
                  std::span<uint32_t>(pairObs).subspan(row, k - i - 1));
        for (size_t j = i + 1; j < k; ++j) {
            pairW[j * k + i] = pairW[i * k + j];
            pairObs[j * k + i] = pairObs[i * k + j];
        }
    }
    return matchDefectsExact(
        std::span<const double>(pairW.data(), k * k),
        std::span<const uint32_t>(pairObs.data(), k * k),
        std::span<const double>(bndW.data(), k),
        std::span<const uint32_t>(bndObs.data(), k));
}

} // namespace vlq
