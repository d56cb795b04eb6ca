#include "distance_oracle.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "blossom_oracle.h"

namespace vlq {

DenseDistances::DenseDistances(const DecodingGraph& graph)
    : boundary_(graph.boundaryNode())
{
    const size_t n = graph.numNodes();
    dist_.resize(n * n);
    obs_.resize(n * n);
    for (uint32_t a = 0; a < n; ++a)
        graph.shortestPaths(a, /*viaBoundary=*/true,
                            std::span<double>(dist_).subspan(a * n, n),
                            std::span<uint32_t>(obs_).subspan(a * n, n));
}

namespace {

void
enumerateFrom(const DenseDistances& d, const std::vector<uint32_t>& events,
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
    if (std::isfinite(d.boundaryDistance(events[i])))
        enumerateFrom(d, events, used,
                      {partial.weight + d.boundaryDistance(events[i]),
                       partial.observables
                           ^ d.boundaryObservables(events[i])},
                      out);
    for (size_t j = i + 1; j < events.size(); ++j) {
        const double w = d.distance(events[i], events[j]);
        if (used[j] || !std::isfinite(w))
            continue;
        used[j] = true;
        enumerateFrom(d, events, used,
                      {partial.weight + w,
                       partial.observables
                           ^ d.pathObservables(events[i], events[j])},
                      out);
        used[j] = false;
    }
    used[i] = false;
}

} // namespace

std::vector<MatchingAnswer>
enumerateMatchings(const DenseDistances& d,
                   const std::vector<uint32_t>& events)
{
    std::vector<MatchingAnswer> out;
    std::vector<bool> used(events.size(), false);
    enumerateFrom(d, events, used, {}, out);
    return out;
}

MatchingAnswer
blossomReference(const DenseDistances& d,
                 const std::vector<uint32_t>& events)
{
    const int m = static_cast<int>(events.size());
    std::vector<MatchEdge> edges;
    for (int i = 0; i < m; ++i) {
        const uint32_t ei = events[static_cast<size_t>(i)];
        for (int j = i + 1; j < m; ++j) {
            double w = d.distance(ei, events[static_cast<size_t>(j)]);
            if (std::isfinite(w))
                edges.push_back(MatchEdge{i, j, w});
        }
        if (std::isfinite(d.boundaryDistance(ei)))
            edges.push_back(MatchEdge{i, m + i, d.boundaryDistance(ei)});
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
            ref.weight += d.boundaryDistance(ei);
            ref.observables ^= d.boundaryObservables(ei);
        } else if (j > i && j < m) {
            const uint32_t ej = events[static_cast<size_t>(j)];
            ref.weight += d.distance(ei, ej);
            ref.observables ^= d.pathObservables(ei, ej);
        }
    }
    return ref;
}

void
expectPairsNoDearerThanBoundary(const DenseDistances& d)
{
    for (uint32_t a = 0; a < d.numDetectors(); ++a) {
        for (uint32_t b = 0; b < d.numDetectors(); ++b)
            EXPECT_LE(d.distance(a, b), d.boundaryDistance(a)
                                            + d.boundaryDistance(b) + 1e-9)
                << a << "-" << b;
    }
}

::testing::AssertionResult
ufPredictionIsMinWeight(uint32_t ufObs, const std::vector<uint32_t>& events,
                        const DenseDistances& d, double relTol)
{
    const std::vector<MatchingAnswer> matchings =
        enumerateMatchings(d, events);
    if (matchings.empty())
        return ::testing::AssertionFailure() << "no pairing exists";
    double best = matchings[0].weight;
    for (const MatchingAnswer& a : matchings)
        best = std::min(best, a.weight);
    double bestForUf = -1.0;
    for (const MatchingAnswer& a : matchings)
        if (a.observables == ufObs && (bestForUf < 0.0 || a.weight < bestForUf))
            bestForUf = a.weight;
    if (bestForUf < 0.0)
        return ::testing::AssertionFailure()
            << "no pairing yields uf obs " << ufObs;
    if (bestForUf > best * (1.0 + relTol) + 1e-9)
        return ::testing::AssertionFailure()
            << "uf obs " << ufObs << " costs " << bestForUf
            << " but optimum costs " << best;
    return ::testing::AssertionSuccess();
}

} // namespace vlq
