#include "decoder/decoding_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "util/logging.h"

namespace vlq {

namespace {

/**
 * Most buckets the search's circular queue may hold. A graph whose
 * weights span more than this many bucket widths (p near 1/2, where
 * weights approach 0) is searched with the heap instead.
 */
constexpr double kMaxBuckets = 1024.0;

/** An empty slot of the edge table. */
constexpr uint32_t kNoEdge = std::numeric_limits<uint32_t>::max();

/** Independent-flip combination of two probabilities. */
double
combineP(double a, double b)
{
    return a + b - 2.0 * a * b;
}

double
weightOf(double p)
{
    double clamped = std::min(std::max(p, 1e-14), 0.499999);
    return std::log((1.0 - clamped) / clamped);
}

uint64_t
pairKey(uint32_t a, uint32_t b)
{
    return (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

template <typename T>
void
sortUnique(std::vector<T>& v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

} // namespace

DecodingGraph::DecodingGraph(uint32_t numDetectors)
    : numDetectors_(numDetectors)
{
}

size_t
DecodingGraph::edgeSlot(uint32_t a, uint32_t b) const
{
    const size_t mask = edgeTable_.size() - 1;
    size_t i = static_cast<size_t>(
                   (pairKey(a, b) * 0x9e3779b97f4a7c15ULL) >> 32)
        & mask;
    for (;; i = (i + 1) & mask) {
        const uint32_t e = edgeTable_[i];
        if (e == kNoEdge || (edges_[e].a == a && edges_[e].b == b))
            return i;
    }
}

void
DecodingGraph::reserveEdges(size_t n)
{
    edges_.reserve(n);
    bestContribution_.reserve(n);
    const size_t size = std::bit_ceil(std::max<size_t>(2 * n, 16));
    if (size <= edgeTable_.size())
        return;
    edgeTable_.assign(size, kNoEdge);
    for (uint32_t e = 0; e < edges_.size(); ++e)
        edgeTable_[edgeSlot(edges_[e].a, edges_[e].b)] = e;
}

int32_t
DecodingGraph::findEdge(uint32_t a, uint32_t b) const
{
    if (a > b)
        std::swap(a, b);
    if (edgeTable_.empty())
        return -1;
    const uint32_t e = edgeTable_[edgeSlot(a, b)];
    return e == kNoEdge ? -1 : static_cast<int32_t>(e);
}

uint32_t
DecodingGraph::edgeIndexFor(uint32_t a, uint32_t b)
{
    if (2 * (edges_.size() + 1) > edgeTable_.size())
        reserveEdges(2 * edges_.size() + 1);
    uint32_t& slot = edgeTable_[edgeSlot(a, b)];
    if (slot == kNoEdge) {
        slot = static_cast<uint32_t>(edges_.size());
        DecodingEdge e;
        e.a = a;
        e.b = b;
        edges_.push_back(e);
        bestContribution_.push_back(0.0);
    }
    return slot;
}

void
DecodingGraph::addContribution(uint32_t a, uint32_t b, double probability,
                               uint32_t observables)
{
    if (a > b)
        std::swap(a, b);
    uint32_t idx = edgeIndexFor(a, b);
    DecodingEdge& e = edges_[idx];
    e.probability = combineP(e.probability, probability);
    if (probability > bestContribution_[idx]) {
        if (bestContribution_[idx] > 0.0 && e.observables != observables)
            ++stats_.observableConflicts;
        e.observables = observables;
        bestContribution_[idx] = probability;
    } else if (e.observables != observables) {
        ++stats_.observableConflicts;
    }
}

void
DecodingGraph::finalize()
{
    // Weights, then a counting sort of edge endpoints into CSR slots:
    // each node lists its edges in ascending index order.
    const uint32_t n = numNodes();
    const uint32_t m = static_cast<uint32_t>(edges_.size());
    minWeight_ = 0.0;
    double maxWeight = 0.0;
    soa_.vertexBegin.assign(n + 1, 0);
    for (DecodingEdge& e : edges_) {
        e.weight = weightOf(e.probability);
        if (minWeight_ == 0.0 || e.weight < minWeight_)
            minWeight_ = e.weight;
        maxWeight = std::max(maxWeight, e.weight);
        ++soa_.vertexBegin[e.a + 1];
        if (e.b != e.a)
            ++soa_.vertexBegin[e.b + 1];
    }
    for (uint32_t v = 0; v < n; ++v)
        soa_.vertexBegin[v + 1] += soa_.vertexBegin[v];
    soa_.slotEdge.resize(soa_.vertexBegin[n]);
    soa_.slotOther.resize(soa_.vertexBegin[n]);
    std::vector<uint32_t> next(soa_.vertexBegin.begin(),
                               soa_.vertexBegin.end() - 1);
    soa_.edgeA.resize(m);
    soa_.edgeB.resize(m);
    soa_.edgeWeight.resize(m);
    soa_.edgeObs.resize(m);
    for (uint32_t i = 0; i < m; ++i) {
        const DecodingEdge& e = edges_[i];
        soa_.slotEdge[next[e.a]] = i;
        soa_.slotOther[next[e.a]++] = e.b;
        if (e.b != e.a) {
            soa_.slotEdge[next[e.b]] = i;
            soa_.slotOther[next[e.b]++] = e.a;
        }
        soa_.edgeA[i] = e.a;
        soa_.edgeB[i] = e.b;
        soa_.edgeWeight[i] = e.weight;
        soa_.edgeObs[i] = e.observables;
    }

    // The search's bucket queue. A bucket narrower than the lightest
    // edge never receives a relaxation from a node in it or before it,
    // so every node in the bucket the search reaches is settled; the
    // 1e-9 margin keeps that true after rounding. Relaxations from the
    // bucket being settled land at most floor(maxWeight / width) + 1
    // buckets ahead, so that many plus the current one, and one more
    // for rounding, form the circle. An edgeless graph never relaxes,
    // so any width serves it.
    bucketWidth_ = minWeight_ > 0.0 ? minWeight_ * (1.0 - 1e-9) : 1.0;
    const double needed = std::floor(maxWeight / bucketWidth_) + 3.0;
    bucketMask_ = needed <= kMaxBuckets
        ? std::bit_ceil(static_cast<uint32_t>(needed)) - 1
        : 0;
}

namespace {

/** slot[] of a settled node: matches no bucket, so its entries read stale. */
constexpr uint32_t kSettledSlot = std::numeric_limits<uint32_t>::max();

/**
 * One thread's search state, reused by every search it runs on any
 * graph. `dist` is infinite everywhere except at the nodes the last
 * search reached, which the next search resets through `reached`, so
 * a search costs what it reaches, not the size of the graph.
 */
struct SearchScratch
{
    std::vector<double> dist;
    std::vector<uint32_t> obs;
    std::vector<uint32_t> pred;     // the neighbour whose path set obs[t]
    std::vector<uint32_t> slot;     // slot of a reached node's live entry
    std::vector<uint8_t> target;    // targets not settled yet
    std::vector<uint32_t> reached;  // nodes with a finite dist
    std::vector<uint32_t> settled;  // in settle order
    std::vector<std::vector<uint32_t>> buckets; // the circle, by slot

    /** Forget the last search and size the arrays for `n` nodes. */
    void begin(uint32_t n)
    {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        for (const uint32_t t : reached)
            dist[t] = kInf;
        reached.clear();
        settled.clear();
        if (dist.size() < n) {
            dist.resize(n, kInf);
            obs.resize(n);
            pred.resize(n);
            slot.resize(n);
            target.resize(n, 0);
        }
    }
};

} // namespace

void
DecodingGraph::shortestPaths(uint32_t src, bool viaBoundary,
                             std::span<double> dist,
                             std::span<uint32_t> obs) const
{
    const Settled s = settle(src, viaBoundary, {},
                             std::numeric_limits<uint32_t>::max());
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<double>::infinity());
    std::fill(obs.begin(), obs.end(), 0u);
    for (const uint32_t t : s.nodes) {
        dist[t] = s.dist[t];
        obs[t] = s.obs[t];
    }
}

DecodingGraph::Settled
DecodingGraph::settle(uint32_t src, bool viaBoundary,
                      std::span<const uint32_t> targets,
                      uint32_t minSettled) const
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    thread_local SearchScratch s;
    const uint32_t n = numNodes();
    const uint32_t boundary = boundaryNode();
    s.begin(n);
    s.dist[src] = 0.0;
    s.obs[src] = 0;
    s.reached.push_back(src);

    if (bucketMask_ == 0) {
        // Dijkstra with a binary heap, always to completion: nodes
        // settle in (distance, index) order, the contract's reference
        // order.
        using QItem = std::pair<double, uint32_t>;
        std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>>
            pq;
        pq.push({0.0, src});
        while (!pq.empty()) {
            const auto [d, v] = pq.top();
            pq.pop();
            if (d > s.dist[v])
                continue; // stale entry: v settled at a shorter distance
            s.settled.push_back(v);
            for (uint32_t si = soa_.vertexBegin[v];
                 si < soa_.vertexBegin[v + 1]; ++si) {
                const uint32_t to = soa_.slotOther[si];
                if (!viaBoundary && to == boundary)
                    continue;
                const uint32_t e = soa_.slotEdge[si];
                const double nd = d + soa_.edgeWeight[e];
                if (nd < s.dist[to]) {
                    if (s.dist[to] == kInf)
                        s.reached.push_back(to);
                    s.dist[to] = nd;
                    s.obs[to] = s.obs[v] ^ soa_.edgeObs[e];
                    pq.push({nd, to});
                }
            }
        }
    } else {
        // Bucket k holds the nodes reached at distances in [k, k + 1)
        // widths; bucket k lives in slot k & mask. A node that improves
        // into an earlier bucket leaves a stale entry behind,
        // recognised by its slot no longer matching; a settled node's
        // slot matches none. Nodes of one bucket settle in any order,
        // so ties follow the contract's rule explicitly: an equal sum
        // takes over obs[t] only from a neighbour earlier in
        // (distance, index) order than the one that set it. Such a
        // neighbour sits in an earlier bucket than t, so t is still
        // unsettled whenever the rule applies.
        const uint64_t mask = bucketMask_;
        const double invWidth = 1.0 / bucketWidth_;
        if (s.buckets.size() <= mask)
            s.buckets.resize(mask + 1);
        size_t pending = 0;
        auto enqueue = [&](uint32_t t, uint64_t b) {
            s.buckets[b & mask].push_back(t);
            s.slot[t] = static_cast<uint32_t>(b & mask);
            ++pending;
        };
        enqueue(src, 0);
        uint32_t waiting = 0; // distinct targets not settled yet
        for (const uint32_t t : targets) {
            if (s.target[t] == 0) {
                s.target[t] = 1;
                ++waiting;
            }
        }
        for (uint64_t k = 0; pending > 0; ++k) {
            std::vector<uint32_t>& bucket = s.buckets[k & mask];
            // Nothing lands in the bucket being settled (asserted
            // below), so it does not grow while it is walked.
            for (const uint32_t u : bucket) {
                if (s.slot[u] != (k & mask))
                    continue; // stale: u settled in an earlier bucket
                s.slot[u] = kSettledSlot;
                s.settled.push_back(u);
                waiting -= s.target[u];
                s.target[u] = 0;
                const double du = s.dist[u];
                const uint32_t ou = s.obs[u];
                for (uint32_t si = soa_.vertexBegin[u];
                     si < soa_.vertexBegin[u + 1]; ++si) {
                    const uint32_t t = soa_.slotOther[si];
                    if (!viaBoundary && t == boundary)
                        continue;
                    const uint32_t e = soa_.slotEdge[si];
                    const double nd = du + soa_.edgeWeight[e];
                    if (nd < s.dist[t]) {
                        const uint64_t b =
                            static_cast<uint64_t>(nd * invWidth);
                        VLQ_ASSERT(b > k && b - k <= mask,
                                   "settle: a relaxation left the "
                                   "bucket queue's window");
                        const bool first = s.dist[t] == kInf;
                        if (first)
                            s.reached.push_back(t);
                        if (first || s.slot[t] != (b & mask))
                            enqueue(t, b);
                        s.dist[t] = nd;
                        s.obs[t] = ou ^ soa_.edgeObs[e];
                        s.pred[t] = u;
                    } else if (nd == s.dist[t]) {
                        const uint32_t p = s.pred[t];
                        if (du < s.dist[p] || (du == s.dist[p] && u < p)) {
                            s.obs[t] = ou ^ soa_.edgeObs[e];
                            s.pred[t] = u;
                        }
                    }
                }
            }
            pending -= bucket.size();
            bucket.clear();
            // The stop rule: buckets up to k are settled, so every
            // node in them is final (see the contract). A search past
            // half the graph finishes it for at most what it spent.
            const size_t total = s.settled.size();
            if (waiting == 0 && total >= minSettled && 2 * total < n)
                break;
        }
        if (pending > 0) {
            for (std::vector<uint32_t>& bucket : s.buckets)
                bucket.clear();
        }
        for (const uint32_t t : targets)
            s.target[t] = 0; // targets the search never reached
    }

    // Stale entries can outlive the stop, so completeness is read off
    // the reached nodes, not off the queue.
    return Settled{s.settled, std::span<const double>(s.dist.data(), n),
                   std::span<const uint32_t>(s.obs.data(), n),
                   s.settled.size() == s.reached.size()};
}

DecodingGraph
DecodingGraph::build(const DetectorErrorModel& dem)
{
    DecodingGraph g(dem.numDetectors());
    const uint32_t boundary = g.boundaryNode();
    // A circuit-level surface-code graph has about five edges per
    // detector (5.2 at d=13); more only grows the table.
    g.reserveEdges(8 * size_t{g.numNodes()});

    // Pass 1, only when some outcome flips more than two detectors (the
    // model records its widest as it is built): note the pairs/boundary
    // hits that known fault outcomes produce, as sorted arrays, so
    // those correlated outcomes can be decomposed into edges the graph
    // already understands.
    std::vector<uint64_t> knownPairs; // (a << 32) | b, a < b
    std::vector<uint32_t> knownBoundary;
    if (dem.maxOutcomeDetectors() > 2) {
        for (const FaultOutcome& o : dem.outcomes()) {
            if (o.detectors.size() == 1)
                knownBoundary.push_back(o.detectors[0]);
            else if (o.detectors.size() == 2)
                knownPairs.push_back(pairKey(o.detectors[0],
                                             o.detectors[1]));
        }
        sortUnique(knownPairs);
        sortUnique(knownBoundary);
    }
    auto isKnownPair = [&](uint32_t a, uint32_t b) {
        return std::binary_search(knownPairs.begin(), knownPairs.end(),
                                  pairKey(a, b));
    };

    // Pass 2: accumulate every outcome into edges. Outcomes of ONE
    // channel are mutually exclusive, so same-signature outcomes within
    // a channel sum exactly (e.g. the X and Y branches of a depolarizing
    // event often land on the same edge); only the per-channel
    // aggregates combine with the independent-flip XOR rule
    // p = p1(1-p2) + p2(1-p1) in addContribution. Feeding exclusive
    // outcomes through the XOR rule undercounts -- measurably so in
    // high-p sweeps.
    struct ExclusivePiece
    {
        uint32_t a;
        uint32_t b;
        double probability; // exclusive sum over the channel
        double best;        // largest single contribution
        uint32_t observables;
    };
    std::vector<ExclusivePiece> pieces1and2;
    std::vector<uint32_t> rest;
    std::vector<std::pair<uint32_t, uint32_t>> pieces;
    for (const auto& ch : dem.channels()) {
        pieces1and2.clear();
        auto accumulate = [&](uint32_t a, uint32_t b, double p,
                              uint32_t obs) {
            if (a > b)
                std::swap(a, b);
            for (auto& piece : pieces1and2) {
                if (piece.a == a && piece.b == b) {
                    piece.probability += p;
                    if (p > piece.best) {
                        piece.best = p;
                        piece.observables = obs;
                    }
                    return;
                }
            }
            pieces1and2.push_back(ExclusivePiece{a, b, p, p, obs});
        };
        for (const auto& o : ch.outcomes) {
            if (o.detectors.empty()) {
                continue; // pure observable flips are undetectable
            } else if (o.detectors.size() == 1) {
                accumulate(o.detectors[0], boundary, o.probability,
                           o.observables);
            } else if (o.detectors.size() == 2) {
                accumulate(o.detectors[0], o.detectors[1],
                           o.probability, o.observables);
            } else {
                // Decompose into known pairs; leftovers pair arbitrarily.
                rest.assign(o.detectors.begin(), o.detectors.end());
                pieces.clear();
                bool usedKnown = false;
                for (size_t i = 0; i < rest.size();) {
                    bool found = false;
                    for (size_t j = i + 1; j < rest.size(); ++j) {
                        if (isKnownPair(rest[i], rest[j])) {
                            pieces.push_back({std::min(rest[i], rest[j]),
                                              std::max(rest[i], rest[j])});
                            rest.erase(rest.begin()
                                       + static_cast<long>(j));
                            rest.erase(rest.begin()
                                       + static_cast<long>(i));
                            found = true;
                            usedKnown = true;
                            break;
                        }
                    }
                    if (!found)
                        ++i;
                }
                // Leftovers: pair consecutively, odd one to boundary.
                // Any arbitrary pair or unknown boundary hit forces.
                bool forced = false;
                for (size_t i = 0; i + 1 < rest.size(); i += 2) {
                    pieces.push_back({std::min(rest[i], rest[i + 1]),
                                      std::max(rest[i], rest[i + 1])});
                    forced = true;
                }
                if (rest.size() % 2 == 1) {
                    pieces.push_back({rest.back(), boundary});
                    if (!std::binary_search(knownBoundary.begin(),
                                            knownBoundary.end(),
                                            rest.back()))
                        forced = true;
                }
                if (forced)
                    ++g.stats_.forcedPairings;
                else if (usedKnown)
                    ++g.stats_.decomposed;
                // Attribute the observable mask to the first piece.
                for (size_t i = 0; i < pieces.size(); ++i) {
                    g.addContribution(pieces[i].first, pieces[i].second,
                                      o.probability,
                                      i == 0 ? o.observables : 0);
                }
            }
        }
        for (const auto& piece : pieces1and2)
            g.addContribution(piece.a, piece.b, piece.probability,
                              piece.observables);
    }

    g.finalize();
    return g;
}

} // namespace vlq
