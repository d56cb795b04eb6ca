#include "decoder/union_find.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

namespace {

/**
 * Per-thread workspace. Sized to the graph on first contact (vectors
 * keep their capacity between shots, so steady-state decoding does not
 * allocate) and shared safely across decoder instances because decode()
 * never yields mid-use.
 *
 * Stamps (stamp, claimStamp) compare against a monotonically increasing
 * per-thread counter instead of being cleared per shot, so the
 * exact-matching fast path touches only O(events) scratch state per
 * shot. Only the growth path pays the full per-shot reset of the
 * cluster arenas.
 */
struct Scratch
{
    // Cluster state, indexed by node; parity/btouch are valid at roots.
    std::vector<uint32_t> parent;
    std::vector<uint8_t> parity;
    std::vector<uint8_t> btouch;
    std::vector<uint8_t> absorbed;
    std::vector<uint8_t> defect;
    std::vector<std::vector<uint32_t>> frontier;
    std::vector<uint64_t> stamp;
    std::vector<uint32_t> active;
    std::vector<uint32_t> nextActive;

    // Edge growth state, consolidated into one 16-byte record so the
    // latency-bound frontier scan pays one cache line per edge visit
    // instead of five (support/grown/stamp/mult/capacity lived in
    // separate arrays before; the claim loop was ~5x slower for it).
    // `claimStamp` doubles as a lazy per-shot reset: any stamp older
    // than the shot's base stamp means support/grown are stale and
    // read as zero, so no O(numEdges) clear runs per shot.
    struct EdgeState
    {
        uint64_t claimStamp = 0;
        uint16_t support = 0;
        uint16_t capacity = 0; // copied per decoder epoch
        uint8_t mult = 0;
        uint8_t grown = 0;
        uint8_t pad[2] = {0, 0};
    };
    std::vector<EdgeState> edge;
    std::vector<uint32_t> grownList;
    std::vector<uint32_t> roundEdges;
    std::vector<uint32_t> mergeQueue;
    // Erasure state: per-edge flag (set/cleared per shot through the
    // erased list) and the (vertex, edge) pairs of erased
    // boundary-incident edges -- a cluster holding one has a free
    // boundary exit for its leftover defect.
    std::vector<uint8_t> erasedEdge;
    std::vector<std::pair<uint32_t, uint32_t>> erasedBoundary;

    // Peeling state.
    std::vector<std::vector<uint32_t>> clusterDefects; // by root
    std::vector<std::vector<uint32_t>> clusterEdges;   // by root
    std::vector<uint32_t> roots;
    // Large-cluster forest peel; `visited` is restored through `order`.
    std::vector<uint8_t> visited;
    std::vector<std::vector<uint32_t>> treeAdj; // by vertex
    std::vector<uint32_t> bfsVerts;
    std::vector<uint32_t> order;
    std::vector<uint32_t> parentEdge;
    uint64_t counter = 0; // stamp source; never reset
    uint64_t epoch = 0;   // decoder whose capacities `edge` carries

    /** Size arrays for a graph; clears nothing (fast-path entry). */
    void ensure(uint32_t numNodes, uint32_t numEdges,
                uint64_t decoderEpoch,
                const std::vector<uint16_t>& capacity)
    {
        if (parent.size() < numNodes) {
            size_t old = parent.size();
            parent.resize(numNodes);
            for (size_t i = old; i < numNodes; ++i)
                parent[i] = static_cast<uint32_t>(i);
            parity.resize(numNodes, 0);
            btouch.resize(numNodes, 0);
            absorbed.resize(numNodes, 0);
            defect.resize(numNodes, 0);
            frontier.resize(numNodes);
            stamp.resize(numNodes, 0);
            clusterDefects.resize(numNodes);
            clusterEdges.resize(numNodes);
            treeAdj.resize(numNodes);
            parentEdge.resize(numNodes);
            visited.resize(numNodes, 0);
        }
        if (edge.size() < numEdges) {
            edge.resize(numEdges);
            erasedEdge.resize(numEdges, 0);
        }
        if (epoch != decoderEpoch) {
            epoch = decoderEpoch;
            // The capacity copy rides in the consolidated edge record;
            // refresh it whenever the owning decoder changes.
            for (uint32_t e = 0; e < numEdges; ++e)
                edge[e].capacity = capacity[e];
        }
    }

    /** Per-shot reset of the node-side cluster arenas (growth-path
     *  entry). The stamp, visited, and edge-growth arrays are
     *  deliberately left alone -- they are maintained by the
     *  monotonic-counter / BFS-order / claimStamp protocols. */
    void reset(uint32_t numNodes)
    {
        for (uint32_t i = 0; i < numNodes; ++i)
            parent[i] = i;
        std::fill_n(parity.begin(), numNodes, uint8_t{0});
        std::fill_n(btouch.begin(), numNodes, uint8_t{0});
        std::fill_n(absorbed.begin(), numNodes, uint8_t{0});
        std::fill_n(defect.begin(), numNodes, uint8_t{0});
        for (uint32_t i = 0; i < numNodes; ++i)
            frontier[i].clear();
        active.clear();
        nextActive.clear();
        grownList.clear();
        roundEdges.clear();
        mergeQueue.clear();
        roots.clear();
        bfsVerts.clear();
        order.clear();
    }

    uint32_t find(uint32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }
};

Scratch&
scratch()
{
    static thread_local Scratch s;
    return s;
}

/** Growth ticks of the minimum-weight edge. */
constexpr uint32_t kGranularity = 32;

} // namespace

UnionFindDecoder::UnionFindDecoder(const DetectorErrorModel& dem,
                                   UnionFindOptions options)
    : UnionFindDecoder(DecodingGraph::build(dem), options)
{
    // Map each heralded-erasure site to the graph edges its outcomes
    // land on, so a raised herald can seed exactly those edges at zero
    // weight. Outcomes with empty signatures (the I branch, or Paulis
    // the detectors cannot see) have no edge to seed and are skipped.
    erasureSiteEdges_.resize(dem.numErasureSites());
    const uint32_t boundary = graph().boundaryNode();
    for (const auto& ch : dem.channels()) {
        if (ch.erasureSite < 0)
            continue;
        auto& edges =
            erasureSiteEdges_[static_cast<uint32_t>(ch.erasureSite)];
        for (const auto& o : ch.outcomes) {
            int32_t e = -1;
            if (o.detectors.size() == 1)
                e = graph().findEdge(o.detectors[0], boundary);
            else if (o.detectors.size() == 2)
                e = graph().findEdge(o.detectors[0], o.detectors[1]);
            if (e < 0)
                continue;
            uint32_t eu = static_cast<uint32_t>(e);
            if (std::find(edges.begin(), edges.end(), eu) == edges.end())
                edges.push_back(eu);
        }
    }
}

UnionFindDecoder::UnionFindDecoder(DecodingGraph graph,
                                   UnionFindOptions options)
    : paths_(std::move(graph)),
      exactSyndromeThreshold_(std::min(options.exactSyndromeThreshold,
                                       kExactMatchingMaxDefects))
{
    static std::atomic<uint64_t> nextEpoch{1};
    scratchEpoch_ = nextEpoch.fetch_add(1, std::memory_order_relaxed);
    const DecodingGraph& g = paths_.graph();
    const double minW = g.minWeight();
    capacity_.resize(g.edges().size());
    for (size_t i = 0; i < capacity_.size(); ++i) {
        double ticks = minW > 0.0
            ? g.edges()[i].weight / minW
                * static_cast<double>(kGranularity)
            : static_cast<double>(kGranularity);
        capacity_[i] = static_cast<uint16_t>(
            std::clamp<long long>(std::llround(ticks), 1, 60000));
    }
}

uint32_t
UnionFindDecoder::decode(const BitVec& detectorFlips,
                         DecodeInfo* info) const
{
    return decodeEvents(detectorFlips.onesIndices(), {}, info);
}

uint32_t
UnionFindDecoder::decodeWithErasures(const BitVec& detectorFlips,
                                     const BitVec& erasures,
                                     DecodeInfo* info) const
{
    thread_local std::vector<uint32_t> edges;
    mapErasureSites(erasures.onesIndices(), edges);
    return decodeEvents(detectorFlips.onesIndices(), edges, info);
}

uint32_t
UnionFindDecoder::decodeErasedEdges(
    const BitVec& detectorFlips,
    const std::vector<uint32_t>& erasedEdges, DecodeInfo* info) const
{
    return decodeEvents(detectorFlips.onesIndices(), erasedEdges, info);
}

void
UnionFindDecoder::mapErasureSites(std::span<const uint32_t> sites,
                                  std::vector<uint32_t>& edges) const
{
    edges.clear();
    for (uint32_t site : sites) {
        // Graph-built decoders have no site map; heralds are then
        // decoded as ordinary syndromes.
        if (site >= erasureSiteEdges_.size())
            continue;
        const auto& se = erasureSiteEdges_[site];
        edges.insert(edges.end(), se.begin(), se.end());
    }
}

namespace {

/** Cumulative per-thread decode-path tallies for the trace's counter
 *  tracks ("ph":"C"): the timeline shows fast-path vs general-growth
 *  decode mix evolving per worker lane. */
thread_local uint64_t tUfExactShots = 0;
thread_local uint64_t tUfGrowthShots = 0;
thread_local uint64_t tUfErasureShots = 0;

/** Tally one shot's decode path while tracing. */
void
tallyDecodePath(size_t events, bool seeded, uint32_t exactThreshold)
{
    if (!obs::traceEnabled() || events == 0)
        return;
    if (seeded)
        ++tUfErasureShots;
    else if (events <= exactThreshold)
        ++tUfExactShots;
    else
        ++tUfGrowthShots;
}

} // namespace

uint32_t
UnionFindDecoder::decodeShot(std::span<const uint32_t> events,
                             std::span<const uint32_t> erasureSites) const
{
    // Graph-built decoders have no site map; their heralds are then
    // decoded as ordinary syndromes.
    if (erasureSites.empty() || erasureSiteEdges_.empty()) {
        tallyDecodePath(events.size(), false, exactSyndromeThreshold_);
        return decodeEvents(events, {}, nullptr);
    }
    obs::StageTimer seedTimer("uf.erasure_seed");
    thread_local std::vector<uint32_t> edges;
    mapErasureSites(erasureSites, edges);
    tallyDecodePath(events.size(), !edges.empty(), exactSyndromeThreshold_);
    return decodeEvents(events, edges, nullptr);
}

void
UnionFindDecoder::decodeBatch(const ShotBatch& batch,
                              std::span<uint32_t> predictions) const
{
    Decoder::decodeBatch(batch, predictions);
    if (obs::traceEnabled()) {
        obs::traceCounter("uf.exact_fastpath", tUfExactShots);
        obs::traceCounter("uf.growth", tUfGrowthShots);
        if (tUfErasureShots > 0)
            obs::traceCounter("uf.erasure_seeded", tUfErasureShots);
    }
}

uint32_t
UnionFindDecoder::decodeEvents(std::span<const uint32_t> events,
                               std::span<const uint32_t> erasedEdges,
                               DecodeInfo* info) const
{
    if (info)
        *info = DecodeInfo{};
    // With no detection events there is nothing to correct: erased
    // clusters without defects peel to the empty correction anyway.
    if (events.empty())
        return 0;
    const bool hasErasures = !erasedEdges.empty();

    const uint32_t n = graph().numNodes();
    const uint32_t numEdges = static_cast<uint32_t>(graph().edges().size());
    const uint32_t boundary = graph().boundaryNode();
    const DecodingGraph::SoA& g = graph().soa();

    Scratch& s = scratch();
    s.ensure(n, numEdges, scratchEpoch_, capacity_);

    uint32_t obs = 0;
    uint32_t matchedPairs = 0;
    uint32_t boundaryMatches = 0;

    // Exact minimum-weight matching of one defect set over global
    // shortest paths, MWPM's formulation (MatchingPaths::match): whole
    // small syndromes (fast path) and small grown clusters. Defects
    // ascend: events are extracted in index order and clusters collect
    // them in that order.
    auto matchExact = [&](std::span<const uint32_t> defects) {
        const ExactMatching m = paths_.match(defects);
        if (m.found) {
            obs ^= m.observables;
            matchedPairs += m.pairs;
            boundaryMatches += m.boundaryMatches;
        }
    };

    // Fast path: a small syndrome is matched exactly as one global
    // problem -- identical to MWPM's formulation, so the result
    // is MWPM-exact -- with no growth and no arena reset. Erased
    // shots must take the growth path: the global distances know
    // nothing about the (free) erased edges.
    if (!hasErasures && events.size() <= exactSyndromeThreshold_) {
        if (obs::metricsEnabled()) {
            static const obs::Counter fastPath =
                obs::Counter::get("uf.decode.exact_fastpath");
            fastPath.add(1);
        }
        matchExact(events);
        if (info) {
            info->initialClusters =
                static_cast<uint32_t>(events.size());
            info->matchedPairs = matchedPairs;
            info->boundaryMatches = boundaryMatches;
        }
        return obs;
    }

    // Growth and peel are timed from the arena reset to the return,
    // into a histogram only: a trace span per shot would swamp the
    // timeline.
    const bool timeGrowth = obs::metricsEnabled();
    const uint64_t growthStart = timeGrowth ? obs::traceNowNs() : 0;
    if (timeGrowth) {
        static const obs::Counter growth =
            obs::Counter::get("uf.decode.growth");
        growth.add(1);
        if (hasErasures) {
            static const obs::Counter erasureShots =
                obs::Counter::get("uf.decode.erasure_shots");
            erasureShots.add(1);
        }
    }
    s.reset(n);
    s.btouch[boundary] = 1;
    s.absorbed[boundary] = 1;

    // Any edge whose claimStamp predates this shot still carries the
    // previous shot's growth state; fetching it through freshEdge
    // re-zeroes support/grown lazily (bit-identical to an eager
    // per-shot clear, without the O(numEdges) sweep).
    const uint64_t shotBase = ++s.counter;
    auto freshEdge = [&](uint32_t e) -> Scratch::EdgeState& {
        Scratch::EdgeState& es = s.edge[e];
        if (es.claimStamp < shotBase) {
            es.claimStamp = shotBase;
            es.support = 0;
            es.grown = 0;
        }
        return es;
    };

    for (uint32_t v : events) {
        s.parity[v] = 1;
        s.defect[v] = 1;
        s.absorbed[v] = 1;
        s.frontier[v].assign(
            g.slotEdge.begin() + g.vertexBegin[v],
            g.slotEdge.begin() + g.vertexBegin[v + 1]);
        s.active.push_back(v);
    }
    if (info)
        info->initialClusters = static_cast<uint32_t>(events.size());

    // A vertex first reached by cluster growth contributes its incident
    // edges so the cluster keeps expanding past it. The boundary never
    // grows (absorbed from the start).
    auto ensureAbsorbed = [&](uint32_t v) {
        if (s.absorbed[v])
            return;
        s.absorbed[v] = 1;
        auto& f = s.frontier[v];
        for (uint32_t si = g.vertexBegin[v]; si < g.vertexBegin[v + 1];
             ++si) {
            uint32_t e = g.slotEdge[si];
            if (!freshEdge(e).grown)
                f.push_back(e);
        }
    };

    auto mergeEdge = [&](uint32_t e) {
        const uint32_t ea = g.edgeA[e];
        const uint32_t eb = g.edgeB[e];
        ensureAbsorbed(ea);
        ensureAbsorbed(eb);
        uint32_t u = s.find(ea);
        uint32_t v = s.find(eb);
        if (u == v)
            return; // cycle within one cluster: not a forest edge
        // Boundary contact freezes a cluster but does NOT union it
        // into the boundary component: two clusters that each reached
        // the boundary before reaching each other are strictly better
        // off matching to the boundary separately, so keeping them
        // apart is exact -- and it stops the shared boundary node from
        // chaining unrelated clusters into one giant matching problem.
        if (u == boundary || v == boundary) {
            s.btouch[u == boundary ? v : u] = 1;
            return;
        }
        if (s.frontier[u].size() < s.frontier[v].size())
            std::swap(u, v);
        s.parent[v] = u;
        s.parity[u] ^= s.parity[v];
        s.btouch[u] |= s.btouch[v];
        auto& fu = s.frontier[u];
        auto& fv = s.frontier[v];
        fu.insert(fu.end(), fv.begin(), fv.end());
        fv.clear();
    };

    // Zero-weight erasure seeding (Delfosse-Nickerson): every erased
    // edge is grown to full support at time zero -- traversing it
    // costs nothing -- and its endpoint clusters merge before ordinary
    // weighted growth starts. Erased boundary edges freeze their
    // cluster (free boundary exit) and are remembered so peeling can
    // discharge a leftover defect through them.
    if (hasErasures) {
        s.erasedBoundary.clear();
        for (uint32_t e : erasedEdges) {
            VLQ_ASSERT(e < numEdges, "erased edge index out of range");
            if (s.erasedEdge[e])
                continue; // two heralds over one edge seed it once
            s.erasedEdge[e] = 1;
            if (g.edgeA[e] == boundary || g.edgeB[e] == boundary)
                s.erasedBoundary.push_back(
                    {g.edgeA[e] == boundary ? g.edgeB[e] : g.edgeA[e],
                     e});
            Scratch::EdgeState& es = freshEdge(e);
            es.support = es.capacity;
            es.grown = 1;
            s.grownList.push_back(e);
            mergeEdge(e);
        }
        // Pre-merging can move roots off the defect vertices, pair
        // defects into even clusters, or freeze clusters at the
        // boundary -- rebuild the active list from the merged state.
        const uint64_t seedId = ++s.counter;
        s.nextActive.clear();
        for (uint32_t v : events) {
            uint32_t r = s.find(v);
            if (s.stamp[r] == seedId)
                continue;
            s.stamp[r] = seedId;
            if (s.parity[r] && !s.btouch[r])
                s.nextActive.push_back(r);
        }
        s.active.swap(s.nextActive);
    }

    // Growth is event-driven: each round, every active cluster claims
    // its frontier edges (an edge claimed from both endpoints grows at
    // twice the rate), then time advances by the smallest number of
    // ticks that fills some claimed edge. Rounds therefore scale with
    // merge/freeze events, not with the weight quantization.
    uint32_t rounds = 0;
    while (!s.active.empty()) {
        ++rounds;
        const uint64_t roundId = ++s.counter;
        s.roundEdges.clear();
        uint32_t delta = UINT32_MAX;
        for (uint32_t root : s.active) {
            auto& fr = s.frontier[root];
            size_t keep = 0;
            for (size_t i = 0; i < fr.size(); ++i) {
                // The scan is latency-bound on the random EdgeState
                // loads; prefetching a few iterations ahead overlaps
                // the misses (the indices are already in fr).
                if (i + 4 < fr.size())
                    __builtin_prefetch(&s.edge[fr[i + 4]], 1, 1);
                uint32_t e = fr[i];
                Scratch::EdgeState& es = freshEdge(e);
                if (es.grown)
                    continue;
                uint32_t remaining =
                    static_cast<uint32_t>(es.capacity - es.support);
                if (es.claimStamp != roundId) {
                    es.claimStamp = roundId;
                    es.mult = 1;
                    s.roundEdges.push_back(e);
                    delta = std::min(delta, remaining);
                } else {
                    // Claimed again (other endpoint or a duplicate
                    // list entry): fills proportionally faster.
                    uint32_t m = ++es.mult;
                    delta = std::min(delta, (remaining + m - 1) / m);
                }
                fr[keep++] = e;
            }
            fr.resize(keep);
        }
        if (s.roundEdges.empty())
            break; // odd clusters with nowhere left to grow
        s.mergeQueue.clear();
        for (uint32_t e : s.roundEdges) {
            Scratch::EdgeState& es = s.edge[e];
            uint32_t grownTo = es.support
                + static_cast<uint32_t>(es.mult) * delta;
            if (grownTo >= es.capacity) {
                es.support = es.capacity;
                es.grown = 1;
                s.grownList.push_back(e);
                s.mergeQueue.push_back(e);
            } else {
                es.support = static_cast<uint16_t>(grownTo);
            }
        }
        for (uint32_t e : s.mergeQueue)
            mergeEdge(e);

        s.nextActive.clear();
        for (uint32_t root : s.active) {
            uint32_t r = s.find(root);
            if (s.stamp[r] == roundId)
                continue;
            s.stamp[r] = roundId;
            if (s.parity[r] && !s.btouch[r])
                s.nextActive.push_back(r);
        }
        s.active.swap(s.nextActive);
    }

    // Peeling. Group defects (and grown edges) by cluster root; each
    // cluster resolves independently. Small clusters -- the bulk of
    // the work below threshold -- get a minimum-weight matching of
    // their defects on global shortest-path distances, which is what
    // makes the result agree with MWPM on small syndromes up to
    // genuine weight degeneracy. Large clusters (rare, near or above
    // threshold) fall back to the classic linear peel of a spanning
    // forest of their grown edges.
    for (uint32_t v : events) {
        uint32_t r = s.find(v);
        if (s.clusterDefects[r].empty())
            s.roots.push_back(r);
        s.clusterDefects[r].push_back(v);
    }
    // Only clusters holding defects are peeled (and their lists
    // cleared): an erasure-seeded cluster without one peels to nothing,
    // and its edges must not linger into a later shot's forest.
    for (uint32_t e : s.grownList) {
        if (g.edgeA[e] == boundary || g.edgeB[e] == boundary)
            continue; // boundary exits use the precomputed table
        const uint32_t r = s.find(g.edgeA[e]);
        if (!s.clusterDefects[r].empty())
            s.clusterEdges[r].push_back(e);
    }

    constexpr size_t kExactMatching = 6;

    // Classic union-find peeling for one large (or erased) cluster:
    // build a BFS spanning tree of the cluster's grown edges, peel it
    // leaves-first XOR-ing a tree edge whenever the child side carries
    // a defect, and send any leftover root defect to the boundary --
    // through the cluster's erased boundary edge when it has one (the
    // free exit, exact for erasure-only shots), otherwise via the
    // global table. Erased edges sit in the tree like any grown edge,
    // which is what makes peeling exact on pure-erasure clusters.
    auto peelForest = [&](uint32_t r,
                          const std::vector<uint32_t>& defects,
                          bool hasExit, uint32_t exitVertex,
                          uint32_t exitObs) {
        for (uint32_t e : s.clusterEdges[r]) {
            for (uint32_t v : {g.edgeA[e], g.edgeB[e]}) {
                if (s.treeAdj[v].empty())
                    s.bfsVerts.push_back(v);
            }
            s.treeAdj[g.edgeA[e]].push_back(e);
            s.treeAdj[g.edgeB[e]].push_back(e);
        }
        // Rooting at the erased boundary exit makes the leftover
        // defect (if any) land exactly where the free exit is.
        uint32_t root = hasExit ? exitVertex : defects[0];
        s.order.clear();
        s.order.push_back(root);
        s.visited[root] = 1;
        for (size_t qi = 0; qi < s.order.size(); ++qi) {
            uint32_t v = s.order[qi];
            for (uint32_t e : s.treeAdj[v]) {
                uint32_t to = g.edgeA[e] == v ? g.edgeB[e] : g.edgeA[e];
                if (!s.visited[to]) {
                    s.visited[to] = 1;
                    s.parentEdge[to] = e;
                    s.order.push_back(to);
                }
            }
        }
        for (size_t qi = s.order.size(); qi-- > 1;) {
            uint32_t v = s.order[qi];
            if (!s.defect[v])
                continue;
            const uint32_t pe = s.parentEdge[v];
            uint32_t u = g.edgeA[pe] == v ? g.edgeB[pe] : g.edgeA[pe];
            obs ^= g.edgeObs[pe];
            s.defect[v] = 0;
            s.defect[u] ^= 1;
            ++matchedPairs;
        }
        if (s.defect[root]) {
            s.defect[root] = 0;
            if (hasExit) {
                obs ^= exitObs;
                ++boundaryMatches;
            } else if (std::isfinite(paths_.boundaryDistance(root))) {
                obs ^= paths_.boundaryObservables(root);
                ++boundaryMatches;
            }
        }
        for (uint32_t v : s.order)
            s.visited[v] = 0;
        for (uint32_t v : s.bfsVerts)
            s.treeAdj[v].clear();
        s.bfsVerts.clear();
    };

    for (uint32_t r : s.roots) {
        const auto& defects = s.clusterDefects[r];
        // A cluster holding erased edges peels on its spanning forest:
        // the forest includes the free erased edges, which the global
        // distances of the exact matcher cannot see. An erased
        // boundary edge additionally gives the cluster a free exit.
        bool erased = false;
        bool hasExit = false;
        uint32_t exitVertex = 0;
        uint32_t exitObs = 0;
        if (hasErasures) {
            for (uint32_t e : s.clusterEdges[r]) {
                if (s.erasedEdge[e]) {
                    erased = true;
                    break;
                }
            }
            for (const auto& [v, e] : s.erasedBoundary) {
                if (s.find(v) == r) {
                    hasExit = true;
                    exitVertex = v;
                    exitObs = g.edgeObs[e];
                    break;
                }
            }
        }
        if (defects.size() > kExactMatching || erased || hasExit)
            peelForest(r, defects, hasExit, exitVertex, exitObs);
        else
            matchExact(defects);
        s.clusterEdges[r].clear();
        s.clusterDefects[r].clear();
    }

    if (hasErasures) {
        for (uint32_t e : erasedEdges)
            s.erasedEdge[e] = 0;
        s.erasedBoundary.clear();
    }

    if (info) {
        info->growthRounds = rounds;
        info->matchedPairs = matchedPairs;
        info->boundaryMatches = boundaryMatches;
    }
    if (timeGrowth) {
        static const obs::Histogram growthNs =
            obs::Histogram::get("uf.growth");
        growthNs.record(obs::traceNowNs() - growthStart);
    }
    return obs;
}

} // namespace vlq
