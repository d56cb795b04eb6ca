#include "decoder/sparse_blossom.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "decoder/monotone_queue.h"
#include "util/logging.h"

namespace vlq {

namespace {

constexpr int32_t kNone = -1;
/** A region's mate while it is matched to the boundary. */
constexpr int32_t kBoundaryMate = -2;
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
constexpr uint64_t kNoKey = std::numeric_limits<uint64_t>::max();

/**
 * A compressed edge: a path between the source events of two regions,
 * or from one to the boundary (b == kNone). Events are indices into the
 * shot's event list, which are also their trivial regions' indices.
 */
struct Edge
{
    int32_t a = kNone;
    int32_t b = kNone;
    uint32_t observables = 0;
    int64_t weight = 0;
};

enum class State : uint8_t
{
    Outer,    // in an alternating tree, growing
    Inner,    // in an alternating tree, shrinking
    Matched,  // matched outside every tree, frozen
    Internal, // a child of a blossom
    Dead,     // an expanded blossom
};

struct Region
{
    State state = State::Outer;
    int32_t blossomParent = kNone;
    int32_t mate = kNone;       // region, kBoundaryMate, or kNone (a root)
    int32_t treeParent = kNone; // Inner: the outer region above it
    Edge matchEdge;
    Edge treeEdge;              // Inner: the edge to treeParent
    uint32_t shrinkSeq = 0;     // live shrink event, 0 for none
    uint64_t mark = 0;          // stamp for tree walks
    std::vector<int32_t> treeChildren; // Outer: its inner children
    std::vector<uint32_t> shell;       // nodes its own growth reached
    std::vector<int32_t> cycle;        // blossom children, cycle order
    std::vector<Edge> cycleEdges;      // [i] joins cycle[i], cycle[i + 1]
};

/**
 * A region's radius, radius(t) = radBase + slope t, kept apart from
 * Region so the neighbour scan reads 16 bytes of it. Every change of
 * either field takes a new version, unique within the shot. The entry
 * of kNone, radius 0 at rate 0 and version 0, stands for no region.
 */
struct Growth
{
    int64_t radBase = 0;
    int32_t slope = 0;
    uint32_t version = 0;
};

/**
 * What the neighbour scan reads of a node. An uncovered node reads as
 * covered by kNone at local radius 0, so the scan times it without a
 * branch.
 */
struct NodeHot
{
    int32_t top = kNone; // covering top-level region
    uint32_t plan = 0;   // top's version when the live event was
                         // planned; 0 makes it scan again
    int64_t wrapped = 0; // local radius = radius(top) + wrapped
};

/** The rest of a covered node: its covering path and its planned event. */
struct NodeCold
{
    int64_t dist = 0;          // path weight from the source event
    int32_t source = kNone;    // event the covering path starts at
    uint32_t observables = 0;  // mask along that path
    uint32_t eventSeq = 0;     // live look-at-node event, 0 for none
    uint32_t planSlot = 0;     // the slot that event was planned for
    uint32_t planOther = 0;    // the version of its far end's top then
};

/**
 * One thread's matcher state, shared by every SparseBlossom the thread
 * runs. Vectors keep their capacity from shot to shot; a shot uncovers
 * the nodes it covered when it ends, and regions are reset by reuse.
 */
struct Scratch
{
    std::vector<NodeHot> hot;
    std::vector<NodeCold> cold;
    std::vector<Region> regions;
    std::vector<Growth> growth{Growth{}}; // kNone's, then the regions'
    size_t numRegions = 0;
    MonotoneQueue queue; // id: node << 1, or region << 1 | 1 (shrink)
    bool dirty = false;   // a shot left covered nodes behind
    uint32_t version = 0; // Growth versions, per shot
    uint64_t mark = 0;    // walk stamps
    std::vector<int32_t> pathX;
    std::vector<int32_t> pathY;
    std::vector<int32_t> members;
    std::vector<int32_t> raised;
    std::vector<int32_t> walk;
    std::vector<std::pair<int32_t, int32_t>> expand;
};

Scratch&
scratch()
{
    static thread_local Scratch s;
    return s;
}

} // namespace

/** One shot's run of the matcher over the per-thread scratch. */
class SparseBlossom::Run
{
  public:
    Run(const SparseBlossom& graph, Scratch& s,
        std::span<const uint32_t> events)
        : g_(graph), s_(s), events_(events),
          m_(static_cast<int32_t>(events.size()))
    {
    }

    uint32_t solve(std::vector<MatchedPair>* pairs);

  private:
    const SparseBlossom& g_;
    Scratch& s_;
    std::span<const uint32_t> events_;
    int32_t m_;
    int64_t now_ = 0;
    int32_t unmatched_ = 0;

    Region& reg(int32_t r) { return s_.regions[static_cast<size_t>(r)]; }
    Growth& growth(int32_t r)
    {
        return s_.growth[static_cast<size_t>(r + 1)];
    }
    NodeHot& hot(uint32_t v) { return s_.hot[v]; }
    NodeCold& cold(uint32_t v) { return s_.cold[v]; }
    bool covered(uint32_t v) const { return s_.hot[v].top != kNone; }
    int64_t radius(int32_t r)
    {
        const Growth& x = growth(r);
        return x.radBase + x.slope * now_;
    }
    void setRadius(int32_t r, int64_t radBase, int32_t slope)
    {
        VLQ_ASSERT(++s_.version != 0,
                   "sparse blossom: region versions ran out");
        growth(r) = Growth{radBase, slope, s_.version};
    }
    void setSlope(int32_t r, int32_t slope)
    {
        setRadius(r, radius(r) - slope * now_, slope);
    }
    /** The version of u's covering region, 0 while u is uncovered. */
    uint32_t coverVersion(uint32_t u) { return growth(hot(u).top).version; }

    int32_t newRegion();
    /** A node's next event: kNever, or a time and the slot there. */
    struct Next
    {
        int64_t time;
        uint32_t slot;
    };
    template <bool Mark> Next nextEvent(uint32_t v);
    Next firstEvent(uint32_t v);
    void plan(uint32_t v, const Next& next);
    template <bool Mark> void scheduleNode(uint32_t v);
    void scheduleShrink(int32_t r);
    template <typename F> void forEachNode(int32_t r, const F& f);
    void rescheduleNodes(int32_t r);

    void lookAtNode(uint32_t v);
    void shrink(int32_t r);
    void collide(int32_t a, int32_t b, const Edge& e);
    void hitBoundary(int32_t x, const Edge& e);
    void grow(int32_t a, int32_t b, const Edge& e);
    int32_t root(int32_t r);
    void collectTree(int32_t root);
    void augmentPath(int32_t x, int32_t mate, const Edge& e);
    void dissolve();
    void formBlossom(int32_t x, int32_t y, const Edge& e);
    void shatter(int32_t b);
    void implode(int32_t t);

    bool inside(int32_t event, int32_t r);
    int32_t endpointIn(const Edge& e, int32_t r);
    size_t childIndex(int32_t event, int32_t b);
};

int64_t
SparseBlossom::integerWeight(double w)
{
    return 2 * std::llround(w * double{1 << 20});
}

SparseBlossom::SparseBlossom(const DecodingGraph& graph)
    : boundary_(graph.boundaryNode())
{
    const DecodingGraph::SoA& soa = graph.soa();
    begin_ = soa.vertexBegin;
    VLQ_ASSERT(begin_.size() <= (uint32_t{1} << 31),
               "sparse blossom: too many nodes for an event id");
    slots_.resize(soa.slotEdge.size());
    slotObservables_.resize(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
        const uint32_t e = soa.slotEdge[i];
        const int64_t w = integerWeight(soa.edgeWeight[e]);
        VLQ_ASSERT(w >= 0 && w <= std::numeric_limits<int32_t>::max(),
                   "sparse blossom needs non-negative weights below 2^31 "
                   "units");
        slots_[i] = Slot{soa.slotOther[i], static_cast<int32_t>(w)};
        slotObservables_[i] = soa.edgeObs[e];
    }
}

uint32_t
SparseBlossom::match(std::span<const uint32_t> events,
                     std::vector<MatchedPair>* pairs) const
{
    if (events.empty())
        return 0;
    Run run(*this, scratch(), events);
    return run.solve(pairs);
}

int32_t
SparseBlossom::Run::newRegion()
{
    if (s_.numRegions == s_.regions.size()) {
        s_.regions.emplace_back();
        s_.growth.emplace_back();
    }
    const int32_t r = static_cast<int32_t>(s_.numRegions++);
    Region& x = reg(r);
    x.state = State::Outer;
    x.blossomParent = kNone;
    x.mate = kNone;
    x.treeParent = kNone;
    x.shrinkSeq = 0;
    x.mark = 0;
    x.treeChildren.clear();
    x.shell.clear();
    x.cycle.clear();
    x.cycleEdges.clear();
    setRadius(r, 0, 0);
    return r;
}

/**
 * The earliest time at which an edge of covered node v becomes an
 * event, with the slot of that edge (the first slot among equal
 * times): v's region reaches an uncovered neighbour or the boundary,
 * or touches another top-level region. Local radii add up to at most
 * the edge weight, and the gap closes at the sum of the two growth
 * rates, 1 or 2; a gap closing at 2 is even. With Mark, the scan is of
 * a node newly covered or grown faster, which may bring an event of a
 * neighbour in another region forward: each such neighbour whose gap
 * to v closes is made to scan again when its planned event fires.
 */
template <bool Mark>
SparseBlossom::Run::Next
SparseBlossom::Run::nextEvent(uint32_t v)
{
    const NodeHot& n = hot(v);
    const int32_t top = n.top;
    const Growth& own = growth(top);
    const int64_t rate = own.slope;
    if (rate < 0)
        return {kNever, 0}; // no rate is above 1: nothing reaches it
    // v's local radius is base + rate t. Two local radii close the
    // edge's weight W at (W - base - base') / rates, so the gap left
    // now is W - base - base' - rates now, and it closes rates times
    // as fast. v reaches an uncovered neighbour or the boundary, which
    // is never covered, as if it were a node of base 0 at rate 0.
    const int64_t base = own.radBase + n.wrapped;
    const int64_t lone = base + now_;      // base + rates now, rates 1
    const int64_t pair = base + 2 * now_;  // and rates 2
    // Each slot's event as one key, (t - now) << 32 | slot offset, so
    // the least key is the earliest event and the first slot among
    // equals, and a slot with no event (v's own region, or a gap that
    // does not close) is the largest key. Local radii are never
    // negative, so a gap is at most an edge weight, below 2^31.
    const uint32_t begin = g_.begin_[v];
    const uint32_t count = g_.begin_[v + 1] - begin;
    const Slot* slots = g_.slots_.data() + begin;
    NodeHot* nodes = s_.hot.data();
    const Growth* regions = s_.growth.data() + 1; // [kNone] is no region
    uint64_t best = kNoKey;
    uint64_t overlap = 0;
    for (uint32_t i = 0; i < count; ++i) {
        const Slot slot = slots[i];
        NodeHot& nu = nodes[slot.other];
        const Growth other = regions[nu.top];
        const int64_t rates = rate + other.slope;
        const bool two = rates > 1;
        const int64_t gap = slot.weight - (other.radBase + nu.wrapped)
            - (two ? pair : lone);
        const bool live = (rates > 0) & (nu.top != top);
        const uint64_t key =
            live ? static_cast<uint64_t>(gap >> two) << 32 | i : kNoKey;
        // A live gap is not negative, below 2^31, and even at rate 2.
        overlap |= live ? static_cast<uint64_t>(gap) >> 31 | (gap & two) : 0;
        best = std::min(best, key);
        if constexpr (Mark)
            nu.plan = live ? 0 : nu.plan;
    }
    VLQ_ASSERT(overlap == 0, "sparse blossom: regions overlap");
    if (best == kNoKey)
        return {kNever, 0};
    return {now_ + static_cast<int64_t>(best >> 32),
            begin + static_cast<uint32_t>(best)};
}

/**
 * nextEvent(v) at time 0, when every covered node is an event at
 * radius 0 growing at rate 1: an edge of weight W to another event
 * closes at W / 2 (W is even), and reaches an uncovered neighbour or
 * the boundary at W. Only which neighbours are events is read.
 */
SparseBlossom::Run::Next
SparseBlossom::Run::firstEvent(uint32_t v)
{
    const uint32_t begin = g_.begin_[v];
    const uint32_t count = g_.begin_[v + 1] - begin;
    const Slot* slots = g_.slots_.data() + begin;
    const NodeHot* nodes = s_.hot.data();
    uint64_t best = kNoKey;
    for (uint32_t i = 0; i < count; ++i) {
        const Slot slot = slots[i];
        const bool event = nodes[slot.other].top != kNone;
        const uint64_t reach = static_cast<uint64_t>(slot.weight) >> event;
        best = std::min(best, reach << 32 | i);
    }
    if (best == kNoKey)
        return {kNever, 0};
    return {static_cast<int64_t>(best >> 32),
            begin + static_cast<uint32_t>(best)};
}

/**
 * Queue v's next event, if any, and record what the plan rests on: the
 * version of v's region and the version of the region covering the
 * chosen slot's far end. A mark or a change of v's top clears the
 * record. While it stands, every edge of v keeps its planned time or a
 * later one, so the event fires at its time for its slot, exactly what
 * a new scan would find.
 */
void
SparseBlossom::Run::plan(uint32_t v, const Next& next)
{
    NodeCold& c = cold(v);
    if (next.time == kNever) {
        c.eventSeq = 0;
        return;
    }
    c.eventSeq = s_.queue.push(static_cast<uint64_t>(next.time), v << 1);
    c.planSlot = next.slot;
    c.planOther = coverVersion(g_.slots_[next.slot].other);
    hot(v).plan = growth(hot(v).top).version;
}

template <bool Mark>
void
SparseBlossom::Run::scheduleNode(uint32_t v)
{
    plan(v, nextEvent<Mark>(v));
}

/**
 * An inner region's next loss: its newest node uncovers when that
 * node's local radius reaches zero. A trivial region down to its own
 * event, or a blossom with no node of its own, reaches radius zero
 * instead.
 */
void
SparseBlossom::Run::scheduleShrink(int32_t r)
{
    Region& x = reg(r);
    const int64_t left = x.shell.empty()
        ? radius(r)
        : radius(r) + hot(x.shell.back()).wrapped;
    VLQ_ASSERT(left >= 0, "sparse blossom: an inner region overshrank");
    x.shrinkSeq = s_.queue.push(static_cast<uint64_t>(now_ + left),
                                static_cast<uint32_t>(r) << 1 | 1);
}

/** Call f on every node covered by r or a region inside it. */
template <typename F>
void
SparseBlossom::Run::forEachNode(int32_t r, const F& f)
{
    std::vector<int32_t>& walk = s_.walk;
    walk.clear();
    walk.push_back(r);
    while (!walk.empty()) {
        const int32_t x = walk.back();
        walk.pop_back();
        for (uint32_t v : reg(x).shell)
            f(v);
        for (int32_t c : reg(x).cycle)
            walk.push_back(c);
    }
}

/**
 * Re-plan every node of r after its growth rate rose. Events planned
 * at a lower rate would come too late; after a fall they come early,
 * and the new version of the region makes them scan again when they
 * fire.
 */
void
SparseBlossom::Run::rescheduleNodes(int32_t r)
{
    forEachNode(r, [this](uint32_t v) { scheduleNode<true>(v); });
}

uint32_t
SparseBlossom::Run::solve(std::vector<MatchedPair>* pairs)
{
    if (s_.dirty) // a shot ended early; start from a clean slate
        std::fill(s_.hot.begin(), s_.hot.end(), NodeHot{});
    s_.dirty = true;
    if (s_.hot.size() < g_.begin_.size()) {
        s_.hot.resize(g_.begin_.size());
        s_.cold.resize(g_.begin_.size());
    }
    s_.numRegions = 0;
    s_.version = 0;
    s_.queue.clear();
    for (int32_t i = 0; i < m_; ++i) {
        const int32_t r = newRegion();
        setRadius(r, 0, 1);
        const uint32_t v = events_[static_cast<size_t>(i)];
        reg(r).shell.push_back(v);
        hot(v) = NodeHot{r, 0, 0};
        cold(v) = NodeCold{};
        cold(v).source = r;
    }
    for (uint32_t v : events_)
        plan(v, firstEvent(v));
    unmatched_ = m_;

    while (unmatched_ > 0) {
        VLQ_ASSERT(!s_.queue.empty(), "graph admits no perfect matching");
        const MonotoneQueue::Item ev = s_.queue.pop();
        const uint32_t id = ev.id >> 1;
        if (ev.id & 1) {
            const int32_t r = static_cast<int32_t>(id);
            if (reg(r).shrinkSeq != ev.seq)
                continue;
            now_ = static_cast<int64_t>(ev.time);
            reg(r).shrinkSeq = 0;
            shrink(r);
        } else {
            if (cold(id).eventSeq != ev.seq)
                continue;
            now_ = static_cast<int64_t>(ev.time);
            cold(id).eventSeq = 0;
            lookAtNode(id);
        }
    }
    const int32_t numRegions = static_cast<int32_t>(s_.numRegions);
    for (int32_t r = 0; r < numRegions; ++r)
        for (uint32_t v : reg(r).shell)
            hot(v) = NodeHot{};
    s_.dirty = false;

    // Every top-level region is matched. Each blossom matches the
    // child holding its external edge's endpoint along that edge and
    // pairs the rest of its cycle along cycle edges, recursively.
    const uint32_t boundary = g_.boundary_;
    uint32_t observables = 0;
    auto use = [&](const Edge& e) {
        observables ^= e.observables;
        if (pairs)
            pairs->push_back(MatchedPair{
                events_[static_cast<size_t>(e.a)],
                e.b == kNone ? boundary : events_[static_cast<size_t>(e.b)],
                e.weight, e.observables});
    };
    auto& expand = s_.expand;
    expand.clear();
    for (int32_t r = 0; r < numRegions; ++r) {
        const Region& x = reg(r);
        if (x.state == State::Dead || x.blossomParent != kNone)
            continue;
        VLQ_ASSERT(x.state == State::Matched,
                   "sparse blossom: a region ended unmatched");
        if (x.mate != kBoundaryMate && x.mate < r)
            continue; // the pair was taken from its other side
        const Edge e = x.matchEdge;
        use(e);
        expand.emplace_back(r, endpointIn(e, r));
        if (x.mate != kBoundaryMate)
            expand.emplace_back(x.mate, endpointIn(e, x.mate));
    }
    while (!expand.empty()) {
        const auto [b, event] = expand.back();
        expand.pop_back();
        if (b < m_)
            continue; // an event's own region
        const size_t n = reg(b).cycle.size();
        const size_t i = childIndex(event, b);
        expand.emplace_back(reg(b).cycle[i], event);
        for (size_t j = 1; j < n; j += 2) {
            const size_t i1 = (i + j) % n;
            const size_t i2 = (i + j + 1) % n;
            const Edge e = reg(b).cycleEdges[i1];
            const int32_t c1 = reg(b).cycle[i1];
            const int32_t c2 = reg(b).cycle[i2];
            use(e);
            expand.emplace_back(c1, endpointIn(e, c1));
            expand.emplace_back(c2, endpointIn(e, c2));
        }
    }
    return observables;
}

/**
 * v's planned event fired: act on the planned slot if the plan still
 * stands, else on what a new scan finds now, or plan again if that is
 * later. After acting, plan v's next event unless something on the
 * way planned it.
 */
void
SparseBlossom::Run::lookAtNode(uint32_t v)
{
    uint32_t si = cold(v).planSlot;
    if (hot(v).plan != growth(hot(v).top).version
        || cold(v).planOther != coverVersion(g_.slots_[si].other)) {
        const Next next = nextEvent<false>(v);
        if (next.time == kNever)
            return;
        if (next.time > now_) {
            plan(v, next);
            return;
        }
        VLQ_ASSERT(next.time == now_, "sparse blossom: an event was missed");
        si = next.slot;
    }
    const Slot slot = g_.slots_[si];
    const uint32_t u = slot.other;
    const uint32_t observables =
        cold(v).observables ^ g_.slotObservables_[si];
    const int32_t top = hot(v).top;
    const int32_t source = cold(v).source;
    const int64_t dist = cold(v).dist + slot.weight;
    if (u == g_.boundary_) {
        hitBoundary(top, Edge{source, kNone, observables, dist});
    } else if (!covered(u)) {
        // v's region grows into u.
        hot(u) = NodeHot{top, 0, hot(v).wrapped - slot.weight};
        NodeCold& cu = cold(u);
        cu.eventSeq = 0;
        cu.source = source;
        cu.dist = dist;
        cu.observables = observables;
        reg(top).shell.push_back(u);
        scheduleNode<true>(u);
    } else {
        collide(top, hot(u).top,
                Edge{source, cold(u).source,
                     observables ^ cold(u).observables,
                     dist + cold(u).dist});
    }
    if (covered(v) && cold(v).eventSeq == 0)
        scheduleNode<false>(v);
}

void
SparseBlossom::Run::shrink(int32_t r)
{
    Region& x = reg(r);
    const bool trivial = r < m_;
    if (!x.shell.empty() && !(trivial && x.shell.size() == 1)) {
        const uint32_t v = x.shell.back();
        x.shell.pop_back();
        hot(v) = NodeHot{};
        cold(v).eventSeq = 0;
        // Growing neighbours may now move into v.
        for (uint32_t si = g_.begin_[v]; si < g_.begin_[v + 1]; ++si) {
            const uint32_t u = g_.slots_[si].other;
            if (covered(u))
                scheduleNode<false>(u);
        }
        scheduleShrink(r);
    } else if (trivial) {
        implode(r);
    } else {
        shatter(r);
    }
}

/** Regions a and b touch along e; at least one of them grows. */
void
SparseBlossom::Run::collide(int32_t a, int32_t b, const Edge& e)
{
    if (reg(a).state != State::Outer)
        std::swap(a, b);
    VLQ_ASSERT(reg(a).state == State::Outer,
               "sparse blossom: a collision without a growing region");
    switch (reg(b).state) {
      case State::Outer: {
        const int32_t rootA = root(a);
        const int32_t rootB = root(b);
        if (rootA == rootB) {
            formBlossom(a, b, e);
            return;
        }
        s_.members.clear();
        collectTree(rootA);
        collectTree(rootB);
        augmentPath(a, b, e);
        augmentPath(b, a, e);
        unmatched_ -= 2;
        dissolve();
        return;
      }
      case State::Matched:
        if (reg(b).mate == kBoundaryMate) {
            // The path root..a..b..boundary augments: b trades its
            // boundary match for a.
            s_.members.clear();
            collectTree(root(a));
            augmentPath(a, b, e);
            reg(b).mate = a;
            reg(b).matchEdge = e;
            unmatched_ -= 1;
            dissolve();
        } else {
            grow(a, b, e);
        }
        return;
      default:
        VLQ_PANIC("sparse blossom: a growing region met a shrinking one");
    }
}

void
SparseBlossom::Run::hitBoundary(int32_t x, const Edge& e)
{
    VLQ_ASSERT(reg(x).state == State::Outer,
               "sparse blossom: a frozen region reached the boundary");
    s_.members.clear();
    collectTree(root(x));
    augmentPath(x, kBoundaryMate, e);
    unmatched_ -= 1;
    dissolve();
}

/** Outer a meets b, matched to c: b joins a's tree as inner, c as outer. */
void
SparseBlossom::Run::grow(int32_t a, int32_t b, const Edge& e)
{
    const int32_t c = reg(b).mate;
    Region& x = reg(b);
    x.state = State::Inner;
    x.treeParent = a;
    x.treeEdge = e;
    reg(a).treeChildren.push_back(b);
    setSlope(b, -1);
    scheduleShrink(b);
    reg(c).state = State::Outer;
    reg(c).treeChildren.clear();
    setSlope(c, 1);
    rescheduleNodes(c);
}

int32_t
SparseBlossom::Run::root(int32_t r)
{
    for (;;) {
        const Region& x = reg(r);
        if (x.state == State::Inner)
            r = x.treeParent;
        else if (x.mate == kNone)
            return r;
        else
            r = reg(x.mate).treeParent;
    }
}

/** Append every region of the tree rooted at `root` to s_.members. */
void
SparseBlossom::Run::collectTree(int32_t root)
{
    std::vector<int32_t>& walk = s_.walk;
    walk.clear();
    walk.push_back(root);
    while (!walk.empty()) {
        const int32_t r = walk.back();
        walk.pop_back();
        s_.members.push_back(r);
        if (reg(r).state == State::Inner)
            walk.push_back(reg(r).mate);
        else
            for (int32_t c : reg(r).treeChildren)
                walk.push_back(c);
    }
}

/**
 * Match outer x to `mate` along e and flip the matching on the tree
 * path from x to its root.
 */
void
SparseBlossom::Run::augmentPath(int32_t x, int32_t mate, const Edge& e)
{
    int32_t cur = x;
    Edge edge = e;
    for (;;) {
        const int32_t old = reg(cur).mate;
        reg(cur).mate = mate;
        reg(cur).matchEdge = edge;
        if (old == kNone)
            return;
        const int32_t parent = reg(old).treeParent;
        edge = reg(old).treeEdge;
        reg(old).mate = parent;
        reg(old).matchEdge = edge;
        mate = old;
        cur = parent;
    }
}

/** Freeze every region of s_.members as matched, outside any tree. */
void
SparseBlossom::Run::dissolve()
{
    s_.raised.clear();
    for (int32_t r : s_.members) {
        Region& x = reg(r);
        if (x.state == State::Inner)
            s_.raised.push_back(r);
        x.state = State::Matched;
        x.treeChildren.clear();
        x.treeParent = kNone;
        x.shrinkSeq = 0;
        setSlope(r, 0);
    }
    for (int32_t r : s_.raised)
        rescheduleNodes(r);
}

/**
 * Outer x and y of one tree touch along e: contract the odd cycle
 * through their lowest common ancestor into a new outer blossom, which
 * takes the ancestor's place in the tree.
 */
void
SparseBlossom::Run::formBlossom(int32_t x, int32_t y, const Edge& e)
{
    std::vector<int32_t>& pathX = s_.pathX;
    std::vector<int32_t>& pathY = s_.pathY;
    const uint64_t mark = ++s_.mark;
    pathX.clear();
    for (int32_t r = x;;) {
        pathX.push_back(r);
        reg(r).mark = mark;
        const int32_t inner = reg(r).mate;
        if (inner == kNone)
            break;
        pathX.push_back(inner);
        r = reg(inner).treeParent;
    }
    pathY.clear();
    for (int32_t r = y;;) {
        pathY.push_back(r);
        if (reg(r).mark == mark)
            break;
        const int32_t inner = reg(r).mate;
        pathY.push_back(inner);
        r = reg(inner).treeParent;
    }
    const int32_t lca = pathY.back();
    pathX.resize(static_cast<size_t>(
        std::find(pathX.begin(), pathX.end(), lca) - pathX.begin() + 1));

    // Consecutive tree regions are joined by the inner one's tree edge
    // or by the match between them.
    auto between = [this](int32_t a, int32_t b) {
        if (reg(a).state == State::Inner && reg(a).treeParent == b)
            return reg(a).treeEdge;
        if (reg(b).state == State::Inner && reg(b).treeParent == a)
            return reg(b).treeEdge;
        return reg(a).matchEdge;
    };
    const int32_t bl = newRegion();
    Region& blossom = reg(bl);
    std::vector<int32_t>& cycle = blossom.cycle;
    std::vector<Edge>& cycleEdges = blossom.cycleEdges;
    for (size_t k = pathX.size(); k-- > 0;) {
        if (!cycle.empty())
            cycleEdges.push_back(between(cycle.back(), pathX[k]));
        cycle.push_back(pathX[k]);
    }
    cycleEdges.push_back(e);
    for (size_t k = 0; k + 1 < pathY.size(); ++k) {
        if (k > 0)
            cycleEdges.push_back(between(cycle.back(), pathY[k]));
        cycle.push_back(pathY[k]);
    }
    if (pathY.size() > 1)
        cycleEdges.push_back(between(cycle.back(), lca));

    blossom.state = State::Outer;
    setRadius(bl, -now_, 1);
    blossom.mate = reg(lca).mate;
    blossom.matchEdge = reg(lca).matchEdge;
    if (blossom.mate != kNone)
        reg(blossom.mate).mate = bl;
    const uint64_t inCycle = ++s_.mark;
    for (int32_t c : cycle)
        reg(c).mark = inCycle;
    for (int32_t c : cycle) {
        if (reg(c).state != State::Outer)
            continue;
        for (int32_t child : reg(c).treeChildren) {
            if (reg(child).mark == inCycle)
                continue;
            reg(bl).treeChildren.push_back(child);
            reg(child).treeParent = bl;
        }
    }
    s_.raised.clear();
    for (int32_t c : cycle) {
        if (reg(c).state == State::Inner)
            s_.raised.push_back(c);
        const int64_t rad = radius(c);
        Region& child = reg(c);
        child.state = State::Internal;
        child.blossomParent = bl;
        child.shrinkSeq = 0;
        setRadius(c, rad, 0);
        child.treeChildren.clear();
        child.treeParent = kNone;
        forEachNode(c, [this, bl, rad](uint32_t v) {
            hot(v).top = bl;
            hot(v).plan = 0;
            hot(v).wrapped += rad;
        });
    }
    // Former inner regions now grow.
    for (int32_t c : s_.raised)
        rescheduleNodes(c);
}

/**
 * Inner blossom b has shrunk to radius zero: expand it. The even path
 * around its cycle from the child under its tree edge to the child
 * under its match edge stays in the tree, alternating inner and outer;
 * the rest of the cycle pairs off along cycle edges.
 */
void
SparseBlossom::Run::shatter(int32_t b)
{
    const int32_t parent = reg(b).treeParent;
    const Edge parentEdge = reg(b).treeEdge;
    const int32_t mate = reg(b).mate;
    const Edge mateEdge = reg(b).matchEdge;
    const size_t n = reg(b).cycle.size();
    const size_t ip = childIndex(endpointIn(parentEdge, b), b);
    const size_t im = childIndex(endpointIn(mateEdge, b), b);

    for (int32_t c : reg(b).cycle) {
        const int64_t rad = radius(c);
        reg(c).blossomParent = kNone;
        forEachNode(c, [this, c, rad](uint32_t v) {
            hot(v).top = c;
            hot(v).plan = 0;
            hot(v).wrapped -= rad;
        });
    }

    const size_t forward = (im + n - ip) % n;
    const bool fwd = forward % 2 == 0;
    const size_t step = fwd ? 1 : n - 1;
    const size_t len = (fwd ? forward : n - forward) + 1;
    // The edge from cycle[i] to the next child in the walk direction.
    auto edgeOut = [&](size_t i) {
        return fwd ? reg(b).cycleEdges[i] : reg(b).cycleEdges[(i + step) % n];
    };
    s_.raised.clear();
    int32_t prev = parent;
    Edge prevEdge = parentEdge;
    size_t i = ip;
    for (size_t k = 0; k < len; ++k) {
        const int32_t c = reg(b).cycle[i];
        const size_t next = (i + step) % n;
        const Edge nextEdge = k + 1 < len ? edgeOut(i) : mateEdge;
        Region& x = reg(c);
        x.treeChildren.clear();
        if (k % 2 == 0) {
            x.state = State::Inner;
            x.treeParent = prev;
            x.treeEdge = prevEdge;
            x.mate = k + 1 < len ? reg(b).cycle[next] : mate;
            x.matchEdge = nextEdge;
            setSlope(c, -1);
            scheduleShrink(c);
        } else {
            x.state = State::Outer;
            x.treeParent = kNone;
            x.mate = prev;
            x.matchEdge = prevEdge;
            x.treeChildren.push_back(reg(b).cycle[next]);
            setSlope(c, 1);
            s_.raised.push_back(c);
        }
        prev = c;
        prevEdge = nextEdge;
        i = next;
    }
    reg(mate).mate = reg(b).cycle[im];
    for (int32_t& child : reg(parent).treeChildren)
        if (child == b)
            child = reg(b).cycle[ip];
    for (size_t k = 0; k + len < n; k += 2) {
        const size_t i2 = (i + step) % n;
        const int32_t c1 = reg(b).cycle[i];
        const int32_t c2 = reg(b).cycle[i2];
        const Edge e = edgeOut(i);
        for (const int32_t c : {c1, c2}) {
            Region& x = reg(c);
            x.state = State::Matched;
            x.treeParent = kNone;
            x.treeChildren.clear();
            x.mate = c == c1 ? c2 : c1;
            x.matchEdge = e;
            setSlope(c, 0);
            s_.raised.push_back(c);
        }
        i = (i2 + step) % n;
    }
    reg(b).state = State::Dead;
    reg(b).shrinkSeq = 0;
    for (int32_t c : s_.raised)
        rescheduleNodes(c);
}

/**
 * Trivial inner region t has shrunk to radius zero: its tree parent and
 * its child now touch at t's event, and the path through it is tight.
 * That closes the odd cycle parent-t-child into a blossom.
 */
void
SparseBlossom::Run::implode(int32_t t)
{
    const int32_t parent = reg(t).treeParent;
    const int32_t child = reg(t).mate;
    const Edge up = reg(t).treeEdge;
    const Edge down = reg(t).matchEdge;
    const Edge through{up.a == t ? up.b : up.a,
                       down.a == t ? down.b : down.a,
                       up.observables ^ down.observables,
                       up.weight + down.weight};
    formBlossom(child, parent, through);
}

bool
SparseBlossom::Run::inside(int32_t event, int32_t r)
{
    for (int32_t x = event; x != kNone; x = reg(x).blossomParent)
        if (x == r)
            return true;
    return false;
}

/** The endpoint of e inside region r. */
int32_t
SparseBlossom::Run::endpointIn(const Edge& e, int32_t r)
{
    return inside(e.a, r) ? e.a : e.b;
}

/** Index in blossom b's cycle of the child holding `event`. */
size_t
SparseBlossom::Run::childIndex(int32_t event, int32_t b)
{
    int32_t x = event;
    while (reg(x).blossomParent != b)
        x = reg(x).blossomParent;
    const std::vector<int32_t>& cycle = reg(b).cycle;
    return static_cast<size_t>(std::find(cycle.begin(), cycle.end(), x)
                               - cycle.begin());
}

} // namespace vlq
