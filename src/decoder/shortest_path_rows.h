#ifndef VLQ_DECODER_SHORTEST_PATH_ROWS_H
#define VLQ_DECODER_SHORTEST_PATH_ROWS_H

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "decoder/decoding_graph.h"
#include "obs/obs.h"

namespace vlq {

/**
 * The single-source shortest-path rows of a decoder (MatchingPaths
 * holds them), shared by every thread decoding through the decoder.
 * Each row settles only as far from its source as its readers reach.
 *
 * Row `src` holds, for the nodes its search settled, the shortest-path
 * weight from src and the XOR of observable masks along that path. A
 * row's extent is the set of nodes settled: whole buckets of
 * DecodingGraph::settle(), so every entry equals the complete search's
 * entry bit for bit (a node is final once its bucket is settled), and
 * extents of one source nest. get(src, targets) reads the row at every
 * target. When the published row misses one, the caller searches again
 * from src until the targets and at least twice the published row's
 * nodes are settled (or, past half the graph, every node), and
 * publishes that search's settled set alone: it contains the old one.
 * So a row is published O(log n) times, and a wider copy that is not
 * complete settles at least as many new nodes as it settles again. A
 * partial row stores its settled entries in node order, so memory
 * follows what readers touch; a complete row is a plain array indexed
 * by node.
 *
 * Publication never makes a thread wait. The caller builds a copy of
 * its own and publishes it with one compare-and-swap (release
 * ordering) over the copy it saw; readers acquire-load the row pointer
 * before touching the row. When threads race, the first swap wins; a
 * loser whose copy settled no more than the winner's drops its copy
 * and reads the winner's, and otherwise swaps again. So a published
 * extent only grows. A replaced copy stays alive, linked from its
 * successor, until the table dies: a reader may still be reading it.
 *
 * The entries a reader sees depend only on the graph, src and the node
 * read, never on the order of requests or which thread filled which
 * copy; only the extent does (docs/ARCHITECTURE.md invariant 9).
 *
 * While obs metrics are enabled the table records its own work: the
 * `rows.fill` histogram times every search and copy, including copies
 * that lose the race; `rows.nodes` counts the nodes those searches
 * settled, a wider copy's re-settled nodes included; `rows.filled`
 * counts rows published for the first time and `rows.extended` wider
 * copies that replaced a published one.
 */
class ShortestPathRows
{
  public:
    /** `numRows` unpublished rows. */
    explicit ShortestPathRows(uint32_t numRows)
        : numRows_(numRows),
          published_(std::make_unique<std::atomic<const Data*>[]>(numRows))
    {
    }

    ~ShortestPathRows()
    {
        for (uint32_t i = 0; i < numRows_; ++i) {
            const Data* d = published_[i].load(std::memory_order_relaxed);
            while (d != nullptr) {
                const Data* superseded = d->superseded;
                delete d;
                d = superseded;
            }
        }
    }

    /**
     * Row `src` at every node of `targets`: dist[i] receives the
     * path weight from src to targets[i] (infinity when unreachable)
     * and obs[i] the XOR of observable masks along the path. Targets
     * may come in any order; ascending ones are found fastest.
     *
     * When the published copy misses a target (or none is published),
     * the caller runs `search(src, targets, minSettled)`, which must
     * return the DecodingGraph::Settled of DecodingGraph::settle() from
     * src with those arguments. The caller publishes a copy of the
     * result unless another thread published one at least as large
     * first. MatchingPaths searches with settle(); tests pass a
     * reference or a blocking search.
     */
    template <typename Search>
    void get(uint32_t src, std::span<const uint32_t> targets,
             std::span<double> dist, std::span<uint32_t> obs,
             const Search& search) const
    {
        const Data* row = published_[src].load(std::memory_order_acquire);
        if (row == nullptr || !row->read(targets, dist, obs)) [[unlikely]] {
            row = extend(src, row, targets, search);
            row->read(targets, dist, obs);
        }
    }

    /** Nodes the published copy of row `src` settled (0: none yet). */
    uint32_t settled(uint32_t src) const
    {
        const Data* row = published_[src].load(std::memory_order_acquire);
        return row == nullptr ? 0 : row->settled;
    }

    /** Row `src` is published with every reachable node settled. */
    bool complete(uint32_t src) const
    {
        const Data* row = published_[src].load(std::memory_order_acquire);
        return row != nullptr && row->complete;
    }

  private:
    struct Data
    {
        // Settled entries: ascending by node while the row is partial,
        // indexed by node (infinite and 0 where unreachable) once it is
        // complete, so a complete row reads like a plain array.
        std::vector<uint32_t> nodes;
        std::vector<double> dist;
        std::vector<uint32_t> obs;
        uint32_t settled = 0;
        bool complete = false;
        const Data* superseded = nullptr; // the copy this one replaced

        /** The entries at `targets`; false when one is unsettled. */
        bool read(std::span<const uint32_t> targets, std::span<double> d,
                  std::span<uint32_t> o) const
        {
            if (complete) {
                for (size_t i = 0; i < targets.size(); ++i) {
                    d[i] = dist[targets[i]];
                    o[i] = obs[targets[i]];
                }
                return true;
            }
            size_t from = 0;
            uint32_t prev = 0;
            for (size_t i = 0; i < targets.size(); ++i) {
                const uint32_t t = targets[i];
                if (t < prev)
                    from = 0;
                prev = t;
                const auto it = std::lower_bound(
                    nodes.begin() + static_cast<std::ptrdiff_t>(from),
                    nodes.end(), t);
                if (it == nodes.end() || *it != t)
                    return false;
                from = static_cast<size_t>(it - nodes.begin());
                d[i] = dist[from];
                o[i] = obs[from];
            }
            return true;
        }
    };

    /** A copy of the search's settled entries. */
    std::unique_ptr<Data> copy(const DecodingGraph::Settled& s) const
    {
        auto d = std::make_unique<Data>();
        d->settled = static_cast<uint32_t>(s.nodes.size());
        d->complete = s.complete;
        if (s.complete) {
            d->dist.assign(numRows_, std::numeric_limits<double>::infinity());
            d->obs.assign(numRows_, 0);
            for (const uint32_t t : s.nodes) {
                d->dist[t] = s.dist[t];
                d->obs[t] = s.obs[t];
            }
            return d;
        }

        // The settled nodes reach node order through a bitmap, which
        // the walk below clears again.
        thread_local std::vector<uint64_t> bits;
        uint32_t lo = std::numeric_limits<uint32_t>::max();
        uint32_t hi = 0;
        for (const uint32_t t : s.nodes) {
            if (bits.size() <= (t >> 6))
                bits.resize((t >> 6) + 1, 0);
            bits[t >> 6] |= uint64_t{1} << (t & 63);
            lo = std::min(lo, t);
            hi = std::max(hi, t);
        }
        d->nodes.reserve(d->settled);
        d->dist.reserve(d->settled);
        d->obs.reserve(d->settled);
        for (uint32_t w = lo >> 6; !s.nodes.empty() && w <= (hi >> 6); ++w) {
            for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
                const uint32_t t =
                    (w << 6) + static_cast<uint32_t>(std::countr_zero(word));
                d->nodes.push_back(t);
                d->dist.push_back(s.dist[t]);
                d->obs.push_back(s.obs[t]);
            }
            bits[w] = 0;
        }
        return d;
    }

    template <typename Search>
    const Data* extend(uint32_t src, const Data* seen,
                       std::span<const uint32_t> targets,
                       const Search& search) const
    {
        const bool timed = obs::metricsEnabled();
        const uint64_t start = timed ? obs::traceNowNs() : 0;
        // A partial row holds under half the graph's nodes, so twice
        // its extent fits.
        const DecodingGraph::Settled s =
            search(src, targets, seen == nullptr ? 0 : 2 * seen->settled);
        std::unique_ptr<Data> mine = copy(s);
        if (timed)
            countFill(obs::traceNowNs() - start, s.nodes.size());
        for (;;) {
            mine->superseded = seen;
            if (published_[src].compare_exchange_strong(
                    seen, mine.get(), std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                if (timed)
                    countPublished(mine->superseded != nullptr);
                return mine.release(); // owned through the row's chain
            }
            // Another thread published `seen` first. Extents of one
            // source nest, so a copy that settled at least as many
            // nodes covers every target `mine` covers.
            if (seen->settled >= mine->settled)
                return seen; // `mine` is dropped
        }
    }

    static void countFill(uint64_t ns, size_t nodes)
    {
        static const obs::Histogram fillNs = obs::Histogram::get("rows.fill");
        static const obs::Counter settled = obs::Counter::get("rows.nodes");
        fillNs.record(ns);
        settled.add(nodes);
    }

    static void countPublished(bool extended)
    {
        static const obs::Counter filled = obs::Counter::get("rows.filled");
        static const obs::Counter grown = obs::Counter::get("rows.extended");
        (extended ? grown : filled).add(1);
    }

    uint32_t numRows_ = 0;
    std::unique_ptr<std::atomic<const Data*>[]> published_;
};

} // namespace vlq

#endif // VLQ_DECODER_SHORTEST_PATH_ROWS_H
