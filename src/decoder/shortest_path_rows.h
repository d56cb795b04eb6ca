#ifndef VLQ_DECODER_SHORTEST_PATH_ROWS_H
#define VLQ_DECODER_SHORTEST_PATH_ROWS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

namespace vlq {

/**
 * A decoder's single-source shortest-path rows, each published once, on
 * first use, and shared by every thread decoding through the decoder.
 *
 * Row `src` holds, for every node t, the shortest-path weight from src
 * to t and the XOR of observable masks along that path. get() returns
 * the row, filling it first if no thread has published it: the caller
 * fills a copy of its own and publishes it with one compare-and-swap
 * (release ordering), and every reader acquire-loads the row pointer
 * before touching the row. No thread ever waits for another. When
 * threads race for the same row, each fills a copy, the first swap
 * wins, and the others drop theirs and read the winner's. Rows are
 * allocated only when filled, so a decoder pays memory only for the
 * sources its syndromes touch.
 *
 * A row is a pure function of the graph and src, so every copy is the
 * same and nothing read through the table depends on which thread
 * filled which row (docs/ARCHITECTURE.md invariant 9).
 */
template <typename Dist, typename Obs>
class ShortestPathRows
{
  public:
    /** Read-only view of one published row; valid while the table lives. */
    struct Row
    {
        const Dist* dist = nullptr;
        const Obs* obs = nullptr;
    };

    /** `numRows` unpublished rows of `rowLength` entries each. */
    ShortestPathRows(uint32_t numRows, uint32_t rowLength)
        : rowLength_(rowLength),
          published_(std::make_unique<std::atomic<const Data*>[]>(numRows)),
          owned_(std::make_unique<std::unique_ptr<Data>[]>(numRows))
    {
    }

    /**
     * Row `src`. Until it is published, the caller fills a copy with
     * `fill(src, std::span<Dist>, std::span<Obs>)`, which must write
     * every entry, and publishes it unless another thread published
     * first. `onPublish()` runs once per row, in the thread whose copy
     * was published.
     */
    template <typename Fill, typename OnPublish>
    Row get(uint32_t src, const Fill& fill, const OnPublish& onPublish) const
    {
        const Data* row = published_[src].load(std::memory_order_acquire);
        if (row == nullptr) [[unlikely]]
            row = publish(src, fill, onPublish);
        return Row{row->dist.get(), row->obs.get()};
    }

  private:
    struct Data
    {
        explicit Data(uint32_t n)
            : dist(std::make_unique<Dist[]>(n)),
              obs(std::make_unique<Obs[]>(n))
        {
        }
        std::unique_ptr<Dist[]> dist;
        std::unique_ptr<Obs[]> obs;
    };

    template <typename Fill, typename OnPublish>
    const Data* publish(uint32_t src, const Fill& fill,
                        const OnPublish& onPublish) const
    {
        auto mine = std::make_unique<Data>(rowLength_);
        fill(src, std::span<Dist>(mine->dist.get(), rowLength_),
             std::span<Obs>(mine->obs.get(), rowLength_));
        const Data* winner = nullptr;
        if (!published_[src].compare_exchange_strong(
                winner, mine.get(), std::memory_order_acq_rel,
                std::memory_order_acquire))
            return winner; // lost the race; `mine` is dropped
        onPublish();
        // Only the thread whose swap succeeded writes this slot.
        owned_[src] = std::move(mine);
        return owned_[src].get();
    }

    uint32_t rowLength_ = 0;
    std::unique_ptr<std::atomic<const Data*>[]> published_;
    std::unique_ptr<std::unique_ptr<Data>[]> owned_;
};

} // namespace vlq

#endif // VLQ_DECODER_SHORTEST_PATH_ROWS_H
