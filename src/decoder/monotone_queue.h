#ifndef VLQ_DECODER_MONOTONE_QUEUE_H
#define VLQ_DECODER_MONOTONE_QUEUE_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace vlq {

/**
 * A monotone priority queue of items keyed (time, seq): a radix heap on
 * the time (Ahuja, Mehlhorn, Orlin & Tarjan, J. ACM 37(2), 1990) whose
 * buckets keep their items in push order. push() numbers items 1, 2,
 * ... since the last clear(), and every push must carry a time no
 * earlier than the last popped one. Under that contract items pop in
 * (time, seq) order, exactly as a binary heap on that key pops them.
 *
 * Bucket 0 holds the items whose time equals the last popped time;
 * bucket k > 0 those whose highest bit that differs from it is bit
 * k - 1. When bucket 0 runs dry, the lowest non-empty bucket is spread
 * over the buckets below it around its earliest time. Each item moves
 * down at most 64 times, and in practice a few. A push appends the
 * largest seq so far, and a spread copies one bucket's items, in order,
 * into empty buckets, so every bucket stays in seq order and bucket 0
 * pops first in, first out.
 */
class MonotoneQueue
{
  public:
    struct Item
    {
        uint64_t time;
        uint32_t seq;
        uint32_t id;
    };

    /** Empty the queue and restart its time and numbering at zero. */
    void clear()
    {
        zero_.clear();
        head_ = 0;
        for (uint64_t bits = nonEmpty_; bits != 0; bits &= bits - 1)
            buckets_[static_cast<size_t>(std::countr_zero(bits))].clear();
        nonEmpty_ = 0;
        last_ = 0;
        seq_ = 0;
    }

    bool empty() const { return head_ == zero_.size() && nonEmpty_ == 0; }

    /** Add an item at `time` (>= the last popped time); returns its seq. */
    uint32_t push(uint64_t time, uint32_t id)
    {
        VLQ_ASSERT(time >= last_, "monotone queue: a push went back in time");
        const uint32_t seq = ++seq_;
        VLQ_ASSERT(seq != 0, "monotone queue: sequence numbers ran out");
        place(Item{time, seq, id});
        return seq;
    }

    /** Remove and return the earliest item, the oldest among equals. */
    Item pop()
    {
        if (head_ == zero_.size()) {
            zero_.clear();
            head_ = 0;
            spread();
        }
        return zero_[head_++];
    }

  private:
    void place(const Item& item)
    {
        if (item.time == last_) {
            zero_.push_back(item);
            return;
        }
        // The highest differing bit: bucket k - 1 in buckets_.
        const int k = 63 - std::countl_zero(item.time ^ last_);
        buckets_[static_cast<size_t>(k)].push_back(item);
        nonEmpty_ |= uint64_t{1} << k;
    }

    /** Refill bucket 0 from the lowest non-empty bucket. */
    void spread()
    {
        VLQ_ASSERT(nonEmpty_ != 0, "monotone queue: pop from an empty queue");
        const int k = std::countr_zero(nonEmpty_);
        std::vector<Item>& from = buckets_[static_cast<size_t>(k)];
        uint64_t earliest = from.front().time;
        for (const Item& item : from)
            earliest = item.time < earliest ? item.time : earliest;
        last_ = earliest;
        nonEmpty_ &= ~(uint64_t{1} << k);
        // Every item of bucket k agrees with the new time above bit k,
        // so each lands in bucket 0 or a bucket below k.
        for (const Item& item : from)
            place(item);
        from.clear();
    }

    std::vector<Item> zero_; // time == last_, popped from head_
    size_t head_ = 0;
    std::array<std::vector<Item>, 64> buckets_;
    uint64_t nonEmpty_ = 0; // bit k: buckets_[k] holds items
    uint64_t last_ = 0;
    uint32_t seq_ = 0;
};

} // namespace vlq

#endif // VLQ_DECODER_MONOTONE_QUEUE_H
