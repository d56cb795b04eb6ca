#ifndef PIPEBENCH_SPANS_H
#define PIPEBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pipebench {

/** Nanoseconds on the steady clock. */
uint64_t nowNs();

/** Seconds elapsed on the steady clock since `start`. */
double secondsSince(std::chrono::steady_clock::time_point start);

/**
 * One timed call of the traced run. Spans nest by `parent`; every span
 * of one workload point carries that point's id, and the pass-level
 * spans carry -1.
 */
struct Span
{
    const char* name = "";
    uint64_t id = 0;
    uint64_t parent = 0; // 0 = root
    int32_t point = -1;
    uint32_t lane = 0;   // 0 = main thread, w + 1 = worker w
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/**
 * In-memory span store of the traced run, written out once the run
 * ends. Safe to append from worker threads.
 */
class SpanLog
{
  public:
    uint64_t newId() { return nextId_.fetch_add(1); }

    /** A point id no earlier span of this log carries. */
    int32_t newPointId() { return nextPoint_.fetch_add(1); }

    void add(const Span& span);
    void addAll(const std::vector<Span>& spans);

    /** Copy of everything recorded so far. */
    std::vector<Span> spans() const;

    /**
     * Structural problems, one per line (empty = well formed): a
     * parent that does not exist or does not enclose its child, a
     * child of another point, or a point id owning more than one
     * `point` span.
     */
    std::string validate() const;

    /** Chrome trace_event JSON; `otherData` is a JSON object. */
    std::string chromeJson(const std::string& otherData) const;

    /**
     * Per-layer table: each span name's calls, self time (duration
     * minus the time its children cover) and blocking time. Spans on
     * the main lane block the result for their whole self time; the
     * covered part of a parallel span is split among its worker-lane
     * descendants in proportion to their self time.
     */
    void printLayerTable(std::ostream& out) const;

  private:
    std::atomic<uint64_t> nextId_{1};
    std::atomic<int32_t> nextPoint_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Span of one call on the main lane, recorded when closed. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const char* name, uint64_t parent,
               int32_t point);
    ~ScopedSpan() { close(); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    uint64_t id() const { return span_.id; }

    /** Record the span (once) and return its duration in seconds. */
    double close();

  private:
    SpanLog& log_;
    Span span_;
    bool open_ = true;
};

} // namespace pipebench

#endif // PIPEBENCH_SPANS_H
