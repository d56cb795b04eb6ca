#ifndef VLQ_OBS_METRICS_H
#define VLQ_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vlq {
namespace obs {

/**
 * Metrics core of the observability layer: a process-wide registry of
 * named counters, gauges, and log-scale histograms, built so the
 * Monte-Carlo hot loop can be instrumented permanently:
 *
 *  - Disabled (the default), an instrumentation site costs one relaxed
 *    atomic load and the registry is never even allocated -- the
 *    "zero-cost-when-disabled" contract test_obs pins down.
 *  - Enabled, every writing thread owns a lock-free shard (plain
 *    relaxed atomics, no CAS loops on the counter path), so the MC
 *    thread pool never contends on a metric. Shards of exited threads
 *    fold into a retired accumulator, and snapshotMetrics() merges
 *    retired + live shards under the registry mutex -- scrapes see
 *    every update of every thread that has finished, and an atomically
 *    consistent-enough view of the ones still running.
 *
 * Handles (Counter/Gauge/Histogram) are small ids, cheap to copy and
 * to cache in function-local statics at instrumentation sites:
 *
 *     if (obs::metricsEnabled()) {
 *         static const obs::Counter c = obs::Counter::get("uf.growth");
 *         c.add(1);
 *     }
 *
 * The guard keeps the static un-constructed (and the registry
 * unallocated) until metrics are actually turned on.
 */

namespace detail {
/** Bit 0: metrics, bit 1: tracing. Shared so one load guards both. */
extern std::atomic<uint32_t> gObsFlags;
constexpr uint32_t kMetricsBit = 1u;
constexpr uint32_t kTraceBit = 2u;
inline uint32_t obsFlags()
{
    return gObsFlags.load(std::memory_order_relaxed);
}
} // namespace detail

/** Whether metric recording is on (one relaxed load; hot-path guard). */
inline bool metricsEnabled()
{
    return (detail::obsFlags() & detail::kMetricsBit) != 0;
}

void setMetricsEnabled(bool on);

/**
 * True once the registry singleton has been allocated. Purely a test
 * hook: the disabled-by-default build must never create it.
 */
bool registryCreated();

/** Monotonically increasing event count. */
class Counter
{
  public:
    /** Intern `name`, creating the registry on first use. */
    static Counter get(std::string_view name);

    void add(uint64_t delta = 1) const;

    uint32_t id() const { return id_; }

  private:
    explicit Counter(uint32_t id) : id_(id) {}
    uint32_t id_;
};

/** Last-write-wins instantaneous value (thread count, batch size). */
class Gauge
{
  public:
    static Gauge get(std::string_view name);

    void set(int64_t value) const;

    uint32_t id() const { return id_; }

  private:
    explicit Gauge(uint32_t id) : id_(id) {}
    uint32_t id_;
};

/**
 * Log-scale (power-of-two bucket) histogram for latency-like values.
 * Bucket 0 holds zeros; bucket i >= 1 holds values in [2^(i-1), 2^i).
 * Values are unitless to the registry; the pipeline records
 * nanoseconds everywhere (reports label them as such).
 */
class Histogram
{
  public:
    static Histogram get(std::string_view name);

    void record(uint64_t value) const;

    uint32_t id() const { return id_; }

  private:
    explicit Histogram(uint32_t id) : id_(id) {}
    uint32_t id_;
};

/** Number of power-of-two histogram buckets (covers uint64 range). */
constexpr uint32_t kHistogramBuckets = 65;

/** Merged view of one histogram across all shards. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0; // 0 when empty
    uint64_t max = 0;
    std::array<uint64_t, kHistogramBuckets> buckets{};

    /**
     * Quantile estimate (q in [0, 1]) by geometric interpolation
     * within the covering bucket, clamped to [min, max]. 0 if empty.
     */
    double quantile(double q) const;

    /** Arithmetic mean (0 if empty). */
    double mean() const
    {
        return count ? static_cast<double>(sum)
                / static_cast<double>(count) : 0.0;
    }
};

/** Point-in-time merge of every registered metric. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

    /** Value of a counter by name (0 when absent). */
    uint64_t counter(std::string_view name) const;

    /** Histogram by name (nullptr when absent). */
    const HistogramSnapshot* histogram(std::string_view name) const;
};

/**
 * Merge retired and live shards into one consistent snapshot. Safe to
 * call at any time; for exact totals call it with worker threads
 * joined (the MC driver always has: a point returns after its
 * ThreadPool joins).
 */
MetricsSnapshot snapshotMetrics();

/**
 * Canonical labeled metric name: `base{key="value"}` (Prometheus-style
 * escaping of backslash and double quote in the value). The registry
 * itself is label-unaware -- a labeled name is interned like any
 * other -- but every multiplexed producer (the scan job service's
 * per-job counters) must build names through this helper so labels
 * stay parseable and one convention holds across the report.
 */
std::string labeledName(std::string_view base, std::string_view key,
                        std::string_view value);

} // namespace obs
} // namespace vlq

#endif // VLQ_OBS_METRICS_H
