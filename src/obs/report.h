#ifndef VLQ_OBS_REPORT_H
#define VLQ_OBS_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace vlq {
namespace obs {

/**
 * Structured end-of-run report: everything a perf claim needs in one
 * JSON document -- per-point throughput, the merged metric registry
 * (stage latency histograms with quantiles, pipeline counters, the UF
 * fast-path and MWPM exact-path hit rates), and the run's wall/CPU
 * split. Written by the --metrics-json / VLQ_METRICS_JSON knobs of the
 * scan executables and validated in CI by tools/check_metrics.py.
 *
 * Schema (referenced by check_metrics.py and README):
 *
 *   {"schema": "vlq-metrics-report/1",
 *    "run": {"wall_seconds", "cpu_seconds", "utilization",
 *            "hardware_threads", "trace_dropped_events"},
 *    "points": [{"embedding", "distance", "p", "basis", "trials",
 *                "failures", "session_trials", "wall_seconds",
 *                "shots_per_sec", "setup_seconds",
 *                "setup_minor_faults"}],
 *    "counters": {name: value},
 *    "gauges": {name: value},
 *    "histograms": {name: {"unit": "ns", "count", "sum", "mean",
 *                          "min", "max", "p50", "p90", "p99"}},
 *    "derived": {"uf_fastpath_hit_rate"?, "mwpm_exact_hit_rate"?,
 *                "total_shots_per_sec"?, "trivial_shot_fraction"?}}
 */

/** One Monte-Carlo data point's contribution to the report. */
struct PointReport
{
    std::string embedding;
    int distance = 0;
    double physicalP = 0.0;
    char basis = 'Z';
    uint64_t trials = 0;        // global committed trials (with resume)
    uint64_t failures = 0;
    uint64_t sessionTrials = 0; // trials actually sampled this process
    double wallSeconds = 0.0;   // sampling, after set-up
    double shotsPerSec = 0.0;   // sessionTrials / wallSeconds
    /** Circuit, DEM, sampler and decoder build before the first shot
     *  (stages point.generate, point.dem, point.sampler and
     *  point.decoder). */
    double setupSeconds = 0.0;
    /** Minor page faults (ru_minflt) taken during the set-up: fresh
     *  pages it touched first. */
    uint64_t setupMinorFaults = 0;
};

/**
 * Minor page faults the calling thread has taken so far (ru_minflt;
 * the whole process's where the platform counts no per-thread figure,
 * 0 where it counts none). Read it only when metrics are on.
 */
uint64_t threadMinorFaults();

/**
 * Append one point (thread-safe). The MC engine calls this for every
 * finished basis point when metrics are enabled; no-op otherwise.
 */
void reportPoint(const PointReport& point);

/** Points reported so far, in completion order. */
std::vector<PointReport> reportedPoints();

/** Build the full report document (always well-formed JSON). */
std::string buildReportJson();

/**
 * Write buildReportJson() to `path`.
 * @return true on success; false with *err filled otherwise.
 */
bool writeReportJson(const std::string& path, std::string* err);

} // namespace obs
} // namespace vlq

#endif // VLQ_OBS_REPORT_H
