#ifndef VLQ_SERVICE_JOB_H
#define VLQ_SERVICE_JOB_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mc/memory_experiment.h"
#include "mc/threshold.h"

namespace vlq {
namespace service {

/**
 * One scan request of the scan job service: a full threshold-scan
 * grid (setup-or-embedding x distances x physical error rates, both
 * memory bases) plus the Monte-Carlo budget and a scheduling
 * priority. A ScanJob maps 1:1 onto one `submit` line of the
 * vlq-scan-job/1 request grammar (docs/job-protocol.md) and, once
 * validated (job_validation.h), onto the same EvaluationSetup +
 * ThresholdScanConfig a solo threshold_scan run would build -- which
 * is why a job's checkpoint file is byte-identical to a solo run's
 * and the service's results are provably bit-identical.
 *
 * Name fields (embedding, schedule, decoder) stay *unresolved
 * strings* here so validateJob can reject a typo with an actionable
 * message listing the registered names, instead of a parse-time
 * failure that loses the job id.
 */
struct ScanJob
{
    /** Client-chosen identity: [A-Za-z0-9._-], at most 64 chars. It
     *  names the job's checkpoint file and labels its events and
     *  metrics, so it must be filesystem- and JSON-safe. */
    std::string id;

    /** Higher runs first; FIFO then round-robin within a level. */
    int priority = 0;

    /**
     * Evaluation setup, one of two spellings:
     *  - `setup` = paperSetups() index 0..4 (the Fig. 11 setups),
     *    used when `embedding` is empty; or
     *  - `embedding` = any registered generator-backend name plus
     *    `schedule` = "aao" | "interleaved".
     * The default is setup 4 (Compact-Interleaved), matching the
     * threshold_scan example's default.
     */
    int setup = -1;
    std::string embedding;
    std::string schedule = "aao";

    /** Scan grid; the defaults are threshold_scan's grid, so a
     *  default job is comparable against a solo run out of the box. */
    std::vector<int> distances{3, 5, 7};
    std::vector<double> physicalPs; // empty = defaultPhysicalPs()

    /** Monte-Carlo budget and engine knobs (per grid point). */
    uint64_t trials = 1500;
    uint64_t seed = 0x5eed;
    std::string decoder = "mwpm";
    uint32_t batchSize = 256;
    uint64_t targetFailures = 0;

    /**
     * The retired compute-backend key: "scalar" or "simd" validate and
     * change nothing, so request lines written for older servers still
     * run. Kept only so requestLine() echoes it and such lines
     * round-trip byte-identically; empty when absent.
     */
    std::string compute;

    /**
     * Serialize back to one request line. parseRequestLine() of the
     * result yields an equal job: the round-trip is exact because
     * doubles are rendered with canonicalDouble (mc/checkpoint.h).
     */
    std::string requestLine() const;
};

/** threshold_scan's default p grid: logspace(3e-3, 2e-2, 6). */
std::vector<double> defaultPhysicalPs();

/** One parsed request line of the vlq-scan-job/1 wire protocol. */
struct Request
{
    enum class Kind : uint8_t { Submit, Shutdown, Cancel, Requeue };
    Kind kind = Kind::Submit;
    ScanJob job;          // meaningful when kind == Submit
    std::string targetId; // meaningful when kind == Cancel | Requeue
};

/**
 * Parse one request line: `submit key=value ...`, `cancel id=<id>`,
 * `requeue id=<id>`, or `shutdown`.
 * Blank lines and `#` comments parse to std::nullopt with *error left
 * empty; malformed lines (unknown verb or key, bad number, missing
 * id) parse to std::nullopt with *error describing the problem.
 * Unknown keys are errors, never silently ignored: a typo'd
 * `trails=1e6` must not submit a default-budget job.
 */
std::optional<Request> parseRequestLine(const std::string& line,
                                        std::string* error);

/**
 * Resolve a *validated* job (see job_validation.h) to its evaluation
 * setup and full threshold-scan configuration. The returned config
 * carries no callbacks or checkpoint path -- the scheduler fills
 * those per slice. Calling either on an unvalidated job with a bad
 * name is a fatal error.
 */
EvaluationSetup jobSetup(const ScanJob& job);
ThresholdScanConfig jobScanConfig(const ScanJob& job);

} // namespace service
} // namespace vlq

#endif // VLQ_SERVICE_JOB_H
