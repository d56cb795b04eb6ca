#ifndef VLQ_SERVICE_JOB_SERVICE_H
#define VLQ_SERVICE_JOB_SERVICE_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "service/events.h"
#include "service/job.h"
#include "service/scheduler.h"

namespace vlq {
namespace service {

/**
 * The most engine threads per job a session takes (JobService panics
 * on a config above it; example_scan_server rejects --threads above it
 * at parse time). A point starts min(threads, batches) workers, so an
 * unbounded count with a large trial budget would ask for thousands of
 * threads.
 */
constexpr unsigned kMaxThreads = 1024;

/** Knobs of one server session. */
struct JobServiceConfig
{
    /** Directory for per-job checkpoint files (job-<id>.ckpt). Must
     *  exist; the same directory across restarts is what makes jobs
     *  resumable. */
    std::string stateDir = ".";

    /** Committed trials per scheduling slice before an equal-priority
     *  waiter gets a turn (0 = the 65536 default). */
    uint64_t quantumTrials = 0;

    /** Engine threads per running job (0 = hardware concurrency),
     *  at most kMaxThreads. */
    unsigned threads = 0;

    /** Emit a `progress` event at most every this many committed
     *  trials per point (0 = the 16384 default; the final commit of a
     *  point always emits one). */
    uint64_t progressEveryTrials = 0;

    /** Committed trials between periodic checkpoint saves
     *  (McOptions::checkpointEveryTrials; 0 = the engine default). */
    uint64_t checkpointEveryTrials = 0;
};

/**
 * The scan job service: multiplexes many interactive threshold scans
 * over one process and one event stream, instead of one process per
 * CLI run. Nothing is kept warm between points: every point (and every
 * resume of a preempted point) rebuilds its circuit, DEM, sampler and
 * decoder (whose shortest-path rows then start cold) on the caller's
 * thread, then samples on a ThreadPool of its own, started once that
 * set-up is built and joined after the point's last commit.
 *
 * Lifecycle of a job (full wire protocol: docs/job-protocol.md):
 * submit -> validateJob (reject with `error` before any engine work)
 * -> `queued` -> scheduler pops by (priority, arrival) -> `started`
 * or `resumed` -> the job's grid points run through
 * estimateLogicalErrorBasis with the job's own checkpoint file ->
 * `progress`/`point_done` stream -> either `done`, or `preempted` at
 * a batch boundary (quantum expiry, higher-priority arrival, or
 * shutdown) with the frontier persisted, and the job requeued. A
 * preempted slice keeps the work it sampled: the engine drains every
 * batch its workers already pulled before it suspends, so the
 * suspended frontier lands at or after the preempting commit (how far
 * after depends on scheduling). A drain that completes the point ends
 * it in `point_done`; the job then suspends before its next point
 * starts, or ends `done` if that was its last point.
 *
 * Determinism contract: a job's checkpoint is stamped with the same
 * thresholdScanFingerprint a solo threshold_scan run computes, its
 * points run in the same order with per-trial RNG streams, and
 * preemption suspends only at committed-batch boundaries -- so the
 * final per-point counts (and the checkpoint file bytes) are
 * identical to a solo run with the same knobs, no matter how often
 * the job was preempted, interleaved, or the server killed. Only the
 * final counts are deterministic: where each slice stops is not.
 *
 * Threading: runUntilDrained executes jobs sequentially on the
 * caller's thread (each point fans out over its own ThreadPool of
 * up to `threads` workers, its trials split into whole waves of
 * near-equal batches -- the pool, not the job count, is the
 * parallelism);
 * submit/submitLine/requestShutdown are safe to call concurrently
 * from other threads and take effect at the next batch boundary.
 */
class JobService
{
  public:
    JobService(const JobServiceConfig& config, EventSink& events);

    /**
     * Validate and enqueue one job. Emits `queued` on success or a
     * terminal `error` (code bad_request) on rejection.
     * @return true when the job was accepted.
     */
    bool submit(const ScanJob& job);

    /**
     * Parse one request line (submit/cancel/shutdown/comment) and act
     * on it.
     * @return false only for lines that were rejected (parse or
     *         validation failure, each emitting an `error` event).
     */
    bool submitLine(const std::string& line);

    /**
     * Cancel a job submitted in this session. A queued job is removed
     * immediately; the running job is flagged and suspends at its
     * next batch boundary. Either way the job's last event is the
     * terminal `cancelled` -- unless the running job's drain of
     * batches already in flight completes its last point: the cancel
     * then lost the race and the job ends `done`. The checkpoint
     * survives (resubmit the id in a later session to resume), and
     * the id stays reserved for this session. Unknown or
     * already-terminal ids emit a `bad_request` error event.
     * @return true when a queued or running job was cancelled.
     */
    bool cancel(const std::string& jobId);

    /**
     * Rotate a still-queued job of this session behind its
     * equal-priority peers (fresh arrival stamp; `requeue` request
     * verb). Emits a non-terminal `requeued` event on success. The
     * running job has no queue position -- requeueing it (or an
     * unknown/terminal id) emits a `bad_request` error event.
     * @return true when a queued job was rotated.
     */
    bool requeue(const std::string& jobId);

    /** Stop after the running job's next batch boundary; queued jobs
     *  stay suspended in their checkpoints. */
    void requestShutdown();
    bool shutdownRequested() const { return scheduler_.stopped(); }

    /**
     * Run queued jobs until the queue drains or shutdown is
     * requested.
     * @return the number of jobs that ended in a terminal `error`.
     */
    int runUntilDrained();

    size_t queueDepth() const { return scheduler_.size(); }

    /** The checkpoint path of a job id under this service's stateDir. */
    std::string checkpointPath(const std::string& jobId) const;

  private:
    enum class Outcome : uint8_t { Done, Preempted, Cancelled, Error };

    Outcome runJob(const ScanJob& job);

    /** Per-session memory of a job between scheduling slices. */
    struct RunState
    {
        bool startedThisSession = false;
        std::set<int> announcedPoints; // point_done emitted this session
    };

    const JobServiceConfig config_;
    EventSink& events_;
    Scheduler scheduler_;
    // Guards knownIds_ and runningId_ (submit/cancel arrive from any
    // thread while runUntilDrained owns the run loop).
    std::mutex submitMutex_;
    std::set<std::string> knownIds_;
    std::string runningId_;
    std::map<std::string, RunState> runStates_;
    int failedJobs_ = 0;
};

} // namespace service
} // namespace vlq

#endif // VLQ_SERVICE_JOB_SERVICE_H
