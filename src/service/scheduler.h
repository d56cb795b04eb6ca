#ifndef VLQ_SERVICE_SCHEDULER_H
#define VLQ_SERVICE_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "service/job.h"

namespace vlq {
namespace service {

/**
 * Priority queue + preemption policy of the scan job service.
 *
 * Ordering: strictly by priority (higher first), FIFO by arrival
 * within a priority level. A job preempted and requeued receives a
 * fresh arrival stamp, which is what turns quantum expiry into
 * round-robin fair shares: equal-priority jobs take turns, one
 * quantum of committed trials each, instead of running to completion
 * in arrival order.
 *
 * Preemption triggers (polled by the engine at batch-commit
 * boundaries via McOptions::preempt, so suspending costs one
 * checkpoint save):
 *  - "cancelled": the running job was flagged by flagCancel() (a
 *                `cancel` request named it); the service emits the
 *                terminal `cancelled` event and does not requeue;
 *  - "priority": a strictly higher-priority job is waiting;
 *  - "quantum":  the running slice has committed at least
 *                quantumTrials trials and an equal-priority job is
 *                waiting (lower-priority waiters never trigger it:
 *                the scheduler would pick this job straight back up);
 *  - "shutdown": stop() was called (server exiting; the job is left
 *                suspended in its checkpoint, not requeued).
 * The engine drains the batches its workers already pulled before it
 * suspends; if that drain completes the job's last point, the job
 * ends `done` whatever the reason was.
 *
 * Thread-safety: every method takes the internal mutex; submissions
 * may arrive from any thread (e.g. a request poller) while the
 * scheduler's owner is mid-slice.
 */
class Scheduler
{
  public:
    /** Trials one slice may commit before an equal-priority waiter
     *  gets a turn. 0 keeps the 65536 default. */
    explicit Scheduler(uint64_t quantumTrials = 0);

    /** Enqueue a (validated) job. */
    void push(const ScanJob& job);

    /** Dequeue the highest-priority, earliest-arrival job. */
    std::optional<ScanJob> pop();

    bool empty() const;
    size_t size() const;

    /** Priority of the best waiting job (INT_MIN when empty). */
    int topPriority() const;

    /** Request shutdown: shouldPreempt returns "shutdown" from now
     *  on and the service loop stops dequeuing. */
    void stop();
    bool stopped() const;

    /**
     * Remove a still-queued job.
     * @return true when `id` was waiting in the queue (it is gone and
     *         will never be popped); false when no queued entry
     *         carries that id (it may be the running job -- see
     *         flagCancel -- or already finished).
     */
    bool cancelQueued(const std::string& id);

    /**
     * Re-stamp a queued job's arrival (the `requeue` request verb):
     * the job moves behind every waiter of its priority level, as if
     * it had just been pushed -- the same fair-share rotation a
     * quantum-expiry preemption performs, but client-driven.
     * @return true when `id` was waiting in the queue; false when no
     *         queued entry carries that id (running or finished jobs
     *         have no queue position to rotate).
     */
    bool requeue(const std::string& id);

    /** Flag a (running) job for cancellation: its next shouldPreempt
     *  poll returns "cancelled". The flag persists until consumed
     *  with takeCancelFlag(). */
    void flagCancel(const std::string& id);

    /** Consume a cancel flag. @return true when `id` was flagged. */
    bool takeCancelFlag(const std::string& id);

    /**
     * The preemption decision for a running slice: the reason to
     * suspend now, or std::nullopt to keep running. `jobId` and
     * `priority` identify the running job; `sliceTrials` is the
     * trials this slice has committed so far.
     */
    std::optional<std::string> shouldPreempt(const std::string& jobId,
                                             int priority,
                                             uint64_t sliceTrials) const;

    uint64_t quantumTrials() const { return quantumTrials_; }

  private:
    struct Entry
    {
        ScanJob job;
        uint64_t arrival = 0;

        bool operator<(const Entry& other) const
        {
            if (job.priority != other.job.priority)
                return job.priority > other.job.priority;
            return arrival < other.arrival;
        }
    };

    const uint64_t quantumTrials_;
    mutable std::mutex mutex_;
    std::set<Entry> queue_;
    std::set<std::string> cancelFlags_;
    uint64_t nextArrival_ = 0;
    bool stopped_ = false;
};

} // namespace service
} // namespace vlq

#endif // VLQ_SERVICE_SCHEDULER_H
