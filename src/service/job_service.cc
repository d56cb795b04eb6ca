#include "service/job_service.h"

#include <optional>
#include <vector>

#include "mc/checkpoint.h"
#include "obs/metrics.h"
#include "service/job_validation.h"

namespace vlq {
namespace service {

namespace {

/** One (distance, p, basis) grid point, in the fixed scan order. */
struct GridPoint
{
    int index = 0;
    int distance = 0;
    double physicalP = 0.0;
    CheckBasis basis = CheckBasis::Z;
};

/**
 * Enumerate the job's grid in exactly the order scanThreshold and
 * estimateLogicalError visit it (d-major, then p, then basis Z before
 * X). The fixed order is load-bearing twice: the job-level cumulative
 * trial count stays monotone across preempt/resume, and a resumed
 * server replays points in the same order the killed one ran them.
 */
std::vector<GridPoint>
gridPoints(const ThresholdScanConfig& cfg)
{
    std::vector<GridPoint> points;
    int index = 0;
    for (int d : cfg.distances) {
        for (double p : cfg.physicalPs) {
            for (CheckBasis basis : {CheckBasis::Z, CheckBasis::X})
                points.push_back(GridPoint{index++, d, p, basis});
        }
    }
    return points;
}

char
basisChar(CheckBasis basis)
{
    return basis == CheckBasis::X ? 'X' : 'Z';
}

} // namespace

JobService::JobService(const JobServiceConfig& config, EventSink& events)
    : config_(config), events_(events),
      scheduler_(config.quantumTrials)
{
}

std::string
JobService::checkpointPath(const std::string& jobId) const
{
    return config_.stateDir + "/job-" + jobId + ".ckpt";
}

bool
JobService::submit(const ScanJob& job)
{
    std::string problems = validationSummary(job);
    {
        std::lock_guard<std::mutex> lock(submitMutex_);
        if (problems.empty() && knownIds_.count(job.id))
            problems = "duplicate job id '" + job.id
                + "': already submitted in this session";
        if (problems.empty())
            knownIds_.insert(job.id);
    }
    if (!problems.empty()) {
        events_.error(job.id, kErrBadRequest, problems);
        if (obs::metricsEnabled())
            obs::Counter::get("service.jobs_rejected").add(1);
        return false;
    }
    scheduler_.push(job);
    events_.queued(job, scheduler_.size());
    if (obs::metricsEnabled()) {
        obs::Counter::get("service.jobs_submitted").add(1);
        obs::Gauge::get("service.queue_depth")
            .set(static_cast<int64_t>(scheduler_.size()));
    }
    return true;
}

bool
JobService::submitLine(const std::string& line)
{
    std::string problem;
    std::optional<Request> request = parseRequestLine(line, &problem);
    if (!request) {
        if (problem.empty())
            return true; // blank line or comment
        // The id is unknown when parsing failed; quote the offending
        // line instead so the client can still find the request.
        events_.error("", kErrBadRequest,
                      problem + " (in request: '" + line + "')");
        if (obs::metricsEnabled())
            obs::Counter::get("service.jobs_rejected").add(1);
        return false;
    }
    if (request->kind == Request::Kind::Shutdown) {
        requestShutdown();
        return true;
    }
    if (request->kind == Request::Kind::Cancel)
        return cancel(request->targetId);
    if (request->kind == Request::Kind::Requeue)
        return requeue(request->targetId);
    return submit(request->job);
}

bool
JobService::cancel(const std::string& jobId)
{
    bool running = false;
    {
        std::lock_guard<std::mutex> lock(submitMutex_);
        if (!knownIds_.count(jobId)) {
            events_.error(jobId, kErrBadRequest,
                          "cancel of unknown job id '" + jobId
                          + "': not submitted in this session");
            if (obs::metricsEnabled())
                obs::Counter::get("service.jobs_rejected").add(1);
            return false;
        }
        // Flag under the same lock that runUntilDrained uses to set
        // runningId_, so the running job cannot slip to terminal
        // between the check and the flag.
        if (runningId_ == jobId) {
            scheduler_.flagCancel(jobId);
            running = true;
        }
    }
    if (running)
        return true; // the terminal event is emitted at the boundary
    if (scheduler_.cancelQueued(jobId)) {
        events_.cancelled(jobId, "queued");
        if (obs::metricsEnabled()) {
            obs::Counter::get("service.jobs_cancelled").add(1);
            obs::Gauge::get("service.queue_depth")
                .set(static_cast<int64_t>(scheduler_.size()));
        }
        return true;
    }
    events_.error(jobId, kErrBadRequest,
                  "cancel of job '" + jobId
                  + "': not queued or running (already finished?)");
    if (obs::metricsEnabled())
        obs::Counter::get("service.jobs_rejected").add(1);
    return false;
}

bool
JobService::requeue(const std::string& jobId)
{
    {
        std::lock_guard<std::mutex> lock(submitMutex_);
        if (!knownIds_.count(jobId)) {
            events_.error(jobId, kErrBadRequest,
                          "requeue of unknown job id '" + jobId
                          + "': not submitted in this session");
            if (obs::metricsEnabled())
                obs::Counter::get("service.jobs_rejected").add(1);
            return false;
        }
    }
    // The scheduler holds the only queue-position state; a running or
    // terminal id simply is not in the queue. (A running job's arrival
    // is re-stamped anyway when it is preempted and requeued.)
    if (scheduler_.requeue(jobId)) {
        events_.requeued(jobId, scheduler_.size());
        if (obs::metricsEnabled())
            obs::Counter::get("service.jobs_requeued").add(1);
        return true;
    }
    events_.error(jobId, kErrBadRequest,
                  "requeue of job '" + jobId
                  + "': not waiting in the queue (running or already "
                    "finished?)");
    if (obs::metricsEnabled())
        obs::Counter::get("service.jobs_rejected").add(1);
    return false;
}

void
JobService::requestShutdown()
{
    scheduler_.stop();
}

int
JobService::runUntilDrained()
{
    while (!scheduler_.stopped()) {
        std::optional<ScanJob> job = scheduler_.pop();
        if (!job)
            break;
        if (obs::metricsEnabled())
            obs::Gauge::get("service.queue_depth")
                .set(static_cast<int64_t>(scheduler_.size()));
        {
            std::lock_guard<std::mutex> lock(submitMutex_);
            runningId_ = job->id;
        }
        Outcome outcome = runJob(*job);
        {
            std::lock_guard<std::mutex> lock(submitMutex_);
            runningId_.clear();
        }
        // A cancel that raced the job's natural completion lost: the
        // job is terminal with `done`, so drop the stale flag.
        if (outcome != Outcome::Cancelled)
            scheduler_.takeCancelFlag(job->id);
        if (outcome == Outcome::Preempted) {
            if (scheduler_.stopped())
                break; // suspended in its checkpoint; not requeued
            scheduler_.push(*job);
        } else if (outcome == Outcome::Cancelled) {
            if (obs::metricsEnabled())
                obs::Counter::get("service.jobs_cancelled").add(1);
        } else if (outcome == Outcome::Error) {
            ++failedJobs_;
            if (obs::metricsEnabled())
                obs::Counter::get("service.jobs_failed").add(1);
        } else if (obs::metricsEnabled()) {
            obs::Counter::get("service.jobs_done").add(1);
        }
    }
    return failedJobs_;
}

JobService::Outcome
JobService::runJob(const ScanJob& job)
{
    const EvaluationSetup setup = jobSetup(job);
    ThresholdScanConfig cfg = jobScanConfig(job);
    if (cfg.physicalPs.empty())
        cfg.physicalPs = defaultPhysicalPs();
    const std::string fingerprint = thresholdScanFingerprint(setup, cfg);
    const std::string ckptPath = checkpointPath(job.id);

    // Validate the job's prior state up front, where a stale or
    // corrupt checkpoint is a per-job `error` event -- inside the
    // engine it would be fatal for the whole server.
    McCheckpoint prior;
    const std::string err = prior.open(ckptPath, fingerprint);
    if (!err.empty()) {
        events_.error(job.id, kErrCheckpointMismatch, err);
        return Outcome::Error;
    }

    RunState& state = runStates_[job.id];
    if (state.startedThisSession || prior.numPoints() > 0)
        events_.resumed(job.id);
    else
        events_.started(job.id);
    state.startedThisSession = true;

    const std::vector<GridPoint> points = gridPoints(cfg);
    const uint64_t jobBudget =
        job.trials * static_cast<uint64_t>(points.size());
    const uint64_t progressEvery = config_.progressEveryTrials > 0
        ? config_.progressEveryTrials : uint64_t{16384};

    // Per-job labeled counters (satellite of the obs layer): the
    // service is the first multiplexed producer, so its counts carry
    // the job id as a label instead of blending into global totals.
    // Guarded construction -- interning a name would allocate the
    // registry, which must never happen while metrics are off.
    std::optional<obs::Counter> jobTrialsCtr;
    if (obs::metricsEnabled())
        jobTrialsCtr = obs::Counter::get(
            obs::labeledName("service.job.trials", "job", job.id));

    uint64_t sliceTrials = 0; // session trials committed this slice
    uint64_t jobTrials = 0;   // cumulative over finished points
    uint64_t jobFailures = 0;
    std::string preemptReason;

    // Ends the slice once the preempt hook has fired: a cancel is
    // terminal, any other reason suspends at `frontier`.
    auto suspend = [&](uint64_t frontier) {
        if (preemptReason == "cancelled") {
            // Terminal: consume the flag, keep the checkpoint
            // (resubmitting the id in a later session resumes).
            scheduler_.takeCancelFlag(job.id);
            events_.cancelled(job.id, "running");
            return Outcome::Cancelled;
        }
        events_.preempted(job.id, preemptReason, frontier);
        if (obs::metricsEnabled())
            obs::Counter::get("service.preemptions").add(1);
        return Outcome::Preempted;
    };

    for (const GridPoint& point : points) {
        GeneratorConfig gc = thresholdPointConfig(setup, cfg, point.distance,
                                                  point.physicalP);
        gc.memoryBasis = point.basis;
        const uint64_t pointKey =
            checkpointPointKey(setup.embedding, gc);

        // The file as it stood when the slice began: the engine has
        // rewritten only the entries of points this loop has passed.
        const CheckpointEntry* entry = prior.find(pointKey);

        if (entry && entry->done) {
            // Finished in an earlier session or slice: account for it
            // and replay its announcement at most once per session.
            if (!state.announcedPoints.count(point.index)) {
                events_.pointDone(job.id, point.index, point.distance,
                                  point.physicalP,
                                  basisChar(point.basis),
                                  entry->trialsDone, entry->failures,
                                  /*cached=*/true);
                state.announcedPoints.insert(point.index);
            }
            jobTrials += entry->trialsDone;
            jobFailures += entry->failures;
            continue;
        }
        // The hook fired in a point the drain then finished: suspend
        // here rather than build this point only to stop it at its
        // first commit.
        if (!preemptReason.empty())
            return suspend(jobTrials);
        uint64_t lastCommitted = entry ? entry->trialsDone : 0;
        uint64_t lastProgressEmit = lastCommitted;

        McOptions opts = cfg.mc;
        opts.threads = config_.threads;
        opts.checkpointPath = ckptPath;
        opts.checkpointFingerprint = fingerprint;
        opts.checkpointEveryTrials = config_.checkpointEveryTrials;
        bool preempted = false;
        opts.preempted = &preempted;
        opts.progress = [&](const McProgress& mc) {
            const uint64_t delta = mc.trialsDone - lastCommitted;
            lastCommitted = mc.trialsDone;
            sliceTrials += delta;
            if (jobTrialsCtr)
                jobTrialsCtr->add(delta);
            if (mc.trialsDone - lastProgressEmit >= progressEvery
                || mc.trialsDone >= mc.totalTrials) {
                events_.progress(job.id, point.index, point.distance,
                                 point.physicalP,
                                 basisChar(point.basis), mc,
                                 jobTrials + mc.trialsDone, jobBudget);
                lastProgressEmit = mc.trialsDone;
            }
        };
        opts.preempt = [&]() {
            std::optional<std::string> reason =
                scheduler_.shouldPreempt(job.id, job.priority,
                                         sliceTrials);
            if (reason)
                preemptReason = *reason;
            return reason.has_value();
        };

        BinomialEstimate est =
            estimateLogicalErrorBasis(setup.embedding, gc, opts);
        if (preempted)
            return suspend(jobTrials + est.trials);
        events_.pointDone(job.id, point.index, point.distance,
                          point.physicalP, basisChar(point.basis),
                          est.trials, est.successes,
                          /*cached=*/false);
        state.announcedPoints.insert(point.index);
        jobTrials += est.trials;
        jobFailures += est.successes;
    }

    events_.done(job.id, jobTrials, jobFailures, points.size());
    return Outcome::Done;
}

} // namespace service
} // namespace vlq
