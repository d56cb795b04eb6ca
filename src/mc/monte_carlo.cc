#include "mc/monte_carlo.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <vector>

#include "core/generator_registry.h"
#include "decoder/decoder_factory.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/checkpoint.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace vlq {

double
LogicalErrorPoint::combinedRate() const
{
    double pz = basisZ.rate();
    double px = basisX.rate();
    return 1.0 - (1.0 - pz) * (1.0 - px);
}

std::string
McProgress::heartbeatString() const
{
    // Defensive on both ends: a default-constructed or adversarial
    // McProgress (inf/NaN rate, negative ETA) must render as unknown,
    // never as "inf shots/s" or a garbage cast of a huge double.
    const bool rateKnown = std::isfinite(shotsPerSec) && shotsPerSec > 0.0;
    std::ostringstream os;
    if (rateKnown)
        os << TablePrinter::sci(shotsPerSec, 1) << " shots/s";
    else
        os << "-- shots/s";
    os << ", eta ";
    if (rateKnown && std::isfinite(etaSeconds) && etaSeconds >= 0.0)
        os << static_cast<uint64_t>(etaSeconds) << "s";
    else
        os << "--";
    return os.str();
}

namespace {

/** `build()`, timed as obs stage `stage` (a string literal). */
template <typename Build>
auto
timedStage(const char* stage, const Build& build)
{
    obs::StageTimer timer(stage);
    return build();
}

/**
 * Commits batch results strictly in batch-index order, regardless of
 * which worker finished them first. This is what makes the running
 * failure stream, the progress callbacks, and -- crucially -- the
 * early-stop point deterministic: the run always stops right after
 * the targetFailures-th failing *trial*, a property of the sampled
 * outcomes alone, never of thread scheduling or batch size.
 *
 * A run resumed from a checkpoint starts with the checkpoint's
 * committed frontier (resumeTrials/resumeFailures): batch 0 then
 * covers trials [resumeTrials, resumeTrials + batchSize), and all
 * counts stay global to the full budget, so the committed stream is
 * the exact suffix of the uninterrupted run's stream.
 *
 * Preemption drains rather than discards: once McOptions::preempt
 * returns true, workers stop pulling batches, but every batch already
 * pulled -- in flight or finished out of order -- still commits in
 * order. Pulled batches are a contiguous index range (one shared
 * counter hands them out), so the drained frontier is a batch
 * boundary at or after the preempting commit, and still a prefix of
 * the uninterrupted trial sequence.
 */
class BatchSequencer
{
  public:
    BatchSequencer(uint64_t trials, uint32_t batchSize,
                   const McOptions& options, uint64_t resumeTrials,
                   uint64_t resumeFailures,
                   std::function<void(uint64_t, uint64_t)> commitHook)
        : trials_(trials), batchSize_(batchSize),
          resumeTrials_(resumeTrials), target_(options.targetFailures),
          progress_(options.progress), preempt_(options.preempt),
          commitHook_(std::move(commitHook)), failures_(resumeFailures),
          trialsDone_(resumeTrials),
          start_(std::chrono::steady_clock::now())
    {
    }

    /** Workers poll this (lock-free) to stop pulling new batches. */
    bool stopped() const
    {
        return stopFlag_.load(std::memory_order_relaxed);
    }

    /**
     * Hand in one finished batch: `failingTrials` are the global
     * indices of this batch's failing trials, ascending.
     */
    void submit(uint64_t batchIndex,
                std::vector<uint64_t> failingTrials)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_.emplace(batchIndex, std::move(failingTrials));
        while (!targetReached_) {
            auto it = pending_.find(nextToCommit_);
            if (it == pending_.end())
                break;
            std::vector<uint64_t> fails = std::move(it->second);
            pending_.erase(it);
            const uint64_t prevTrials = trialsDone_;
            const uint64_t prevFailures = failures_;
            uint64_t batchEnd =
                std::min(trials_, resumeTrials_
                                      + (nextToCommit_ + 1)
                                            * static_cast<uint64_t>(
                                                batchSize_));
            if (target_ > 0) {
                for (uint64_t t : fails) {
                    ++failures_;
                    if (failures_ >= target_) {
                        trialsDone_ = t + 1;
                        targetReached_ = true;
                        stopFlag_.store(true,
                                        std::memory_order_relaxed);
                        break;
                    }
                }
            } else {
                failures_ += fails.size();
            }
            if (!targetReached_)
                trialsDone_ = batchEnd;
            ++nextToCommit_;
            if (obs::metricsEnabled()) {
                static const obs::Counter batches =
                    obs::Counter::get("mc.batches_committed");
                static const obs::Counter trialsCtr =
                    obs::Counter::get("mc.trials_committed");
                static const obs::Counter failuresCtr =
                    obs::Counter::get("mc.failures");
                batches.add(1);
                trialsCtr.add(trialsDone_ - prevTrials);
                failuresCtr.add(failures_ - prevFailures);
            }
            if (progress_) {
                McProgress p{trialsDone_, failures_, trials_};
                p.elapsedSeconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
                const uint64_t session = trialsDone_ - resumeTrials_;
                if (p.elapsedSeconds > 0.0 && session > 0) {
                    double rate = static_cast<double>(session)
                        / p.elapsedSeconds;
                    // Clamp: the first heartbeat after a resume can
                    // land before the steady clock has advanced
                    // measurably, making the naive ratio 0, inf, or
                    // NaN. Unknown values stay at their sentinels
                    // (0 / -1) so renderers print "--", not garbage.
                    if (std::isfinite(rate) && rate > 0.0) {
                        p.shotsPerSec = rate;
                        double eta = finished()
                            ? 0.0
                            : static_cast<double>(trials_ - trialsDone_)
                                / rate;
                        if (std::isfinite(eta))
                            p.etaSeconds = eta;
                    }
                }
                progress_(p);
            }
            // Periodic saves go on while draining: this commit's
            // `progress` may already be out, and a kill before the
            // suspend save must not resume behind it.
            if (commitHook_ && !targetReached_)
                commitHook_(trialsDone_, failures_);
            // Preemption boundary: the first true stops the hand-out
            // of batches; the hook is never polled again. Batches
            // already pulled keep committing here as they arrive.
            if (!draining_ && preempt_ && preempt_()) {
                draining_ = true;
                stopFlag_.store(true, std::memory_order_relaxed);
            }
        }
        if (targetReached_)
            pending_.clear();
    }

    /**
     * True when McOptions::preempt cut the run short: the hook fired
     * and the drained frontier still falls short of the budget and of
     * the early stop. Call after every worker has returned.
     */
    bool preempted() const { return draining_ && !finished(); }

    BinomialEstimate result() const
    {
        BinomialEstimate est;
        est.successes = failures_;
        est.trials = trialsDone_;
        return est;
    }

  private:
    /** The budget is committed or the early stop fired. */
    bool finished() const
    {
        return targetReached_ || trialsDone_ >= trials_;
    }

    const uint64_t trials_;
    const uint32_t batchSize_;
    const uint64_t resumeTrials_;
    const uint64_t target_;
    const std::function<void(const McProgress&)>& progress_;
    const std::function<bool()>& preempt_;
    const std::function<void(uint64_t, uint64_t)> commitHook_;

    std::mutex mutex_;
    std::map<uint64_t, std::vector<uint64_t>> pending_;
    uint64_t nextToCommit_ = 0;
    uint64_t failures_ = 0;
    uint64_t trialsDone_ = 0;
    bool targetReached_ = false;
    bool draining_ = false;
    std::atomic<bool> stopFlag_{false};
    const std::chrono::steady_clock::time_point start_;
};

} // namespace

BinomialEstimate
estimateLogicalErrorBasis(EmbeddingKind embedding,
                          const GeneratorConfig& config,
                          const McOptions& options)
{
    const uint64_t trials = options.trials;
    if (trials == 0)
        return BinomialEstimate{};

    // Checkpoint/resume: bind the state file (validating its config
    // fingerprint), and look up this point's committed frontier. Done
    // points return their stored counts without even generating the
    // circuit, so a resumed grid scan skips completed points entirely.
    McCheckpoint checkpoint;
    uint64_t pointKey = 0;
    uint64_t resumeTrials = 0;
    uint64_t resumeFailures = 0;
    if (!options.checkpointPath.empty()) {
        pointKey = checkpointPointKey(embedding, config);
        std::string err = checkpoint.open(
            options.checkpointPath,
            options.checkpointFingerprint.empty()
                ? mcRunFingerprintSummary(options)
                : options.checkpointFingerprint);
        if (!err.empty())
            VLQ_FATAL(err.c_str());
        if (const CheckpointEntry* entry = checkpoint.find(pointKey)) {
            BinomialEstimate est;
            est.successes = entry->failures;
            est.trials = entry->trialsDone;
            if (entry->done)
                return est;
            resumeTrials = entry->trialsDone;
            resumeFailures = entry->failures;
            if (resumeTrials >= trials) {
                // The frontier already covers the budget (killed
                // between the last commit and the done flag).
                checkpoint.update(pointKey, {resumeTrials, resumeFailures,
                                             true});
                std::string saveErr = checkpoint.save();
                if (!saveErr.empty())
                    VLQ_FATAL(saveErr.c_str());
                return est;
            }
        }
    }

    // Set-up: everything the point builds before its first shot. It
    // runs on this thread, so this thread's page faults are its own.
    const bool metrics = obs::metricsEnabled();
    const uint64_t setupFaultsStart =
        metrics ? obs::threadMinorFaults() : 0;
    const auto setupStart = std::chrono::steady_clock::now();
    const GeneratedCircuit gen = timedStage("point.generate", [&] {
        return generateMemoryCircuit(embedding, config);
    });
    const DetectorErrorModel dem = timedStage("point.dem", [&] {
        return DetectorErrorModel::build(gen.circuit);
    });
    const FaultSampler sampler =
        timedStage("point.sampler", [&] { return FaultSampler(dem); });
    const std::unique_ptr<Decoder> decoder =
        timedStage("point.decoder", [&] {
            return makeDecoder(options.decoder, dem);
        });
    const double setupSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - setupStart).count();
    const uint64_t setupFaults =
        metrics ? obs::threadMinorFaults() - setupFaultsStart : 0;

    // Distinguish the two bases in the trial RNG stream.
    uint64_t baseSeed = options.seed
        ^ (config.memoryBasis == CheckBasis::X ? 0xbadc0ffee0ddf00dULL : 0);
    const Rng root(baseSeed);

    const uint32_t batchSize = std::max<uint32_t>(1, options.batchSize);
    const uint64_t numBatches =
        (trials - resumeTrials + batchSize - 1) / batchSize;

    // Periodic frontier persistence, throttled to checkpointEveryTrials
    // committed trials; runs in commit order under the sequencer lock.
    std::function<void(uint64_t, uint64_t)> commitHook;
    if (checkpoint.enabled()) {
        const uint64_t every = options.checkpointEveryTrials > 0
            ? options.checkpointEveryTrials : uint64_t{65536};
        commitHook = [&checkpoint, pointKey, every,
                      lastSaved = resumeTrials](uint64_t trialsDone,
                                                uint64_t failures)
            mutable {
            if (trialsDone - lastSaved < every)
                return;
            checkpoint.update(pointKey, {trialsDone, failures, false});
            std::string err = checkpoint.save();
            if (!err.empty())
                VLQ_FATAL(err.c_str());
            lastSaved = trialsDone;
        };
    }

    BatchSequencer sequencer(trials, batchSize, options, resumeTrials,
                             resumeFailures, std::move(commitHook));
    std::atomic<uint64_t> nextBatch{0};

    ThreadPool pool(options.threads);
    unsigned workers = static_cast<unsigned>(std::min<uint64_t>(
        pool.numThreads(), numBatches));
    const auto pointStart = std::chrono::steady_clock::now();
    if (obs::metricsEnabled()) {
        static const obs::Gauge threadsGauge =
            obs::Gauge::get("mc.threads");
        static const obs::Gauge batchGauge =
            obs::Gauge::get("mc.batch_size");
        threadsGauge.set(workers);
        batchGauge.set(batchSize);
    }
    // Each worker pulls batch indices from a shared counter (dynamic
    // load balancing; under early stop, low indices -- the ones that
    // decide the stop point -- are processed first).
    pool.parallelFor(workers, [&](uint64_t wBegin, uint64_t wEnd,
                                  unsigned) {
        (void)wBegin;
        (void)wEnd;
        ShotBatch batch;
        std::vector<uint32_t> predictions;
        std::vector<uint64_t> failingTrials;
        while (!sequencer.stopped()) {
            uint64_t b = nextBatch.fetch_add(1,
                                             std::memory_order_relaxed);
            if (b >= numBatches)
                break;
            obs::StageTimer batchTimer("mc.batch");
            uint64_t begin = resumeTrials + b * batchSize;
            uint32_t count = static_cast<uint32_t>(
                std::min<uint64_t>(batchSize, trials - begin));
            batch.reset(dem.numDetectors(), dem.numObservables(), count,
                        begin, dem.numErasureSites());
            sampler.sampleBatchInto(root, batch);
            predictions.resize(count);
            decoder->decodeBatch(batch, std::span<uint32_t>(predictions));
            failingTrials.clear();
            for (uint32_t s = 0; s < count; ++s)
                if (predictions[s] != batch.observables(s))
                    failingTrials.push_back(begin + s);
            sequencer.submit(b, failingTrials);
        }
    });

    BinomialEstimate est = sequencer.result();
    if (sequencer.preempted()) {
        // Suspend, don't finish: every pulled batch has committed, so
        // persist the drained frontier with done=false and a later run
        // (same options, same checkpoint) resumes from this exact batch
        // boundary. The partial point is deliberately not reported to
        // obs -- the resuming run reports it once, when it actually
        // completes.
        if (options.preempted)
            *options.preempted = true;
        if (checkpoint.enabled()) {
            checkpoint.update(pointKey, {est.trials, est.successes,
                                         false});
            std::string err = checkpoint.save();
            if (!err.empty())
                VLQ_FATAL(err.c_str());
        }
        return est;
    }
    if (obs::metricsEnabled()) {
        obs::PointReport pr;
        pr.embedding = embeddingKindName(embedding);
        pr.distance = config.distance;
        pr.physicalP = config.noise.p2;
        pr.basis = config.memoryBasis == CheckBasis::X ? 'X' : 'Z';
        pr.trials = est.trials;
        pr.failures = est.successes;
        pr.sessionTrials = est.trials - resumeTrials;
        pr.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - pointStart)
                .count();
        pr.shotsPerSec = pr.wallSeconds > 0.0
            ? static_cast<double>(pr.sessionTrials) / pr.wallSeconds
            : 0.0;
        pr.setupSeconds = setupSeconds;
        pr.setupMinorFaults = setupFaults;
        obs::reportPoint(pr);
    }
    if (checkpoint.enabled()) {
        // The point is finished (budget exhausted or early stop fired):
        // persist the final frontier with the done flag.
        checkpoint.update(pointKey, {est.trials, est.successes, true});
        std::string err = checkpoint.save();
        if (!err.empty())
            VLQ_FATAL(err.c_str());
    }
    return est;
}

LogicalErrorPoint
estimateLogicalError(EmbeddingKind embedding, const GeneratorConfig& config,
                     const McOptions& options)
{
    LogicalErrorPoint point;
    point.distance = config.distance;
    point.physicalP = config.noise.p2;

    GeneratorConfig cz = config;
    cz.memoryBasis = CheckBasis::Z;
    point.basisZ = estimateLogicalErrorBasis(embedding, cz, options);

    GeneratorConfig cx = config;
    cx.memoryBasis = CheckBasis::X;
    point.basisX = estimateLogicalErrorBasis(embedding, cx, options);
    return point;
}

} // namespace vlq
