#include "mc/monte_carlo.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
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
 * How one point's session splits into batches. The point runs on
 * `threads` workers, or on fewer when its session needs fewer batches
 * of `batchSize` trials, and the trials between the resume frontier and
 * the budget go into the smallest multiple of that worker count of
 * near-equal batches none larger than `batchSize`: every worker samples
 * whole waves and none idles through a short last one. (A session too
 * short for that takes one trial per batch.) Batch k's range is a pure
 * function of (frontier, trials, batchSize, threads), read by the
 * hand-out and the sequencer alike.
 */
class BatchPlan
{
  public:
    BatchPlan(uint64_t resumeTrials, uint64_t trials, uint32_t batchSize,
              unsigned threads)
        : first_(resumeTrials), session_(trials - resumeTrials)
    {
        const uint64_t needed =
            session_ / batchSize + (session_ % batchSize != 0);
        workers_ =
            static_cast<unsigned>(std::min<uint64_t>(threads, needed));
        const uint64_t waves = needed / workers_ + (needed % workers_ != 0);
        batches_ = std::min(session_, waves * workers_);
    }

    unsigned workers() const { return workers_; }
    uint64_t batches() const { return batches_; }

    /** First trial of batch k; begin(batches()) is the budget. */
    uint64_t begin(uint64_t k) const
    {
        const uint64_t size = session_ / batches_;
        const uint64_t longer = session_ % batches_;
        return first_ + k * size + std::min(k, longer);
    }

  private:
    const uint64_t first_;
    const uint64_t session_;
    unsigned workers_ = 0;
    uint64_t batches_ = 0;
};

/**
 * Hands one point's batch indices to its workers, in order, until the
 * last is out or the sequencer closes the hand-out (early stop or
 * preemption). It also tells the calling thread when no batch of the
 * point will be sampled again: from then on the workers read only the
 * decoder, so the DEM and the sampler can go.
 */
class BatchHandOut
{
  public:
    explicit BatchHandOut(uint64_t batches) : batches_(batches) {}

    /**
     * The next batch to sample, or nothing once the hand-out is
     * closed. A worker that gets one calls sampled() when its shots
     * are drawn.
     */
    std::optional<uint64_t> take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_ != Closed::Open)
            return std::nullopt;
        const uint64_t b = next_++;
        if (next_ == batches_)
            closed_ = Closed::Finish;
        ++sampling_;
        return b;
    }

    void sampled()
    {
        bool wake = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            wake = --sampling_ == 0 && closed_ != Closed::Open;
        }
        if (wake)
            cv_.notify_all();
    }

    /** Stop handing out batches: the early stop or `preempt` fired. */
    void close(bool preempt)
    {
        bool wake = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ != Closed::Open)
                return;
            closed_ = preempt ? Closed::Preempt : Closed::Finish;
            wake = sampling_ == 0;
        }
        if (wake)
            cv_.notify_all();
    }

    /**
     * Block until the hand-out is closed and no worker is sampling.
     * True when it closed on the budget or the early stop, so the point
     * finishes; false when `preempt` closed it, which may suspend it.
     */
    bool waitUntilSampled()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] {
            return closed_ != Closed::Open && sampling_ == 0;
        });
        return closed_ != Closed::Preempt;
    }

  private:
    /** Finish: the last batch is out, or the early stop fired. */
    enum class Closed { Open, Finish, Preempt };

    const uint64_t batches_;
    std::mutex mutex_;
    std::condition_variable cv_;
    uint64_t next_ = 0;
    unsigned sampling_ = 0;
    Closed closed_ = Closed::Open;
};

/**
 * Commits batch results strictly in batch-index order, regardless of
 * which worker finished them first. This is what makes the running
 * failure stream, the progress callbacks, and -- crucially -- the
 * early-stop point deterministic: the run always stops right after
 * the targetFailures-th failing *trial*, a property of the sampled
 * outcomes alone, never of thread scheduling or batch size.
 *
 * A run resumed from a checkpoint starts with the checkpoint's
 * committed frontier (resumeFailures and the plan's first trial), and
 * all counts stay global to the full budget, so the committed stream
 * is the exact suffix of the uninterrupted run's stream.
 *
 * Preemption drains rather than discards: once McOptions::preempt
 * returns true, the hand-out closes, but every batch already pulled --
 * in flight or finished out of order -- still commits in order.
 * Pulled batches are a contiguous index range, so the drained frontier
 * is a batch boundary at or after the preempting commit, and still a
 * prefix of the uninterrupted trial sequence.
 */
class BatchSequencer
{
  public:
    BatchSequencer(const BatchPlan& plan, uint64_t trials,
                   const McOptions& options, uint64_t resumeFailures,
                   std::function<void(uint64_t, uint64_t)> commitHook,
                   BatchHandOut& handOut)
        : plan_(plan), trials_(trials), resumeTrials_(plan.begin(0)),
          target_(options.targetFailures), progress_(options.progress),
          preempt_(options.preempt), commitHook_(std::move(commitHook)),
          handOut_(handOut), failures_(resumeFailures),
          trialsDone_(resumeTrials_),
          start_(std::chrono::steady_clock::now())
    {
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
            if (target_ > 0) {
                for (uint64_t t : fails) {
                    ++failures_;
                    if (failures_ >= target_) {
                        trialsDone_ = t + 1;
                        targetReached_ = true;
                        handOut_.close(false);
                        break;
                    }
                }
            } else {
                failures_ += fails.size();
            }
            if (!targetReached_)
                trialsDone_ = plan_.begin(nextToCommit_ + 1);
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
            // Preemption boundary: the first true closes the hand-out;
            // the hook is never polled again. Batches already pulled
            // keep committing here as they arrive.
            if (!draining_ && preempt_ && preempt_()) {
                draining_ = true;
                handOut_.close(true);
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

    const BatchPlan& plan_;
    const uint64_t trials_;
    const uint64_t resumeTrials_;
    const uint64_t target_;
    const std::function<void(const McProgress&)>& progress_;
    const std::function<bool()>& preempt_;
    const std::function<void(uint64_t, uint64_t)> commitHook_;
    BatchHandOut& handOut_;

    std::mutex mutex_;
    std::map<uint64_t, std::vector<uint64_t>> pending_;
    uint64_t nextToCommit_ = 0;
    uint64_t failures_ = 0;
    uint64_t trialsDone_ = 0;
    bool targetReached_ = false;
    bool draining_ = false;
    const std::chrono::steady_clock::time_point start_;
};

/** Persist one point's frontier; a failed save is fatal. */
void
saveEntry(McCheckpoint& checkpoint, uint64_t key, const CheckpointEntry& entry)
{
    checkpoint.update(key, entry);
    const std::string err = checkpoint.save();
    if (!err.empty())
        VLQ_FATAL(err.c_str());
}

/** One (embedding, config) point of a run, and its estimate. */
struct McPoint
{
    EmbeddingKind embedding = EmbeddingKind::Baseline2D;
    GeneratorConfig config;
    BinomialEstimate result;
};

/**
 * What a point's workers read. A worker reads the DEM and the sampler
 * (which reads the DEM's arrays in place) only between taking a batch
 * and sampling it, so both go as soon as the point's last batch is
 * sampled; the decoder owns its graph and lives until the last commit.
 */
struct PointModel
{
    std::unique_ptr<DetectorErrorModel> dem;
    std::unique_ptr<FaultSampler> sampler;
    std::unique_ptr<Decoder> decoder;
    double setupSeconds = 0.0;
    uint64_t setupFaults = 0;
};

/**
 * Set-up: everything a point builds before its first shot. It runs on
 * the calling thread, never on a worker, so its page faults are that
 * thread's own and its arrays stay in that thread's malloc arena, where
 * the next set-up reuses them; the circuit goes as soon as its DEM is
 * built.
 */
std::unique_ptr<PointModel>
buildModel(const McPoint& point, DecoderKind decoder)
{
    auto model = std::make_unique<PointModel>();
    const bool metrics = obs::metricsEnabled();
    const uint64_t faultsStart = metrics ? obs::threadMinorFaults() : 0;
    const auto start = std::chrono::steady_clock::now();
    {
        const GeneratedCircuit gen = timedStage("point.generate", [&] {
            return generateMemoryCircuit(point.embedding, point.config);
        });
        model->dem = timedStage("point.dem", [&] {
            return std::make_unique<DetectorErrorModel>(
                DetectorErrorModel::build(gen.circuit));
        });
    }
    model->sampler = timedStage("point.sampler", [&] {
        return std::make_unique<FaultSampler>(*model->dem);
    });
    model->decoder = timedStage("point.decoder", [&] {
        return makeDecoder(decoder, *model->dem);
    });
    model->setupSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    model->setupFaults =
        metrics ? obs::threadMinorFaults() - faultsStart : 0;
    return model;
}

/** A point's committed frontier when the run starts. */
struct Frontier
{
    uint64_t key = 0;
    uint64_t trials = 0;
    uint64_t failures = 0;
    bool done = false;
};

/**
 * Sample one point's session on its own workers and commit it in
 * order. Once no batch of the point will be sampled again on its budget
 * or early stop, this thread frees the DEM and the sampler and calls
 * `buildNext` (when set) while the workers decode the last batches.
 * The finished frontier is reported and saved done; a suspended one is
 * saved not done, and the function returns true.
 */
bool
runPoint(McPoint& point, const Frontier& frontier, PointModel& model,
         const McOptions& options, McCheckpoint& checkpoint,
         const std::function<void()>& buildNext)
{
    const uint64_t trials = options.trials;
    const BatchPlan plan(
        frontier.trials, trials, std::max<uint32_t>(1, options.batchSize),
        options.threads > 0
            ? options.threads
            : std::max(1u, std::thread::hardware_concurrency()));
    const unsigned workers = plan.workers();

    // Distinguish the two bases in the trial RNG stream.
    const Rng root(options.seed
                   ^ (point.config.memoryBasis == CheckBasis::X
                          ? 0xbadc0ffee0ddf00dULL : 0));

    // Periodic frontier persistence, throttled to checkpointEveryTrials
    // committed trials; runs in commit order under the sequencer lock.
    std::function<void(uint64_t, uint64_t)> commitHook;
    if (checkpoint.enabled()) {
        const uint64_t every = options.checkpointEveryTrials > 0
            ? options.checkpointEveryTrials : uint64_t{65536};
        commitHook = [&checkpoint, key = frontier.key, every,
                      lastSaved = frontier.trials](uint64_t trialsDone,
                                                   uint64_t failures)
            mutable {
            if (trialsDone - lastSaved < every)
                return;
            saveEntry(checkpoint, key, {trialsDone, failures, false});
            lastSaved = trialsDone;
        };
    }

    BatchHandOut handOut(plan.batches());
    BatchSequencer sequencer(plan, trials, options, frontier.failures,
                             std::move(commitHook), handOut);
    if (obs::metricsEnabled()) {
        static const obs::Gauge threadsGauge =
            obs::Gauge::get("mc.threads");
        static const obs::Gauge batchGauge =
            obs::Gauge::get("mc.batch_size");
        threadsGauge.set(workers);
        batchGauge.set(static_cast<double>(plan.begin(1) - plan.begin(0)));
    }
    const auto pointStart = std::chrono::steady_clock::now();
    std::vector<std::chrono::steady_clock::time_point> workerEnds(workers);
    ThreadPool pool(workers, [&](unsigned w) {
        ShotBatch batch;
        std::vector<uint32_t> predictions;
        std::vector<uint64_t> failingTrials;
        // Workers take batch indices in order from the hand-out
        // (dynamic load balancing; under early stop, low indices --
        // the ones that decide the stop point -- are processed first).
        while (const std::optional<uint64_t> b = handOut.take()) {
            obs::StageTimer batchTimer("mc.batch");
            const uint64_t begin = plan.begin(*b);
            const uint32_t count =
                static_cast<uint32_t>(plan.begin(*b + 1) - begin);
            const DetectorErrorModel& dem = *model.dem;
            batch.reset(dem.numDetectors(), dem.numObservables(), count,
                        begin, dem.numErasureSites());
            model.sampler->sampleBatchInto(root, batch);
            handOut.sampled();
            predictions.resize(count);
            model.decoder->decodeBatch(batch,
                                       std::span<uint32_t>(predictions));
            failingTrials.clear();
            for (uint32_t s = 0; s < count; ++s)
                if (predictions[s] != batch.observables(s))
                    failingTrials.push_back(begin + s);
            sequencer.submit(*b, failingTrials);
        }
        workerEnds[w] = std::chrono::steady_clock::now();
    });
    // A hand-out closed by `preempt` may suspend the point, so the next
    // one is built only once this one is known to finish.
    if (buildNext && handOut.waitUntilSampled()) {
        model.sampler.reset();
        model.dem.reset();
        buildNext();
    }
    pool.join();

    point.result = sequencer.result();
    const BinomialEstimate& est = point.result;
    if (sequencer.preempted()) {
        // Suspend, don't finish: every pulled batch has committed, so
        // persist the drained frontier with done=false and a later run
        // (same options, same checkpoint) resumes from this exact batch
        // boundary. The partial point is deliberately not reported to
        // obs -- the resuming run reports it once, when it actually
        // completes.
        if (options.preempted)
            *options.preempted = true;
        if (checkpoint.enabled())
            saveEntry(checkpoint, frontier.key,
                      {est.trials, est.successes, false});
        return true;
    }
    if (obs::metricsEnabled()) {
        obs::PointReport pr;
        pr.embedding = embeddingKindName(point.embedding);
        pr.distance = point.config.distance;
        pr.physicalP = point.config.noise.p2;
        pr.basis = point.config.memoryBasis == CheckBasis::X ? 'X' : 'Z';
        pr.trials = est.trials;
        pr.failures = est.successes;
        pr.sessionTrials = est.trials - frontier.trials;
        // The point's wall ends when its last worker does, not when
        // this thread, busy with the next set-up, joins them.
        pr.wallSeconds = std::chrono::duration<double>(
            *std::max_element(workerEnds.begin(), workerEnds.end())
            - pointStart).count();
        pr.shotsPerSec = pr.wallSeconds > 0.0
            ? static_cast<double>(pr.sessionTrials) / pr.wallSeconds
            : 0.0;
        pr.setupSeconds = model.setupSeconds;
        pr.setupMinorFaults = model.setupFaults;
        obs::reportPoint(pr);
    }
    // The point is finished (budget exhausted or early stop fired):
    // persist the final frontier with the done flag.
    if (checkpoint.enabled())
        saveEntry(checkpoint, frontier.key,
                  {est.trials, est.successes, true});
    return false;
}

/**
 * The one runner behind both entry points: estimate `points` in order,
 * each with its own sequencer, trial streams, early stop, progress,
 * preemption and checkpoint frontier, under one checkpoint file. Each
 * point's set-up is built on this thread while the previous point's
 * workers decode their last batches, and its workers start after that
 * point's last commit. A preempted point ends the run: the points
 * after it are neither built nor written, and keep empty estimates.
 */
void
runPoints(std::span<McPoint> points, const McOptions& options)
{
    const uint64_t trials = options.trials;
    if (trials == 0)
        return;

    // Checkpoint/resume: bind the state file (validating its config
    // fingerprint), and look up every point's committed frontier. Done
    // points return their stored counts without even generating the
    // circuit, so a resumed grid scan skips completed points entirely.
    McCheckpoint checkpoint;
    std::vector<Frontier> frontiers(points.size());
    if (!options.checkpointPath.empty()) {
        std::string err = checkpoint.open(
            options.checkpointPath,
            options.checkpointFingerprint.empty()
                ? mcRunFingerprintSummary(options)
                : options.checkpointFingerprint);
        if (!err.empty())
            VLQ_FATAL(err.c_str());
        for (size_t i = 0; i < points.size(); ++i) {
            Frontier& f = frontiers[i];
            f.key = checkpointPointKey(points[i].embedding,
                                       points[i].config);
            if (const CheckpointEntry* entry = checkpoint.find(f.key))
                f = {f.key, entry->trialsDone, entry->failures,
                     entry->done};
        }
    }
    auto toSample = [&](size_t i) {
        return !frontiers[i].done && frontiers[i].trials < trials;
    };

    std::unique_ptr<PointModel> model;
    for (size_t i = 0; i < points.size(); ++i) {
        const Frontier& f = frontiers[i];
        if (!toSample(i)) {
            points[i].result.successes = f.failures;
            points[i].result.trials = f.trials;
            // A frontier that is not done already covers the budget
            // (killed between the last commit and the done flag).
            if (!f.done)
                saveEntry(checkpoint, f.key, {f.trials, f.failures, true});
            continue;
        }
        if (!model)
            model = buildModel(points[i], options.decoder);
        size_t next = i + 1;
        while (next < points.size() && !toSample(next))
            ++next;
        std::unique_ptr<PointModel> nextModel;
        std::function<void()> buildNext;
        if (next < points.size())
            buildNext = [&] {
                nextModel = buildModel(points[next], options.decoder);
            };
        const bool preempted =
            runPoint(points[i], f, *model, options, checkpoint, buildNext);
        model = std::move(nextModel);
        if (preempted)
            return;
    }
}

} // namespace

BinomialEstimate
estimateLogicalErrorBasis(EmbeddingKind embedding,
                          const GeneratorConfig& config,
                          const McOptions& options)
{
    McPoint point{embedding, config, {}};
    runPoints(std::span<McPoint>(&point, 1), options);
    return point.result;
}

LogicalErrorPoint
estimateLogicalError(EmbeddingKind embedding, const GeneratorConfig& config,
                     const McOptions& options)
{
    std::array<McPoint, 2> points{McPoint{embedding, config, {}},
                                  McPoint{embedding, config, {}}};
    points[0].config.memoryBasis = CheckBasis::Z;
    points[1].config.memoryBasis = CheckBasis::X;
    runPoints(points, options);

    LogicalErrorPoint point;
    point.distance = config.distance;
    point.physicalP = config.noise.p2;
    point.basisZ = points[0].result;
    point.basisX = points[1].result;
    return point;
}

} // namespace vlq
