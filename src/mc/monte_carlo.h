#ifndef VLQ_MC_MONTE_CARLO_H
#define VLQ_MC_MONTE_CARLO_H

#include <cstdint>
#include <functional>
#include <string>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "util/stats.h"

namespace vlq {

/**
 * Running state streamed to McOptions::progress. All counts are
 * *global* to the point's full trial budget: a run resumed from a
 * checkpoint reports the globally committed trial count and the
 * full-run budget (never per-session counts), so the progress stream
 * is monotone across a kill/resume boundary. The scan job service
 * (src/service/) relies on exactly this property to emit monotone
 * `progress` events across preemption and server restarts (see
 * docs/job-protocol.md).
 */
struct McProgress
{
    uint64_t trialsDone = 0;   // trials committed so far (in order)
    uint64_t failures = 0;     // failures among the committed trials
    uint64_t totalTrials = 0;  // the run's trial budget

    // Heartbeat: liveness fields for long scans. Unlike the counts
    // above these are *session-relative* -- throughput counts only the
    // trials sampled by this process (a resumed run does not get
    // credit for the checkpointed prefix), so the rate and ETA are
    // honest even straight after a resume. Both are clamped by the
    // engine: shotsPerSec is 0 and etaSeconds is -1 whenever no finite
    // positive estimate exists yet (e.g. the first heartbeat after a
    // resume, where the session has committed trials but the elapsed
    // clock reads ~0), never inf/NaN.
    double elapsedSeconds = 0.0; // wall time since this point started
    double shotsPerSec = 0.0;    // session trials / elapsed (0 unknown)
    double etaSeconds = -1.0;    // projected seconds left (-1 unknown)

    /**
     * Render the heartbeat for a status line: "3.1e+04 shots/s, eta
     * 42s", with "--" placeholders while either value is unknown
     * ("-- shots/s, eta --"). Non-finite or negative inputs render as
     * unknown rather than as inf/garbage -- this is the single
     * renderer every status line should use.
     */
    std::string heartbeatString() const;
};

/** Options controlling one Monte-Carlo estimation. */
struct McOptions
{
    uint64_t trials = 2000;
    uint64_t seed = 0x5eed;
    unsigned threads = 0; // 0 = hardware concurrency
    DecoderKind decoder = DecoderKind::Mwpm;

    /**
     * Shots per work unit: each batch is sampled into a transposed
     * ShotBatch and decoded with Decoder::decodeBatch. Batches shard
     * across the thread pool. Size is a pure throughput knob -- every
     * trial samples from its own RNG stream, so failure counts are
     * bit-identical for any batchSize and thread count.
     */
    uint32_t batchSize = 256;

    /**
     * Early stop: when > 0, stop once this many failures are seen,
     * counting trials strictly in trial order -- the run consumes
     * exactly the trials up to (and including) the targetFailures-th
     * failing trial, regardless of batch size or thread count, so
     * early-stopped counts are as reproducible as full runs. 0 runs
     * the full trial budget.
     */
    uint64_t targetFailures = 0;

    /**
     * Optional streaming callback, invoked after each batch commits
     * (in trial order, under the engine's lock -- keep it cheap).
     * Lets million-trial scans report running failure counts.
     */
    std::function<void(const McProgress&)> progress;

    /**
     * Checkpoint/resume (see mc/checkpoint.h). When non-empty, the
     * driver persists the committed trial frontier of every point to
     * this file (atomically, via write-to-temp + rename) and, on
     * startup, validates the file's config fingerprint and resumes
     * each point from its first uncommitted trial -- bit-identical to
     * an uninterrupted run, including under targetFailures. Points
     * recorded as done are skipped without regenerating circuits.
     * A fingerprint mismatch or corrupt file is a hard error.
     */
    std::string checkpointPath;

    /**
     * Committed trials between periodic checkpoint saves within a
     * point (0 = the 65536 default). The final frontier of a point is
     * always saved when it finishes, regardless of this knob.
     */
    uint64_t checkpointEveryTrials = 0;

    /**
     * Canonical fingerprint summary guarding the checkpoint file.
     * Grid scanners (scanThreshold, runSensitivity) fill this with
     * their grid identity; when left empty the engine derives it from
     * its own knobs (mcRunFingerprintSummary in mc/checkpoint.h).
     */
    std::string checkpointFingerprint;

    /**
     * Cooperative preemption hook. When set, the engine polls it at
     * every batch-commit boundary (in trial order, under the
     * sequencer lock -- keep it cheap) until it first returns true,
     * and never again in that run. Workers then stop pulling batches,
     * but every batch already pulled -- in flight or finished out of
     * order -- still commits in trial order, with `progress` and the
     * periodic checkpoint save running as for any commit. Only then
     * is the drained frontier persisted with done=false (when
     * checkpointing is on) and the run returns early with the
     * committed counts.
     * If the drain reaches the trial budget or the targetFailures
     * stop, the point is finished instead: saved done=true and not
     * reported as preempted.
     *
     * The suspended frontier is a batch boundary at or after the
     * preempting commit; how far past it depends on scheduling, so
     * only the final counts are deterministic. Because batches commit
     * strictly in trial order, that frontier is a prefix of the
     * uninterrupted run's trial sequence: re-running the same options
     * with the same checkpoint resumes from the boundary and
     * reproduces the uninterrupted counts bit-identically. This is
     * what makes scheduler preemption cheap -- suspending a job costs
     * one checkpoint save, and no sampled trial is thrown away.
     */
    std::function<bool()> preempt;

    /**
     * Out-flag for preemption: when non-null, set to true if the run
     * was cut short by `preempt` -- the hook fired and the drained
     * frontier is short of the budget and of the early stop -- and
     * left untouched otherwise, so callers can share one flag across
     * consecutive points.
     */
    bool* preempted = nullptr;
};

/**
 * Logical error estimate for one (setup, distance, p) data point:
 * independent memory-Z and memory-X experiments and their combination.
 */
struct LogicalErrorPoint
{
    int distance = 0;
    double physicalP = 0.0;

    /** Memory experiment with Z-check detectors (decodes X errors). */
    BinomialEstimate basisZ;

    /** Memory experiment with X-check detectors (decodes Z errors). */
    BinomialEstimate basisX;

    /** Per-block logical error rate: 1 - (1-pZ)(1-pX). */
    double combinedRate() const;
};

/**
 * Run the full pipeline for one configuration: generate the memory
 * circuit for both bases, build detector error models, sample and
 * decode whole batches of shots, and count logical failures.
 *
 * Trials are reproducible: trial i uses an RNG derived from
 * (seed, basis, i) regardless of thread count or batch size, and
 * early-stopped runs cut at a trial index that depends only on the
 * sampled outcomes.
 */
LogicalErrorPoint estimateLogicalError(EmbeddingKind embedding,
                                       const GeneratorConfig& config,
                                       const McOptions& options);

/**
 * Single-basis variant (used by tests, fine-grained sweeps, and the
 * scan job service, which drives one (config, basis) point at a time
 * so it can preempt and resume at point granularity too).
 * @return failures out of the consumed trials (== options.trials
 *         unless targetFailures stopped the run early or
 *         McOptions::preempt suspended it at a batch boundary).
 */
BinomialEstimate estimateLogicalErrorBasis(EmbeddingKind embedding,
                                           const GeneratorConfig& config,
                                           const McOptions& options);

} // namespace vlq

#endif // VLQ_MC_MONTE_CARLO_H
