#ifndef VLQ_MC_CHECKPOINT_H
#define VLQ_MC_CHECKPOINT_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/generator_common.h"
#include "mc/monte_carlo.h"

namespace vlq {

/**
 * Checkpoint/resume for long Monte-Carlo runs.
 *
 * Production threshold and sensitivity scans run 1e8-1e9 trials per
 * (embedding, distance, p) point and must survive preemption. The
 * engine makes resuming cheap and *exactly* verifiable: every trial
 * samples from an RNG stream derived from (seed, trial index), and
 * batches commit strictly in trial order, so the committed frontier of
 * a killed run is a prefix of the uninterrupted run's trial sequence.
 * Restarting from that frontier therefore reproduces the uninterrupted
 * failure counts bit-identically -- including the stop trial of
 * McOptions::targetFailures early-stopped runs.
 *
 * On-disk format (text, one state file per run, written atomically by
 * writing to `<path>.tmp` and renaming over `<path>`):
 *
 *     vlq-mc-checkpoint 1
 *     fingerprint <16 hex digits>
 *     config <canonical key=value summary of the run configuration>
 *     point <16 hex key> trials=<N> failures=<M> done=<0|1>
 *     ...
 *     end <point count>
 *
 * Older builds also wrote fingerprint-exempt `meta <key>=<value>`
 * lines between the config line and the points (`meta compute=simd`
 * named the compute backend of the run). The loader still accepts and
 * ignores them, so those files resume; save() never writes them.
 * Every other line has a fixed number of tokens, and a line with one
 * more is rejected.
 *
 * The fingerprint is the FNV-1a hash of the config line's summary
 * (seed, trial budget, batch size, decoder, early-stop target, and --
 * for grid scans -- embedding, schedule and the distances/ps grid). A
 * file whose fingerprint does not hash its own config line is corrupt
 * or hand-edited, and opening a file whose fingerprint does not match
 * the current run is a hard error: silently mixing counts from
 * different configurations would corrupt the estimate. Each `point`
 * line is the committed frontier of one (generator config, basis)
 * Monte-Carlo point, keyed by a hash of the full point configuration;
 * `done` marks points whose budget is exhausted (or whose early-stop
 * target fired), which a resumed grid scan skips without regenerating
 * circuits. The trailing `end` line makes truncation detectable.
 *
 * Checkpoints are also the suspend/resume mechanism of the scan job
 * service (src/service/): cooperative preemption
 * (McOptions::preempt) persists the running point's frontier with
 * done=0 at a batch boundary, and a preempted or killed job resumes
 * from its file bit-identically. Because save() writes points sorted
 * and doubles canonically, a job checkpoint stamped with the same
 * thresholdScanFingerprint as a solo threshold_scan run is
 * byte-identical to the solo run's file -- `cmp` is a valid equality
 * check, which CI uses after a SIGKILL loop.
 */

/** Committed Monte-Carlo frontier of one (config, basis) point. */
struct CheckpointEntry
{
    /** Trials committed in order from trial 0. */
    uint64_t trialsDone = 0;

    /** Failures among the committed trials. */
    uint64_t failures = 0;

    /** True when the point is finished (budget done or early stop). */
    bool done = false;

    bool operator==(const CheckpointEntry&) const = default;
};

/** FNV-1a 64-bit hash (the checkpoint key/fingerprint hash). */
uint64_t fnv1a64(std::string_view text);

/** 16-digit zero-padded hex, the format of keys in checkpoint files. */
std::string hex16(uint64_t value);

/** Format a double so that equal values round-trip to equal text. */
std::string canonicalDouble(double value);

/**
 * Stable identity of one Monte-Carlo point: a hash over the embedding,
 * the memory basis, and every count-affecting GeneratorConfig field
 * (patch shape, rounds, cavity depth, schedule, gap model, and the
 * full noise model including hardware parameters). Two points with the
 * same key sample identical trial streams under the same run seed.
 */
uint64_t checkpointPointKey(EmbeddingKind embedding,
                            const GeneratorConfig& config);

/**
 * Canonical fingerprint summary of a standalone estimate: the
 * engine-level knobs that define the trial stream and stop rule
 * (seed, trials, batchSize, decoder, targetFailures). Grid scanners
 * extend this with their grid (see scanThreshold / runSensitivity).
 */
std::string mcRunFingerprintSummary(const McOptions& options);

/**
 * In-memory image of one checkpoint file. Not thread-safe; the engine
 * mutates it only from the batch-commit path, which is serialized.
 */
class McCheckpoint
{
  public:
    /** Disabled (not bound to a path) until open() succeeds. */
    McCheckpoint() = default;

    /**
     * Bind to `path` and load any existing file there.
     *
     * A missing file starts an empty checkpoint (fresh run). An
     * existing file must carry a supported format version, a
     * fingerprint that hashes both its config line and `summary`, and
     * valid contents through the trailing `end` marker. A leftover
     * `<path>.tmp` from a crash mid-save is ignored (the rename never
     * happened, so the main file is the last consistent state).
     *
     * @return empty string on success, else a description of why the
     *         file was rejected (corrupt, truncated, version mismatch,
     *         fingerprint mismatch); the checkpoint stays disabled.
     *         The message is complete and user-facing: callers (the
     *         scan CLIs, the job service's per-job error events)
     *         surface it verbatim.
     */
    std::string open(const std::string& path, const std::string& summary);

    /**
     * Bind to the existing file at `path`, adopting its config line as
     * the summary: open()'s checks but the match with a caller's
     * summary. A missing file is an error, never a fresh run. Returns
     * the rejection message, empty on success.
     */
    std::string load(const std::string& path);

    bool enabled() const { return !path_.empty(); }
    const std::string& path() const { return path_; }

    /** Fingerprint hash of the bound run configuration. */
    uint64_t fingerprint() const { return fingerprint_; }

    /** The canonical config summary the fingerprint hashes. */
    const std::string& summary() const { return summary_; }

    /** Every point's committed frontier, sorted by key. */
    const std::map<uint64_t, CheckpointEntry>& points() const
    {
        return entries_;
    }

    /** Look up a point's committed frontier (nullptr when absent). */
    const CheckpointEntry* find(uint64_t pointKey) const;

    /** Set a point's committed frontier (in memory; save() persists). */
    void update(uint64_t pointKey, const CheckpointEntry& entry);

    size_t numPoints() const { return entries_.size(); }

    /**
     * Persist atomically: serialize to `<path>.tmp`, then rename over
     * `<path>`. Points are written sorted by key, so two runs that
     * commit the same frontiers produce byte-identical files.
     *
     * @return empty string on success, else the failure description.
     */
    std::string save() const;

  private:
    std::string path_;
    uint64_t fingerprint_ = 0;
    std::string summary_;
    std::map<uint64_t, CheckpointEntry> entries_;

    /** The one parser: open() passes its summary, load() nullptr. */
    std::string read(std::istream& in, const std::string& path,
                     const std::string* expected);

    friend std::string mergeCheckpoints(
        const std::vector<std::string>& shards, const std::string& out);
};

/**
 * Merge split-seed shards of one run into a reporting checkpoint at
 * `out` (not a resume point): per point, trials and failures summed,
 * done only when every shard holds the point and every copy is done,
 * under the config line
 * `seed=merged:<s1>,<s2>,... <the shared rest>`. Shards must load,
 * agree on every config field but `seed=`, and have distinct seeds
 * (same-seed shards overlap, so summing would double-count). All
 * checks run before save() writes `out`. Returns the rejection
 * message naming the shard at fault, empty on success.
 */
std::string mergeCheckpoints(const std::vector<std::string>& shards,
                             const std::string& out);

} // namespace vlq

#endif // VLQ_MC_CHECKPOINT_H
