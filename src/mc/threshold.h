#ifndef VLQ_MC_THRESHOLD_H
#define VLQ_MC_THRESHOLD_H

#include <vector>

#include "mc/memory_experiment.h"
#include "mc/monte_carlo.h"

namespace vlq {

/** Logical-error curve for one code distance. */
struct ThresholdCurve
{
    int distance = 0;
    std::vector<double> physicalPs;
    std::vector<LogicalErrorPoint> points;
};

/** Full threshold scan for one setup. */
struct ThresholdResult
{
    EvaluationSetup setup;
    std::vector<ThresholdCurve> curves;

    /**
     * Estimated threshold: the median crossing of consecutive-distance
     * curve pairs in log-log space, or -1 when no crossing is found in
     * the scanned range.
     */
    double pth = -1.0;
};

/** Parameters of a threshold scan. */
struct ThresholdScanConfig
{
    std::vector<int> distances{3, 5, 7};
    std::vector<double> physicalPs;
    int cavityDepth = 10;
    bool scaleCoherence = false;
    PagingGapModel gapModel = PagingGapModel::BlockOnce;
    HardwareParams hardware;

    /**
     * Monte-Carlo engine options shared by every (d, p) point. The
     * batching/early-stop/progress knobs (McOptions::batchSize,
     * targetFailures, progress) apply per point; progress streams the
     * running failure count of the point being sampled.
     */
    McOptions mc;

    /** Optional: called as each (distance, p) point finishes. */
    std::function<void(const LogicalErrorPoint&)> pointProgress;
};

/**
 * The GeneratorConfig of the scan point (distance, physicalP), with the
 * memory basis left at its default. scanThreshold, its checkpoint
 * fingerprint and the scan job service all build points here, so they
 * key every point identically.
 */
GeneratorConfig thresholdPointConfig(const EvaluationSetup& setup,
                                     const ThresholdScanConfig& config,
                                     int distance, double physicalP);

/** Run the scan (the engine behind the Fig. 11 benchmark). */
ThresholdResult scanThreshold(const EvaluationSetup& setup,
                              const ThresholdScanConfig& config);

/**
 * Canonical checkpoint fingerprint of a threshold scan: the engine
 * knobs plus the setup identity and the (distances, ps) grid, with the
 * hardware/coherence context folded in via a representative point key.
 * Resuming a scan whose grid or setup changed is a hard error rather
 * than a silent mix of incompatible counts.
 *
 * Public because the scan job service stamps its per-job checkpoints
 * with exactly this summary: a job's state file is then byte-identical
 * to the checkpoint of a solo threshold_scan run with the same knobs,
 * which is how CI proves service results bit-identical to solo runs.
 */
std::string thresholdScanFingerprint(const EvaluationSetup& setup,
                                     const ThresholdScanConfig& config);

/** Compute the threshold estimate from finished curves. */
double estimateThresholdFromCurves(
    const std::vector<ThresholdCurve>& curves);

/**
 * Error-suppression factor Lambda at one physical rate: the average
 * ratio p_L(d) / p_L(d+2) across consecutive distances at the sampled
 * p closest to `physicalP`. Lambda > 1 means increasing the distance
 * suppresses logical errors (the paper's Sec. V claim that slopes are
 * stable and decay is exponential in d below threshold).
 *
 * @return the geometric-mean suppression factor, or -1 when rates are
 *         zero/insufficient for a ratio.
 */
double suppressionFactor(const std::vector<ThresholdCurve>& curves,
                         double physicalP);

} // namespace vlq

#endif // VLQ_MC_THRESHOLD_H
