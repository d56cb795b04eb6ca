/**
 * @file
 * Reproduces paper Figure 11: error-threshold curves for the five
 * evaluation setups (Baseline 2D, Natural/Compact x AAO/Interleaved).
 *
 * Prints, per setup, the logical error rate per d-round block for each
 * code distance across a sweep of physical error rates, plus the
 * estimated threshold (curve-crossing median). The paper reports
 * pth = 0.009 / 0.009 / 0.008 / 0.008 / 0.008.
 *
 * Environment knobs:
 *   VLQ_TRIALS  trials per (d, p, basis) point
 *               [default 2000, 4000 with VLQ_FULL=1]
 *   VLQ_FULL=1  use distances {3,5,7,9,11} and a denser sweep
 *   VLQ_POINTS  number of p values  [default 7, 9 with VLQ_FULL=1]
 *   VLQ_SCALE_COHERENCE=1  scale coherence with p too (ablation A2;
 *                          default 0 = Table-I coherence, which is the
 *                          reading consistent with the paper's plots;
 *                          ROADMAP.md item 3 tracks the fidelity work)
 *   VLQ_GAP_PER_ROUND=1    charge the paging gap per round (the
 *                          PerRound ablation; default BlockOnce)
 *   VLQ_SEED    RNG seed                           [default 0x5eed]
 *   VLQ_DECODER decoder backend: mwpm (default), union-find/uf, greedy
 *   VLQ_BATCH   shots per Monte-Carlo batch at most, split evenly
 *               into whole waves of workers        [default 256]
 *   VLQ_TARGET_FAILURES  early-stop each point after this many
 *                        failures (0 = run every trial)
 *   VLQ_CHECKPOINT       checkpoint/resume state-file base path (the
 *                        --checkpoint flag overrides); one file per
 *                        setup is written as <base>.setup<i>, and a
 *                        preempted run resumed with the same knobs
 *                        reproduces the uninterrupted counts
 *                        bit-identically
 *   VLQ_CHECKPOINT_EVERY committed trials between checkpoint saves
 *                        within a point [default 65536]
 *   VLQ_CSV     directory for one fig11_setup<i>.csv per setup
 * Flags:
 *   --csv <path>  emit all curves as machine-readable CSV
 *                 (record,setup,distance,p,value rows; the CI
 *                 bench-regression job diffs the rate records against
 *                 bench/reference/fig11_thresholds.csv)
 *   --checkpoint <base>  see VLQ_CHECKPOINT
 *   --metrics-json <path>  structured end-of-run metrics report
 *                          (VLQ_METRICS_JSON equivalent; validated in
 *                          CI by tools/check_metrics.py)
 *   --trace-json <path>    Chrome trace_event timeline (VLQ_TRACE)
 *
 * Unknown arguments are rejected with a usage message -- a typo'd
 * flag must fail fast, not silently run the full bench with defaults.
 */
#include <iostream>
#include <limits>
#include <string>

#include "decoder/decoder_factory.h"
#include "mc/threshold.h"
#include "obs/obs.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/table.h"

using namespace vlq;

int
main(int argc, char** argv)
{
    obs::initFromEnv();
    std::string csvPath;
    std::string checkpointBase = envString("VLQ_CHECKPOINT", "");
    std::string metricsJsonPath;
    std::string traceJsonPath;
    if (!parseFlagArgs(argc, argv,
                       {{"--csv", &csvPath},
                        {"--checkpoint", &checkpointBase},
                        {"--metrics-json", &metricsJsonPath},
                        {"--trace-json", &traceJsonPath}}))
        return 1;
    obs::applyCliPaths(metricsJsonPath, traceJsonPath);

    const bool full = envInt("VLQ_FULL", 0) != 0;
    ThresholdScanConfig cfg;
    cfg.distances = full ? std::vector<int>{3, 5, 7, 9, 11}
                         : std::vector<int>{3, 5, 7};
    const auto points = envBounded("VLQ_POINTS", full ? 9 : 7, 1,
                                   std::numeric_limits<int>::max());
    const auto batch = envBounded("VLQ_BATCH", 256, 1,
                                  std::numeric_limits<uint32_t>::max());
    if (!points || !batch)
        return 1;
    cfg.physicalPs = logspace(3.5e-3, 2e-2, static_cast<int>(*points));
    cfg.cavityDepth = 10;
    cfg.scaleCoherence = envInt("VLQ_SCALE_COHERENCE", 0) != 0;
    cfg.gapModel = envInt("VLQ_GAP_PER_ROUND", 0) != 0
        ? PagingGapModel::PerRound : PagingGapModel::BlockOnce;
    cfg.mc.trials = envU64("VLQ_TRIALS", full ? 4000 : 2000);
    cfg.mc.seed = envU64("VLQ_SEED", 0x5eed);
    cfg.mc.decoder = decoderKindFromEnv(DecoderKind::Mwpm);
    cfg.mc.batchSize = static_cast<uint32_t>(*batch);
    cfg.mc.targetFailures = envU64("VLQ_TARGET_FAILURES", 0);
    cfg.mc.checkpointEveryTrials = envU64("VLQ_CHECKPOINT_EVERY", 0);

    std::cout << "=== Figure 11: error thresholds (trials/point = "
              << cfg.mc.trials << ", coherence "
              << (cfg.scaleCoherence ? "scales with p" : "fixed Table I")
              << ", k = " << cfg.cavityDepth << ", decoder = "
              << decoderKindName(cfg.mc.decoder) << ", batch = "
              << cfg.mc.batchSize;
    if (cfg.mc.targetFailures > 0)
        std::cout << ", early-stop at " << cfg.mc.targetFailures
                  << " failures";
    std::cout << ") ===\n";

    CsvWriter combined({"record", "setup", "distance", "p", "value"});

    const double paperPth[5] = {0.009, 0.009, 0.008, 0.008, 0.008};
    int setupIdx = 0;
    for (const EvaluationSetup& setup : paperSetups()) {
        std::cout << "\n--- " << setup.name() << " ---\n";
        // One state file per setup: the scan fingerprint includes the
        // setup identity, so setups cannot share a file.
        if (!checkpointBase.empty())
            cfg.mc.checkpointPath = checkpointBase + ".setup"
                + std::to_string(setupIdx);
        ThresholdResult result = scanThreshold(setup, cfg);

        std::vector<std::string> headers{"p"};
        for (const auto& curve : result.curves)
            headers.push_back("d=" + std::to_string(curve.distance));
        TablePrinter t(headers);
        CsvWriter csv(headers);
        for (size_t j = 0; j < cfg.physicalPs.size(); ++j) {
            std::vector<std::string> row{
                TablePrinter::sci(cfg.physicalPs[j], 2)};
            std::vector<double> nums{cfg.physicalPs[j]};
            for (const auto& curve : result.curves) {
                double rate = curve.points[j].combinedRate();
                row.push_back(TablePrinter::sci(rate, 2));
                nums.push_back(rate);
                if (!csvPath.empty())
                    combined.addRow(
                        {"rate", setup.name(),
                         std::to_string(curve.distance),
                         TablePrinter::sci(cfg.physicalPs[j], 2),
                         std::to_string(rate)});
            }
            t.addRow(row);
            csv.addNumericRow(nums);
        }
        t.print(std::cout);
        std::string csvDir = envString("VLQ_CSV", "");
        if (!csvDir.empty()) {
            std::string path = csvDir + "/fig11_setup"
                + std::to_string(setupIdx) + ".csv";
            if (!csv.writeFile(path))
                std::cerr << "failed to write " << path << "\n";
        }
        if (!csvPath.empty())
            combined.addRow({"pth", setup.name(), "", "",
                             std::to_string(result.pth)});
        std::cout << "threshold estimate pth = ";
        if (result.pth > 0)
            std::cout << TablePrinter::sci(result.pth, 2);
        else
            std::cout << "(no crossing in range)";
        std::cout << "   [paper: "
                  << TablePrinter::sci(paperPth[setupIdx], 2) << "]\n";
        double lambda = suppressionFactor(result.curves, 3.5e-3);
        if (lambda > 0) {
            std::cout << "suppression factor Lambda(p=3.5e-3) = "
                      << TablePrinter::num(lambda, 2)
                      << " per distance step (>1 below threshold)\n";
        }
        ++setupIdx;
    }
    if (!csvPath.empty() && !combined.writeFile(csvPath)) {
        std::cerr << "failed to write " << csvPath << "\n";
        return 1;
    }
    std::string obsErr;
    if (!obs::finalize(&obsErr)) {
        std::cerr << "error: " << obsErr << "\n";
        return 1;
    }
    return 0;
}
