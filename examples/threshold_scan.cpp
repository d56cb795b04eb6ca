/**
 * @file
 * Threshold scan example: sweep the physical error rate for one
 * evaluation setup and locate the error threshold, like one panel of
 * the paper's Fig. 11.
 *
 * Usage: threshold_scan [setup 0..4] [trials] [decoder] [target]
 *                       [--checkpoint <path>]
 *   0 Baseline, 1 Natural-AAO, 2 Natural-Interleaved,
 *   3 Compact-AAO, 4 Compact-Interleaved
 *   decoder: mwpm (default), union-find/uf, greedy; the VLQ_DECODER
 *   environment variable sets the default when the argument is absent.
 *   target: stop each point early after this many failures (0 = run
 *   every trial). VLQ_BATCH sets the Monte-Carlo batch size.
 *   VLQ_EMBEDDING overrides the setup's embedding with any registered
 *   generator backend (baseline, natural, compact, compact-rect), so
 *   new backends can be scanned without a new setup index.
 *
 * VLQ_SEED sets the RNG seed (default 0x5eed): split-seed cluster
 * shards run the same scan under different seeds and their checkpoint
 * files merge with example_merge_checkpoints.
 *
 * Checkpoint/resume: --checkpoint (or VLQ_CHECKPOINT) names a state
 * file; the scan periodically persists the committed trial frontier of
 * every (d, p, basis) point (every VLQ_CHECKPOINT_EVERY committed
 * trials, default 65536) and, when restarted after a kill, skips
 * finished points and resumes the interrupted one from its first
 * uncommitted trial. The resumed scan's failure counts are
 * bit-identical to an uninterrupted run's -- including under early
 * stop -- because every trial samples its own RNG stream and batches
 * commit in trial order. A checkpoint recorded under different scan
 * knobs is rejected (config fingerprint mismatch).
 *
 * Observability: --metrics-json <path> (or VLQ_METRICS_JSON) writes a
 * structured end-of-run JSON report -- per-point shots/sec, stage
 * latency quantiles, decoder fast-path hit rate -- and --trace-json
 * <path> (or VLQ_TRACE) writes a Chrome trace_event timeline with one
 * lane per pool thread (load into chrome://tracing or Perfetto). Both
 * are off by default and cost nothing when off.
 *
 * All arguments are validated: non-numeric or out-of-range input --
 * and any unknown or extra argument -- prints this usage instead of
 * silently running a wrong scan.
 *
 * Points stream as they finish, with running failure counts for the
 * point being sampled -- the batched engine commits batches in trial
 * order, so the stream (and the final counts) are reproducible for
 * any thread count or batch size.
 */
#include <iostream>
#include <limits>
#include <vector>

#include "core/generator_registry.h"
#include "decoder/decoder_factory.h"
#include "mc/threshold.h"
#include "obs/obs.h"
#include "util/env.h"
#include "util/table.h"

using namespace vlq;

namespace {

int
usage(const char* argv0, const std::string& problem)
{
    std::cerr << "error: " << problem << "\n"
              << "usage: " << argv0
              << " [setup 0..4] [trials >= 1] [decoder] [target >= 0]"
                 " [--checkpoint <path>]\n"
                 "  [--metrics-json <path>] [--trace-json <path>]\n"
              << "  decoders: " << decoderKindList() << "\n"
              << "  VLQ_EMBEDDING overrides the embedding ("
              << embeddingKindList() << ")\n";
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    auto setups = paperSetups();

    // Split argv into the positional arguments and the flag set; any
    // unknown flag or surplus positional is an error, never silently
    // ignored.
    obs::initFromEnv();
    std::string checkpointPath = envString("VLQ_CHECKPOINT", "");
    std::string metricsJsonPath;
    std::string traceJsonPath;
    std::vector<const char*> positional;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        if (arg == "--checkpoint") {
            if (i + 1 >= argc)
                return usage(argv[0], "--checkpoint needs a value");
            checkpointPath = argv[++i];
        } else if (arg == "--metrics-json") {
            if (i + 1 >= argc)
                return usage(argv[0], "--metrics-json needs a value");
            metricsJsonPath = argv[++i];
        } else if (arg == "--trace-json") {
            if (i + 1 >= argc)
                return usage(argv[0], "--trace-json needs a value");
            traceJsonPath = argv[++i];
        } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
            return usage(argv[0], "unknown flag '" + std::string(arg)
                         + "'");
        } else if (positional.size() >= 4) {
            return usage(argv[0], "unexpected extra argument '"
                         + std::string(arg) + "'");
        } else {
            positional.push_back(argv[i]);
        }
    }
    obs::applyCliPaths(metricsJsonPath, traceJsonPath);

    int setupIdx = 4;
    if (positional.size() > 0) {
        auto parsed = parseInt64(positional[0]);
        if (!parsed || *parsed < 0
            || *parsed >= static_cast<int64_t>(setups.size())) {
            return usage(argv[0], "setup must be an integer in 0.."
                         + std::to_string(setups.size() - 1) + ", got '"
                         + positional[0] + "'");
        }
        setupIdx = static_cast<int>(*parsed);
    }
    EvaluationSetup setup = setups[static_cast<size_t>(setupIdx)];
    setup.embedding = embeddingKindFromEnv(setup.embedding);

    uint64_t trials = 1500;
    if (positional.size() > 1) {
        auto parsed = parseInt64(positional[1]);
        if (!parsed || *parsed < 1) {
            return usage(argv[0], "trials must be a positive integer, "
                         "got '" + std::string(positional[1]) + "'");
        }
        trials = static_cast<uint64_t>(*parsed);
    }

    ThresholdScanConfig cfg;
    cfg.distances = {3, 5, 7};
    cfg.physicalPs = logspace(3e-3, 2e-2, 6);
    cfg.mc.trials = trials;
    cfg.mc.seed = envU64("VLQ_SEED", cfg.mc.seed);
    cfg.mc.decoder = decoderKindFromEnv(DecoderKind::Mwpm);
    const auto batch = envBounded("VLQ_BATCH", 256, 1,
                                  std::numeric_limits<uint32_t>::max());
    if (!batch)
        return 1;
    cfg.mc.batchSize = static_cast<uint32_t>(*batch);
    cfg.mc.targetFailures = envU64("VLQ_TARGET_FAILURES", 0);
    cfg.mc.checkpointPath = checkpointPath;
    cfg.mc.checkpointEveryTrials = envU64("VLQ_CHECKPOINT_EVERY", 0);
    if (positional.size() > 2) {
        auto kind = parseDecoderKind(positional[2]);
        if (!kind) {
            return usage(argv[0], "unknown decoder '"
                         + std::string(positional[2]) + "'");
        }
        cfg.mc.decoder = *kind;
    }
    if (positional.size() > 3) {
        auto parsed = parseInt64(positional[3]);
        if (!parsed || *parsed < 0) {
            return usage(argv[0], "target must be a non-negative "
                         "integer, got '" + std::string(positional[3])
                         + "'");
        }
        cfg.mc.targetFailures = static_cast<uint64_t>(*parsed);
    }

    // Stream running counts: overwrite one status line per basis run,
    // then print the finished point on its own line.
    cfg.mc.progress = [](const McProgress& p) {
        if (p.trialsDone == p.totalTrials
            || p.trialsDone % 16384 < 256) {
            std::cout << "\r    sampling: " << p.failures
                      << " failures / " << p.trialsDone << " of "
                      << p.totalTrials << " trials ";
            // Heartbeat: session throughput and projected time left.
            // heartbeatString clamps -- unknown or non-finite values
            // (e.g. the first heartbeat of a resumed session) render
            // as "--", never as inf or a garbage integer cast.
            std::cout << "(" << p.heartbeatString() << ") "
                      << std::flush;
        }
    };
    cfg.pointProgress = [](const LogicalErrorPoint& pt) {
        std::cout << "\r  d=" << pt.distance << "  p="
                  << TablePrinter::sci(pt.physicalP, 2) << "  rate="
                  << TablePrinter::sci(pt.combinedRate(), 2) << "  ("
                  << pt.basisZ.successes + pt.basisX.successes
                  << " failures / " << pt.basisZ.trials + pt.basisX.trials
                  << " trials)          \n";
    };

    std::cout << "Scanning " << setup.name() << " with " << trials
              << " trials/point using the "
              << decoderKindName(cfg.mc.decoder) << " decoder (batch "
              << cfg.mc.batchSize;
    if (cfg.mc.targetFailures > 0)
        std::cout << ", early-stop at " << cfg.mc.targetFailures
                  << " failures";
    if (!cfg.mc.checkpointPath.empty())
        std::cout << ", checkpointing to " << cfg.mc.checkpointPath;
    std::cout << ")...\n\n";
    ThresholdResult result = scanThreshold(setup, cfg);

    std::vector<std::string> headers{"p"};
    for (const auto& c : result.curves)
        headers.push_back("d=" + std::to_string(c.distance));
    TablePrinter t(headers);
    for (size_t j = 0; j < cfg.physicalPs.size(); ++j) {
        std::vector<std::string> row{
            TablePrinter::sci(cfg.physicalPs[j], 2)};
        for (const auto& c : result.curves)
            row.push_back(
                TablePrinter::sci(c.points[j].combinedRate(), 2));
        t.addRow(row);
    }
    std::cout << "\n";
    t.print(std::cout);

    if (result.pth > 0)
        std::cout << "\nEstimated threshold: pth ~ "
                  << TablePrinter::sci(result.pth, 2)
                  << " (paper: ~8e-3 to 9e-3)\n";
    else
        std::cout << "\nNo crossing found in range; increase trials.\n";

    std::string obsErr;
    if (!obs::finalize(&obsErr)) {
        std::cerr << "error: " << obsErr << "\n";
        return 1;
    }
    if (!obs::configuredMetricsJsonPath().empty())
        std::cout << "Metrics report: "
                  << obs::configuredMetricsJsonPath() << "\n";
    if (!obs::configuredTraceJsonPath().empty())
        std::cout << "Trace timeline: " << obs::configuredTraceJsonPath()
                  << "\n";
    return 0;
}
