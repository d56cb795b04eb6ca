/**
 * @file
 * Ablation A1: decoder quality and speed. The paper uses "maximum
 * likelihood perfect matching"; this ablation compares our exact
 * blossom MWPM against the greedy matcher and the union-find decoder
 * on the same decoding graphs, on the baseline and Compact-Interleaved
 * setups, then times each backend's bare decode loop and the batched
 * Monte-Carlo pipeline so speedups are measured rather than asserted.
 *
 * Knobs: VLQ_TRIALS (default 400), VLQ_TIMING_SHOTS (default 2000),
 *        VLQ_SEED, VLQ_FULL=1 (adds d=11 to the timing sweep).
 * Flags: --csv <path>  also emit every table as machine-readable CSV
 *        (record,setup,d,p,decoder,value rows; the CI bench-regression
 *        job diffs the deterministic records against
 *        bench/reference/ablation_decoder.csv).
 *        --metrics-json <path> / --trace-json <path>  observability
 *        outputs (see src/obs/obs.h); also via VLQ_METRICS_JSON and
 *        VLQ_TRACE.
 */
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "decoder/decoder_factory.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "decoder/union_find.h"
#include "dem/shot_batch.h"
#include "mc/monte_carlo.h"
#include "obs/obs.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/table.h"

using namespace vlq;

namespace {

const std::vector<DecoderKind> kKinds{
    DecoderKind::Mwpm, DecoderKind::Greedy, DecoderKind::UnionFind};

void
logicalErrorTable(CsvWriter* csv)
{
    McOptions base;
    base.trials = envU64("VLQ_TRIALS", 400);
    base.seed = envU64("VLQ_SEED", 0x5eed);

    std::cout << "=== Logical error rate by decoder backend ===\n\n";
    TablePrinter t({"Setup", "d", "p", "MWPM rate", "Greedy rate",
                    "UnionFind rate"});
    struct Case
    {
        EmbeddingKind emb;
        ExtractionSchedule sched;
        const char* name;
    };
    std::vector<Case> cases{
        {EmbeddingKind::Baseline2D, ExtractionSchedule::AllAtOnce,
         "Baseline"},
        {EmbeddingKind::Compact, ExtractionSchedule::Interleaved,
         "Compact, Interleaved"},
    };
    for (const auto& cs : cases) {
        for (int d : {3, 5}) {
            for (double p : {5e-3, 1e-2}) {
                GeneratorConfig cfg;
                cfg.distance = d;
                cfg.cavityDepth = 10;
                cfg.schedule = cs.sched;
                cfg.noise = NoiseModel::atPhysicalRate(
                    p, HardwareParams::transmonsWithMemory());
                std::vector<std::string> row{
                    cs.name, std::to_string(d), TablePrinter::sci(p, 1)};
                for (DecoderKind kind : kKinds) {
                    McOptions opts = base;
                    opts.decoder = kind;
                    LogicalErrorPoint pt =
                        estimateLogicalError(cs.emb, cfg, opts);
                    row.push_back(
                        TablePrinter::sci(pt.combinedRate(), 2));
                    if (csv)
                        csv->addRow({"rate", cs.name,
                                     std::to_string(d),
                                     TablePrinter::sci(p, 1),
                                     decoderKindName(kind),
                                     std::to_string(pt.combinedRate())});
                }
                t.addRow(row);
            }
        }
    }
    t.print(std::cout);
    std::cout <<
        "\nExpected: union-find tracks MWPM closely (same decoding\n"
        "graph, near-optimal cluster-local corrections) while greedy\n"
        "degrades near threshold -- decoder quality is part of the\n"
        "code's performance (paper Sec. V).\n";
}

void
decodeTimingTable(CsvWriter* csv)
{
    const uint64_t shots = envU64("VLQ_TIMING_SHOTS", 2000);
    const uint64_t seed = envU64("VLQ_SEED", 0x5eed);
    const bool full = envInt("VLQ_FULL", 0) != 0;
    const double p = 5e-3;

    std::cout << "\n=== Decode wall-clock, baseline memory at p = "
              << TablePrinter::sci(p, 1) << " (" << shots
              << " shots/decoder, decode loop only) ===\n\n";
    TablePrinter t({"d", "detectors", "MWPM us/shot", "Greedy us/shot",
                    "UnionFind us/shot", "UF speedup vs MWPM"});

    std::vector<int> distances{3, 5, 9};
    if (full)
        distances.push_back(11);
    for (int d : distances) {
        GeneratorConfig cfg;
        cfg.distance = d;
        cfg.cavityDepth = 10;
        cfg.schedule = ExtractionSchedule::AllAtOnce;
        cfg.noise = NoiseModel::atPhysicalRate(
            p, HardwareParams::transmonsWithMemory());
        GeneratedCircuit gen =
            generateMemoryCircuit(EmbeddingKind::Baseline2D, cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        FaultSampler sampler(dem);

        // Pre-sample the shots so every decoder sees identical input
        // and the sampler is outside the timed region.
        std::vector<BitVec> dets(shots, BitVec(dem.numDetectors()));
        Rng root(seed);
        uint32_t obsFlips = 0;
        for (uint64_t i = 0; i < shots; ++i) {
            Rng rng = root.split(i);
            sampler.sampleInto(rng, dets[i], obsFlips);
        }

        std::vector<double> usPerShot;
        for (DecoderKind kind : kKinds) {
            std::unique_ptr<Decoder> dec = makeDecoder(kind, dem);
            uint32_t sink = 0;
            // Warm-up pass: long Monte-Carlo scans run decoders in
            // steady state (each decoder fills its shortest-path rows
            // on first use), so that is what gets timed.
            for (const BitVec& det : dets)
                sink ^= dec->decode(det);
            auto t0 = std::chrono::steady_clock::now();
            for (const BitVec& det : dets)
                sink ^= dec->decode(det);
            auto t1 = std::chrono::steady_clock::now();
            volatile uint32_t guard = sink; // keep the loop observable
            (void)guard;
            double us = std::chrono::duration<double, std::micro>(
                            t1 - t0).count()
                / static_cast<double>(shots);
            usPerShot.push_back(us);
            if (csv)
                csv->addRow({"decode_us", "Baseline",
                             std::to_string(d), TablePrinter::sci(p, 1),
                             decoderKindName(kind),
                             std::to_string(us)});
        }
        t.addRow({std::to_string(d), std::to_string(dem.numDetectors()),
                  TablePrinter::num(usPerShot[0], 2),
                  TablePrinter::num(usPerShot[1], 2),
                  TablePrinter::num(usPerShot[2], 2),
                  TablePrinter::num(usPerShot[0] / usPerShot[2], 1)
                      + "x"});
    }
    t.print(std::cout);
    std::cout <<
        "\nMWPM decode cost grows with the event count cubed (blossom)\n"
        "on top of quadratic edge listing; union-find stays near-linear\n"
        "in the grown clusters, so the gap widens with distance.\n";
}

/**
 * End-to-end shot throughput: trial-at-a-time (sampleInto + decode per
 * trial, the pre-batching Monte-Carlo loop) against the batched
 * pipeline (sampleBatchInto + decodeBatch over 256-shot batches). The
 * batched sampler replaces one uniform draw per channel with geometric
 * skip-sampling over probability groups, so its cost scales with the
 * fault count instead of the channel count.
 */
void
batchedThroughputTable(CsvWriter* csv)
{
    const uint64_t shots = envU64("VLQ_TIMING_SHOTS", 2000);
    const uint64_t seed = envU64("VLQ_SEED", 0x5eed);
    const bool full = envInt("VLQ_FULL", 0) != 0;
    const uint32_t batchSize = 256;

    std::cout << "\n=== Batched vs trial-at-a-time pipeline, baseline "
                 "memory (" << shots
              << " shots, sample+decode, batch = " << batchSize
              << ") ===\n\n";
    TablePrinter t({"d", "p", "decoder", "scalar us/shot",
                    "batched us/shot", "speedup"});

    std::vector<int> distances{3, 5};
    if (full)
        distances.push_back(9);
    for (int d : distances) {
      // 3.5e-3 is the bottom of the Fig. 11 sweep -- the regime where
      // 1e7-trial scans actually run; 5e-3 is mid-sweep.
      for (double p : {3.5e-3, 5e-3}) {
        GeneratorConfig cfg;
        cfg.distance = d;
        cfg.cavityDepth = 10;
        cfg.schedule = ExtractionSchedule::AllAtOnce;
        cfg.noise = NoiseModel::atPhysicalRate(
            p, HardwareParams::transmonsWithMemory());
        GeneratedCircuit gen =
            generateMemoryCircuit(EmbeddingKind::Baseline2D, cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        FaultSampler sampler(dem);
        const Rng root(seed);

        for (DecoderKind kind : kKinds) {
            std::unique_ptr<Decoder> dec = makeDecoder(kind, dem);
            // The trial-at-a-time reference is the pre-batching
            // engine: scalar per-channel sampling, per-shot decode,
            // and -- for union-find -- the growth-path decoder (the
            // exact-syndrome shortcut shipped with, and leans on the
            // monotonic-stamp arenas of, the batched pipeline).
            std::unique_ptr<Decoder> legacy;
            if (kind == DecoderKind::UnionFind)
                legacy = std::make_unique<UnionFindDecoder>(
                    dem, UnionFindOptions{.granularity = 32,
                                          .exactSyndromeThreshold = 0});
            else
                legacy = makeDecoder(kind, dem);
            uint32_t sink = 0;

            auto runBatched = [&]() {
                ShotBatch batch;
                std::vector<uint32_t> predictions;
                for (uint64_t begin = 0; begin < shots;
                     begin += batchSize) {
                    uint32_t count = static_cast<uint32_t>(
                        std::min<uint64_t>(batchSize, shots - begin));
                    batch.reset(dem.numDetectors(),
                                dem.numObservables(), count, begin);
                    sampler.sampleBatchInto(root, batch);
                    predictions.resize(count);
                    dec->decodeBatch(batch,
                                     std::span<uint32_t>(predictions));
                    for (uint32_t s = 0; s < count; ++s)
                        sink ^= predictions[s] ^ batch.observables(s);
                }
            };
            auto runScalar = [&]() {
                BitVec det(dem.numDetectors());
                uint32_t obs = 0;
                for (uint64_t i = 0; i < shots; ++i) {
                    Rng rng = root.split(i);
                    sampler.sampleInto(rng, det, obs);
                    sink ^= legacy->decode(det) ^ obs;
                }
            };
            // Each pipeline is timed right after its own warm-up pass:
            // long Monte-Carlo scans run in steady state (warm pair
            // caches, sized scratch), and the union-find decoders'
            // per-thread distance cache is keyed to the instance, so
            // interleaving the two would re-pay every cache miss.
            runScalar();
            auto t0 = std::chrono::steady_clock::now();
            runScalar();
            auto t1 = std::chrono::steady_clock::now();
            runBatched();
            auto t2 = std::chrono::steady_clock::now();
            runBatched();
            auto t3 = std::chrono::steady_clock::now();
            volatile uint32_t guard = sink;
            (void)guard;

            double scalarUs = std::chrono::duration<double, std::micro>(
                                  t1 - t0).count()
                / static_cast<double>(shots);
            double batchedUs = std::chrono::duration<double, std::micro>(
                                   t3 - t2).count()
                / static_cast<double>(shots);
            double speedup = scalarUs / batchedUs;
            t.addRow({std::to_string(d), TablePrinter::sci(p, 1),
                      decoderKindName(kind),
                      TablePrinter::num(scalarUs, 2),
                      TablePrinter::num(batchedUs, 2),
                      TablePrinter::num(speedup, 1) + "x"});
            if (csv) {
                csv->addRow({"batch_scalar_us", "Baseline",
                             std::to_string(d), TablePrinter::sci(p, 1),
                             decoderKindName(kind),
                             std::to_string(scalarUs)});
                csv->addRow({"batch_batched_us", "Baseline",
                             std::to_string(d), TablePrinter::sci(p, 1),
                             decoderKindName(kind),
                             std::to_string(batchedUs)});
                csv->addRow({"batch_speedup", "Baseline",
                             std::to_string(d), TablePrinter::sci(p, 1),
                             decoderKindName(kind),
                             std::to_string(speedup)});
            }
        }
      }
    }
    t.print(std::cout);
    std::cout <<
        "\nThe scalar sampler pays one RNG draw per fault channel per\n"
        "shot; skip-sampling pays per *fault*, so the sampler all but\n"
        "vanishes and the fast decoders expose the full gain.\n";
}

} // namespace

int
main(int argc, char** argv)
{
    obs::initFromEnv();
    std::string csvPath;
    std::string metricsJsonPath;
    std::string traceJsonPath;
    if (!parseFlagArgs(argc, argv,
                       {{"--csv", &csvPath},
                        {"--metrics-json", &metricsJsonPath},
                        {"--trace-json", &traceJsonPath}}))
        return 1;
    obs::applyCliPaths(metricsJsonPath, traceJsonPath);
    CsvWriter csv({"record", "setup", "d", "p", "decoder", "value"});
    CsvWriter* csvp = csvPath.empty() ? nullptr : &csv;

    logicalErrorTable(csvp);
    decodeTimingTable(csvp);
    batchedThroughputTable(csvp);

    if (csvp && !csv.writeFile(csvPath)) {
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
