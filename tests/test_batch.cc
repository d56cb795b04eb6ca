#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/monte_carlo.h"
#include "util/rng.h"

namespace vlq {
namespace {

GeneratorConfig
batchConfig(int d, double p)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

DetectorErrorModel
buildDem(int d, double p)
{
    GeneratedCircuit gen = generateMemoryCircuit(
        EmbeddingKind::Baseline2D, batchConfig(d, p));
    return DetectorErrorModel::build(gen.circuit);
}

// ---------------------------------------------------------------------------
// ShotBatch layout
// ---------------------------------------------------------------------------

TEST(ShotBatchTest, LayoutRoundTrips)
{
    ShotBatch batch;
    // 130 shots forces multi-word rows (wordsPerRow == 3).
    batch.reset(5, 2, 130, 1000);
    EXPECT_EQ(batch.numShots(), 130u);
    EXPECT_EQ(batch.wordsPerRow(), 3u);
    EXPECT_EQ(batch.firstTrial(), 1000u);

    // Flip detector 3 in shots 0, 64, 129 and observable 1 in shot 64.
    batch.detectorRow(3)[0] ^= 1ull;
    batch.detectorRow(3)[1] ^= 1ull;
    batch.detectorRow(3)[2] ^= 1ull << 1;
    batch.observableRow(1)[1] ^= 1ull;

    EXPECT_TRUE(batch.detector(0, 3));
    EXPECT_TRUE(batch.detector(64, 3));
    EXPECT_TRUE(batch.detector(129, 3));
    EXPECT_FALSE(batch.detector(1, 3));
    EXPECT_FALSE(batch.detector(0, 2));
    EXPECT_EQ(batch.observables(64), 2u);
    EXPECT_EQ(batch.observables(0), 0u);

    BitVec det;
    batch.extractShot(64, det);
    ASSERT_EQ(det.size(), 5u);
    EXPECT_TRUE(det.get(3));
    EXPECT_EQ(det.popcount(), 1u);
    batch.extractShot(1, det);
    EXPECT_TRUE(det.none());

    EXPECT_EQ(batch.nonTrivialMask(0), 1ull);
    EXPECT_EQ(batch.nonTrivialMask(1), 1ull);
    EXPECT_EQ(batch.nonTrivialMask(2), 1ull << 1);

    std::vector<std::vector<uint32_t>> events;
    batch.gatherEvents(events);
    ASSERT_GE(events.size(), 130u);
    EXPECT_EQ(events[0], std::vector<uint32_t>{3});
    EXPECT_EQ(events[64], std::vector<uint32_t>{3});
    EXPECT_EQ(events[129], std::vector<uint32_t>{3});
    EXPECT_TRUE(events[1].empty());

    // reset() zeroes everything for reuse.
    batch.reset(5, 2, 130, 0);
    EXPECT_FALSE(batch.detector(0, 3));
    EXPECT_EQ(batch.observables(64), 0u);
}

TEST(ShotBatchTest, GatherEventsSortedWithinShot)
{
    ShotBatch batch;
    batch.reset(8, 1, 3, 0);
    for (uint32_t d : {6, 1, 4})
        batch.detectorRow(d)[0] ^= 1ull << 2;
    std::vector<std::vector<uint32_t>> events;
    batch.gatherEvents(events);
    EXPECT_EQ(events[2], (std::vector<uint32_t>{1, 4, 6}));
}

// ---------------------------------------------------------------------------
// Batched sampler
// ---------------------------------------------------------------------------

TEST(BatchSamplerTest, ZeroNoiseSamplesNothing)
{
    GeneratorConfig cfg = batchConfig(3, 0.0);
    cfg.noise.idleScale = 0.0;
    GeneratedCircuit gen =
        generateMemoryCircuit(EmbeddingKind::Baseline2D, cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), 128, 0);
    sampler.sampleBatchInto(Rng(7), batch);
    for (uint32_t wi = 0; wi < batch.wordsPerRow(); ++wi)
        EXPECT_EQ(batch.nonTrivialMask(wi), 0u);
}

TEST(BatchSamplerTest, ShotsAreAPureFunctionOfTheTrialIndex)
{
    DetectorErrorModel dem = buildDem(3, 8e-3);
    FaultSampler sampler(dem);
    const Rng root(0x5eed);

    // Trials [0, 256) in one batch...
    ShotBatch whole;
    whole.reset(dem.numDetectors(), dem.numObservables(), 256, 0);
    sampler.sampleBatchInto(root, whole);

    // ... must equal any other batching of the same trials.
    for (uint32_t batchSize : {1u, 64u, 100u}) {
        ShotBatch part;
        for (uint32_t begin = 0; begin < 256; begin += batchSize) {
            uint32_t count = std::min(batchSize, 256 - begin);
            part.reset(dem.numDetectors(), dem.numObservables(), count,
                       begin);
            sampler.sampleBatchInto(root, part);
            for (uint32_t s = 0; s < count; ++s) {
                for (uint32_t d = 0; d < dem.numDetectors(); ++d)
                    ASSERT_EQ(part.detector(s, d),
                              whole.detector(begin + s, d))
                        << "trial " << begin + s << " detector " << d
                        << " batchSize " << batchSize;
                ASSERT_EQ(part.observables(s),
                          whole.observables(begin + s));
            }
        }
    }
}

TEST(BatchSamplerTest, StatisticallyMatchesScalarSampler)
{
    DetectorErrorModel dem = buildDem(3, 8e-3);
    FaultSampler sampler(dem);
    const uint32_t N = 6000;
    const uint32_t D = dem.numDetectors();

    // Scalar reference: one draw per channel per trial.
    std::vector<uint32_t> scalarFlips(D, 0);
    uint64_t scalarObs = 0;
    double scalarEvents = 0;
    {
        Rng root(0x1234);
        BitVec det(D);
        uint32_t obs = 0;
        for (uint32_t i = 0; i < N; ++i) {
            Rng rng = root.split(i);
            sampler.sampleInto(rng, det, obs);
            for (uint32_t d = 0; d < D; ++d)
                scalarFlips[d] += det.get(d);
            scalarObs += obs != 0;
            scalarEvents += static_cast<double>(det.popcount());
        }
    }

    // Batched path: skip-sampling into transposed words.
    std::vector<uint32_t> batchFlips(D, 0);
    uint64_t batchObs = 0;
    double batchEvents = 0;
    {
        const Rng root(0x9876);
        ShotBatch batch;
        for (uint32_t begin = 0; begin < N; begin += 256) {
            uint32_t count = std::min(256u, N - begin);
            batch.reset(D, dem.numObservables(), count, begin);
            sampler.sampleBatchInto(root, batch);
            for (uint32_t s = 0; s < count; ++s) {
                for (uint32_t d = 0; d < D; ++d)
                    batchFlips[d] += batch.detector(s, d);
                batchObs += batch.observables(s) != 0;
            }
            std::vector<std::vector<uint32_t>> ev;
            batch.gatherEvents(ev);
            for (uint32_t s = 0; s < count; ++s)
                batchEvents += static_cast<double>(ev[s].size());
        }
    }

    // Per-detector marginal flip rates agree within ~4 sigma.
    for (uint32_t d = 0; d < D; ++d) {
        double ps = scalarFlips[d] / static_cast<double>(N);
        double pb = batchFlips[d] / static_cast<double>(N);
        double sigma = std::sqrt(
            std::max(ps * (1 - ps), 1e-4) / N);
        EXPECT_NEAR(pb, ps, 5 * sigma + 0.005) << "detector " << d;
    }
    EXPECT_NEAR(batchEvents / N, scalarEvents / N,
                0.05 * std::max(1.0, scalarEvents / N));
    EXPECT_NEAR(static_cast<double>(batchObs) / N,
                static_cast<double>(scalarObs) / N, 0.02);
}

// ---------------------------------------------------------------------------
// decodeBatch == decode, for every registered backend
// ---------------------------------------------------------------------------

TEST(DecodeBatchTest, AgreesShotForShotWithScalarDecode)
{
    DetectorErrorModel dem = buildDem(3, 8e-3);
    FaultSampler sampler(dem);
    const Rng root(0xabcdef);
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), 300, 0);
    sampler.sampleBatchInto(root, batch);

    for (const DecoderRegistration& reg : decoderRegistry()) {
        std::unique_ptr<Decoder> dec = makeDecoder(reg.kind, dem);
        ASSERT_NE(dec, nullptr) << reg.name;
        std::vector<uint32_t> predictions(batch.numShots(), 0xdead);
        dec->decodeBatch(batch, std::span<uint32_t>(predictions));
        BitVec det;
        for (uint32_t s = 0; s < batch.numShots(); ++s) {
            batch.extractShot(s, det);
            ASSERT_EQ(predictions[s], dec->decode(det))
                << reg.name << " shot " << s;
        }
    }

    // A batch with heralded-erasure rows: the matching decoders ignore
    // the heralds, union-find seeds them as decodeWithErasures does.
    GeneratorConfig cfg = batchConfig(3, 8e-3);
    cfg.noise.erasure.fraction = 0.5;
    const DetectorErrorModel erasureDem = DetectorErrorModel::build(
        generateMemoryCircuit(EmbeddingKind::Baseline2D, cfg).circuit);
    FaultSampler erasureSampler(erasureDem);
    batch.reset(erasureDem.numDetectors(), erasureDem.numObservables(),
                300, 0, erasureDem.numErasureSites());
    erasureSampler.sampleBatchInto(root, batch);
    const UnionFindDecoder unionFind(erasureDem);
    uint32_t heraldedShots = 0;
    uint32_t heraldsChangedPrediction = 0;
    for (const DecoderRegistration& reg : decoderRegistry()) {
        std::unique_ptr<Decoder> dec = makeDecoder(reg.kind, erasureDem);
        std::vector<uint32_t> predictions(batch.numShots(), 0xdead);
        dec->decodeBatch(batch, std::span<uint32_t>(predictions));
        BitVec det;
        BitVec erasures(erasureDem.numErasureSites());
        for (uint32_t s = 0; s < batch.numShots(); ++s) {
            batch.extractShot(s, det);
            for (uint32_t site = 0; site < erasures.size(); ++site)
                erasures.set(site, batch.erased(s, site));
            heraldedShots += erasures.none() ? 0 : 1;
            const uint32_t expected = reg.kind == DecoderKind::UnionFind
                ? unionFind.decodeWithErasures(det, erasures)
                : dec->decode(det);
            ASSERT_EQ(predictions[s], expected)
                << reg.name << " heralded shot " << s;
            if (reg.kind == DecoderKind::UnionFind
                && expected != unionFind.decode(det))
                ++heraldsChangedPrediction;
        }
    }
    EXPECT_GT(heraldedShots, 0u);
    EXPECT_GT(heraldsChangedPrediction, 0u);
}

// ---------------------------------------------------------------------------
// Batched Monte-Carlo engine: reproducibility and early stop
// ---------------------------------------------------------------------------

TEST(BatchedMcTest, CountsInvariantUnderThreadsAndBatchSize)
{
    GeneratorConfig cfg = batchConfig(3, 8e-3);
    McOptions base;
    base.trials = 500;
    base.seed = 99;
    base.decoder = DecoderKind::UnionFind;

    McOptions first = base;
    first.threads = 1;
    first.batchSize = 1;
    BinomialEstimate ref = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, first);
    EXPECT_EQ(ref.trials, 500u);
    EXPECT_GT(ref.successes, 0u);

    for (unsigned threads : {1u, 4u}) {
        for (uint32_t batchSize : {1u, 64u, 256u}) {
            McOptions opt = base;
            opt.threads = threads;
            opt.batchSize = batchSize;
            BinomialEstimate est = estimateLogicalErrorBasis(
                EmbeddingKind::Baseline2D, cfg, opt);
            EXPECT_EQ(est.successes, ref.successes)
                << threads << " threads, batch " << batchSize;
            EXPECT_EQ(est.trials, ref.trials)
                << threads << " threads, batch " << batchSize;
        }
    }
}

TEST(BatchedMcTest, MwpmBackendAlsoInvariant)
{
    GeneratorConfig cfg = batchConfig(3, 8e-3);
    McOptions a;
    a.trials = 300;
    a.seed = 41;
    a.threads = 1;
    a.batchSize = 64;
    McOptions b = a;
    b.threads = 4;
    b.batchSize = 256;
    BinomialEstimate ea = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, a);
    BinomialEstimate eb = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, b);
    EXPECT_EQ(ea.successes, eb.successes);
    EXPECT_EQ(ea.trials, eb.trials);
}

TEST(BatchedMcTest, EarlyStopIsDeterministicAcrossConfigurations)
{
    GeneratorConfig cfg = batchConfig(3, 1.5e-2);
    McOptions base;
    base.trials = 4000;
    base.seed = 7;
    base.targetFailures = 5;
    base.decoder = DecoderKind::UnionFind;

    McOptions first = base;
    first.threads = 1;
    first.batchSize = 1;
    BinomialEstimate ref = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, first);
    ASSERT_EQ(ref.successes, 5u);
    ASSERT_LT(ref.trials, 4000u);

    for (unsigned threads : {1u, 4u}) {
        for (uint32_t batchSize : {1u, 64u, 256u}) {
            McOptions opt = base;
            opt.threads = threads;
            opt.batchSize = batchSize;
            BinomialEstimate est = estimateLogicalErrorBasis(
                EmbeddingKind::Baseline2D, cfg, opt);
            EXPECT_EQ(est.successes, ref.successes)
                << threads << " threads, batch " << batchSize;
            EXPECT_EQ(est.trials, ref.trials)
                << threads << " threads, batch " << batchSize;
        }
    }

    // The stop point is a property of the sampled outcomes: running
    // exactly est.trials full trials reproduces exactly the target
    // failure count, and one fewer trial loses the last failure.
    McOptions full = base;
    full.targetFailures = 0;
    full.trials = ref.trials;
    BinomialEstimate exact = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, full);
    EXPECT_EQ(exact.successes, 5u);
    full.trials = ref.trials - 1;
    BinomialEstimate oneLess = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, full);
    EXPECT_EQ(oneLess.successes, 4u);
}

TEST(BatchedMcTest, TargetBeyondAvailableFailuresRunsAllTrials)
{
    GeneratorConfig cfg = batchConfig(3, 5e-3);
    McOptions opt;
    opt.trials = 200;
    opt.targetFailures = 1000000; // unreachable
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, opt);
    EXPECT_EQ(est.trials, 200u);
}

TEST(BatchedMcTest, ProgressStreamsInOrder)
{
    GeneratorConfig cfg = batchConfig(3, 8e-3);
    McOptions opt;
    opt.trials = 700;
    opt.threads = 4;
    opt.batchSize = 64;
    opt.decoder = DecoderKind::UnionFind;
    std::vector<McProgress> seen;
    opt.progress = [&](const McProgress& p) { seen.push_back(p); };
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, opt);

    ASSERT_FALSE(seen.empty());
    uint64_t lastTrials = 0;
    uint64_t lastFailures = 0;
    for (const McProgress& p : seen) {
        EXPECT_GE(p.trialsDone, lastTrials);
        EXPECT_GE(p.failures, lastFailures);
        EXPECT_EQ(p.totalTrials, 700u);
        lastTrials = p.trialsDone;
        lastFailures = p.failures;
    }
    EXPECT_EQ(lastTrials, est.trials);
    EXPECT_EQ(lastFailures, est.successes);
    // One commit per batch, in order: 700 trials need 11 batches of at
    // most 64, which round up to 12 batches (three waves of 4 workers)
    // of 58 or 59 trials.
    EXPECT_EQ(seen.size(), 12u);
}

TEST(BatchedMcTest, CommitsTileTheBudgetInWholeWaves)
{
    // Each point's trials split into the smallest multiple of its
    // worker count (the thread count, or the batches of the batch size
    // the trials need when those are fewer) of near-equal batches none
    // larger than the batch size: one progress call per commit, the
    // deltas tiling [0, trials).
    GeneratorConfig cfg = batchConfig(3, 1e-3);
    for (uint64_t trials : {1u, 63u, 600u, 700u, 1536u, 12000u}) {
        for (unsigned threads = 1; threads <= 5; ++threads) {
            for (uint32_t batchSize : {7u, 64u, 256u}) {
                McOptions opt;
                opt.trials = trials;
                opt.threads = threads;
                opt.batchSize = batchSize;
                opt.decoder = DecoderKind::UnionFind;
                std::vector<uint64_t> deltas;
                uint64_t last = 0;
                opt.progress = [&](const McProgress& p) {
                    deltas.push_back(p.trialsDone - last);
                    last = p.trialsDone;
                };
                const BinomialEstimate est = estimateLogicalErrorBasis(
                    EmbeddingKind::Baseline2D, cfg, opt);
                const std::string where = std::to_string(trials)
                    + " trials, " + std::to_string(threads)
                    + " threads, batch " + std::to_string(batchSize);
                EXPECT_EQ(est.trials, trials) << where;
                EXPECT_EQ(last, trials) << where;
                ASSERT_FALSE(deltas.empty()) << where;
                const uint64_t needed = (trials + batchSize - 1) / batchSize;
                const uint64_t workers = std::min<uint64_t>(threads, needed);
                EXPECT_EQ(deltas.size(),
                          (needed + workers - 1) / workers * workers)
                    << where;
                const auto [lo, hi] =
                    std::minmax_element(deltas.begin(), deltas.end());
                EXPECT_GE(*lo, 1u) << where;
                EXPECT_LE(*hi, batchSize) << where;
                EXPECT_LE(*hi - *lo, 1u) << where;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Two points in one run: estimateLogicalError builds its X point's set-up
// while the Z point's last batches decode
// ---------------------------------------------------------------------------

TEST(TwoPointRun, EqualsTwoBasisCalls)
{
    GeneratorConfig cfg = batchConfig(3, 1.5e-2);
    bool stoppedEarly = false;
    for (DecoderKind decoder : {DecoderKind::Mwpm, DecoderKind::UnionFind}) {
        for (uint64_t target : {uint64_t{0}, uint64_t{4}}) {
            for (unsigned threads : {1u, 2u, 4u}) {
                for (uint32_t batchSize : {1u, 7u, 64u, 256u}) {
                    McOptions opt;
                    opt.trials = 400;
                    opt.seed = 23;
                    opt.decoder = decoder;
                    opt.targetFailures = target;
                    opt.threads = threads;
                    opt.batchSize = batchSize;
                    const LogicalErrorPoint point = estimateLogicalError(
                        EmbeddingKind::Baseline2D, cfg, opt);
                    GeneratorConfig cz = cfg;
                    cz.memoryBasis = CheckBasis::Z;
                    GeneratorConfig cx = cfg;
                    cx.memoryBasis = CheckBasis::X;
                    const BinomialEstimate z = estimateLogicalErrorBasis(
                        EmbeddingKind::Baseline2D, cz, opt);
                    const BinomialEstimate x = estimateLogicalErrorBasis(
                        EmbeddingKind::Baseline2D, cx, opt);
                    const std::string where =
                        std::string(decoderKindName(decoder)) + ", target "
                        + std::to_string(target) + ", "
                        + std::to_string(threads) + " threads, batch "
                        + std::to_string(batchSize);
                    EXPECT_EQ(point.basisZ.trials, z.trials) << where;
                    EXPECT_EQ(point.basisZ.successes, z.successes) << where;
                    EXPECT_EQ(point.basisX.trials, x.trials) << where;
                    EXPECT_EQ(point.basisX.successes, x.successes) << where;
                    stoppedEarly = stoppedEarly
                        || (target > 0 && z.trials < opt.trials
                            && x.trials < opt.trials);
                }
            }
        }
    }
    EXPECT_TRUE(stoppedEarly) << "no early stop cut both points short";
}

// ---------------------------------------------------------------------------
// Randomized pipelines through the batched engine
// ---------------------------------------------------------------------------

/** One randomly drawn pipeline configuration. */
struct PipelineDraw
{
    GeneratorConfig config;
    EmbeddingKind embedding = EmbeddingKind::Baseline2D;
    DecoderKind decoder = DecoderKind::Mwpm;
    uint64_t seed = 0;
};

/**
 * Draw a random but valid pipeline configuration: small distances
 * (lots of trivial and near-trivial syndromes), Baseline, Compact and
 * Compact-Rect embeddings under either schedule, every registered
 * decoder, and sometimes biased or heralded-erasure noise.
 */
PipelineDraw
drawPipeline(Rng& rng)
{
    PipelineDraw draw;
    draw.config.distance = rng.nextBelow(2) == 0 ? 3 : 5;
    double p = 2e-3 * (1.0 + 9.0 * rng.nextDouble());
    draw.config.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    switch (rng.nextBelow(3)) {
    case 0:
        draw.embedding = EmbeddingKind::Baseline2D;
        break;
    case 1:
        draw.embedding = EmbeddingKind::Compact;
        break;
    default:
        draw.embedding = EmbeddingKind::CompactRect;
        break;
    }
    if (rng.nextBelow(2) == 1)
        draw.config.schedule = ExtractionSchedule::Interleaved;
    if (rng.nextBelow(3) == 0)
        draw.config.noise.bias = BiasedPauliSource{1.0, 1.0, 4.0};
    if (rng.nextBelow(3) == 0) {
        draw.config.noise.erasure.fraction = 0.3;
        draw.config.noise.erasure.heralded = true;
    }
    const auto decoders = decoderRegistry();
    draw.decoder = decoders[rng.nextBelow(decoders.size())].kind;
    draw.seed = rng.nextU64();
    return draw;
}

TEST(BatchedMcTest, RandomPipelinesInvariantUnderThreadsAndBatchSize)
{
    Rng rng(0xf022ed5eed);
    std::set<EmbeddingKind> embeddings;
    std::set<ExtractionSchedule> schedules;
    std::set<DecoderKind> decoders;
    int biased = 0;
    int erased = 0;
    // Batch sizes around the 64-shot word boundary, three random
    // pipelines each.
    for (uint32_t drawnBatch : {1u, 7u, 63u, 64u, 65u, 130u, 256u}) {
        for (int k = 0; k < 3; ++k) {
            PipelineDraw draw = drawPipeline(rng);
            embeddings.insert(draw.embedding);
            schedules.insert(draw.config.schedule);
            decoders.insert(draw.decoder);
            biased += draw.config.noise.bias.enabled() ? 1 : 0;
            erased += draw.config.noise.erasure.heralded ? 1 : 0;

            McOptions base;
            base.trials = 150;
            base.seed = draw.seed;
            base.decoder = draw.decoder;
            McOptions first = base;
            first.threads = 1;
            first.batchSize = drawnBatch;
            BinomialEstimate ref = estimateLogicalErrorBasis(
                draw.embedding, draw.config, first);
            EXPECT_EQ(ref.trials, base.trials)
                << "batch " << drawnBatch << " draw " << k;

            for (unsigned threads : {1u, 4u}) {
                for (uint32_t batchSize : {drawnBatch, 256u}) {
                    if (threads == 1 && batchSize == drawnBatch)
                        continue; // the reference run itself
                    McOptions opt = base;
                    opt.threads = threads;
                    opt.batchSize = batchSize;
                    BinomialEstimate est = estimateLogicalErrorBasis(
                        draw.embedding, draw.config, opt);
                    EXPECT_EQ(est.successes, ref.successes)
                        << "batch " << drawnBatch << " draw " << k
                        << ": " << threads << " threads, batch "
                        << batchSize;
                    EXPECT_EQ(est.trials, ref.trials)
                        << "batch " << drawnBatch << " draw " << k
                        << ": " << threads << " threads, batch "
                        << batchSize;
                }
            }
        }
    }
    // The fixed draw sequence must reach every regime listed above.
    EXPECT_EQ(embeddings.size(), 3u);
    EXPECT_EQ(schedules.size(), 2u);
    EXPECT_EQ(decoders.size(), decoderRegistry().size());
    EXPECT_GT(biased, 0);
    EXPECT_GT(erased, 0);
}

} // namespace
} // namespace vlq
