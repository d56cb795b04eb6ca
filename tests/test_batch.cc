#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
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
#include "mc/memory_experiment.h"
#include "mc/monte_carlo.h"
#include "sampler_oracle.h"
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
    const ReferenceSampler oracle(dem);
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
            oracle.sampleInto(rng, det, obs);
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

/** A configuration at a paper setup, as DemDigest builds it. */
DetectorErrorModel
setupDem(int setup, int d, char basis, int noise, double p)
{
    const std::vector<EvaluationSetup> setups = paperSetups();
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.memoryBasis = basis == 'X' ? CheckBasis::X : CheckBasis::Z;
    cfg.schedule = setups[static_cast<size_t>(setup)].schedule;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    if (noise == 1)
        cfg.noise.erasure.fraction = 0.5;
    else if (noise == 2)
        cfg.noise.bias.rZ = 10.0;
    return DetectorErrorModel::build(
        generateMemoryCircuit(setups[static_cast<size_t>(setup)].embedding,
                              cfg)
            .circuit);
}

/** FNV-1a over every detector, observable and herald row word. */
uint64_t
batchDigest(const ShotBatch& batch)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&h](const uint64_t* row, uint32_t words) {
        for (uint32_t w = 0; w < words; ++w)
            for (int i = 0; i < 8; ++i) {
                h ^= (row[w] >> (8 * i)) & 0xff;
                h *= 0x100000001b3ULL;
            }
    };
    for (uint32_t d = 0; d < batch.numDetectors(); ++d)
        add(batch.detectorRow(d), batch.wordsPerRow());
    for (uint32_t o = 0; o < batch.numObservables(); ++o)
        add(batch.observableRow(o), batch.wordsPerRow());
    for (uint32_t e = 0; e < batch.numErasureSites(); ++e)
        add(batch.erasureRow(e), batch.wordsPerRow());
    return h;
}

/** One pinned sampler configuration and its committed digests. */
struct SampleDigestCase
{
    int setup;  // paperSetups() index
    int distance;
    char basis; // 'Z' or 'X'
    int noise;  // 0 flat, 1 heralded erasure (fraction 0.5), 2 Z-biased
    double p;
    /** The 192-shot batch, then the 250-shot one. */
    uint64_t shots[2];
};

/**
 * Guards the batch sampler's bit-identity on batches shaped as
 * BatchPlan shapes them: 192 shots (three whole words) and 250 shots
 * (ending in a partial word), each from a nonzero first trial, on
 * Baseline and Compact-Interleaved at d 5/7/13, both bases, at
 * pipebench's rate extremes, plus a heralded-erasure and a Z-biased
 * row. DemDigest pins one 4096-shot batch at p = 3e-3 only. Regenerate
 * the table only for an intentional change to what the sampler draws;
 * the failure message prints the new rows.
 */
TEST(SampleDigest, BatchShapesAndRatesMatchCommittedDigests)
{
    const SampleDigestCase cases[] = {
        {0, 5, 'Z', 0, 1e-03,
         {0x2dd5ea59fa5ef32dULL, 0x6fc5fcad16dc3150ULL}},
        {0, 5, 'Z', 0, 2e-02,
         {0x5e1c0e6b622707dcULL, 0xa9dedb7ef36092baULL}},
        {0, 5, 'X', 0, 1e-03,
         {0xc04fd7dbf71b9c28ULL, 0xc18db92be9888ea9ULL}},
        {0, 5, 'X', 0, 2e-02,
         {0xa1cd5dc49eedc0b4ULL, 0x982f86d16820e686ULL}},
        {4, 5, 'Z', 0, 1e-03,
         {0x43ee47aeb47879f9ULL, 0x1074346b5a21d681ULL}},
        {4, 5, 'Z', 0, 2e-02,
         {0x768f1749a80aa2e4ULL, 0xffd5c352990f4cb5ULL}},
        {4, 5, 'X', 0, 1e-03,
         {0xc2bacf532471c0f4ULL, 0x647c5da414c6a0adULL}},
        {4, 5, 'X', 0, 2e-02,
         {0x61519bdf7175819fULL, 0xe66228075096f042ULL}},
        {0, 7, 'Z', 0, 1e-03,
         {0xd4887c780f9698deULL, 0xfa421ca4839206f0ULL}},
        {0, 7, 'Z', 0, 2e-02,
         {0xda80780f095828eaULL, 0xc4e6d08ae1c96a17ULL}},
        {0, 7, 'X', 0, 1e-03,
         {0xc2b4c63e429339aeULL, 0x3f75f6618c8df2c9ULL}},
        {0, 7, 'X', 0, 2e-02,
         {0xa14086095e7cf03cULL, 0xfb6de105e1a12cd1ULL}},
        {4, 7, 'Z', 0, 1e-03,
         {0xc9e17de90f0759afULL, 0x7597086730efeeecULL}},
        {4, 7, 'Z', 0, 2e-02,
         {0x54dae3c89880bbf7ULL, 0xbab099d4d82582adULL}},
        {4, 7, 'X', 0, 1e-03,
         {0x46e6b66cdd8e6790ULL, 0x4a13057d841d455cULL}},
        {4, 7, 'X', 0, 2e-02,
         {0x45637980237a8323ULL, 0xe2eff1fd81785366ULL}},
        {0, 13, 'Z', 0, 1e-03,
         {0x6ecfa704a4dec6c8ULL, 0xda130a4f6da6fb0fULL}},
        {0, 13, 'Z', 0, 2e-02,
         {0x3d8d5349c6b802e5ULL, 0xdacbff6da804d7a4ULL}},
        {0, 13, 'X', 0, 1e-03,
         {0xd7e2981b46c2fecfULL, 0xf2efd714c2bef41cULL}},
        {0, 13, 'X', 0, 2e-02,
         {0xd74ee422452a2abfULL, 0xdf7e6d1d6bc65a2fULL}},
        {4, 13, 'Z', 0, 1e-03,
         {0x8815b1150730d965ULL, 0xb93b2341c2a0c5d9ULL}},
        {4, 13, 'Z', 0, 2e-02,
         {0xc11cd0d46fd582d0ULL, 0x2ff6051ec656113dULL}},
        {4, 13, 'X', 0, 1e-03,
         {0xbebb754d85e3e70bULL, 0x42d61942be7f5c77ULL}},
        {4, 13, 'X', 0, 2e-02,
         {0xaf3b559b256a121bULL, 0x8de98f1237871461ULL}},
        {0, 7, 'Z', 1, 2e-02,
         {0x50e3c8166ea6136cULL, 0x0d85a01b6b249baaULL}},
        {4, 7, 'X', 2, 1e-03,
         {0xd1c187ec28b79a51ULL, 0x44a0ef4a322e8168ULL}},
    };
    const struct
    {
        uint32_t shots;
        uint64_t firstTrial;
    } shapes[2] = {{192, 5 * 192}, {250, 7 * 250}};
    const Rng root(0x5a3d1e);
    std::string fresh;
    for (const SampleDigestCase& c : cases) {
        const DetectorErrorModel dem =
            setupDem(c.setup, c.distance, c.basis, c.noise, c.p);
        if (c.noise == 1) {
            EXPECT_GT(dem.numErasureSites(), 0u);
        }
        const FaultSampler sampler(dem);
        ShotBatch batch;
        uint64_t got[2];
        for (int i = 0; i < 2; ++i) {
            batch.reset(dem.numDetectors(), dem.numObservables(),
                        shapes[i].shots, shapes[i].firstTrial,
                        dem.numErasureSites());
            sampler.sampleBatchInto(root, batch);
            got[i] = batchDigest(batch);
        }
        const std::string label = "setup " + std::to_string(c.setup)
            + " d=" + std::to_string(c.distance) + " " + c.basis
            + " noise " + std::to_string(c.noise) + " p="
            + std::to_string(c.p);
        EXPECT_EQ(got[0], c.shots[0]) << label << ": 192 shots";
        EXPECT_EQ(got[1], c.shots[1]) << label << ": 250 shots";
        char row[160];
        std::snprintf(row, sizeof(row),
                      "        {%d, %d, '%c', %d, %.0e,\n"
                      "         {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                      "ULL}},\n",
                      c.setup, c.distance, c.basis, c.noise, c.p, got[0],
                      got[1]);
        fresh += row;
    }
    if (HasFailure())
        ADD_FAILURE() << "digest table for the current code:\n" << fresh;
}

/**
 * FaultSampler::skipCount returns exactly floor(log1p(-u) * inv), the
 * formula it stands in for, at every distinct group rate of the five
 * setups at p 1e-3, 3e-3 and 2e-2 (plus a heralded-erasure Baseline and
 * a Z-biased Compact-Interleaved model): on a million seeded draws per
 * rate, on both sides of each of the count's first 1,000 integer
 * boundaries with four draws either way, and at the ends of the draw
 * range. Draws are multiples of 2^-53, as Rng::nextDouble's are.
 */
TEST(SkipCount, EqualsTheLog1pFormulaAtEveryGroupRate)
{
    // (setup, noise) pairs: every setup flat, then the variants.
    const int models[][2] = {{0, 0}, {1, 0}, {2, 0}, {3, 0},
                             {4, 0}, {0, 1}, {4, 2}};
    std::set<double> rates;
    for (double p : {1e-3, 3e-3, 2e-2})
        for (const auto& [setup, noise] : models) {
            const DetectorErrorModel dem = setupDem(setup, 3, 'Z', noise, p);
            for (const FaultChannel& ch : dem.channels()) {
                const double total = ch.totalProbability();
                if (total > 0.0 && total < 1.0)
                    rates.insert(total);
            }
        }
    ASSERT_GE(rates.size(), 60u);

    constexpr double kStep = 0x1.0p-53;
    constexpr uint64_t kDraws = uint64_t{1} << 53;
    Rng rng(0x5c1b);
    for (const double p : rates) {
        const double inv = 1.0 / std::log1p(-p);
        const auto expected = [inv](double u) {
            return std::floor(std::log1p(-u) * inv);
        };
        // At draw m * 2^-53; false (and one failure) where they differ.
        const auto agrees = [&](uint64_t m) {
            const double u = static_cast<double>(m) * kStep;
            const double got = FaultSampler::skipCount(u, inv);
            EXPECT_EQ(got, expected(u))
                << "rate " << p << " u = " << m << " * 2^-53";
            return got == expected(u);
        };
        ASSERT_TRUE(agrees(0));
        ASSERT_TRUE(agrees(kDraws - 1));
        for (int i = 0; i < 1000000; ++i) {
            const double u = rng.nextDouble();
            if (FaultSampler::skipCount(u, inv) != expected(u)) {
                ASSERT_TRUE(agrees(static_cast<uint64_t>(u / kStep)));
            }
        }
        // The first draw whose count reaches n, by bisection: the
        // count is monotone in u.
        const double top = expected(static_cast<double>(kDraws - 1) * kStep);
        for (double n = 1.0; n <= std::min(1000.0, top); n += 1.0) {
            uint64_t lo = 0;            // count below n
            uint64_t hi = kDraws - 1;   // count at least n
            while (hi - lo > 1) {
                const uint64_t mid = lo + (hi - lo) / 2;
                if (expected(static_cast<double>(mid) * kStep) < n)
                    lo = mid;
                else
                    hi = mid;
            }
            for (uint64_t m = hi >= 5 ? hi - 5 : 0;
                 m <= std::min(hi + 4, kDraws - 1); ++m)
                ASSERT_TRUE(agrees(m)) << "boundary " << n;
        }
    }
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
