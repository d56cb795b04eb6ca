#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/checkpoint.h"
#include "mc/monte_carlo.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace vlq {
namespace {

/**
 * Test-order note: gtest runs suites in registration order, and the
 * AObsDisabled suite MUST run before anything flips the obs flags on
 * -- its whole point is observing the process before the registry
 * exists. Keep it first in this file and don't enable metrics in any
 * earlier suite.
 */

GeneratorConfig
obsConfig(int d, double p)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

/** Keep a value observable without pulling in google-benchmark. */
template <typename T>
void
doNotOptimize(const T& value)
{
    volatile T sink = value;
    (void)sink;
}

TEST(AObsDisabled, PipelineNeverAllocatesRegistry)
{
    ASSERT_FALSE(obs::metricsEnabled());
    ASSERT_FALSE(obs::traceEnabled());

    // Run the fully instrumented pipeline end to end: sampler, batched
    // union-find decode, sequencer commit, progress callbacks.
    McOptions options;
    options.trials = 300;
    options.seed = 5;
    options.decoder = DecoderKind::UnionFind;
    options.batchSize = 64;
    options.progress = [](const McProgress&) {};
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, obsConfig(3, 9e-3), options);
    EXPECT_EQ(est.trials, 300u);

    // The zero-cost contract: every instrumentation site was crossed,
    // yet the registry singleton was never even constructed, and a
    // scrape returns nothing without creating it either.
    EXPECT_FALSE(obs::registryCreated());
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.histograms.empty());
    EXPECT_FALSE(obs::registryCreated());
    EXPECT_TRUE(obs::reportedPoints().empty());
}

TEST(AObsDisabled, DisabledSiteCostIsUnderOnePercentOfDecode)
{
    ASSERT_FALSE(obs::metricsEnabled());

    // Pin the decode input: one pre-sampled 256-shot batch, decoded
    // repeatedly by union-find's decodeBatch.
    GeneratorConfig cfg = obsConfig(5, 8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    UnionFindDecoder decoder(dem);
    const uint32_t shots = 256;
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0);
    sampler.sampleBatchInto(Rng(1), batch);
    std::vector<uint32_t> predictions(shots);

    decoder.decodeBatch(batch, std::span<uint32_t>(predictions));
    auto t0 = std::chrono::steady_clock::now();
    const int reps = 20;
    for (int i = 0; i < reps; ++i)
        decoder.decodeBatch(batch, std::span<uint32_t>(predictions));
    auto t1 = std::chrono::steady_clock::now();
    doNotOptimize(predictions[0]);
    double decodeNsPerBatch =
        std::chrono::duration<double, std::nano>(t1 - t0).count()
        / reps;

    // Cost of one disabled instrumentation site: a StageTimer whose
    // flags load comes back zero, plus the metricsEnabled() branch a
    // counter site performs. Amortized over a large loop.
    const int siteReps = 1000000;
    auto t2 = std::chrono::steady_clock::now();
    uint64_t guardSink = 0;
    for (int i = 0; i < siteReps; ++i) {
        obs::StageTimer timer("test.obs.disabled_site");
        if (obs::metricsEnabled())
            guardSink += 1;
    }
    auto t3 = std::chrono::steady_clock::now();
    doNotOptimize(guardSink);
    double siteNs =
        std::chrono::duration<double, std::nano>(t3 - t2).count()
        / siteReps;

    // The batched decode path crosses a handful of sites per batch
    // (batch timer, gather timer, counter guards, per-shot fast-path
    // guards are behind the same single load). Budget 300 sites per
    // batch -- more than one per shot -- and demand they stay under 1%
    // of the measured decode time.
    EXPECT_LT(300.0 * siteNs, 0.01 * decodeNsPerBatch)
        << "disabled site " << siteNs << " ns, decode batch "
        << decodeNsPerBatch << " ns";
    EXPECT_FALSE(obs::registryCreated());
}

TEST(ObsMetrics, CountersAndHistogramsMergeAcrossPoolThreads)
{
    obs::setMetricsEnabled(true);
    const obs::Counter counter = obs::Counter::get("test.obs.merge");
    const obs::Histogram hist =
        obs::Histogram::get("test.obs.merge_hist");

    // Spread adds over short-lived pool threads: their shards retire
    // on thread exit and must still be visible to a later scrape.
    const uint64_t items = 64;
    ThreadPool pool(4, [&](unsigned w) {
        for (uint64_t i = w; i < items; i += 4) {
            counter.add(i + 1);
            hist.record(i + 1);
        }
    });
    pool.join();

    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const uint64_t expected = items * (items + 1) / 2; // sum 1..64
    EXPECT_EQ(snap.counter("test.obs.merge"), expected);
    const obs::HistogramSnapshot* h =
        snap.histogram("test.obs.merge_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, items);
    EXPECT_EQ(h->sum, expected);
    EXPECT_EQ(h->min, 1u);
    EXPECT_EQ(h->max, items);
    obs::setMetricsEnabled(false);
}

TEST(ObsMetrics, GaugeLastWriteWins)
{
    obs::setMetricsEnabled(true);
    const obs::Gauge g = obs::Gauge::get("test.obs.gauge");
    g.set(7);
    g.set(-3);
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    bool found = false;
    for (const auto& [name, value] : snap.gauges) {
        if (name == "test.obs.gauge") {
            EXPECT_EQ(value, -3);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    obs::setMetricsEnabled(false);
}

TEST(ObsMetrics, HistogramQuantilesAreOrderedAndClamped)
{
    obs::setMetricsEnabled(true);
    const obs::Histogram hist = obs::Histogram::get("test.obs.quant");
    hist.record(1);
    for (int i = 0; i < 1000; ++i)
        hist.record(100);
    hist.record(10000);
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::HistogramSnapshot* h = snap.histogram("test.obs.quant");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1002u);
    EXPECT_EQ(h->min, 1u);
    EXPECT_EQ(h->max, 10000u);
    double p50 = h->quantile(0.50);
    double p90 = h->quantile(0.90);
    double p99 = h->quantile(0.99);
    EXPECT_LE(static_cast<double>(h->min), p50);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, static_cast<double>(h->max));
    // The mass sits in the [64, 128) bucket; geometric interpolation
    // must place the median inside it.
    EXPECT_GE(p50, 64.0);
    EXPECT_LE(p50, 128.0);
    EXPECT_DOUBLE_EQ(h->mean(),
                     static_cast<double>(h->sum) / 1002.0);
    obs::setMetricsEnabled(false);
}

TEST(ObsTrace, TimelineJsonIsSchemaValid)
{
    obs::setTraceEnabled(true);
    {
        obs::StageTimer span("test.obs.span");
    }
    obs::traceCounter("test.obs.counter", 42);
    {
        // A name holding a quote, a backslash and a control byte is
        // escaped, not copied raw into the timeline.
        obs::StageTimer span("test.obs.\"quoted\\name\x01");
    }
    // Worker spans land on per-worker lanes (w+1).
    ThreadPool pool(3, [](unsigned) {
        obs::StageTimer span("test.obs.worker_span");
    });
    pool.join();
    obs::setTraceEnabled(false);

    std::string json = obs::traceToJson();
    std::string err;
    EXPECT_TRUE(obs::jsonLint(json, &err)) << err;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("test.obs.span"), std::string::npos);
    EXPECT_NE(json.find("test.obs.worker_span"), std::string::npos);
    EXPECT_NE(json.find("test.obs.\\\"quoted\\\\name\\u0001"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_EQ(obs::traceDroppedEvents(), 0u);
}

TEST(ObsReport, EndOfRunReportIsValidJsonWithPipelineMetrics)
{
    obs::setMetricsEnabled(true);
    McOptions options;
    options.trials = 400;
    options.seed = 21;
    options.decoder = DecoderKind::UnionFind;
    options.batchSize = 64;
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, obsConfig(3, 9e-3), options);
    obs::setMetricsEnabled(false);

    // The engine reported the finished point with global counts.
    std::vector<obs::PointReport> points = obs::reportedPoints();
    ASSERT_FALSE(points.empty());
    const obs::PointReport& p = points.back();
    EXPECT_EQ(p.embedding, "baseline");
    EXPECT_EQ(p.distance, 3);
    EXPECT_EQ(p.trials, est.trials);
    EXPECT_EQ(p.failures, est.successes);
    EXPECT_EQ(p.sessionTrials, est.trials);
    EXPECT_GE(p.wallSeconds, 0.0);
    EXPECT_GT(p.setupSeconds, 0.0);

    // Pipeline counters flowed end to end.
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    EXPECT_GE(snap.counter("sampler.shots"), 400u);
    EXPECT_EQ(snap.counter("mc.trials_committed"),
              snap.counter("sampler.shots"));
    EXPECT_GT(snap.counter("uf.decode.exact_fastpath")
                  + snap.counter("uf.decode.growth"),
              0u);
    EXPECT_NE(snap.histogram("decode.batch"), nullptr);
    EXPECT_NE(snap.histogram("mc.batch"), nullptr);
    for (const char* stage : {"point.generate", "point.dem",
                              "point.sampler", "point.decoder"})
        EXPECT_NE(snap.histogram(stage), nullptr) << stage;

    std::string json = obs::buildReportJson();
    std::string err;
    EXPECT_TRUE(obs::jsonLint(json, &err)) << err;
    EXPECT_NE(json.find("\"schema\":\"vlq-metrics-report/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"uf_fastpath_hit_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"sampler.sample_batch\""), std::string::npos);
    EXPECT_NE(json.find("\"setup_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"setup_minor_faults\""), std::string::npos);
}

TEST(ObsReport, MwpmCountsExactAndBlossomShots)
{
    obs::MetricsSnapshot before = obs::snapshotMetrics();
    obs::setMetricsEnabled(true);
    McOptions options;
    options.trials = 400;
    options.seed = 22;
    options.decoder = DecoderKind::Mwpm;
    options.batchSize = 64;
    estimateLogicalErrorBasis(EmbeddingKind::Baseline2D,
                              obsConfig(3, 9e-3), options);
    obs::setMetricsEnabled(false);

    // Every non-trivial shot takes one of the two solvers.
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    auto delta = [&](const char* name) {
        return snap.counter(name) - before.counter(name);
    };
    EXPECT_GT(delta("mwpm.decode.exact"), 0u);
    EXPECT_GE(delta("mwpm.decode.exact") + delta("mwpm.decode.blossom"),
              delta("decode.shots") - delta("decode.trivial_shots"));

    std::string json = obs::buildReportJson();
    std::string err;
    EXPECT_TRUE(obs::jsonLint(json, &err)) << err;
    EXPECT_NE(json.find("\"mwpm_exact_hit_rate\""), std::string::npos);
}

TEST(ObsReport, DecodePathTimersRecordEveryPathShotAndMoveNoCount)
{
    // uf.growth and mwpm.blossom time the two expensive decode paths:
    // one histogram sample per shot that takes the path, no trace span,
    // and the counts of a seeded run do not move (invariant 7).
    struct Path
    {
        DecoderKind decoder;
        const char* counter;
        const char* histogram;
    };
    GeneratorConfig cfg = obsConfig(5, 9e-3);
    for (const Path& path :
         {Path{DecoderKind::UnionFind, "uf.decode.growth", "uf.growth"},
          Path{DecoderKind::Mwpm, "mwpm.decode.blossom",
               "mwpm.blossom"}}) {
        McOptions options;
        options.trials = 256;
        options.seed = 23;
        options.decoder = path.decoder;
        options.batchSize = 64;
        ASSERT_FALSE(obs::metricsEnabled());
        BinomialEstimate off = estimateLogicalErrorBasis(
            EmbeddingKind::Baseline2D, cfg, options);

        const obs::MetricsSnapshot before = obs::snapshotMetrics();
        obs::setMetricsEnabled(true);
        obs::setTraceEnabled(true);
        BinomialEstimate on = estimateLogicalErrorBasis(
            EmbeddingKind::Baseline2D, cfg, options);
        obs::setMetricsEnabled(false);
        obs::setTraceEnabled(false);
        const obs::MetricsSnapshot after = obs::snapshotMetrics();

        EXPECT_EQ(on.trials, off.trials) << path.histogram;
        EXPECT_EQ(on.successes, off.successes) << path.histogram;
        const uint64_t shots =
            after.counter(path.counter) - before.counter(path.counter);
        EXPECT_GT(shots, 0u) << path.counter;
        const obs::HistogramSnapshot* h = after.histogram(path.histogram);
        ASSERT_NE(h, nullptr) << path.histogram;
        const obs::HistogramSnapshot* prev =
            before.histogram(path.histogram);
        EXPECT_EQ(h->count - (prev ? prev->count : 0), shots)
            << path.histogram;
    }
    EXPECT_EQ(obs::traceToJson().find("\"mwpm.blossom\""),
              std::string::npos)
        << "the Blossom timer must not emit trace spans";
}

TEST(ObsReport, RowFillTimersRecordEveryFillAndMoveNoCount)
{
    // rows.fill times every shortest-path row fill, including copies
    // that lose the publish race: at least one sample per published
    // copy (a row's first, counted by rows.filled, or a wider one,
    // counted by rows.extended), exactly one with a single worker.
    // Union-find and MWPM fill rows through the same table. The counts
    // of a seeded run do not move (invariant 7).
    GeneratorConfig cfg = obsConfig(5, 9e-3);
    for (const DecoderKind decoder :
         {DecoderKind::UnionFind, DecoderKind::Mwpm}) {
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(decoderKindName(decoder)) + ", "
                         + std::to_string(threads) + " threads");
            McOptions options;
            options.trials = 256;
            options.seed = 29;
            options.decoder = decoder;
            options.batchSize = 16;
            options.threads = threads;
            ASSERT_FALSE(obs::metricsEnabled());
            BinomialEstimate off = estimateLogicalErrorBasis(
                EmbeddingKind::Baseline2D, cfg, options);

            const obs::MetricsSnapshot before = obs::snapshotMetrics();
            obs::setMetricsEnabled(true);
            BinomialEstimate on = estimateLogicalErrorBasis(
                EmbeddingKind::Baseline2D, cfg, options);
            obs::setMetricsEnabled(false);
            const obs::MetricsSnapshot after = obs::snapshotMetrics();

            EXPECT_EQ(on.trials, off.trials);
            EXPECT_EQ(on.successes, off.successes);
            auto delta = [&](const char* counter) {
                return after.counter(counter) - before.counter(counter);
            };
            const uint64_t first = delta("rows.filled");
            EXPECT_GT(first, 0u);
            const uint64_t published = first + delta("rows.extended");
            const obs::HistogramSnapshot* h = after.histogram("rows.fill");
            ASSERT_NE(h, nullptr);
            const obs::HistogramSnapshot* prev =
                before.histogram("rows.fill");
            const uint64_t fills = h->count - (prev ? prev->count : 0);
            if (threads == 1)
                EXPECT_EQ(fills, published);
            else
                EXPECT_GE(fills, published);
        }
    }
}

TEST(ObsReport, MetricsOnDoesNotPerturbCounts)
{
    GeneratorConfig cfg = obsConfig(3, 9e-3);
    McOptions options;
    options.trials = 500;
    options.seed = 77;
    options.decoder = DecoderKind::UnionFind;
    options.batchSize = 32;

    ASSERT_FALSE(obs::metricsEnabled());
    BinomialEstimate off = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);

    obs::setMetricsEnabled(true);
    obs::setTraceEnabled(true);
    BinomialEstimate on = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);

    // Instrumentation reads clocks and bumps counters but never
    // touches the RNG streams or the commit order.
    EXPECT_EQ(on.trials, off.trials);
    EXPECT_EQ(on.successes, off.successes);
}

TEST(ObsHeartbeat, ProgressIsMonotoneCompleteAndCarriesThroughput)
{
    GeneratorConfig cfg = obsConfig(3, 9e-3);
    McOptions options;
    options.trials = 600;
    options.seed = 13;
    options.batchSize = 32;

    std::vector<McProgress> events;
    options.progress = [&](const McProgress& p) {
        events.push_back(p);
    };
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);

    ASSERT_FALSE(events.empty());
    uint64_t lastTrials = 0;
    uint64_t lastFailures = 0;
    double lastElapsed = 0.0;
    for (const McProgress& p : events) {
        EXPECT_GE(p.trialsDone, lastTrials);
        EXPECT_GE(p.failures, lastFailures);
        EXPECT_GE(p.elapsedSeconds, lastElapsed);
        EXPECT_GE(p.shotsPerSec, 0.0);
        if (p.shotsPerSec == 0.0) {
            EXPECT_EQ(p.etaSeconds, -1.0);
        } else {
            EXPECT_GE(p.etaSeconds, 0.0);
        }
        lastTrials = p.trialsDone;
        lastFailures = p.failures;
        lastElapsed = p.elapsedSeconds;
    }
    // Completeness: the final event IS the committed totals.
    EXPECT_EQ(events.back().trialsDone, est.trials);
    EXPECT_EQ(events.back().failures, est.successes);
    EXPECT_EQ(events.back().totalTrials, options.trials);
    if (events.back().shotsPerSec > 0.0) {
        EXPECT_EQ(events.back().etaSeconds, 0.0);
    }
}

TEST(ObsHeartbeat, ResumedSessionStaysMonotoneAndSessionRelative)
{
    GeneratorConfig cfg = obsConfig(3, 9e-3);
    McOptions options;
    options.trials = 480;
    options.seed = 31;
    options.batchSize = 32;

    // Reference run, capturing every commit frontier.
    std::vector<McProgress> snapshots;
    options.progress = [&](const McProgress& p) {
        snapshots.push_back(p);
    };
    BinomialEstimate reference = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);
    ASSERT_GT(snapshots.size(), 3u);
    const McProgress frontier = snapshots[snapshots.size() / 2];
    ASSERT_LT(frontier.trialsDone, reference.trials);

    // Materialize the checkpoint a kill at that frontier leaves.
    std::string path =
        testing::TempDir() + "vlq_obs_heartbeat_resume.ckpt";
    std::remove(path.c_str());
    McCheckpoint state;
    ASSERT_EQ(state.open(path, mcRunFingerprintSummary(options)), "");
    state.update(checkpointPointKey(EmbeddingKind::Baseline2D, cfg),
                 CheckpointEntry{frontier.trialsDone, frontier.failures,
                                 false});
    ASSERT_EQ(state.save(), "");

    McOptions resumed = options;
    resumed.checkpointPath = path;
    uint64_t lastTrials = frontier.trialsDone;
    double lastElapsed = 0.0;
    std::vector<McProgress> resumedEvents;
    resumed.progress = [&](const McProgress& p) {
        // Counts stay global and monotone across the resume boundary;
        // the heartbeat restarts session-relative (elapsed from this
        // process's start, throughput over session trials only).
        EXPECT_GT(p.trialsDone, frontier.trialsDone);
        EXPECT_GE(p.trialsDone, lastTrials);
        EXPECT_GE(p.elapsedSeconds, lastElapsed);
        if (p.shotsPerSec > 0.0 && p.elapsedSeconds > 0.0) {
            double impliedSession = p.shotsPerSec * p.elapsedSeconds;
            EXPECT_LE(impliedSession,
                      static_cast<double>(p.trialsDone
                                          - frontier.trialsDone)
                          + 1.0);
        }
        lastTrials = p.trialsDone;
        lastElapsed = p.elapsedSeconds;
        resumedEvents.push_back(p);
    };
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, resumed);

    // Completeness after resume: final event == committed totals ==
    // the uninterrupted run's counts.
    EXPECT_EQ(est.trials, reference.trials);
    EXPECT_EQ(est.successes, reference.successes);
    ASSERT_FALSE(resumedEvents.empty());
    EXPECT_EQ(resumedEvents.back().trialsDone, est.trials);
    EXPECT_EQ(resumedEvents.back().failures, est.successes);
    std::remove(path.c_str());
}

TEST(ObsJson, LintAcceptsValidAndRejectsBroken)
{
    std::string err;
    EXPECT_TRUE(obs::jsonLint("{\"a\":[1,2.5e-3,null,true,\"x\"]}",
                              &err))
        << err;
    EXPECT_FALSE(obs::jsonLint("{\"a\":}", &err));
    EXPECT_FALSE(obs::jsonLint("{\"a\":1} trailing", &err));
    EXPECT_FALSE(obs::jsonLint("{\"a\":+1}", &err));
    // Strings must be well-formed UTF-8.
    EXPECT_TRUE(obs::jsonLint("{\"m\":\"caf\xc3\xa9\"}", &err)) << err;
    for (const char* bad :
         {"{\"m\":\"a\xff\"}", "{\"m\":\"\xc0\xaf\"}",
          "{\"m\":\"\xed\xa0\x80\"}", "{\"m\":\"\xe2\x82\"}",
          "{\"m\xff\":1}"}) {
        EXPECT_FALSE(obs::jsonLint(bad, &err)) << bad;
        EXPECT_NE(err.find("invalid UTF-8"), std::string::npos) << err;
    }
}

TEST(ObsJson, QuoteEscapesEveryByteThatIsNotUtf8)
{
    // Well-formed sequences of every length pass through unchanged.
    for (const std::string text : {"caf\xc3\xa9", "\xe2\x82\xac" "5",
                                   "\xf0\x9f\x98\x80", "\xf4\x8f\xbf\xbf"}) {
        EXPECT_EQ(obs::jsonQuote(text), "\"" + text + "\"");
        std::string err;
        EXPECT_TRUE(obs::jsonLint(obs::jsonQuote(text), &err)) << err;
    }
    // RFC 3629 rejects stray and truncated bytes, overlong forms,
    // surrogates and code points past U+10FFFF: each byte that does not
    // start a well-formed sequence becomes \u00XX.
    const std::pair<std::string, std::string> cases[] = {
        {"a\xff", "\"a\\u00ff\""},
        {"\x80", "\"\\u0080\""},
        {"\xc0\xaf", "\"\\u00c0\\u00af\""},
        {"\xe0\x80\xaf", "\"\\u00e0\\u0080\\u00af\""},
        {"\xed\xa0\x80", "\"\\u00ed\\u00a0\\u0080\""},
        {"\xf4\x90\x80\x80", "\"\\u00f4\\u0090\\u0080\\u0080\""},
        {"\xe2\x82", "\"\\u00e2\\u0082\""},
        {"\xc3\xa9\xa9", "\"\xc3\xa9\\u00a9\""},
        {std::string("1\0" "2", 3), "\"1\\u00002\""},
    };
    for (const auto& [raw, quoted] : cases) {
        EXPECT_EQ(obs::jsonQuote(raw), quoted);
        std::string err;
        EXPECT_TRUE(obs::jsonLint(quoted, &err)) << err;
    }
}

} // namespace
} // namespace vlq
