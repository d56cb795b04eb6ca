#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cstdio>
#include <latch>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/decoding_graph.h"
#include "decoder/shortest_path_rows.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/memory_experiment.h"
#include "mc/monte_carlo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/events.h"
#include "service/job.h"
#include "service/job_service.h"
#include "util/rng.h"
#include "util/threadpool.h"

/**
 * Concurrency stress harness. These tests pass under any build, but
 * they exist to give ThreadSanitizer short racy windows to inspect:
 * control-plane requests (submit/cancel/requeue/shutdown) hammered
 * against a service mid-drain, metrics-shard churn from short-lived
 * threads racing snapshotMetrics(), batch commits + checkpoint saves
 * issued from pool worker threads, and decoder workers racing to fill
 * the same shortest-path rows without waiting for one another. CI runs
 * the tier-1 suite -- including this file -- under -fsanitize=thread
 * (the `tsan` preset); a data race here is
 * a bug, never a suppression (see docs/ARCHITECTURE.md, "Static
 * analysis & sanitizers").
 */

namespace vlq {
namespace {

using service::EventSink;
using service::JobService;
using service::JobServiceConfig;
using service::ScanJob;

ScanJob
stressJob(const std::string& id, uint64_t trials)
{
    ScanJob job;
    job.id = id;
    job.setup = 2;
    job.distances = {3};
    job.physicalPs = {8e-3};
    job.trials = trials;
    job.batchSize = 32;
    job.seed = 29;
    return job;
}

void
removeJobState(const JobService& svc, const std::string& id)
{
    std::remove(svc.checkpointPath(id).c_str());
    std::remove((svc.checkpointPath(id) + ".tmp").c_str());
}

/**
 * Control-plane churn: one thread drains the queue while two hammer
 * threads fire the full request grammar -- submits, requeues of
 * queued/running/terminal ids, cancels, and garbage lines -- at the
 * live service. The scheduler quantum is tiny so the long job gets
 * preempted into and out of the queue while the hammers rotate it.
 */
TEST(TsanStress, ControlPlaneChurnWhileDraining)
{
    std::ostringstream out;
    EventSink sink(&out);
    JobServiceConfig cfg;
    cfg.stateDir = testing::TempDir();
    cfg.quantumTrials = 96;
    cfg.progressEveryTrials = 64;
    cfg.threads = 2;
    JobService svc(cfg, sink);

    std::vector<std::string> ids = {"ts-long", "ts-a", "ts-b"};
    removeJobState(svc, "ts-long");
    ASSERT_TRUE(svc.submit(stressJob("ts-long", 2400)));
    for (const char* id : {"ts-a", "ts-b"}) {
        removeJobState(svc, id);
        ASSERT_TRUE(svc.submit(stressJob(id, 600)));
    }

    std::thread runner([&] { svc.runUntilDrained(); });

    auto hammer = [&](int t) {
        for (int i = 0; i < 24; ++i) {
            std::string id = "ts-h" + std::to_string(t) + "-"
                + std::to_string(i);
            if (i % 3 == 0) {
                removeJobState(svc, id);
                svc.submitLine(stressJob(id, 200).requestLine());
                if (i % 6 == 0)
                    svc.submitLine("cancel id=" + id);
            }
            // Rotations race the scheduler pop: each either succeeds
            // (job still queued) or errors (running/terminal) -- both
            // must be race-free and emit exactly one event.
            svc.submitLine("requeue id=" + ids[i % ids.size()]);
            svc.submitLine("requeue id=never-submitted");
            svc.submitLine("bogus-verb id=x");
            std::this_thread::yield();
        }
    };
    std::thread h1(hammer, 1);
    std::thread h2(hammer, 2);
    h1.join();
    h2.join();
    runner.join();

    // Drain whatever the hammers enqueued after the runner exited.
    svc.runUntilDrained();

    // The stream survived the churn: parseable, strictly ordered.
    uint64_t prevSeq = 0;
    size_t preemptions = 0;
    std::istringstream is(out.str());
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::string lintErr;
        ASSERT_TRUE(obs::jsonLint(line, &lintErr))
            << line << "\n" << lintErr;
        std::string needle = "\"seq\":";
        size_t at = line.find(needle);
        ASSERT_NE(at, std::string::npos) << line;
        uint64_t seq = std::stoull(line.substr(at + needle.size()));
        EXPECT_GT(seq, prevSeq) << "seq must strictly increase";
        prevSeq = seq;
        if (line.find("\"event\":\"preempted\"") != std::string::npos)
            ++preemptions;
    }
    EXPECT_GE(preemptions, 1u)
        << "quantum 96 with queued peers must preempt the long job";
}

/**
 * Shard churn: waves of short-lived writer threads (raw std::thread
 * and fresh ThreadPool workers) exit -- retiring their thread-local
 * shards -- while the main thread scrapes snapshots mid-wave. The
 * final joined snapshot must account for every single increment.
 */
TEST(TsanStress, MetricsShardChurnRacesSnapshots)
{
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const uint64_t before =
        obs::snapshotMetrics().counter("tsan.stress.increments");

    constexpr int kWaves = 6;
    constexpr int kThreadsPerWave = 4;
    constexpr uint64_t kAddsPerThread = 2048;
    for (int wave = 0; wave < kWaves; ++wave) {
        std::vector<std::thread> writers;
        writers.reserve(kThreadsPerWave);
        for (int t = 0; t < kThreadsPerWave; ++t) {
            writers.emplace_back([] {
                obs::Counter counter =
                    obs::Counter::get("tsan.stress.increments");
                obs::Histogram histo =
                    obs::Histogram::get("tsan.stress.latency");
                for (uint64_t i = 0; i < kAddsPerThread; ++i) {
                    counter.add(1);
                    histo.record(i & 1023);
                }
            });
        }
        // ThreadPool workers are born and joined inside parallelFor:
        // their shards retire while the raw writers are still alive.
        ThreadPool pool(3);
        pool.parallelFor(
            kAddsPerThread,
            [](uint64_t begin, uint64_t end, unsigned) {
                obs::Counter counter =
                    obs::Counter::get("tsan.stress.increments");
                for (uint64_t i = begin; i < end; ++i)
                    counter.add(1);
            });
        // Scrape while writers run and shards retire underneath us.
        for (int s = 0; s < 8; ++s)
            (void)obs::snapshotMetrics();
        for (std::thread& writer : writers)
            writer.join();
    }

    const uint64_t after =
        obs::snapshotMetrics().counter("tsan.stress.increments");
    EXPECT_EQ(after - before,
              uint64_t{kWaves} * (kThreadsPerWave + 1) * kAddsPerThread)
        << "retired shards must fold in without losing increments";
    obs::setMetricsEnabled(wasEnabled);
}

GeneratorConfig
stressPoint()
{
    GeneratorConfig cfg;
    cfg.distance = 3;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        8e-3, HardwareParams::transmonsWithMemory());
    return cfg;
}

/**
 * Cross-thread checkpoint commits: four pool workers drive batches
 * through the sequencer, which commits in trial order and saves the
 * checkpoint every 128 trials from whichever worker holds the commit
 * lock; the progress and preempt callbacks run on those workers too.
 * Preempting mid-run and resuming must reproduce the uninterrupted
 * counts bit-identically -- the determinism contract TSan guards the
 * locking of. The preempted run drains every batch its workers pulled,
 * which can run tens of thousands of trials past the hook's 600
 * committed trials while the periodic saves hold up the in-order
 * commit; the budget leaves room for that.
 */
TEST(TsanStress, CrossThreadCheckpointCommitsResumeBitIdentically)
{
    const std::string path =
        testing::TempDir() + "tsan-stress-ckpt.txt";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    McOptions opt;
    opt.trials = 200000;
    opt.seed = 31;
    opt.threads = 4;
    opt.batchSize = 32;
    opt.decoder = DecoderKind::Greedy;

    BinomialEstimate solo = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, stressPoint(), opt);

    McOptions first = opt;
    first.checkpointPath = path;
    first.checkpointEveryTrials = 128;
    std::atomic<uint64_t> committed{0};
    first.progress = [&](const McProgress& p) {
        committed.store(p.trialsDone, std::memory_order_relaxed);
    };
    bool preempted = false;
    first.preempt = [&] {
        return committed.load(std::memory_order_relaxed) >= 600;
    };
    first.preempted = &preempted;
    (void)estimateLogicalErrorBasis(EmbeddingKind::Baseline2D,
                                    stressPoint(), first);
    ASSERT_TRUE(preempted) << "the preempt hook must fire mid-run";

    McOptions second = opt;
    second.checkpointPath = path;
    second.checkpointEveryTrials = 128;
    BinomialEstimate resumed = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, stressPoint(), second);

    EXPECT_EQ(resumed.trials, solo.trials);
    EXPECT_EQ(resumed.successes, solo.successes)
        << "preempt/resume across worker threads changed the counts";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

/**
 * Shared decoder rows (docs/ARCHITECTURE.md invariant 9): one fresh
 * decoder decodes seeded batches on one thread; a second fresh decoder
 * decodes the same batches on four workers that a barrier releases
 * together, so they race to fill the same shortest-path rows. Every
 * worker's predictions must equal the one-thread ones shot for shot,
 * and both decoders must publish the same number of rows -- each row
 * once, by whichever worker's copy won, and never more rows than the
 * graph has detectors.
 */
TEST(TsanStress, DecoderRowsAreSharedAndFillerIndependent)
{
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    constexpr uint32_t kBatches = 3;
    constexpr uint32_t kShots = 128;
    constexpr unsigned kWorkers = 4;
    const std::vector<EvaluationSetup> setups = paperSetups();
    for (const EvaluationSetup& setup : {setups[0], setups[4]}) {
        GeneratorConfig cfg;
        cfg.distance = 5;
        cfg.cavityDepth = 10;
        cfg.schedule = setup.schedule;
        cfg.noise = NoiseModel::atPhysicalRate(
            1e-2, HardwareParams::transmonsWithMemory());
        const DetectorErrorModel dem = DetectorErrorModel::build(
            generateMemoryCircuit(setup.embedding, cfg).circuit);
        FaultSampler sampler(dem);
        std::vector<ShotBatch> batches(kBatches);
        for (uint32_t b = 0; b < kBatches; ++b) {
            batches[b].reset(dem.numDetectors(), dem.numObservables(),
                             kShots, 0);
            sampler.sampleBatchInto(Rng(41 + b), batches[b]);
        }

        for (DecoderKind kind : {DecoderKind::UnionFind, DecoderKind::Mwpm,
                                 DecoderKind::Greedy}) {
            SCOPED_TRACE(setup.name() + " " + decoderKindName(kind));
            auto rowsFilled = [] {
                return obs::snapshotMetrics().counter("rows.filled");
            };
            using Predictions = std::vector<std::vector<uint32_t>>;

            uint64_t before = rowsFilled();
            const std::unique_ptr<Decoder> solo = makeDecoder(kind, dem);
            Predictions expected(kBatches, std::vector<uint32_t>(kShots));
            for (uint32_t b = 0; b < kBatches; ++b)
                solo->decodeBatch(batches[b],
                                  std::span<uint32_t>(expected[b]));
            const uint64_t soloRows = rowsFilled() - before;

            before = rowsFilled();
            const std::unique_ptr<Decoder> shared = makeDecoder(kind, dem);
            std::vector<Predictions> got(
                kWorkers,
                Predictions(kBatches,
                            std::vector<uint32_t>(kShots, UINT32_MAX)));
            std::barrier start(kWorkers);
            std::vector<std::thread> workers;
            workers.reserve(kWorkers);
            for (unsigned t = 0; t < kWorkers; ++t) {
                workers.emplace_back([&, t] {
                    start.arrive_and_wait();
                    for (uint32_t i = 0; i < kBatches; ++i) {
                        const uint32_t b = (t + i) % kBatches;
                        shared->decodeBatch(batches[b],
                                            std::span<uint32_t>(got[t][b]));
                    }
                });
            }
            for (std::thread& worker : workers)
                worker.join();
            const uint64_t sharedRows = rowsFilled() - before;

            for (unsigned t = 0; t < kWorkers; ++t)
                EXPECT_EQ(got[t], expected) << "worker " << t;
            EXPECT_GT(soloRows, 0u);
            EXPECT_LE(soloRows, dem.numDetectors());
            EXPECT_EQ(sharedRows, soloRows)
                << "racing workers published a row twice or skipped one";
        }
    }
    obs::setMetricsEnabled(wasEnabled);
}

/**
 * No thread waits for another's row: four threads ask for the same
 * unpublished row, and each search blocks until all four are inside a
 * search at once (or ten seconds pass). A table that made later callers
 * wait for the first filler would let only one thread in. Exactly one
 * copy is published, every caller reads its entries, and a published
 * row is served without another search.
 */
TEST(TsanStress, RowTableNeverMakesAThreadWait)
{
    constexpr unsigned kThreads = 4;
    constexpr uint32_t kLength = 16;
    constexpr uint32_t kSrc = 3;
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    auto published = [] {
        const obs::MetricsSnapshot m = obs::snapshotMetrics();
        return m.counter("rows.filled") + m.counter("rows.extended");
    };
    const uint64_t publishedBefore = published();
    const ShortestPathRows rows(kLength);
    std::vector<uint32_t> nodes(kLength);
    std::vector<double> dist(kLength);
    std::vector<uint32_t> masks(kLength);
    for (uint32_t t = 0; t < kLength; ++t) {
        nodes[t] = t;
        dist[t] = kSrc + 0.5 * t;
        masks[t] = kSrc ^ t;
    }
    const DecodingGraph::Settled whole{nodes, dist, masks, true};
    std::latch allFilling(kThreads);
    std::atomic<unsigned> fills{0};
    std::atomic<bool> timedOut{false};
    auto search = [&](uint32_t, std::span<const uint32_t>, uint32_t) {
        fills.fetch_add(1);
        allFilling.count_down();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!allFilling.try_wait()) {
            if (std::chrono::steady_clock::now() >= deadline) {
                timedOut = true;
                break;
            }
            std::this_thread::yield();
        }
        return whole;
    };

    const uint32_t target = kLength - 1;
    std::vector<double> gotDist(kThreads);
    std::vector<uint32_t> gotObs(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            rows.get(kSrc, std::span<const uint32_t>(&target, 1),
                     std::span<double>(&gotDist[t], 1),
                     std::span<uint32_t>(&gotObs[t], 1), search);
        });
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_FALSE(timedOut.load()) << "a caller waited for the filler";
    EXPECT_EQ(fills.load(), kThreads);
    EXPECT_EQ(published() - publishedBefore, 1u);
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(gotDist[t], kSrc + 0.5 * target) << "thread " << t;
        EXPECT_EQ(gotObs[t], kSrc ^ target) << "thread " << t;
    }
    EXPECT_TRUE(rows.complete(kSrc));
    std::vector<double> again(kLength);
    std::vector<uint32_t> againObs(kLength);
    rows.get(
        kSrc, nodes, std::span<double>(again), std::span<uint32_t>(againObs),
        [&](uint32_t, std::span<const uint32_t>, uint32_t) {
            ADD_FAILURE() << "published row filled again";
            return whole;
        });
    EXPECT_EQ(published() - publishedBefore, 1u)
        << "published row published again";
    EXPECT_EQ(again, dist);
    EXPECT_EQ(againObs, masks);
    obs::setMetricsEnabled(wasEnabled);
}

/**
 * Four threads extend one published row at once: the row first settles
 * only as far as the source's nearest neighbour, then each thread asks
 * for different far targets, and each wider search blocks until all
 * four are inside a search (or ten seconds pass). Every thread reads
 * the complete search's entries bit for bit, at least one wider copy
 * is published, and the published extent never shrinks.
 */
TEST(TsanStress, RowTableExtendsARowFromFourThreadsAtOnce)
{
    constexpr unsigned kThreads = 4;
    GeneratorConfig cfg;
    cfg.distance = 5;
    cfg.noise = NoiseModel::atPhysicalRate(
        1e-2, HardwareParams::transmonsWithMemory());
    const DecodingGraph graph = DecodingGraph::build(
        DetectorErrorModel::build(
            generateMemoryCircuit(EmbeddingKind::Baseline2D, cfg).circuit));
    const uint32_t n = graph.numNodes();
    constexpr uint32_t kSrc = 0;
    std::vector<double> refDist(n);
    std::vector<uint32_t> refObs(n);
    graph.shortestPaths(kSrc, /*viaBoundary=*/false, refDist, refObs);

    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    auto extended = [] {
        return obs::snapshotMetrics().counter("rows.extended");
    };
    const ShortestPathRows rows(n);
    std::latch allFilling(kThreads);
    std::atomic<bool> gate{false};
    std::atomic<bool> timedOut{false};
    auto search = [&](uint32_t src, std::span<const uint32_t> targets,
                      uint32_t minSettled) {
        if (gate.load()) {
            allFilling.count_down();
            const auto deadline = std::chrono::steady_clock::now()
                + std::chrono::seconds(10);
            while (!allFilling.try_wait()) {
                if (std::chrono::steady_clock::now() >= deadline) {
                    timedOut = true;
                    break;
                }
                std::this_thread::yield();
            }
        }
        return graph.settle(src, /*viaBoundary=*/false, targets,
                            minSettled);
    };

    // A narrow first copy: the source's nearest neighbour.
    uint32_t near = 1;
    for (uint32_t t = 1; t < n - 1; ++t)
        if (refDist[t] < refDist[near])
            near = t;
    double nearDist = 0.0;
    uint32_t nearObs = 0;
    rows.get(kSrc, std::span<const uint32_t>(&near, 1),
             std::span<double>(&nearDist, 1),
             std::span<uint32_t>(&nearObs, 1), search);
    ASSERT_FALSE(rows.complete(kSrc));
    ASSERT_EQ(nearDist, refDist[near]);
    const uint32_t narrow = rows.settled(kSrc);
    const uint64_t extendedBefore = extended();

    // Each thread's far targets: every fourth detector of the last
    // rounds, the far end of the index range.
    std::vector<std::vector<uint32_t>> targets(kThreads);
    for (uint32_t t = n - 1 - 8 * kThreads; t < n - 1; ++t)
        targets[t % kThreads].push_back(t);
    gate = true;
    std::vector<std::vector<double>> gotDist(kThreads);
    std::vector<std::vector<uint32_t>> gotObs(kThreads);
    std::vector<uint32_t> settledAfter(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            gotDist[t].resize(targets[t].size());
            gotObs[t].resize(targets[t].size());
            rows.get(kSrc, targets[t], std::span<double>(gotDist[t]),
                     std::span<uint32_t>(gotObs[t]), search);
            settledAfter[t] = rows.settled(kSrc);
        });
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_FALSE(timedOut.load()) << "a caller waited for another's copy";
    const uint64_t extensions = extended() - extendedBefore;
    EXPECT_GE(extensions, 1u);
    EXPECT_LE(extensions, kThreads);
    EXPECT_GE(rows.settled(kSrc), 2 * narrow);
    for (unsigned t = 0; t < kThreads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        EXPECT_GE(settledAfter[t], 2 * narrow);
        EXPECT_GE(rows.settled(kSrc), settledAfter[t]);
        for (size_t i = 0; i < targets[t].size(); ++i) {
            const uint32_t target = targets[t][i];
            EXPECT_EQ(std::bit_cast<uint64_t>(gotDist[t][i]),
                      std::bit_cast<uint64_t>(refDist[target]))
                << target;
            EXPECT_EQ(gotObs[t][i], refObs[target]) << target;
        }
    }
    obs::setMetricsEnabled(wasEnabled);
}

} // namespace
} // namespace vlq
