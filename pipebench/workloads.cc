#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "core/generator_registry.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/monte_carlo.h"
#include "obs/metrics.h"
#include "service/events.h"
#include "service/job_service.h"
#include "util/rng.h"

namespace pipebench {

using namespace vlq;

namespace {

// Budgets, sized so one engine run of each workload takes a few
// seconds with 4 threads; smoke runs keep the grids and cut trials.
constexpr uint64_t kScanTrials = 12000;
constexpr uint64_t kPrecisionFailures = 100; // 10% relative error
constexpr uint64_t kPrecisionTrialCap = 100000000;
constexpr uint64_t kLargeTrials = 1536;
constexpr uint64_t kServiceTrials = 40000;
constexpr uint64_t kServiceQuantum = 4096;

ThresholdScanConfig
scanConfig(DecoderKind decoder, std::vector<int> distances,
           std::vector<double> ps, uint64_t trials, uint64_t target,
           uint64_t seed, unsigned threads)
{
    ThresholdScanConfig cfg;
    cfg.distances = std::move(distances);
    cfg.physicalPs = std::move(ps);
    cfg.mc.trials = trials;
    cfg.mc.targetFailures = target;
    cfg.mc.seed = seed;
    cfg.mc.threads = threads;
    cfg.mc.decoder = decoder;
    cfg.mc.batchSize = kBatch;
    return cfg;
}

/**
 * Append the scan's points in the order scanThreshold visits them
 * (distance, then p, then basis Z before X), building each point's
 * GeneratorConfig exactly as scanThreshold does.
 */
void
appendPoints(Workload& w, const EvaluationSetup& setup,
             const ThresholdScanConfig& cfg, unsigned threads,
             std::optional<size_t> op)
{
    for (int d : cfg.distances) {
        for (double p : cfg.physicalPs) {
            for (CheckBasis basis : {CheckBasis::Z, CheckBasis::X}) {
                PointSpec ps;
                ps.embedding = setup.embedding;
                ps.config.distance = d;
                ps.config.cavityDepth = cfg.cavityDepth;
                ps.config.schedule = setup.schedule;
                ps.config.gapModel = cfg.gapModel;
                ps.config.noise = NoiseModel::atPhysicalRate(
                    p, cfg.hardware, cfg.scaleCoherence);
                ps.config.memoryBasis = basis;
                ps.mc = cfg.mc;
                ps.mc.threads = threads;
                char label[160];
                std::snprintf(label, sizeof label, "%s d=%d p=%.3g %c %s",
                              setup.name().c_str(), d, p,
                              basis == CheckBasis::X ? 'X' : 'Z',
                              decoderKindName(cfg.mc.decoder));
                ps.label = label;
                ps.op = op ? *op : w.points.size();
                w.points.push_back(std::move(ps));
            }
        }
    }
}

/** Raw value of `"key":` in one flat JSON event line ("" if absent). */
std::string
jsonField(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    pos += needle.size();
    if (pos < line.size() && line[pos] == '"') {
        std::string out;
        for (size_t i = pos + 1; i < line.size() && line[i] != '"'; ++i) {
            if (line[i] == '\\' && i + 1 < line.size())
                ++i;
            out += line[i];
        }
        return out;
    }
    size_t end = line.find_first_of(",}", pos);
    return line.substr(pos, end == std::string::npos ? end : end - pos);
}

uint64_t
jsonU64(const std::string& line, const std::string& key)
{
    const std::string v = jsonField(line, key);
    return v.empty() ? 0 : std::stoull(v);
}

/** Fill `run` from the service's event stream. */
void
collectServiceEvents(const Workload& w, EngineRun& run)
{
    std::vector<size_t> firstPoint(w.jobs.size(), w.points.size());
    for (size_t i = w.points.size(); i-- > 0;)
        firstPoint[w.points[i].op] = i;
    std::vector<bool> done(w.jobs.size(), false);
    std::vector<bool> seen(w.points.size(), false);
    run.counts.assign(w.points.size(), BinomialEstimate{});

    std::istringstream lines(run.events);
    std::string line;
    while (std::getline(lines, line)) {
        const std::string id = jsonField(line, "job");
        size_t op = 0;
        while (op < w.jobs.size() && w.jobs[op].id != id)
            ++op;
        if (op == w.jobs.size())
            continue;
        const std::string event = jsonField(line, "event");
        if (event == "error") {
            run.opErrors[op] = "job " + id + " failed: "
                + jsonField(line, "message");
        } else if (event == "done") {
            done[op] = true;
        } else if (event == "point_done") {
            const size_t i = firstPoint[op] + jsonU64(line, "point");
            if (i >= w.points.size() || w.points[i].op != op) {
                run.opErrors[op] = "job " + id + " reported an unknown point";
                continue;
            }
            run.counts[i].trials = jsonU64(line, "trials");
            run.counts[i].successes = jsonU64(line, "failures");
            run.trials += run.counts[i].trials;
            seen[i] = true;
        }
    }
    for (size_t op = 0; op < w.jobs.size(); ++op)
        if (run.opErrors[op].empty() && !done[op])
            run.opErrors[op] = "job " + w.jobs[op].id + " never finished";
    for (size_t i = 0; i < w.points.size(); ++i)
        if (!seen[i] && run.opErrors[w.points[i].op].empty())
            run.opErrors[w.points[i].op] =
                "job " + w.jobs[w.points[i].op].id + " skipped point "
                + w.points[i].label;
}

EngineRun
runService(const Workload& w, const std::string& stateDir)
{
    namespace fs = std::filesystem;
    EngineRun run;
    run.opErrors.assign(w.numOps, "");
    fs::remove_all(stateDir);
    fs::create_directories(stateDir);
    std::ostringstream events;
    {
        service::EventSink sink(&events);
        service::JobServiceConfig cfg;
        cfg.stateDir = stateDir;
        cfg.quantumTrials = w.quantumTrials;
        cfg.threads = w.threads;
        cfg.progressEveryTrials = 1; // a progress event every batch
        service::JobService svc(cfg, sink);
        const auto start = std::chrono::steady_clock::now();
        for (const service::ScanJob& job : w.jobs)
            svc.submit(job);
        svc.runUntilDrained();
        run.wallS = secondsSince(start);
    }
    fs::remove_all(stateDir);
    run.events = events.str();
    collectServiceEvents(w, run);
    return run;
}

/** Counter and histogram movement between two snapshots. */
struct ObsDelta
{
    uint64_t samplerShots = 0;
    uint64_t trialsCommitted = 0;
    uint64_t ufGrowth = 0;
    uint64_t ufExact = 0;
    uint64_t saves = 0;
    uint64_t saveNs = 0;

    void add(const obs::MetricsSnapshot& before,
             const obs::MetricsSnapshot& after)
    {
        auto diff = [&](const char* name) {
            return after.counter(name) - before.counter(name);
        };
        samplerShots += diff("sampler.shots");
        trialsCommitted += diff("mc.trials_committed");
        ufGrowth += diff("uf.decode.growth");
        ufExact += diff("uf.decode.exact_fastpath");
        const obs::HistogramSnapshot* a =
            after.histogram("checkpoint.save");
        const obs::HistogramSnapshot* b =
            before.histogram("checkpoint.save");
        if (a) {
            saves += a->count - (b ? b->count : 0);
            saveNs += a->sum - (b ? b->sum : 0);
        }
    }
};

/** What the benchmark's own sample/decode loop saw for one point. */
struct LoopStats
{
    uint64_t sampleNs = 0;
    uint64_t shots = 0;
    uint64_t warmNs = 0;
    uint64_t warmShots = 0;
    uint64_t coldNs = 0;
    uint64_t coldShots = 0;
    uint64_t nontrivial = 0;
    uint64_t events = 0;
    uint64_t failures = 0;
    unsigned workers = 0;
    int64_t hotRssBytes = 0;

    void add(const LoopStats& o)
    {
        sampleNs += o.sampleNs;
        shots += o.shots;
        warmNs += o.warmNs;
        warmShots += o.warmShots;
        coldNs += o.coldNs;
        coldShots += o.coldShots;
        nontrivial += o.nontrivial;
        events += o.events;
        failures += o.failures;
    }
};

/**
 * Sample and decode trials [0, trials) of one point on `threads`
 * workers pulling batches from a shared counter, as the engine does.
 * Each worker's first batch is its cold batch. RSS is read once every
 * worker has finished its last batch, before any exits, so per-thread
 * decoder caches are still resident.
 */
LoopStats
tracedLoop(const DetectorErrorModel& dem, const FaultSampler& sampler,
           const Decoder& decoder, const Rng& root, uint64_t trials,
           unsigned threads, SpanLog& log, uint64_t parent, int32_t point)
{
    const uint64_t numBatches = (trials + kBatch - 1) / kBatch;
    const unsigned workers = static_cast<unsigned>(
        std::max<uint64_t>(1, std::min<uint64_t>(threads, numBatches)));
    std::atomic<uint64_t> next{0};
    std::vector<LoopStats> stats(workers);
    std::vector<std::vector<Span>> spans(workers);
    const int64_t rssBefore = currentRssBytes();
    int64_t rssAfter = rssBefore;
    std::barrier finished(static_cast<std::ptrdiff_t>(workers),
                          [&]() noexcept { rssAfter = currentRssBytes(); });

    auto work = [&](unsigned w) {
        LoopStats& st = stats[w];
        Span worker{"mc.worker", log.newId(), parent, point, w + 1,
                    nowNs(), 0};
        ShotBatch batch;
        std::vector<uint32_t> predictions;
        bool cold = true;
        for (;;) {
            const uint64_t b = next.fetch_add(1, std::memory_order_relaxed);
            if (b >= numBatches)
                break;
            const uint64_t begin = b * kBatch;
            const uint32_t count = static_cast<uint32_t>(
                std::min<uint64_t>(kBatch, trials - begin));
            const uint64_t t0 = nowNs();
            batch.reset(dem.numDetectors(), dem.numObservables(), count,
                        begin, dem.numErasureSites());
            sampler.sampleBatchInto(root, batch);
            const uint64_t t1 = nowNs();
            for (uint32_t word = 0; word < batch.wordsPerRow(); ++word)
                st.nontrivial += static_cast<uint64_t>(
                    std::popcount(batch.nonTrivialMask(word)));
            for (uint32_t det = 0; det < batch.numDetectors(); ++det) {
                const uint64_t* row = batch.detectorRow(det);
                for (uint32_t word = 0; word < batch.wordsPerRow(); ++word)
                    st.events += static_cast<uint64_t>(
                        std::popcount(row[word]));
            }
            predictions.resize(count);
            const uint64_t t2 = nowNs();
            decoder.decodeBatch(batch, std::span<uint32_t>(predictions));
            const uint64_t t3 = nowNs();
            for (uint32_t s = 0; s < count; ++s)
                st.failures += predictions[s] != batch.observables(s);
            st.sampleNs += t1 - t0;
            st.shots += count;
            (cold ? st.coldNs : st.warmNs) += t3 - t2;
            (cold ? st.coldShots : st.warmShots) += count;
            cold = false;
            spans[w].push_back(
                {"dem.sample", log.newId(), worker.id, point, w + 1, t0, t1});
            spans[w].push_back({"decoder.decode", log.newId(), worker.id,
                                point, w + 1, t2, t3});
        }
        finished.arrive_and_wait();
        worker.endNs = nowNs();
        spans[w].push_back(worker);
    };
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(work, w);
    work(0);
    for (std::thread& t : pool)
        t.join();

    LoopStats total;
    for (unsigned w = 0; w < workers; ++w) {
        total.add(stats[w]);
        log.addAll(spans[w]);
    }
    total.workers = workers;
    total.hotRssBytes = rssAfter - rssBefore;
    return total;
}

/** Preemption count and median resume -> next progress latency. */
std::pair<uint64_t, double>
serviceTimeline(const std::string& events)
{
    uint64_t preemptions = 0;
    std::map<std::string, double> resumedAt;
    std::vector<double> latencies;
    std::istringstream lines(events);
    std::string line;
    while (std::getline(lines, line)) {
        const std::string event = jsonField(line, "event");
        const std::string job = jsonField(line, "job");
        const double t = std::stod(jsonField(line, "t"));
        if (event == "preempted") {
            ++preemptions;
        } else if (event == "resumed") {
            resumedAt[job] = t;
        } else if (event == "progress") {
            auto it = resumedAt.find(job);
            if (it != resumedAt.end()) {
                latencies.push_back(t - it->second);
                resumedAt.erase(it);
            }
        }
    }
    return {preemptions, median(latencies)};
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"scan-uf", "precision-mwpm", "large-d", "service-timeslice"};
}

Workload
makeWorkload(const std::string& name, uint64_t seed, unsigned threads,
             bool smoke)
{
    Workload w;
    w.name = name;
    w.threads = threads;
    const std::vector<EvaluationSetup> setups = paperSetups();
    const EvaluationSetup baseline = setups[0];
    const EvaluationSetup compactInterleaved = setups[4];

    if (name == "scan-uf") {
        for (const EvaluationSetup& setup : {baseline, compactInterleaved})
            w.scans.emplace_back(
                setup, scanConfig(DecoderKind::UnionFind, {3, 5, 7},
                                  logspace(3e-3, 2e-2, 6),
                                  smoke ? 512 : kScanTrials, 0, seed,
                                  threads));
    } else if (name == "precision-mwpm") {
        for (const EvaluationSetup& setup : {baseline, compactInterleaved})
            w.scans.emplace_back(
                setup, scanConfig(DecoderKind::Mwpm, {5, 7}, {1e-3},
                                  kPrecisionTrialCap,
                                  smoke ? 3 : kPrecisionFailures, seed,
                                  threads));
    } else if (name == "large-d") {
        for (const EvaluationSetup& setup : {baseline, compactInterleaved})
            for (DecoderKind decoder :
                 {DecoderKind::Mwpm, DecoderKind::UnionFind})
                w.scans.emplace_back(
                    setup, scanConfig(decoder, {13}, {3e-3},
                                      smoke ? 512 : kLargeTrials, 0, seed,
                                      threads));
    } else if (name == "service-timeslice") {
        w.quantumTrials = smoke ? 512 : kServiceQuantum;
        for (int setup : {0, 2, 4}) {
            service::ScanJob job;
            job.id = "job" + std::to_string(setup);
            job.setup = setup;
            job.distances = {5, 7};
            job.physicalPs = {3e-3, 6e-3};
            job.trials = smoke ? 2048 : kServiceTrials;
            job.seed = seed;
            job.decoder = "union-find";
            job.batchSize = kBatch;
            w.jobs.push_back(job);
        }
    } else {
        w.name.clear();
        return w;
    }

    for (const auto& [setup, cfg] : w.scans)
        appendPoints(w, setup, cfg, threads, std::nullopt);
    for (size_t op = 0; op < w.jobs.size(); ++op)
        appendPoints(w, service::jobSetup(w.jobs[op]),
                     service::jobScanConfig(w.jobs[op]), threads, op);
    w.numOps = w.jobs.empty() ? w.points.size() : w.jobs.size();
    return w;
}

EngineRun
runEngine(const Workload& w, const std::string& stateDir)
{
    if (!w.jobs.empty())
        return runService(w, stateDir);
    EngineRun run;
    run.opErrors.assign(w.numOps, "");
    const auto start = std::chrono::steady_clock::now();
    for (const auto& [setup, cfg] : w.scans) {
        const ThresholdResult result = scanThreshold(setup, cfg);
        for (const ThresholdCurve& curve : result.curves) {
            for (const LogicalErrorPoint& point : curve.points) {
                run.counts.push_back(point.basisZ);
                run.counts.push_back(point.basisX);
            }
        }
    }
    run.wallS = secondsSince(start);
    for (const BinomialEstimate& c : run.counts)
        run.trials += c.trials;
    return run;
}

double
timeSetup(const Workload& w)
{
    double total = 0.0;
    for (const PointSpec& p : w.points) {
        const auto start = std::chrono::steady_clock::now();
        GeneratedCircuit gen = generateMemoryCircuit(p.embedding, p.config);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        FaultSampler sampler(dem);
        std::unique_ptr<Decoder> decoder = makeDecoder(p.mc.decoder, dem);
        total += secondsSince(start);
    }
    return total;
}

TracedPass
runTraced(const Workload& w, const EngineRun& untraced, SpanLog& log,
          const std::string& stateDir)
{
    TracedPass pass;
    ScopedSpan passSpan(log, "pass", 0, -1);
    LoopStats loops;
    ObsDelta engineObs;
    double generateS = 0.0;
    double demS = 0.0;
    double samplerS = 0.0;
    double decoderS = 0.0;
    double engineS = 0.0;
    double overheadS = 0.0;
    double hotRssMb = 0.0;
    uint64_t ops = 0;
    uint64_t channels = 0;

    for (size_t i = 0; i < w.points.size(); ++i) {
        const PointSpec& p = w.points[i];
        const int32_t id = log.newPointId();
        ScopedSpan pointSpan(log, "point", passSpan.id(), id);

        ScopedSpan genSpan(log, "core.generate", pointSpan.id(), id);
        GeneratedCircuit gen = generateMemoryCircuit(p.embedding, p.config);
        const double gS = genSpan.close();
        ScopedSpan demSpan(log, "dem.build", pointSpan.id(), id);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        const double dS = demSpan.close();
        ScopedSpan samplerSpan(log, "dem.sampler_init", pointSpan.id(), id);
        FaultSampler sampler(dem);
        const double sS = samplerSpan.close();
        ScopedSpan decoderSpan(log, "decoder.build", pointSpan.id(), id);
        std::unique_ptr<Decoder> decoder = makeDecoder(p.mc.decoder, dem);
        const double bS = decoderSpan.close();
        ops += gen.circuit.ops().size();
        channels += dem.channels().size();

        // The engine's trial streams (mc/monte_carlo.cc): the run seed
        // xor a per-basis constant, so this loop decodes the shots the
        // engine decodes.
        const Rng root(p.mc.seed
                       ^ (p.config.memoryBasis == CheckBasis::X
                              ? 0xbadc0ffee0ddf00dULL : 0));
        ScopedSpan loopSpan(log, "mc.hot_loop", pointSpan.id(), id);
        const LoopStats loop =
            tracedLoop(dem, sampler, *decoder, root,
                       untraced.counts[i].trials, w.threads, log,
                       loopSpan.id(), id);
        loopSpan.close();
        loops.add(loop);
        hotRssMb = std::max(hotRssMb,
                            static_cast<double>(loop.hotRssBytes) / 1e6);
        pass.loopCounts.push_back({loop.failures, loop.shots});

        obs::setMetricsEnabled(true);
        const obs::MetricsSnapshot before = obs::snapshotMetrics();
        ScopedSpan engineSpan(log, "mc.engine", pointSpan.id(), id);
        pass.engineCounts.push_back(
            estimateLogicalErrorBasis(p.embedding, p.config, p.mc));
        const double eS = engineSpan.close();
        engineObs.add(before, obs::snapshotMetrics());
        obs::setMetricsEnabled(false);

        generateS += gS;
        demS += dS;
        samplerS += sS;
        decoderS += bS;
        engineS += eS;
        overheadS += eS - (gS + dS + sS + bS)
            - static_cast<double>(loop.sampleNs + loop.coldNs + loop.warmNs)
                / 1e9 / loop.workers;
    }

    // The service workload's layer counts come from the service itself:
    // its preemptions discard batches and re-run set-up on every resume.
    ObsDelta counts = engineObs;
    uint64_t preemptions = 0;
    double resumeS = 0.0;
    double metricsWall = engineS;
    if (!w.jobs.empty()) {
        obs::setMetricsEnabled(true);
        const obs::MetricsSnapshot before = obs::snapshotMetrics();
        ScopedSpan serviceSpan(log, "service.run", passSpan.id(), -1);
        pass.service = runService(w, stateDir);
        serviceSpan.close();
        counts = ObsDelta{};
        counts.add(before, obs::snapshotMetrics());
        obs::setMetricsEnabled(false);
        std::tie(preemptions, resumeS) =
            serviceTimeline(pass.service.events);
        metricsWall = pass.service.wallS;
    }
    pass.wallS = passSpan.close();

    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto& m = pass.metrics;
    m["core.generate_s"] = generateS;
    m["core.circuit_ops"] = static_cast<double>(ops);
    m["dem.build_s"] = demS;
    m["dem.channels"] = static_cast<double>(channels);
    m["dem.sampler_init_s"] = samplerS;
    m["dem.sample_ns_per_shot"] = ratio(static_cast<double>(loops.sampleNs),
                                        static_cast<double>(loops.shots));
    m["dem.nontrivial_frac"] = ratio(static_cast<double>(loops.nontrivial),
                                     static_cast<double>(loops.shots));
    m["dem.events_per_shot"] = ratio(static_cast<double>(loops.events),
                                     static_cast<double>(loops.nontrivial));
    m["decoder.build_s"] = decoderS;
    m["decoder.decode_ns_per_shot"] =
        ratio(static_cast<double>(loops.warmNs),
              static_cast<double>(loops.warmShots));
    m["decoder.cold_decode_ns_per_shot"] =
        ratio(static_cast<double>(loops.coldNs),
              static_cast<double>(loops.coldShots));
    m["decoder.uf_growth_frac"] =
        ratio(static_cast<double>(counts.ufGrowth),
              static_cast<double>(counts.ufGrowth + counts.ufExact));
    m["decoder.hot_rss_mb"] = hotRssMb;
    m["mc.point_s"] = engineS;
    m["mc.overhead_s"] = overheadS;
    m["mc.trials"] = static_cast<double>(counts.trialsCommitted);
    m["mc.discarded_frac"] =
        ratio(static_cast<double>(counts.samplerShots
                                  - std::min(counts.samplerShots,
                                             counts.trialsCommitted)),
              static_cast<double>(counts.samplerShots));
    m["mc.checkpoint_save_ms"] =
        ratio(static_cast<double>(counts.saveNs) / 1e6,
              static_cast<double>(counts.saves));
    m["service.preemptions"] = static_cast<double>(preemptions);
    m["service.resume_s"] = resumeS;
    m["obs.metrics_overhead_frac"] = ratio(metricsWall, untraced.wallS) - 1.0;
    m["traced_run.overhead_frac"] = ratio(pass.wallS, untraced.wallS) - 1.0;
    return pass;
}

int64_t
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    int64_t size = 0;
    int64_t resident = 0;
    statm >> size >> resident;
    return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

int64_t
peakRssBytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

} // namespace pipebench
