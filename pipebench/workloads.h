#ifndef PIPEBENCH_WORKLOADS_H
#define PIPEBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "decoder/decoder_factory.h"
#include "mc/threshold.h"
#include "service/job.h"
#include "util/stats.h"

#include "spans.h"

namespace pipebench {

/** Shots per engine batch, pinned for every workload. */
constexpr uint32_t kBatch = 256;

/** One (point, basis) estimate of a workload, in engine order. */
struct PointSpec
{
    std::string label; // key of the reference counts
    vlq::EmbeddingKind embedding = vlq::EmbeddingKind::Baseline2D;
    vlq::GeneratorConfig config;
    vlq::McOptions mc; // what the engine runs this point with
    size_t op = 0;     // the operation the point belongs to
};

/**
 * One named workload: a closed batch of engine calls with every knob
 * pinned. MC workloads are threshold scans; the service workload is a
 * set of jobs submitted at once to one JobService.
 */
struct Workload
{
    std::string name;
    unsigned threads = 1;
    std::vector<std::pair<vlq::EvaluationSetup, vlq::ThresholdScanConfig>>
        scans;
    std::vector<vlq::service::ScanJob> jobs;
    uint64_t quantumTrials = 0;
    std::vector<PointSpec> points;
    size_t numOps = 0; // (point, basis) estimates, or jobs
};

std::vector<std::string> workloadNames();

/**
 * Build a workload from its name and seed. `smoke` shrinks every trial
 * budget to a token amount (the grid is unchanged).
 */
Workload makeWorkload(const std::string& name, uint64_t seed,
                      unsigned threads, bool smoke);

/** Outcome of one engine run of a whole workload. */
struct EngineRun
{
    double wallS = 0.0;
    std::vector<vlq::BinomialEstimate> counts; // per point
    std::vector<std::string> opErrors;         // per op, empty = ok
    uint64_t trials = 0;                       // committed
    std::string events;                        // service event stream
};

/**
 * Run the workload through the engine's public entry points
 * (scanThreshold, or JobService for jobs). Service state goes to a
 * fresh `stateDir`, removed afterwards.
 */
EngineRun runEngine(const Workload& w, const std::string& stateDir);

/**
 * Seconds to build every point's circuit, detector error model,
 * sampler and decoder through the calls the engine makes, summed over
 * the workload's points.
 */
double timeSetup(const Workload& w);

/** Per-layer measurements of one traced pass. */
struct TracedPass
{
    double wallS = 0.0;
    std::map<std::string, double> metrics;
    std::vector<vlq::BinomialEstimate> loopCounts;   // benchmark's loop
    std::vector<vlq::BinomialEstimate> engineCounts; // engine, metrics on
    EngineRun service;                               // service workload
};

/**
 * Traced pass: per point, time the benchmark's own calls into each
 * layer (generate, DEM build, sampler, decoder, then a parallel
 * sample/decode loop over the trials the untraced run committed) and
 * the engine call itself with obs metrics on; for the service
 * workload, also one metrics-on JobService run. `untraced` is an
 * engine run of the same workload with tracing off.
 */
TracedPass runTraced(const Workload& w, const EngineRun& untraced,
                     SpanLog& log, const std::string& stateDir);

/** Current and peak resident set of this process, in bytes. */
int64_t currentRssBytes();
int64_t peakRssBytes();

} // namespace pipebench

#endif // PIPEBENCH_WORKLOADS_H
