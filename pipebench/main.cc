/**
 * @file
 * Pipeline benchmark: runs one named Monte-Carlo workload
 * through the engine's public entry points for a fixed wall budget,
 * checks every count, and prints its metrics. See README.md.
 *
 * Usage: pipebench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--smoke] [--work-dir <dir>]
 *                  [--source <text>]
 *        pipebench --make-reference <path>
 *
 * --trace 0 measures the end-to-end metrics with tracing off; --trace 1
 * alternates untraced engine runs with traced passes and reports the
 * per-layer metrics, writing the spans as a Chrome trace_event file
 * into --work-dir. The last line of standard output is one JSON object
 * {"correct", "attempted", "failed", "metrics"}.
 */
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mc/monte_carlo.h"
#include "obs/json.h"
#include "util/env.h"

#include "spans.h"
#include "workloads.h"

extern char** environ;

using namespace pipebench;

namespace {

/** Family-wise false-alarm rate of one run's count checks. */
constexpr double kFamilyAlpha = 1e-5;

/** Minimum set-up time measured before each engine run. */
constexpr double kMinSetupSeconds = 0.5;

/** Minimum timed engine runs of an untraced measurement. */
constexpr size_t kMinRuns = 3;

/** Seed of the committed reference counts; never a benchmark seed. */
constexpr uint64_t kReferenceSeed = 0x726566657265ULL;

struct MetricSpec
{
    const char* name;
    const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"shots_per_s", "1/s"},
    {"time_to_precision_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"core.generate_s", "s"},
    {"core.circuit_ops", "count"},
    {"dem.build_s", "s"},
    {"dem.channels", "count"},
    {"dem.sampler_init_s", "s"},
    {"dem.sample_ns_per_shot", "ns"},
    {"dem.nontrivial_frac", "fraction"},
    {"dem.events_per_shot", "count"},
    {"decoder.build_s", "s"},
    {"decoder.decode_ns_per_shot", "ns"},
    {"decoder.cold_decode_ns_per_shot", "ns"},
    {"decoder.uf_growth_frac", "fraction"},
    {"decoder.hot_rss_mb", "MB"},
    {"mc.point_s", "s"},
    {"mc.overhead_s", "s"},
    {"mc.trials", "count"},
    {"mc.discarded_frac", "fraction"},
    {"mc.checkpoint_save_ms", "ms"},
    {"service.preemptions", "count"},
    {"service.resume_s", "s"},
    {"obs.metrics_overhead_frac", "fraction"},
    {"traced_run.overhead_frac", "fraction"},
};

int
usage(const std::string& problem)
{
    std::cerr << "pipebench: " << problem << "\n"
              << "usage: pipebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke]\n"
                 "                 [--work-dir <dir>] [--source <text>]\n"
                 "       pipebench --make-reference <path>\n"
                 "workloads:";
    for (const std::string& name : workloadNames())
        std::cerr << ' ' << name;
    std::cerr << "\n";
    return 2;
}

/**
 * Clear every VLQ_* variable (decoder, embedding, compute backend,
 * batch, seed, early stop, metrics, trace, checkpoint knobs): the
 * workloads pin all of them in code.
 */
void
clearEngineEnvironment()
{
    std::vector<std::string> names;
    for (char** e = environ; *e; ++e) {
        std::string_view entry(*e);
        if (entry.starts_with("VLQ_"))
            names.emplace_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& name : names) {
        std::cerr << "pipebench: ignoring " << name << "\n";
        unsetenv(name.c_str());
    }
}

/** Why this build must not be timed, or "" when it is optimized. */
std::string
unoptimizedReason()
{
    const std::string flags = PIPEBENCH_CXX_FLAGS;
#ifndef NDEBUG
    return "assertions are on (NDEBUG is not defined)";
#endif
#ifndef __OPTIMIZE__
    return "it is not optimized (-O0)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "it is built with a sanitizer";
#endif
    if (flags.find("-fsanitize") != std::string::npos)
        return "it is built with a sanitizer";
    if (flags.find("-O0") != std::string::npos)
        return "it is built with -O0";
    return "";
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.starts_with("model name")) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
provenanceJson(const std::string& source, unsigned threads)
{
    using vlq::obs::jsonQuote;
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream os;
    os << "{\"source\":" << jsonQuote(source)
       << ",\"cpu\":" << jsonQuote(cpuModel())
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"threads\":" << threads
       << ",\"compiler\":" << jsonQuote(compiler)
       << ",\"build_type\":" << jsonQuote(PIPEBENCH_BUILD_TYPE)
       << ",\"flags\":" << jsonQuote(PIPEBENCH_CXX_FLAGS) << "}";
    return os.str();
}

std::string
number(double value)
{
    char buf[64];
    auto result = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, result.ptr);
}

/** z with P(Z > z) = tail for a standard normal Z. */
double
upperNormalQuantile(double tail)
{
    double lo = 0.0;
    double hi = 40.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        (0.5 * std::erfc(mid / std::sqrt(2.0)) > tail ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

double
logChoose(uint64_t n, uint64_t k)
{
    return std::lgamma(static_cast<double>(n) + 1.0)
        - std::lgamma(static_cast<double>(k) + 1.0)
        - std::lgamma(static_cast<double>(n - k) + 1.0);
}

/**
 * Two-sided p-value of Fisher's exact test on the failures and
 * successes of two runs: twice the hypergeometric tail beyond the
 * observed failure count, on the side away from the mode, capped at 1.
 * Exact at any count; the two-proportion z-test's normal approximation
 * raises false alarms on points that expect under one failure per run
 * (the large-d MWPM points expect 0.2).
 */
double
fisherExactP(const vlq::BinomialEstimate& a, const vlq::BinomialEstimate& b)
{
    if (a.trials == 0 || b.trials == 0)
        return 1.0;
    const uint64_t n = a.trials + b.trials;
    const uint64_t k = a.successes + b.successes;
    const uint64_t lo = k > b.trials ? k - b.trials : 0;
    const uint64_t hi = std::min(k, a.trials);
    const double logDenominator = logChoose(n, a.trials);
    const auto mode = static_cast<uint64_t>(
        (static_cast<double>(a.trials) + 1.0) * (static_cast<double>(k) + 1.0)
        / (static_cast<double>(n) + 2.0));
    const bool upper = a.successes >= mode;
    double tail = 0.0;
    for (uint64_t x = a.successes;; upper ? ++x : --x) {
        const double term = std::exp(logChoose(k, x)
                                     + logChoose(n - k, a.trials - x)
                                     - logDenominator);
        tail += term;
        if (x == (upper ? hi : lo) || term < tail * 1e-17)
            break;
    }
    return std::min(1.0, 2.0 * tail);
}

std::string
countText(const vlq::BinomialEstimate& e)
{
    return std::to_string(e.successes) + "/" + std::to_string(e.trials);
}

using Reference = std::map<std::string, vlq::BinomialEstimate>;

bool
loadReference(const std::string& path, Reference& out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label;
        std::string trials;
        std::string failures;
        if (!std::getline(fields, label, '\t')
            || !std::getline(fields, trials, '\t')
            || !std::getline(fields, failures, '\t'))
            return false;
        out[label] = {std::stoull(failures), std::stoull(trials)};
    }
    return true;
}

/**
 * Count checks of one workload run. Every operation of every engine
 * run is attempted once; it fails if it errors, if its counts differ
 * from another run of the same inputs (same seed, same build: counts
 * must repeat exactly), or if a point disagrees with the committed
 * reference counts under Fisher's exact test at the family-wise rate
 * kFamilyAlpha split across the workload's points. (Points are not
 * combined into one test: the points of one run share trial streams,
 * so their deviations are correlated.)
 */
class CountCheck
{
  public:
    CountCheck(const Workload& w, const Reference& reference)
        : w_(w), reference_(reference),
          pCrit_(kFamilyAlpha / static_cast<double>(w.points.size())),
          zCrit_(upperNormalQuantile(pCrit_ / 2.0))
    {
    }

    double pCrit() const { return pCrit_; }

    /**
     * Account one untraced engine run; `sameInputs`, when given, is an
     * earlier run of the same inputs that it must reproduce exactly.
     */
    void engineRun(const EngineRun& run, const EngineRun* sameInputs)
    {
        std::vector<std::string> errors = run.opErrors;
        for (size_t i = 0; i < w_.points.size(); ++i) {
            referenceTest(i, run.counts[i], errors);
            if (sameInputs)
                expectEqual(i, run.counts[i], sameInputs->counts[i],
                            "repeat of the same seed", errors);
        }
        account(errors);
    }

    /** Account one traced pass against the untraced run before it. */
    void tracedPass(const TracedPass& pass, const EngineRun& untraced)
    {
        std::vector<std::string> errors(w_.numOps);
        for (size_t i = 0; i < w_.points.size(); ++i) {
            // A repeat of the same inputs, with obs metrics on.
            expectEqual(i, pass.engineCounts[i], untraced.counts[i],
                        "metrics-on engine call", errors);
            const auto [lo, hi] = untraced.counts[i].wilson(zCrit_);
            const double rate = pass.loopCounts[i].rate();
            if (untraced.counts[i].trials > 0
                && (rate < lo - 1e-12 || rate > hi + 1e-12))
                fail(i, "traced loop " + countText(pass.loopCounts[i])
                            + " outside the engine's Wilson interval",
                     errors);
        }
        if (!w_.jobs.empty()) {
            for (size_t op = 0; op < w_.numOps; ++op)
                if (!pass.service.opErrors[op].empty())
                    errors[op] = pass.service.opErrors[op];
            // Preempted service jobs reproduce solo engine runs.
            for (size_t i = 0; i < w_.points.size(); ++i)
                expectEqual(i, pass.service.counts[i], pass.engineCounts[i],
                            "service job vs solo run", errors);
        }
        account(errors);
    }

    void addProblem(const std::string& problem)
    {
        problems_.push_back(problem);
        structural_ = true;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && !structural_; }
    const std::vector<std::string>& problems() const { return problems_; }

  private:
    void fail(size_t point, const std::string& what,
              std::vector<std::string>& errors)
    {
        std::string& slot = errors[w_.points[point].op];
        if (slot.empty())
            slot = w_.points[point].label + ": " + what;
    }

    void expectEqual(size_t point, const vlq::BinomialEstimate& got,
                     const vlq::BinomialEstimate& want, const char* what,
                     std::vector<std::string>& errors)
    {
        if (got.successes != want.successes || got.trials != want.trials)
            fail(point, std::string(what) + " counted " + countText(got)
                            + " instead of " + countText(want),
                 errors);
    }

    void referenceTest(size_t i, const vlq::BinomialEstimate& got,
                       std::vector<std::string>& errors)
    {
        auto it = reference_.find(w_.points[i].label);
        if (it == reference_.end()) {
            fail(i, "no reference counts", errors);
            return;
        }
        const double p = fisherExactP(got, it->second);
        if (p < pCrit_)
            fail(i, countText(got) + " vs reference "
                        + countText(it->second) + ", p = " + number(p),
                 errors);
    }

    void account(const std::vector<std::string>& errors)
    {
        for (const std::string& e : errors) {
            ++attempted_;
            if (!e.empty()) {
                ++failed_;
                problems_.push_back(e);
            }
        }
    }

    const Workload& w_;
    const Reference& reference_;
    const double pCrit_;
    const double zCrit_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool structural_ = false;
    std::vector<std::string> problems_;
};

void
printMetrics(const std::vector<MetricSpec>& specs,
             const std::map<std::string, double>& values)
{
    for (const MetricSpec& m : specs) {
        char line[128];
        std::snprintf(line, sizeof line, "  %-32s %16.6g %s\n", m.name,
                      values.at(m.name), m.unit);
        std::cout << line;
    }
}

std::string
resultJson(const CountCheck& check, const std::vector<MetricSpec>& specs,
           const std::map<std::string, double>& values)
{
    std::ostringstream os;
    os << "{\"correct\": " << (check.correct() ? "true" : "false")
       << ", \"attempted\": " << check.attempted()
       << ", \"failed\": " << check.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < specs.size(); ++i) {
        const double v = values.at(specs[i].name);
        os << (i ? ", " : "") << '"' << specs[i].name
           << "\": {\"value\": " << (std::isfinite(v) ? number(v) : "null")
           << ", \"unit\": \"" << specs[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

void
reportCheck(const CountCheck& check, const Workload& w)
{
    std::cout << "count check: " << check.attempted() << " operations, "
              << check.failed() << " failed (repeats of one seed "
              << "identical, reference test p >= " << number(check.pCrit())
              << " at each of " << w.points.size() << " points)\n";
    for (const std::string& p : check.problems())
        std::cout << "  FAIL " << p << "\n";
}

/**
 * The inputs of one process: run r of it gets its own engine seed, so
 * a run's medians average over several Monte-Carlo realizations (a
 * point's trials to 100 failures alone vary by 10% with the seed).
 * Seeds are hashed over all 64 bits: the engine derives trial streams
 * from seed ^ (constant + trial), so two seeds that differ only in low
 * bits share most of their trial streams.
 */
struct Inputs
{
    std::string workload;
    uint64_t seed = 0;
    unsigned threads = 1;
    bool smoke = false;

    Workload run(int r) const
    {
        uint64_t z = seed * 1000 + static_cast<uint64_t>(r)
            + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return makeWorkload(workload, z ^ (z >> 31), threads, smoke);
    }
};

int
measureEndToEnd(const Inputs& inputs, const Reference& reference,
                double seconds, const std::string& stateDir)
{
    const Workload first = inputs.run(0);
    CountCheck check(first, reference);
    // Untimed warm-up on run 0's inputs: a process's first engine run
    // pays heap growth and page faults and runs up to a third slower.
    // Run 0 must then reproduce its counts exactly.
    const EngineRun warmup = runEngine(first, stateDir);
    check.engineRun(warmup, nullptr);

    std::vector<double> setup;
    std::vector<double> walls;
    std::vector<double> rates;
    const auto start = std::chrono::steady_clock::now();
    do {
        const Workload w = inputs.run(static_cast<int>(walls.size()));
        // Short set-ups repeat until they fill kMinSetupSeconds, so the
        // set-up median rests on enough samples.
        const auto setupStart = std::chrono::steady_clock::now();
        do {
            setup.push_back(timeSetup(w));
        } while (secondsSince(setupStart) < kMinSetupSeconds);
        const EngineRun run = runEngine(w, stateDir);
        check.engineRun(run, walls.empty() ? &warmup : nullptr);
        walls.push_back(run.wallS);
        rates.push_back(static_cast<double>(run.trials) / run.wallS);
        std::cout << "run " << walls.size() << ": setup "
                  << number(setup.back()) << " s, engine "
                  << number(run.wallS) << " s, " << run.trials
                  << " trials\n";
    } while (secondsSince(start) < seconds || walls.size() < kMinRuns);
    reportCheck(check, first);

    std::map<std::string, double> metrics = {
        {"shots_per_s", vlq::median(rates)},
        {"time_to_precision_s", vlq::median(walls)},
        {"setup_s", vlq::median(setup)},
        {"peak_rss_mb", static_cast<double>(peakRssBytes()) / 1e6},
    };
    std::cout << "end-to-end metrics (medians of " << walls.size()
              << " runs):\n";
    printMetrics(kEndToEnd, metrics);
    std::cout << resultJson(check, kEndToEnd, metrics) << std::endl;
    return 0;
}

int
measurePerLayer(const Inputs& inputs, const Reference& reference,
                double seconds, const std::string& stateDir,
                const std::string& tracePath, const std::string& provenance)
{
    const Workload first = inputs.run(0);
    CountCheck check(first, reference);
    if (!inputs.smoke) {
        Inputs warm = inputs;
        warm.smoke = true;
        runEngine(warm.run(0), stateDir); // untimed warm-up
    }
    SpanLog log;
    std::map<std::string, std::vector<double>> samples;
    const auto start = std::chrono::steady_clock::now();
    int passes = 0;
    do {
        const Workload w = inputs.run(passes);
        const EngineRun untraced = runEngine(w, stateDir);
        check.engineRun(untraced, nullptr);
        const TracedPass pass = runTraced(w, untraced, log, stateDir);
        check.tracedPass(pass, untraced);
        for (const auto& [name, value] : pass.metrics)
            samples[name].push_back(value);
        ++passes;
        std::cout << "pass " << passes << ": untraced "
                  << number(untraced.wallS) << " s, traced "
                  << number(pass.wallS) << " s\n";
    } while (secondsSince(start) < seconds);

    const std::string spanProblems = log.validate();
    if (!spanProblems.empty())
        check.addProblem("trace spans do not nest:\n" + spanProblems);
    reportCheck(check, first);

    std::cout << "layer self time, all traced passes (" << first.name
              << "):\n";
    log.printLayerTable(std::cout);
    std::map<std::string, double> metrics;
    for (const auto& [name, values] : samples)
        metrics[name] = vlq::median(values);
    std::cout << "per-layer metrics (medians of " << passes
              << " traced passes):\n";
    printMetrics(kPerLayer, metrics);

    std::ofstream trace(tracePath);
    trace << log.chromeJson(provenance);
    if (!trace) {
        std::cerr << "pipebench: cannot write " << tracePath << "\n";
        return 1;
    }
    std::cout << "trace: " << tracePath << " (Chrome trace_event JSON)\n";
    std::cout << resultJson(check, kPerLayer, metrics) << std::endl;
    return 0;
}

/**
 * Regenerate the reference counts: every point of every workload at
 * the reference seed, with 10x the failures (early-stopped points) or
 * 25x the trials of a benchmark run.
 */
int
makeReference(const std::string& path, unsigned threads)
{
    Reference reference;
    for (const std::string& name : workloadNames()) {
        const Workload w = makeWorkload(name, kReferenceSeed, threads, false);
        for (const PointSpec& p : w.points) {
            vlq::McOptions mc = p.mc;
            if (mc.targetFailures > 0)
                mc.targetFailures *= 10;
            else
                mc.trials *= 25;
            auto it = reference.find(p.label);
            if (it != reference.end() && it->second.trials >= mc.trials)
                continue;
            reference[p.label] =
                vlq::estimateLogicalErrorBasis(p.embedding, p.config, mc);
            std::cout << name << "  " << p.label << "  "
                      << countText(reference[p.label]) << std::endl;
        }
    }
    std::ofstream out(path);
    out << "# pipebench reference counts: label, trials, failures\n";
    for (const auto& [label, est] : reference)
        out << label << '\t' << est.trials << '\t' << est.successes << '\n';
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    clearEngineEnvironment();

    std::string workload;
    std::string seedText;
    std::string secondsText;
    std::string traceText;
    std::string workDir = ".";
    std::string source = "unknown";
    std::string referenceOut;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--smoke") {
            smoke = true;
            continue;
        }
        std::string* slot = arg == "--workload"        ? &workload
                           : arg == "--seed"           ? &seedText
                           : arg == "--seconds"        ? &secondsText
                           : arg == "--trace"          ? &traceText
                           : arg == "--work-dir"       ? &workDir
                           : arg == "--source"         ? &source
                           : arg == "--make-reference" ? &referenceOut
                                                       : nullptr;
        if (!slot)
            return usage("unknown argument '" + std::string(arg) + "'");
        if (i + 1 >= argc)
            return usage(std::string(arg) + " needs a value");
        *slot = argv[++i];
    }

    const std::string whyNot = unoptimizedReason();
    if (!whyNot.empty()) {
        std::cerr << "pipebench: refusing to time this build: " << whyNot
                  << "\n";
        return 3;
    }
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    if (!referenceOut.empty())
        return makeReference(referenceOut, threads);

    const auto seed = vlq::parseInt64(seedText);
    const auto seconds = vlq::parseInt64(secondsText);
    if (!seed || *seed < 0)
        return usage("--seed needs a non-negative integer");
    if (!seconds || *seconds < 0)
        return usage("--seconds needs a non-negative integer");
    if (traceText != "0" && traceText != "1")
        return usage("--trace needs 0 or 1");
    const Inputs inputs{workload, static_cast<uint64_t>(*seed), threads,
                        smoke};
    if (inputs.run(0).name.empty())
        return usage("unknown workload '" + workload + "'");

    Reference reference;
    if (!loadReference(PIPEBENCH_REFERENCE, reference)) {
        std::cerr << "pipebench: cannot read reference counts "
                  << PIPEBENCH_REFERENCE << "\n";
        return 1;
    }
    std::filesystem::create_directories(workDir);
    const std::string stateDir = workDir + "/state-" + workload;
    const std::string provenance = provenanceJson(source, threads);
    std::cout << "pipebench: workload " << workload << ", seed " << *seed
              << ", " << *seconds << " s, trace " << traceText
              << (smoke ? ", smoke budget" : "") << "\n"
              << "provenance: " << provenance << "\n";

    if (traceText == "0")
        return measureEndToEnd(inputs, reference,
                               static_cast<double>(*seconds), stateDir);
    return measurePerLayer(inputs, reference, static_cast<double>(*seconds),
                           stateDir, workDir + "/trace-" + workload + ".json",
                           provenance);
}
