#include "obs/report.h"

#include <chrono>
#include <fstream>
#include <mutex>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace vlq {
namespace obs {

namespace {

struct ReportState
{
    std::mutex mutex;
    std::vector<PointReport> points;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

ReportState&
state()
{
    static ReportState* s = new ReportState();
    return *s;
}

double
processCpuSeconds()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    auto toSec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec)
            + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return toSec(usage.ru_utime) + toSec(usage.ru_stime);
#else
    return 0.0;
#endif
}

} // namespace

uint64_t
threadMinorFaults()
{
#if defined(__unix__) || defined(__APPLE__)
#ifdef RUSAGE_THREAD
    const int who = RUSAGE_THREAD;
#else
    const int who = RUSAGE_SELF;
#endif
    struct rusage usage;
    if (getrusage(who, &usage) != 0)
        return 0;
    return static_cast<uint64_t>(usage.ru_minflt);
#else
    return 0;
#endif
}

namespace {

void
appendHistogram(std::string& out, const HistogramSnapshot& h)
{
    out += "{\"unit\":\"ns\",\"count\":" + std::to_string(h.count)
        + ",\"sum\":" + std::to_string(h.sum)
        + ",\"mean\":" + jsonNumber(h.mean())
        + ",\"min\":" + std::to_string(h.min)
        + ",\"max\":" + std::to_string(h.max)
        + ",\"p50\":" + jsonNumber(h.quantile(0.50))
        + ",\"p90\":" + jsonNumber(h.quantile(0.90))
        + ",\"p99\":" + jsonNumber(h.quantile(0.99)) + "}";
}

} // namespace

void
reportPoint(const PointReport& point)
{
    if (!metricsEnabled())
        return;
    ReportState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.points.push_back(point);
}

std::vector<PointReport>
reportedPoints()
{
    ReportState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.points;
}

std::string
buildReportJson()
{
    ReportState& rs = state();
    MetricsSnapshot snap = snapshotMetrics();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - rs.start)
                      .count();
    double cpu = processCpuSeconds();

    std::string out = "{\n\"schema\":\"vlq-metrics-report/1\",\n";

    // Run-level wall/CPU split.
    out += "\"run\":{\"wall_seconds\":" + jsonNumber(wall)
        + ",\"cpu_seconds\":" + jsonNumber(cpu) + ",\"utilization\":"
        + jsonNumber(wall > 0.0 ? cpu / wall : 0.0)
        + ",\"hardware_threads\":"
        + std::to_string(std::thread::hardware_concurrency())
        + ",\"trace_dropped_events\":"
        + std::to_string(traceDroppedEvents()) + "},\n";

    // Per-point throughput.
    out += "\"points\":[";
    {
        std::lock_guard<std::mutex> lock(rs.mutex);
        bool first = true;
        for (const PointReport& p : rs.points) {
            if (!first)
                out += ",";
            first = false;
            out += "\n{\"embedding\":" + jsonQuote(p.embedding)
                + ",\"distance\":" + std::to_string(p.distance)
                + ",\"p\":" + jsonNumber(p.physicalP) + ",\"basis\":\""
                + p.basis + "\",\"trials\":" + std::to_string(p.trials)
                + ",\"failures\":" + std::to_string(p.failures)
                + ",\"session_trials\":"
                + std::to_string(p.sessionTrials) + ",\"wall_seconds\":"
                + jsonNumber(p.wallSeconds) + ",\"shots_per_sec\":"
                + jsonNumber(p.shotsPerSec) + ",\"setup_seconds\":"
                + jsonNumber(p.setupSeconds) + ",\"setup_minor_faults\":"
                + std::to_string(p.setupMinorFaults) + "}";
        }
    }
    out += "\n],\n";

    out += "\"counters\":{";
    {
        bool first = true;
        for (const auto& [name, value] : snap.counters) {
            out += std::string(first ? "\n" : ",\n") + jsonQuote(name)
                + ":" + std::to_string(value);
            first = false;
        }
    }
    out += "\n},\n";

    out += "\"gauges\":{";
    {
        bool first = true;
        for (const auto& [name, value] : snap.gauges) {
            out += std::string(first ? "\n" : ",\n") + jsonQuote(name)
                + ":" + std::to_string(value);
            first = false;
        }
    }
    out += "\n},\n";

    out += "\"histograms\":{";
    {
        bool first = true;
        for (const auto& [name, h] : snap.histograms) {
            out += std::string(first ? "\n" : ",\n") + jsonQuote(name)
                + ":";
            appendHistogram(out, h);
            first = false;
        }
    }
    out += "\n},\n";

    // Derived headline numbers, precomputed so a CI log (or a human)
    // does not have to re-derive them from raw counters.
    out += "\"derived\":{";
    {
        bool first = true;
        uint64_t exact = snap.counter("uf.decode.exact_fastpath");
        uint64_t growth = snap.counter("uf.decode.growth");
        if (exact + growth > 0) {
            out += "\n\"uf_fastpath_hit_rate\":"
                + jsonNumber(static_cast<double>(exact)
                             / static_cast<double>(exact + growth));
            first = false;
        }
        uint64_t mwpmExact = snap.counter("mwpm.decode.exact");
        uint64_t mwpmBlossom = snap.counter("mwpm.decode.blossom");
        if (mwpmExact + mwpmBlossom > 0) {
            out += std::string(first ? "\n" : ",\n")
                + "\"mwpm_exact_hit_rate\":"
                + jsonNumber(static_cast<double>(mwpmExact)
                             / static_cast<double>(mwpmExact
                                                   + mwpmBlossom));
            first = false;
        }
        uint64_t shots = snap.counter("sampler.shots");
        if (shots > 0 && wall > 0.0) {
            out += std::string(first ? "\n" : ",\n")
                + "\"total_shots_per_sec\":"
                + jsonNumber(static_cast<double>(shots) / wall);
            first = false;
        }
        uint64_t decoded = snap.counter("decode.shots");
        if (decoded > 0) {
            out += std::string(first ? "\n" : ",\n")
                + "\"trivial_shot_fraction\":"
                + jsonNumber(
                    static_cast<double>(
                        snap.counter("decode.trivial_shots"))
                    / static_cast<double>(decoded));
            first = false;
        }
        (void)first;
    }
    out += "\n}\n}\n";
    return out;
}

bool
writeReportJson(const std::string& path, std::string* err)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
        if (err)
            *err = "cannot open metrics report file '" + path + "'";
        return false;
    }
    out << buildReportJson();
    out.flush();
    if (!out.good()) {
        if (err)
            *err = "failed writing metrics report file '" + path + "'";
        return false;
    }
    return true;
}

} // namespace obs
} // namespace vlq
