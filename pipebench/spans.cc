#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

namespace pipebench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
SpanLog::add(const Span& span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

void
SpanLog::addAll(const std::vector<Span>& spans)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

namespace {

/** Self time of every span: duration minus the union of its children. */
std::vector<uint64_t>
selfTimes(const std::vector<Span>& spans,
          const std::unordered_map<uint64_t, size_t>& index,
          std::vector<std::vector<size_t>>& children)
{
    children.assign(spans.size(), {});
    for (size_t i = 0; i < spans.size(); ++i) {
        auto it = index.find(spans[i].parent);
        if (it != index.end())
            children[it->second].push_back(i);
    }
    std::vector<uint64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::vector<std::pair<uint64_t, uint64_t>> cover;
        for (size_t c : children[i])
            cover.emplace_back(std::max(spans[c].startNs, s.startNs),
                               std::min(spans[c].endNs, s.endNs));
        std::sort(cover.begin(), cover.end());
        uint64_t covered = 0;
        uint64_t reach = s.startNs;
        for (auto [b, e] : cover) {
            b = std::max(b, reach);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

void
collectWorkerDescendants(const std::vector<Span>& spans,
                         const std::vector<std::vector<size_t>>& children,
                         size_t i, std::vector<size_t>& out)
{
    for (size_t c : children[i]) {
        if (spans[c].lane != 0)
            out.push_back(c);
        collectWorkerDescendants(spans, children, c, out);
    }
}

} // namespace

std::string
SpanLog::validate() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<uint64_t, size_t> index;
    std::map<int32_t, int> pointSpans;
    std::ostringstream problems;
    for (size_t i = 0; i < all.size(); ++i) {
        if (!index.emplace(all[i].id, i).second)
            problems << "span id " << all[i].id << " used twice\n";
        if (all[i].endNs < all[i].startNs)
            problems << all[i].name << " ends before it starts\n";
        if (std::string(all[i].name) == "point")
            ++pointSpans[all[i].point];
    }
    for (const Span& s : all) {
        if (s.parent == 0)
            continue;
        auto it = index.find(s.parent);
        if (it == index.end()) {
            problems << s.name << " has no parent span " << s.parent
                     << "\n";
            continue;
        }
        const Span& p = all[it->second];
        if (s.startNs < p.startNs || s.endNs > p.endNs)
            problems << s.name << " (point " << s.point
                     << ") is not inside its parent " << p.name << "\n";
        if (p.point != -1 && p.point != s.point)
            problems << s.name << " carries point " << s.point
                     << " under " << p.name << " of point " << p.point
                     << "\n";
        if (p.point == -1 && s.point != -1
            && std::string(s.name) != "point")
            problems << s.name << " of point " << s.point
                     << " is outside any point span\n";
    }
    for (const auto& [point, count] : pointSpans)
        if (point < 0 || count != 1)
            problems << "point id " << point << " has " << count
                     << " point spans\n";
    return problems.str();
}

std::string
SpanLog::chromeJson(const std::string& otherData) const
{
    const std::vector<Span> all = spans();
    uint64_t origin = UINT64_MAX;
    uint32_t maxLane = 0;
    for (const Span& s : all) {
        origin = std::min(origin, s.startNs);
        maxLane = std::max(maxLane, s.lane);
    }
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << otherData
       << ",\"traceEvents\":[";
    for (uint32_t lane = 0; lane <= maxLane; ++lane) {
        os << (lane ? "," : "")
           << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << lane << ",\"args\":{\"name\":\""
           << (lane ? "worker " + std::to_string(lane - 1) : "main")
           << "\"}}";
    }
    char buf[64];
    for (const Span& s : all) {
        os << ",{\"name\":\"" << s.name << "\",\"cat\":\"pipebench\","
           << "\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane;
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(s.startNs - origin) / 1e3);
        os << ",\"ts\":" << buf;
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        os << ",\"dur\":" << buf << ",\"args\":{\"span\":" << s.id
           << ",\"parent\":" << s.parent << ",\"point\":" << s.point
           << "}}";
    }
    os << "]}\n";
    return os.str();
}

void
SpanLog::printLayerTable(std::ostream& out) const
{
    const std::vector<Span> all = spans();
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < all.size(); ++i)
        index.emplace(all[i].id, i);
    std::vector<std::vector<size_t>> children;
    const std::vector<uint64_t> self = selfTimes(all, index, children);

    std::vector<double> blocking(all.size(), 0.0);
    for (size_t i = 0; i < all.size(); ++i) {
        if (all[i].lane != 0)
            continue;
        blocking[i] = static_cast<double>(self[i]);
        // A main-lane span with worker-lane children (the parallel hot
        // loop) hands its covered time to its worker-lane descendants.
        bool ownsWorkers = false;
        for (size_t c : children[i])
            ownsWorkers = ownsWorkers || all[c].lane != 0;
        if (!ownsWorkers)
            continue;
        std::vector<size_t> workers;
        collectWorkerDescendants(all, children, i, workers);
        double workerSelf = 0.0;
        for (size_t w : workers)
            workerSelf += static_cast<double>(self[w]);
        const double covered = static_cast<double>(
            all[i].endNs - all[i].startNs - self[i]);
        if (workerSelf > 0.0)
            for (size_t w : workers)
                blocking[w] = covered * static_cast<double>(self[w])
                    / workerSelf;
    }

    struct Row
    {
        uint64_t calls = 0;
        double self = 0.0;
        double blocking = 0.0;
    };
    std::map<std::string, Row> rows;
    double total = 0.0;
    for (size_t i = 0; i < all.size(); ++i) {
        Row& r = rows[all[i].name];
        ++r.calls;
        r.self += static_cast<double>(self[i]) / 1e9;
        r.blocking += blocking[i] / 1e9;
        total += blocking[i] / 1e9;
    }
    char line[160];
    std::snprintf(line, sizeof line, "  %-8s %-22s %8s %11s %11s %7s\n",
                  "layer", "span", "calls", "self_s", "blocking_s",
                  "share");
    out << line;
    for (const auto& [name, r] : rows) {
        const size_t dot = name.find('.');
        const std::string layer =
            dot == std::string::npos ? "-" : name.substr(0, dot);
        std::snprintf(line, sizeof line,
                      "  %-8s %-22s %8llu %11.4f %11.4f %6.1f%%\n",
                      layer.c_str(), name.c_str(),
                      static_cast<unsigned long long>(r.calls), r.self,
                      r.blocking,
                      total > 0.0 ? 100.0 * r.blocking / total : 0.0);
        out << line;
    }
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, uint64_t parent,
                       int32_t point)
    : log_(log)
{
    span_.name = name;
    span_.id = log.newId();
    span_.parent = parent;
    span_.point = point;
    span_.startNs = nowNs();
}

double
ScopedSpan::close()
{
    if (open_) {
        span_.endNs = nowNs();
        log_.add(span_);
        open_ = false;
    }
    return static_cast<double>(span_.endNs - span_.startNs) / 1e9;
}

} // namespace pipebench
