#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <vector>

#include "obs/json.h"

namespace vlq {
namespace obs {

namespace {

/** Per-thread buffers are bounded; overflow counts drops. */
constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

enum class EventKind : uint8_t { Span, Counter };

struct TraceEvent
{
    const char* name;  // string literal, stored by pointer
    uint64_t startNs;
    uint64_t value;    // Span: duration ns; Counter: sampled value
    uint32_t lane;
    EventKind kind;
};

struct TraceState
{
    std::mutex mutex;
    std::vector<std::vector<TraceEvent>> retired;
    std::vector<const std::vector<TraceEvent>*> live;
    std::atomic<uint64_t> dropped{0};
};

TraceState&
state()
{
    static TraceState* s = new TraceState();
    return *s;
}

struct ThreadBuffer
{
    std::vector<TraceEvent> events;
    bool registered = false;

    ~ThreadBuffer()
    {
        if (!registered)
            return;
        TraceState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        std::erase(s.live, &events);
        if (!events.empty())
            s.retired.push_back(std::move(events));
    }
};

thread_local ThreadBuffer tBuffer;
thread_local uint32_t tLane = 0; // 0 = main / unpinned

void
record(const char* name, uint64_t startNs, uint64_t value,
       EventKind kind)
{
    ThreadBuffer& buf = tBuffer;
    if (!buf.registered) {
        TraceState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        s.live.push_back(&buf.events);
        buf.registered = true;
    }
    if (buf.events.size() >= kMaxEventsPerThread) {
        state().dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buf.events.push_back(TraceEvent{name, startNs, value, tLane, kind});
}

void
appendEvent(std::string& out, const TraceEvent& e, bool& first)
{
    char buf[160];
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"name\":" + jsonQuote(e.name);
    if (e.kind == EventKind::Span) {
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":1,\"tid\":%u}",
                      static_cast<double>(e.startNs) / 1000.0,
                      static_cast<double>(e.value) / 1000.0, e.lane);
    } else {
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"value\":%llu}}",
                      static_cast<double>(e.startNs) / 1000.0, e.lane,
                      static_cast<unsigned long long>(e.value));
    }
    out += buf;
}

} // namespace

void
setTraceEnabled(bool on)
{
    if (on) {
        (void)state();
        (void)traceNowNs(); // pin the clock epoch before any span
        detail::gObsFlags.fetch_or(detail::kTraceBit,
                                   std::memory_order_relaxed);
    } else {
        detail::gObsFlags.fetch_and(~detail::kTraceBit,
                                    std::memory_order_relaxed);
    }
}

uint64_t
traceNowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - epoch)
            .count());
}

void
traceSpan(const char* name, uint64_t startNs, uint64_t durNs)
{
    record(name, startNs, durNs, EventKind::Span);
}

void
traceCounter(const char* name, uint64_t value)
{
    record(name, traceNowNs(), value, EventKind::Counter);
}

void
traceSetThreadLane(uint32_t lane)
{
    tLane = lane;
}

uint64_t
traceDroppedEvents()
{
    return state().dropped.load(std::memory_order_relaxed);
}

std::string
traceToJson()
{
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);

    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    std::set<uint32_t> lanes;
    for (const auto& buffer : s.retired)
        for (const TraceEvent& e : buffer) {
            lanes.insert(e.lane);
            appendEvent(out, e, first);
        }
    for (const auto* buffer : s.live)
        for (const TraceEvent& e : *buffer) {
            lanes.insert(e.lane);
            appendEvent(out, e, first);
        }

    // Lane names: metadata events label the rows in the viewer.
    for (uint32_t lane : lanes) {
        char name[32];
        if (lane == 0)
            std::snprintf(name, sizeof name, "main");
        else
            std::snprintf(name, sizeof name, "worker-%u", lane);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"thread_name\",\"ph\":\"M\","
                      "\"pid\":1,\"tid\":%u,\"args\":{\"name\":"
                      "\"%s\"}}",
                      first ? "" : ",\n", lane, name);
        first = false;
        out += buf;
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
writeTraceJson(const std::string& path, std::string* err)
{
    std::ofstream outFile(path, std::ios::trunc);
    if (!outFile.is_open()) {
        if (err)
            *err = "cannot open trace file '" + path + "'";
        return false;
    }
    outFile << traceToJson();
    outFile.flush();
    if (!outFile.good()) {
        if (err)
            *err = "failed writing trace file '" + path + "'";
        return false;
    }
    return true;
}

} // namespace obs
} // namespace vlq
