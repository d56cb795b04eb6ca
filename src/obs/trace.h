#ifndef VLQ_OBS_TRACE_H
#define VLQ_OBS_TRACE_H

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace vlq {
namespace obs {

/**
 * Span/event tracing exported as a Chrome `trace_event` JSON timeline
 * (load the file at chrome://tracing or https://ui.perfetto.dev).
 *
 * Events buffer into lock-free thread-local vectors; each pipeline
 * thread renders as one timeline lane ("tid"): lane 0 is the main
 * thread, and ThreadPool assigns worker w lane w+1, so the pool
 * threads of successive points share stable lanes and the
 * sample/gather/decode/commit spans of one batch read as one row.
 * Event names must be string literals (they are stored by pointer).
 *
 * Buffers are bounded (drops are counted, never blocking); exited
 * threads move their buffers into a retired list so the exporter sees
 * every pool worker's spans after joins.
 */

/** Whether span recording is on (one relaxed load; hot-path guard). */
inline bool traceEnabled()
{
    return (detail::obsFlags() & detail::kTraceBit) != 0;
}

void setTraceEnabled(bool on);

/** Nanoseconds on the steady trace clock (shared by StageTimer). */
uint64_t traceNowNs();

/**
 * Record one complete ("ph":"X") span on the calling thread's lane.
 * `name` must outlive the trace (use string literals).
 */
void traceSpan(const char* name, uint64_t startNs, uint64_t durNs);

/**
 * Record one counter ("ph":"C") sample: a stepped value-over-time
 * track in the viewer (e.g. cumulative UF fast-path hits).
 */
void traceCounter(const char* name, uint64_t value);

/**
 * Pin the calling thread to timeline lane `lane` (0 = main). Called by
 * ThreadPool for its workers; lanes persist for the thread's lifetime.
 */
void traceSetThreadLane(uint32_t lane);

/** Events discarded because a per-thread buffer filled up. */
uint64_t traceDroppedEvents();

/**
 * Drain-free JSON export of everything recorded so far (retired and
 * live buffers). Call with worker threads joined for a complete view.
 */
std::string traceToJson();

/**
 * Write traceToJson() to `path`.
 * @return true on success; false with *err filled otherwise.
 */
bool writeTraceJson(const std::string& path, std::string* err);

} // namespace obs
} // namespace vlq

#endif // VLQ_OBS_TRACE_H
