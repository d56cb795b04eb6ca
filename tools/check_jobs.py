#!/usr/bin/env python3
"""Validator for vlq-scan-job/1 event streams (scan_server --events).

Checks the guarantees docs/job-protocol.md declares normative, not the
values: every line is valid UTF-8 and one JSON object carrying the
schema tag, seq is strictly increasing and t non-decreasing within a
session, each job's
events follow the lifecycle state machine (queued -> requeued* ->
started/resumed -> progress*/point_done* -> preempted/resumed cycles
-> done|error|cancelled),
a `cancelled` event is terminal and only legal from a live state,
and the job-level trials_done counter is monotone -- including ACROSS
sessions, which is how CI turns "SIGKILL the server, rerun, resume"
into a checkable property. Pass the per-session event files in the
order the sessions ran; cross-file checks also pin the replay rules
(a point finished in an earlier session must replay as cached:true
with identical counts).

Usage:
    check_jobs.py events1.jsonl [events2.jsonl ...]
        [--require-done ID]...  [--require-jobs N]
        [--require-preemption] [--require-cached-replay]

Exit status: 0 when every stream validates, 1 otherwise with one line
per problem.
"""

import argparse
import json
import sys

SCHEMA = "vlq-scan-job/1"
EVENTS = {"queued", "started", "resumed", "progress", "point_done",
          "preempted", "requeued", "cancelled", "done", "error"}
TERMINAL = {"done", "error", "cancelled"}
# Legal (previous state -> event) transitions within one session.
# State None = job unseen this session.
RUNNING_EVENTS = {"progress", "point_done", "preempted", "done"}
# States in which the job is waiting in the queue: a `requeue` request
# may rotate it (non-terminal 'requeued'), and work may begin from it.
# 'preempted' counts because a preempted job is silently pushed back
# (no second 'queued' line).
WAITING = {"queued", "requeued", "preempted"}
# 'cancelled' is terminal from any live state: queued (removed before
# running), any running state (preempted at a batch boundary), or
# preempted/requeued (cancelled while waiting in the queue).
CANCELLABLE = {"queued", "started", "resumed", "progress",
               "point_done", "preempted", "requeued"}


class Checker:
    def __init__(self):
        self.problems = []

    def fail(self, msg):
        self.problems.append(msg)

    def check(self, cond, msg):
        if not cond:
            self.fail(msg)
        return cond


class JobHistory:
    """Cross-session memory of one job id."""

    def __init__(self):
        self.trials_done = 0          # high-water mark
        self.point_counts = {}        # point index -> (trials, failures)
        self.done_points = set()      # finished in an earlier session
        self.last_event = None        # final event overall


def check_line(ck, ctx, obj):
    """Envelope fields every event must carry."""
    ok = True
    for key, types in (("schema", str), ("seq", int), ("t", (int, float)),
                       ("event", str), ("job", str)):
        if not ck.check(key in obj, f"{ctx}: missing key '{key}'"):
            ok = False
            continue
        if not ck.check(isinstance(obj[key], types)
                        and not isinstance(obj[key], bool),
                        f"{ctx}.{key}: wrong type "
                        f"{type(obj[key]).__name__}"):
            ok = False
    if ok:
        ck.check(obj["schema"] == SCHEMA,
                 f"{ctx}.schema: expected {SCHEMA!r}, got "
                 f"{obj['schema']!r}")
        ck.check(obj["event"] in EVENTS,
                 f"{ctx}.event: unknown event {obj['event']!r}")
        ck.check(obj["t"] >= 0, f"{ctx}.t: negative timestamp")
    return ok


def job_trials_done(obj):
    """The job-level cumulative counter, where the event carries one."""
    if obj["event"] in ("progress", "preempted"):
        return obj.get("trials_done")
    if obj["event"] == "done":
        return obj.get("trials")
    return None


def check_transition(ck, ctx, state, event):
    """One step of the per-session lifecycle machine."""
    job_states = state  # session-local: job id -> last event
    if event == "queued":
        ck.check(job_states.get(ctx.job) is None,
                 f"{ctx}: 'queued' after {job_states.get(ctx.job)!r}")
    elif event == "started":
        # Requeue after preemption emits no second 'queued', so a
        # preempted job comes back with 'resumed', never 'started'.
        ck.check(job_states.get(ctx.job) in ("queued", "requeued"),
                 f"{ctx}: 'started' after "
                 f"{job_states.get(ctx.job)!r} (expected after "
                 f"'queued' or 'requeued')")
    elif event == "resumed":
        ck.check(job_states.get(ctx.job) in WAITING,
                 f"{ctx}: 'resumed' after "
                 f"{job_states.get(ctx.job)!r} (expected after "
                 f"'queued', 'requeued' or 'preempted')")
    elif event == "requeued":
        ck.check(job_states.get(ctx.job) in WAITING,
                 f"{ctx}: 'requeued' while job is "
                 f"{job_states.get(ctx.job)!r}, not waiting in the "
                 f"queue")
    elif event in RUNNING_EVENTS:
        ck.check(job_states.get(ctx.job) in
                 ("started", "resumed", "progress", "point_done"),
                 f"{ctx}: {event!r} while job is "
                 f"{job_states.get(ctx.job)!r}, not running")
    elif event == "cancelled":
        ck.check(job_states.get(ctx.job) in CANCELLABLE,
                 f"{ctx}: 'cancelled' while job is "
                 f"{job_states.get(ctx.job)!r}, not live")
    elif event == "error":
        # Terminal at any time: rejected submissions error before
        # 'queued', checkpoint mismatches error after it.
        ck.check(job_states.get(ctx.job) not in TERMINAL,
                 f"{ctx}: 'error' after a terminal event")
    if job_states.get(ctx.job) in TERMINAL:
        ck.check(event in (),  # any event after terminal is a problem
                 f"{ctx}: {event!r} after terminal "
                 f"{job_states.get(ctx.job)!r}")
    job_states[ctx.job] = event


class Ctx:
    """Problem-message context: file, line number, job id."""

    def __init__(self, path, lineno, job):
        self.path = path
        self.lineno = lineno
        self.job = job

    def __str__(self):
        who = f" job '{self.job}'" if self.job else ""
        return f"{self.path}:{self.lineno}{who}"

    def __getattr__(self, name):
        raise AttributeError(name)


def read_lines(path):
    """The file's lines as bytes, and whether its last line is complete."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.splitlines(), data.endswith(b"\n")


def check_file(ck, path, history, session_index):
    try:
        lines, terminated = read_lines(path)
    except OSError as exc:
        ck.fail(f"{path}: {exc}")
        return

    prev_seq = 0
    prev_t = 0.0
    session_state = {}        # job -> last event this session
    session_started = set()   # jobs that emitted started/resumed
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Event lines are UTF-8; only a kill-clipped final line (no
            # newline) may end mid-sequence.
            ck.check(lineno == len(lines) and not terminated,
                     f"{path}:{lineno}: not valid UTF-8 ({exc})")
            continue
        if not line.strip():
            # Only the final line may be clipped by a kill; an interior
            # blank line means the stream was corrupted.
            ck.check(lineno == len(lines),
                     f"{path}:{lineno}: interior blank line")
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            # A SIGKILL may clip the last line mid-write; that is part
            # of the contract ("at most the final line"), not an error.
            ck.check(lineno == len(lines),
                     f"{path}:{lineno}: malformed JSON ({exc})")
            continue
        ctx = Ctx(path, lineno, obj.get("job", ""))
        if not check_line(ck, ctx, obj):
            continue
        ck.check(obj["seq"] > prev_seq,
                 f"{ctx}: seq {obj['seq']} not > previous {prev_seq}")
        ck.check(obj["t"] >= prev_t,
                 f"{ctx}: t {obj['t']} went backwards from {prev_t}")
        prev_seq = max(prev_seq, obj["seq"])
        prev_t = max(prev_t, obj["t"])

        event = obj["event"]
        job = obj["job"]
        if not job:
            # Unparseable submission: only a bad_request error may
            # have an empty job id.
            ck.check(event == "error",
                     f"{ctx}: event {event!r} with empty job id")
            continue
        check_transition(ck, ctx, session_state, event)
        hist = history.setdefault(job, JobHistory())
        hist.last_event = event
        if event in ("started", "resumed"):
            # A restart or preemption must resume, never restart.
            if session_index > 0 and hist.done_points \
                    and job not in session_started:
                ck.check(event == "resumed",
                         f"{ctx}: job with prior checkpoint state "
                         f"emitted 'started', expected 'resumed'")
            session_started.add(job)

        trials = job_trials_done(obj)
        if trials is not None:
            if isinstance(trials, int):
                ck.check(trials >= hist.trials_done,
                         f"{ctx}: trials_done {trials} < high-water "
                         f"{hist.trials_done} (monotonicity broken)")
                hist.trials_done = max(hist.trials_done, trials)
            else:
                ck.fail(f"{ctx}: trials_done is not an integer")

        if event == "progress":
            for key in ("point", "d", "p", "basis", "point_trials_done",
                        "point_failures", "point_trials_budget",
                        "trials_budget"):
                ck.check(key in obj, f"{ctx}: progress missing '{key}'")
        elif event == "point_done":
            missing = [key for key in ("point", "d", "p", "basis",
                                       "trials", "failures", "cached")
                       if key not in obj]
            if missing:
                ck.fail(f"{ctx}: point_done missing {missing}")
                continue
            point = obj["point"]
            counts = (obj["trials"], obj["failures"])
            if point in hist.point_counts:
                ck.check(hist.point_counts[point] == counts,
                         f"{ctx}: point {point} counts {counts} differ "
                         f"from earlier {hist.point_counts[point]} "
                         f"(resume not bit-identical)")
            hist.point_counts[point] = counts
            if point in hist.done_points:
                ck.check(obj["cached"] is True,
                         f"{ctx}: replay of finished point {point} "
                         f"not marked cached")
            else:
                ck.check(obj["cached"] is False,
                         f"{ctx}: first completion of point {point} "
                         f"marked cached")
        elif event == "preempted":
            ck.check(obj.get("reason") in
                     ("priority", "quantum", "shutdown"),
                     f"{ctx}: bad preempted reason "
                     f"{obj.get('reason')!r}")
        elif event == "requeued":
            ck.check(isinstance(obj.get("queue_depth"), int)
                     and not isinstance(obj.get("queue_depth"), bool)
                     and obj["queue_depth"] >= 1,
                     f"{ctx}: requeued without a positive queue_depth")
        elif event == "cancelled":
            ck.check(obj.get("stage") in ("queued", "running"),
                     f"{ctx}: bad cancelled stage "
                     f"{obj.get('stage')!r}")
        elif event == "error":
            ck.check(isinstance(obj.get("code"), str) and obj["code"],
                     f"{ctx}: error without a code")
            ck.check(isinstance(obj.get("message"), str)
                     and obj["message"],
                     f"{ctx}: error without a message")

    # Every point with a point_done so far replays as cached:true in
    # later sessions (its counts live in the job's checkpoint).
    for hist in history.values():
        hist.done_points = set(hist.point_counts)


def main():
    ap = argparse.ArgumentParser(
        description="Validate vlq-scan-job/1 event streams: schema, "
                    "seq/t ordering, per-job lifecycle, and cross-"
                    "session monotonicity + cached-replay rules.")
    ap.add_argument("events", nargs="+",
                    help="event files, one per server session, in the "
                         "order the sessions ran")
    ap.add_argument("--require-done", action="append", default=[],
                    metavar="ID",
                    help="fail unless this job's final event is 'done' "
                         "(repeatable)")
    ap.add_argument("--require-jobs", type=int, default=0, metavar="N",
                    help="minimum number of distinct job ids")
    ap.add_argument("--require-preemption", action="store_true",
                    help="fail unless at least one 'preempted' event "
                         "occurred")
    ap.add_argument("--require-cached-replay", action="store_true",
                    help="fail unless at least one cached point_done "
                         "replay occurred (proves a resume happened)")
    args = ap.parse_args()

    ck = Checker()
    history = {}
    for i, path in enumerate(args.events):
        check_file(ck, path, history, i)

    preemptions = 0
    cached = 0
    for path in args.events:
        try:
            lines = read_lines(path)[0]
        except OSError:
            continue
        for line in lines:
            try:
                obj = json.loads(line)
            except ValueError:  # malformed JSON or not UTF-8
                continue
            if obj.get("event") == "preempted":
                preemptions += 1
            if obj.get("event") == "point_done" \
                    and obj.get("cached") is True:
                cached += 1

    ck.check(len(history) >= args.require_jobs,
             f"expected at least {args.require_jobs} jobs, saw "
             f"{len(history)}")
    for job in args.require_done:
        hist = history.get(job)
        ck.check(hist is not None and hist.last_event == "done",
                 f"job '{job}': expected final event 'done', got "
                 f"{hist.last_event if hist else None!r}")
    if args.require_preemption:
        ck.check(preemptions > 0, "expected at least one preemption")
    if args.require_cached_replay:
        ck.check(cached > 0, "expected at least one cached replay")

    if ck.problems:
        for problem in ck.problems:
            print(f"FAIL: {problem}")
        print(f"{len(ck.problems)} problem(s)")
        return 1
    print(f"OK: {len(args.events)} stream(s), {len(history)} job(s), "
          f"{preemptions} preemption(s), {cached} cached replay(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
