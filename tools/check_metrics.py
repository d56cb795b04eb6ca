#!/usr/bin/env python3
"""Validator for the vlq-metrics-report/1 JSON report (and, optionally,
the Chrome trace_event timeline) written by --metrics-json/--trace-json.

Checks structure and semantics, not values: required keys exist with
the right types, counts are internally consistent (failures <= trials,
session_trials <= trials), histogram quantiles are ordered
(min <= p50 <= p90 <= p99 <= max, mean within [min, max]) and derived
rates land in [0, 1]. CI runs this against a fresh scan's output so a
schema regression in src/obs/report.cc fails the build rather than a
downstream dashboard.

Usage:
    check_metrics.py report.json [--trace trace.json]
        [--require-counter NAME]...  [--require-histogram NAME]...
        [--require-points N]

Exit status: 0 when the report (and trace, if given) validates,
1 otherwise with one line per problem.
"""

import argparse
import json
import sys


class Checker:
    def __init__(self):
        self.problems = []

    def fail(self, msg):
        self.problems.append(msg)

    def check(self, cond, msg):
        if not cond:
            self.fail(msg)
        return cond

    def number(self, obj, ctx, key, minimum=None, integer=False):
        """Require obj[key] to be a number (an integer when `integer`);
        return it (or None)."""
        if not self.check(key in obj, f"{ctx}: missing key '{key}'"):
            return None
        value = obj[key]
        kinds = int if integer else (int, float)
        if not self.check(isinstance(value, kinds)
                          and not isinstance(value, bool),
                          f"{ctx}.{key}: expected "
                          f"{'an integer' if integer else 'a number'}, "
                          f"got {type(value).__name__}"):
            return None
        if minimum is not None:
            self.check(value >= minimum,
                       f"{ctx}.{key}: {value} < {minimum}")
        return value


def check_histogram(ck, name, h):
    ctx = f"histograms[{name}]"
    if not ck.check(isinstance(h, dict), f"{ctx}: expected an object"):
        return
    ck.check(h.get("unit") == "ns",
             f"{ctx}.unit: expected 'ns', got {h.get('unit')!r}")
    count = ck.number(h, ctx, "count", minimum=0)
    ck.number(h, ctx, "sum", minimum=0)
    quantiles = [ck.number(h, ctx, key, minimum=0)
                 for key in ("min", "p50", "p90", "p99", "max")]
    mean = ck.number(h, ctx, "mean", minimum=0)
    if count and all(v is not None for v in quantiles):
        labels = ("min", "p50", "p90", "p99", "max")
        for (la, a), (lb, b) in zip(zip(labels, quantiles),
                                    list(zip(labels, quantiles))[1:]):
            ck.check(a <= b, f"{ctx}: {la} ({a:g}) > {lb} ({b:g})")
        if mean is not None:
            ck.check(quantiles[0] <= mean <= quantiles[-1],
                     f"{ctx}: mean {mean:g} outside "
                     f"[min, max] = [{quantiles[0]:g}, "
                     f"{quantiles[-1]:g}]")


def check_point(ck, i, pt):
    ctx = f"points[{i}]"
    if not ck.check(isinstance(pt, dict), f"{ctx}: expected an object"):
        return
    ck.check(isinstance(pt.get("embedding"), str) and pt["embedding"],
             f"{ctx}.embedding: expected a non-empty string")
    ck.number(pt, ctx, "distance", minimum=1)
    ck.number(pt, ctx, "p", minimum=0)
    ck.check(pt.get("basis") in ("X", "Z"),
             f"{ctx}.basis: expected 'X' or 'Z', got "
             f"{pt.get('basis')!r}")
    trials = ck.number(pt, ctx, "trials", minimum=0)
    failures = ck.number(pt, ctx, "failures", minimum=0)
    session = ck.number(pt, ctx, "session_trials", minimum=0)
    ck.number(pt, ctx, "wall_seconds", minimum=0)
    ck.number(pt, ctx, "shots_per_sec", minimum=0)
    ck.number(pt, ctx, "setup_seconds", minimum=0)
    ck.number(pt, ctx, "setup_minor_faults", minimum=0, integer=True)
    if trials is not None and failures is not None:
        ck.check(failures <= trials,
                 f"{ctx}: failures {failures} > trials {trials}")
    if trials is not None and session is not None:
        ck.check(session <= trials,
                 f"{ctx}: session_trials {session} > trials {trials}")


def check_report(ck, doc, args):
    if not ck.check(isinstance(doc, dict), "report: expected an object"):
        return
    ck.check(doc.get("schema") == "vlq-metrics-report/1",
             f"schema: expected 'vlq-metrics-report/1', got "
             f"{doc.get('schema')!r}")

    run = doc.get("run")
    if ck.check(isinstance(run, dict), "run: missing or not an object"):
        ck.number(run, "run", "wall_seconds", minimum=0)
        ck.number(run, "run", "cpu_seconds", minimum=0)
        ck.number(run, "run", "utilization", minimum=0)
        ck.number(run, "run", "hardware_threads", minimum=1)
        ck.number(run, "run", "trace_dropped_events", minimum=0)

    points = doc.get("points")
    if ck.check(isinstance(points, list), "points: missing or not a list"):
        for i, pt in enumerate(points):
            check_point(ck, i, pt)
        ck.check(len(points) >= args.require_points,
                 f"points: expected at least {args.require_points}, "
                 f"got {len(points)}")

    counters = doc.get("counters")
    if ck.check(isinstance(counters, dict),
                "counters: missing or not an object"):
        for name, value in counters.items():
            ck.check(isinstance(value, int) and value >= 0,
                     f"counters[{name}]: expected a non-negative "
                     f"integer, got {value!r}")
        for name in args.require_counter:
            ck.check(counters.get(name, 0) > 0,
                     f"counters[{name}]: required > 0, got "
                     f"{counters.get(name)!r}")

    gauges = doc.get("gauges")
    if ck.check(isinstance(gauges, dict),
                "gauges: missing or not an object"):
        for name, value in gauges.items():
            ck.check(isinstance(value, (int, float))
                     and not isinstance(value, bool),
                     f"gauges[{name}]: expected a number, got "
                     f"{value!r}")

    histograms = doc.get("histograms")
    if ck.check(isinstance(histograms, dict),
                "histograms: missing or not an object"):
        for name, h in histograms.items():
            check_histogram(ck, name, h)
        for name in args.require_histogram:
            h = histograms.get(name)
            ck.check(isinstance(h, dict) and h.get("count", 0) > 0,
                     f"histograms[{name}]: required with count > 0")

    derived = doc.get("derived")
    if ck.check(isinstance(derived, dict),
                "derived: missing or not an object"):
        for rate_key in ("uf_fastpath_hit_rate", "mwpm_exact_hit_rate",
                         "trivial_shot_fraction"):
            if rate_key in derived:
                rate = ck.number(derived, "derived", rate_key, minimum=0)
                if rate is not None:
                    ck.check(rate <= 1.0,
                             f"derived.{rate_key}: {rate:g} > 1")
        if "total_shots_per_sec" in derived:
            ck.number(derived, "derived", "total_shots_per_sec",
                      minimum=0)


def check_trace(ck, doc):
    if not ck.check(isinstance(doc, dict), "trace: expected an object"):
        return
    events = doc.get("traceEvents")
    if not ck.check(isinstance(events, list),
                    "trace.traceEvents: missing or not a list"):
        return
    for i, ev in enumerate(events):
        ctx = f"traceEvents[{i}]"
        if not ck.check(isinstance(ev, dict), f"{ctx}: not an object"):
            continue
        ck.check(isinstance(ev.get("name"), str) and ev["name"],
                 f"{ctx}.name: expected a non-empty string")
        ph = ev.get("ph")
        if not ck.check(ph in ("X", "C", "M"),
                        f"{ctx}.ph: expected X, C or M, got {ph!r}"):
            continue
        ck.number(ev, ctx, "pid")
        ck.number(ev, ctx, "tid", minimum=0)
        if ph == "X":
            ck.number(ev, ctx, "ts", minimum=0)
            ck.number(ev, ctx, "dur", minimum=0)
        elif ph == "C":
            ck.number(ev, ctx, "ts", minimum=0)
            args = ev.get("args")
            if ck.check(isinstance(args, dict),
                        f"{ctx}.args: missing or not an object"):
                ck.number(args, f"{ctx}.args", "value", minimum=0)


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"{path}: {exc}")


def main():
    ap = argparse.ArgumentParser(
        description="Validate a vlq metrics report (and optional "
                    "trace) against the vlq-metrics-report/1 schema.")
    ap.add_argument("report", help="path to the --metrics-json output")
    ap.add_argument("--trace", default=None,
                    help="also validate this --trace-json output")
    ap.add_argument("--require-counter", action="append", default=[],
                    metavar="NAME",
                    help="fail unless this counter is present and > 0 "
                         "(repeatable)")
    ap.add_argument("--require-histogram", action="append", default=[],
                    metavar="NAME",
                    help="fail unless this stage histogram is present "
                         "with count > 0 (repeatable)")
    ap.add_argument("--require-points", type=int, default=1,
                    metavar="N",
                    help="minimum number of report points (default 1)")
    args = ap.parse_args()

    ck = Checker()
    check_report(ck, load_json(args.report), args)
    if args.trace:
        check_trace(ck, load_json(args.trace))

    if ck.problems:
        for problem in ck.problems:
            print(f"FAIL: {problem}")
        print(f"{len(ck.problems)} problem(s)")
        return 1
    print(f"OK: {args.report} validates"
          + (f" (and {args.trace})" if args.trace else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
