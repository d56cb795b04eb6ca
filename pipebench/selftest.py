#!/usr/bin/env python3
"""Smoke self-test of the pipeline benchmark.

    python3 pipebench/selftest.py

Runs every workload of BENCHMARK.json at the benchmark's --smoke budget
(the same grids, token trial counts), once untraced and once traced,
and checks that
  - the last output line is the result object with the named keys, the
    count check ran and passed, and every end-to-end (untraced) or
    per-layer (traced) metric is there with its unit;
  - the Chrome trace parses, spans nest (children inside their parents,
    on the parent's point), and each point id owns exactly one `point`
    span.
Exits non-zero on the first workload that breaks any of these.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "pipebench-work")


def check_result(stdout, metrics, label):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        label + ": result keys " + str(sorted(result))
    assert result["correct"] is True and result["failed"] == 0, \
        label + ": count check failed:\n" + stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert any(line.startswith("count check:") for line in lines), \
        label + ": no count check line"
    for spec in metrics:
        got = result["metrics"].get(spec["name"])
        assert got is not None, label + ": missing metric " + spec["name"]
        assert got["unit"] == spec["unit"], \
            label + ": %s has unit %s" % (spec["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), \
            label + ": %s is not a number" % spec["name"]
    extra = set(result["metrics"]) - {m["name"] for m in metrics}
    assert not extra, label + ": unexpected metrics " + str(sorted(extra))


def check_trace(path, label):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["span"]: e for e in events if e["ph"] == "X"}
    assert spans, label + ": empty trace"
    owners = {}
    for span in spans.values():
        if span["name"] == "point":
            point = span["args"]["point"]
            assert point not in owners, \
                label + ": point %d has two point spans" % point
            owners[point] = span
    slack = 1e-3  # microsecond rounding of ts/dur
    for span in spans.values():
        point = span["args"]["point"]
        parent = spans.get(span["args"]["parent"])
        if span["args"]["parent"]:
            assert parent is not None, label + ": orphan " + span["name"]
            assert span["ts"] >= parent["ts"] - slack and \
                span["ts"] + span["dur"] <= \
                parent["ts"] + parent["dur"] + slack, \
                label + ": %s outside %s" % (span["name"], parent["name"])
            assert parent["args"]["point"] in (-1, point), \
                label + ": %s crosses points" % span["name"]
        if point >= 0:
            assert point in owners, label + ": no point span for %d" % point
    assert len(owners) >= 1, label + ": no point spans"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            label = "%s --trace %d" % (name, trace)
            trace_path = os.path.join(WORK, "trace-%s.json" % name)
            if trace and os.path.exists(trace_path):
                os.remove(trace_path)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            assert proc.returncode == 0, \
                label + ": exit %d\n%s" % (proc.returncode, proc.stderr)
            check_result(proc.stdout, metrics, label)
            if trace:
                check_trace(trace_path, label)
            print("ok  " + label)
    print("pipebench self-test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("FAIL " + str(e), file=sys.stderr)
        sys.exit(1)
