#!/usr/bin/env python3
"""Tolerance differ for benchmark CSV output.

Compares a candidate CSV (fresh bench run) against a checked-in
reference (bench/reference/*.csv). Rows are keyed by every column
except the last; the last column is the numeric value under test.
A row passes when

    |candidate - reference| <= abs_tol + rel_tol * max(|ref|, |cand|)

Rows present only in the candidate are ignored (benches also emit
machine-dependent records -- timings, speedups -- that references
deliberately omit); rows present only in the reference fail, so a
bench cannot silently stop reporting a tracked quantity.

Besides pass/fail, every run ends with a per-record drift summary:
for each record type (the first key column) the count of compared
values, the mean and worst relative drift, and the row that drifted
most. Drift is scaled by max(|ref|, |cand|, abs_tol), the same max
the tolerance uses, and is 0 when both values are 0. A bench can pass
every tolerance while quietly walking toward the edge; the summary
makes that visible in CI logs before it trips.

Both CSVs must be UTF-8 text: a header, then rows as wide as it whose
last column is a finite number. Anything else (a NaN or infinite
value, a ragged row, a byte that is not UTF-8) exits with a
`path:line:` message before any comparison.

Exit status: 0 when every reference row matches, 1 otherwise.

With --ledger it instead validates the perf ledger (BENCH_pipeline.json):
one entry per measured change, each recording the parent and change
commits (change_commit may be null: the commit that adds the entry),
the pipebench source digests, date, CPU, nproc, threads, run seconds and
seeds, and for every workload and end-to-end metric the parent's and
the change's median and quartiles plus pairs run and pairs the change
won. Workloads, metrics and units must match BENCHMARK.json exactly
(read, never written), q1 <= median <= q3 on both sides, and
wins <= pairs <= len(seeds).

A valid ledger then gets one verdict per entry, workload and
end-to-end metric, judged with BENCHMARK.json's direction ("better")
and bound, in this order:

    gain        the change won at least 9 in 10 pairs and its median
                beats the parent's by more than the parent's IQR
    unresolved  the parent's IQR exceeds the bound (as a fraction of
                the parent's median): its runs spread too widely
    worse       the median regressed by more than the bound
    within      anything else

Any `worse` verdict fails the check.

With --self-test it fuzzes its own CSV reader: a fixed-seed run of
4,000 mutants (byte flips, truncations, splices, and a column appended
to a row) of a small corpus, each of which must be rejected with a
`path:line:` message or load only finite values; a mutant with an
appended column must be rejected. NaN and infinite values must be
rejected too.

Usage:
    check_bench.py reference.csv candidate.csv \
        [--abs-tol A] [--rel-tol R] [--ignore REGEX]
    check_bench.py --ledger BENCH_pipeline.json
    check_bench.py --self-test
"""

import argparse
import csv
import io
import json
import math
import os
import random
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER_SCHEMA = "vlq-bench-ledger/1"
SHA_RE = re.compile(r"^[0-9a-f]{7,40}$")
DIGEST_RE = re.compile(r"^[0-9a-f]{16}$")
DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(value, minimum):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= minimum


def check_side(problems, ctx, side):
    """One side's {"median", "q1", "q3"}: numbers, q1 <= median <= q3."""
    if not isinstance(side, dict):
        problems.append(f"{ctx}: expected an object")
        return
    values = [side.get(k) for k in ("q1", "median", "q3")]
    if not all(is_number(v) for v in values):
        problems.append(f"{ctx}: q1, median and q3 must be numbers")
    elif not values[0] <= values[1] <= values[2]:
        problems.append(f"{ctx}: expected q1 <= median <= q3, got "
                        f"{values[0]:g}, {values[1]:g}, {values[2]:g}")


def check_entry(problems, ctx, entry, bench):
    if not isinstance(entry, dict):
        problems.append(f"{ctx}: expected an object")
        return
    for key in ("title", "cpu"):
        if not isinstance(entry.get(key), str) or not entry[key]:
            problems.append(f"{ctx}.{key}: expected a non-empty string")
    if not SHA_RE.match(str(entry.get("parent_commit"))):
        problems.append(f"{ctx}.parent_commit: expected a git sha")
    change = entry.get("change_commit")
    if change is not None and not SHA_RE.match(str(change)):
        problems.append(f"{ctx}.change_commit: expected a git sha or null")
    for key in ("parent_sources", "change_sources"):
        if not DIGEST_RE.match(str(entry.get(key))):
            problems.append(f"{ctx}.{key}: expected pipebench's 16-hex "
                            f"sources digest")
    if not DATE_RE.match(str(entry.get("date"))):
        problems.append(f"{ctx}.date: expected YYYY-MM-DD")
    for key in ("nproc", "threads"):
        if not is_count(entry.get(key), 1):
            problems.append(f"{ctx}.{key}: expected an integer >= 1")
    if not is_number(entry.get("run_seconds")) or entry["run_seconds"] <= 0:
        problems.append(f"{ctx}.run_seconds: expected a positive number")
    seeds = entry.get("seeds")
    if not isinstance(seeds, list) or not seeds \
            or not all(is_count(s, 0) for s in seeds):
        problems.append(f"{ctx}.seeds: expected a non-empty list of "
                        f"non-negative integers")
        seeds = []

    workloads = entry.get("workloads")
    if not isinstance(workloads, dict):
        problems.append(f"{ctx}.workloads: expected an object")
        return
    names = [w["name"] for w in bench["workloads"]]
    if sorted(workloads) != sorted(names):
        problems.append(f"{ctx}.workloads: expected {sorted(names)}, got "
                        f"{sorted(workloads)}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name in names:
        metrics = workloads.get(name)
        wctx = f"{ctx}.workloads[{name}]"
        if not isinstance(metrics, dict):
            problems.append(f"{wctx}: expected an object")
            continue
        if sorted(metrics) != sorted(units):
            problems.append(f"{wctx}: expected metrics {sorted(units)}, "
                            f"got {sorted(metrics)}")
        for metric, unit in units.items():
            m = metrics.get(metric)
            mctx = f"{wctx}.{metric}"
            if not isinstance(m, dict):
                problems.append(f"{mctx}: expected an object")
                continue
            if m.get("unit") != unit:
                problems.append(f"{mctx}.unit: expected {unit!r} as in "
                                f"BENCHMARK.json, got {m.get('unit')!r}")
            check_side(problems, f"{mctx}.parent", m.get("parent"))
            check_side(problems, f"{mctx}.change", m.get("change"))
            pairs, wins = m.get("pairs"), m.get("wins")
            if not is_count(pairs, 1) or pairs > max(len(seeds), 1):
                problems.append(f"{mctx}.pairs: expected 1..{len(seeds)}")
            elif not is_count(wins, 0) or wins > pairs:
                problems.append(f"{mctx}.wins: expected 0..{pairs}")


def verdict(metric, m):
    """(verdict, detail) of one ledger metric against its bound."""
    parent, change = m["parent"], m["change"]
    base = parent["median"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    delta = (change["median"] - base) / base if base else 0.0
    gain = sign * delta  # relative improvement; negative = regression
    spread = (parent["q3"] - parent["q1"]) / base if base else 0.0
    detail = (f"{base:g} -> {change['median']:g} {metric['unit']} "
              f"({delta:+.1%}), won {m['wins']}/{m['pairs']}, "
              f"parent IQR {spread:.1%} of median, bound "
              f"{metric['bound']:g}")
    if 10 * m["wins"] >= 9 * m["pairs"] and gain > spread:
        return "gain", detail
    if spread > metric["bound"]:
        return "unresolved", detail
    if -gain > metric["bound"]:
        return "worse", detail
    return "within", detail


def ledger_verdicts(entries, bench):
    """Print every entry's verdicts; return the number of `worse`."""
    worse = 0
    for i, entry in enumerate(entries):
        print(f"entries[{i}] {entry['title']}")
        for workload in bench["workloads"]:
            metrics = entry["workloads"][workload["name"]]
            for metric in bench["end_to_end"]:
                v, detail = verdict(metric, metrics[metric["name"]])
                worse += v == "worse"
                print(f"  {workload['name']} {metric['name']}: {v} "
                      f"({detail})")
    return worse


def check_ledger(ledger_path):
    """Validate the perf ledger; print problems; return exit status."""
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(ledger_path) as fh:
            ledger = json.load(fh)
        with open(bench_path) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: {exc}")
        return 1
    problems = []
    if not isinstance(ledger, dict) \
            or ledger.get("schema") != LEDGER_SCHEMA:
        problems.append(f"schema: expected {LEDGER_SCHEMA!r}")
    entries = ledger.get("entries") if isinstance(ledger, dict) else None
    if not isinstance(entries, list) or not entries:
        problems.append("entries: expected a non-empty list")
        entries = []
    for i, entry in enumerate(entries):
        check_entry(problems, f"entries[{i}]", entry, bench)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        print(f"{len(problems)} problem(s) in {ledger_path}")
        return 1
    worse = ledger_verdicts(entries, bench)
    if worse:
        print(f"FAIL: {worse} metric(s) regressed by more than their "
              f"bound in {ledger_path}")
        return 1
    print(f"OK: {ledger_path}: {len(entries)} entr"
          f"{'y' if len(entries) == 1 else 'ies'} match BENCHMARK.json, "
          f"none worse than its bound")
    return 0


def load_rows(path):
    """Read a CSV as {key tuple: [values]} plus its header; exit with a
    path:line message unless every value is a finite number."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        sys.exit(f"{path}: {exc.strerror}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        sys.exit(f"{path}:{lineno}: not UTF-8 text")
    rows = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            sys.exit(f"{path}:1: empty file")
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                sys.exit(f"{path}:{lineno}: expected {len(header)} "
                         f"columns, got {len(row)}")
            key = tuple(row[:-1])
            try:
                value = float(row[-1])
            except ValueError:
                sys.exit(f"{path}:{lineno}: non-numeric value "
                         f"'{row[-1]}'")
            # NaN compares false with everything and inf widens the
            # tolerance to infinity: either would pass any check.
            if not math.isfinite(value):
                sys.exit(f"{path}:{lineno}: non-finite value "
                         f"'{row[-1]}'")
            rows.setdefault(key, []).append(value)
    except csv.Error as exc:
        sys.exit(f"{path}:{reader.line_num}: {exc}")
    return header, rows


# The reader's fuzz corpus: small CSVs in the references' shapes.
SELF_TEST_CORPUS = (
    b"record,setup,distance,p,value\n"
    b"rate,Baseline,3,3.50e-03,0.027325\n"
    b"rate,Compact-Interleaved,5,5.41e-03,0.012462\n"
    b"threshold,Baseline,,,0.0089\n",
    b"record,row,column,value\n"
    b"protocol,Fast,transmons,1499\n"
    b"protocol,Fast,cavities,0\n",
    b"record,\"quoted, key\",value\r\n"
    b"sens,\"a,b\",-1.5e+02\r\n"
    b"sens,plain,7\r\n",
)
SELF_TEST_SEED = 0x5eed
SELF_TEST_MUTANTS = 4000


def mutate(rng, data):
    """One mutant of `data` and whether it appended a column to a row."""
    kind = rng.randrange(4)
    if kind == 0:  # flip one byte to any value
        i = rng.randrange(len(data))
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:], False
    if kind == 1:  # truncate anywhere
        return data[:rng.randrange(len(data) + 1)], False
    if kind == 2:  # splice a prefix of one file onto a suffix of another
        other = rng.choice(SELF_TEST_CORPUS)
        return (data[:rng.randrange(len(data) + 1)]
                + other[rng.randrange(len(other) + 1):]), False
    lines = data.split(b"\n")
    rows = [i for i in range(1, len(lines)) if lines[i].strip()]
    i = rng.choice(rows)
    token = rng.choice((b"x", b"1", b"0.5", b"nan", b""))
    end = len(lines[i].rstrip(b"\r"))
    lines[i] = lines[i][:end] + b"," + token + lines[i][end:]
    return b"\n".join(lines), True


def self_test():
    """Fuzz load_rows; print one line per failure; return exit status."""
    failures = []

    def load(path, data):
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            return load_rows(path), None
        except SystemExit as exc:
            return None, str(exc.code)

    def is_located(message, path):
        return message is not None and re.match(
            re.escape(path) + r":\d+: ", message) is not None

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "candidate.csv")
        for bad in ("nan", "NaN", "inf", "-inf", "Infinity", "1e999"):
            loaded, message = load(path, b"record,value\nrate," +
                                   bad.encode() + b"\n")
            if not is_located(message, path):
                failures.append(f"value {bad!r} was not rejected with a "
                                f"path:line message: {message!r}")
        rng = random.Random(SELF_TEST_SEED)
        rejected = 0
        for n in range(SELF_TEST_MUTANTS):
            data, appended = mutate(rng, rng.choice(SELF_TEST_CORPUS))
            try:
                loaded, message = load(path, data)
            except Exception as exc:  # any escape is a reader bug
                failures.append(f"mutant {n} {data!r}: {exc!r}")
                continue
            if loaded is None:
                rejected += 1
                if not is_located(message, path):
                    failures.append(f"mutant {n} {data!r}: message "
                                    f"without path:line: {message!r}")
            elif appended:
                failures.append(f"mutant {n} {data!r}: a row with an "
                                f"appended column loaded")
            elif not all(math.isfinite(v) for values in loaded[1].values()
                         for v in values):
                failures.append(f"mutant {n} {data!r}: loaded a "
                                f"non-finite value")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: {SELF_TEST_MUTANTS} mutants (seed {SELF_TEST_SEED:#x}), "
          f"{rejected} rejected with path:line, the rest loaded finite "
          f"values; NaN and infinite values rejected")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Diff bench CSV output against a reference "
                    "within tolerances, or validate the perf ledger.")
    ap.add_argument("reference", nargs="?")
    ap.add_argument("candidate", nargs="?")
    ap.add_argument("--abs-tol", type=float, default=0.005,
                    help="absolute tolerance (default 0.005)")
    ap.add_argument("--rel-tol", type=float, default=0.25,
                    help="relative tolerance (default 0.25)")
    ap.add_argument("--ignore", default=None, metavar="REGEX",
                    help="skip reference rows whose joined key "
                         "matches this regex")
    ap.add_argument("--ledger", default=None, metavar="FILE",
                    help="validate this perf ledger against "
                         "BENCHMARK.json instead of diffing CSVs")
    ap.add_argument("--self-test", action="store_true",
                    help="fuzz the CSV reader with a fixed seed "
                         "instead of diffing CSVs")
    args = ap.parse_args()

    if args.self_test:
        if args.reference or args.candidate or args.ledger:
            ap.error("--self-test takes no other arguments")
        return self_test()
    if args.ledger:
        if args.reference or args.candidate:
            ap.error("--ledger takes no CSV arguments")
        return check_ledger(args.ledger)
    if not (args.reference and args.candidate):
        ap.error("expected reference.csv and candidate.csv, or --ledger")

    ref_header, ref = load_rows(args.reference)
    cand_header, cand = load_rows(args.candidate)
    if ref_header != cand_header:
        print(f"FAIL: header mismatch\n  reference: {ref_header}\n"
              f"  candidate: {cand_header}")
        return 1

    ignore = re.compile(args.ignore) if args.ignore else None
    failures = 0
    checked = 0
    # record type (first key column) -> [count, sum drift, worst
    # |drift|, worst drift (signed), worst row label]
    drift_by_record = {}
    for key, ref_values in sorted(ref.items()):
        label = ",".join(key)
        if ignore and ignore.search(label):
            continue
        cand_values = cand.get(key)
        if cand_values is None:
            print(f"FAIL: [{label}] missing from candidate")
            failures += 1
            continue
        if len(cand_values) != len(ref_values):
            print(f"FAIL: [{label}] row count {len(cand_values)} != "
                  f"reference {len(ref_values)}")
            failures += 1
            continue
        record = key[0] if key else ""
        for r, c in zip(ref_values, cand_values):
            checked += 1
            tol = args.abs_tol + args.rel_tol * max(abs(r), abs(c))
            # Relative drift against the tolerance's scale, so zero-rate
            # reference rows (r == 0) still report meaningfully; two
            # zeros (possible under --abs-tol 0) have not drifted.
            scale = max(abs(r), abs(c), args.abs_tol)
            drift = (c - r) / scale if scale > 0 else 0.0
            stats = drift_by_record.setdefault(
                record, [0, 0.0, -1.0, 0.0, ""])
            stats[0] += 1
            stats[1] += drift
            if abs(drift) > stats[2]:
                stats[2] = abs(drift)
                stats[3] = drift
                stats[4] = label
            if abs(c - r) > tol:
                print(f"FAIL: [{label}] candidate {c:g} vs "
                      f"reference {r:g} (|diff| {abs(c - r):g} > "
                      f"tol {tol:g})")
                failures += 1

    if drift_by_record:
        print("\nDrift summary (relative to max(|ref|, |cand|, "
              "abs_tol)):")
        print(f"  {'record':<20} {'n':>5} {'mean':>9} {'worst':>9} "
              f"  worst row")
        for record, (n, total, _, worst, worst_label) in sorted(
                drift_by_record.items()):
            print(f"  {record:<20} {n:>5} {total / n:>+9.2%} "
                  f"{worst:>+9.2%}   {worst_label}")

    if failures:
        print(f"\n{failures} mismatch(es) across {checked} compared "
              f"value(s)")
        return 1
    print(f"\nOK: {checked} value(s) within tolerance "
          f"(abs {args.abs_tol:g}, rel {args.rel_tol:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
