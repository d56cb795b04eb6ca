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

Exit status: 0 when every reference row matches, 1 otherwise.

Usage:
    check_bench.py reference.csv candidate.csv \
        [--abs-tol A] [--rel-tol R] [--ignore REGEX]
"""

import argparse
import csv
import re
import sys


def load_rows(path):
    """Read a CSV as {key tuple: [values]} plus its header."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            sys.exit(f"{path}: empty file")
        for lineno, row in enumerate(reader, start=2):
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
            rows.setdefault(key, []).append(value)
    return header, rows


def main():
    ap = argparse.ArgumentParser(
        description="Diff bench CSV output against a reference "
                    "within tolerances.")
    ap.add_argument("reference")
    ap.add_argument("candidate")
    ap.add_argument("--abs-tol", type=float, default=0.005,
                    help="absolute tolerance (default 0.005)")
    ap.add_argument("--rel-tol", type=float, default=0.25,
                    help="relative tolerance (default 0.25)")
    ap.add_argument("--ignore", default=None, metavar="REGEX",
                    help="skip reference rows whose joined key "
                         "matches this regex")
    args = ap.parse_args()

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
