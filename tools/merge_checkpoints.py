#!/usr/bin/env python3
"""Merge split-seed Monte-Carlo checkpoint files.

Split-seed cluster runs shard one scan across machines by giving every
shard the same configuration but a different RNG seed, and add their
per-point counts. The shards are meant to sample disjoint trial
streams, but today they overlap: Rng::split keys trial t by
seed ^ (0xdeadbeefcafef00d + t), so nearby seeds draw nearly the same
trials (seeds 101 and 202 share 2,928 of their first 3,000). Until
ROADMAP item 2 derives streams from a hash of the whole key, a merged
file counts shared trials more than once and intervals computed from
it are too narrow. This tool merges such shards into one combined
checkpoint (for reporting: summed trials and failures per point), after
verifying that

  * every shard is a structurally valid `vlq-mc-checkpoint 1` file
    (version, fingerprint, end-marker intact; `meta key=value` lines
    that older engines wrote are accepted and dropped, as the C++
    loader does),
  * all shards record the *same* configuration apart from the seed
    (same trial budget, batch, decoder, target, grid, ...), and
  * no two shards overlap: two files with the same seed cover the same
    trial range of every point (both start at trial 0), so merging
    them would double-count -- that is rejected, not summed.

The merged file records `seed=merged:<s1>,<s2>,...` and a fingerprint
recomputed over the merged summary; it is a reporting artifact, not a
resume point for further sampling.

Usage:
    merge_checkpoints.py --out merged.ckpt shard1.ckpt shard2.ckpt ...
"""

import argparse
import sys

MAGIC = "vlq-mc-checkpoint"
VERSION = 1


def fnv1a64(text):
    """FNV-1a 64-bit, matching src/mc/checkpoint.cc."""
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Shard:
    def __init__(self, path, summary, points):
        self.path = path
        self.summary = summary          # canonical config line
        self.fields = dict(
            token.split("=", 1) for token in summary.split()
            if "=" in token)
        self.points = points            # key -> (trials, failures, done)


def reject(path, why):
    sys.exit(f"{path}: rejected: {why}")


def load_shard(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        sys.exit(f"{path}: {e}")
    if not lines:
        reject(path, "empty file")

    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC:
        reject(path, "not a vlq-mc-checkpoint file")
    if head[1] != str(VERSION):
        reject(path, f"unsupported format version {head[1]}")
    if len(lines) < 4:
        reject(path, "truncated file")

    fp = lines[1].split()
    if len(fp) != 2 or fp[0] != "fingerprint":
        reject(path, "malformed fingerprint line")
    if not lines[2].startswith("config "):
        reject(path, "malformed config line")
    summary = lines[2][len("config "):]
    if int(fp[1], 16) != fnv1a64(summary):
        reject(path, "fingerprint does not match config line "
                     "(corrupt or hand-edited file)")

    points = {}
    i = 3
    while i < len(lines) and not lines[i].startswith("end"):
        tokens = lines[i].split()
        if tokens and tokens[0] == "meta":
            # An older engine's `meta key=value` line: check, then drop.
            if len(tokens) != 2 or tokens[1].find("=") < 1:
                reject(path, f"malformed meta line {i + 1}")
            i += 1
            continue
        if len(tokens) != 5 or tokens[0] != "point":
            reject(path, f"malformed line {i + 1}: {lines[i]!r}")
        key = tokens[1]

        def field(token, prefix):
            # Strict unsigned parse, matching the C++ loader: the
            # prefix must be present and the value all digits (no
            # sign, no junk) -- a corrupt "trials=-5" must not load.
            value = token[len(prefix):]
            if not token.startswith(prefix) or \
                    not (value.isascii() and value.isdigit()):
                reject(path, f"malformed point line {i + 1}")
            return int(token[len(prefix):])

        trials = field(tokens[2], "trials=")
        failures = field(tokens[3], "failures=")
        done = field(tokens[4], "done=")
        if key in points:
            reject(path, f"duplicate point key {key}")
        if failures > trials or done not in (0, 1):
            reject(path, f"corrupt counts on line {i + 1}")
        points[key] = (trials, failures, bool(done))
        i += 1
    if i >= len(lines):
        reject(path, "truncated file (no end marker)")
    end = lines[i].split()
    if len(end) != 2 or end[1] != str(len(points)):
        reject(path, "end marker count mismatch (file truncated?)")

    return Shard(path, summary, points)


def main():
    ap = argparse.ArgumentParser(
        description="Merge split-seed Monte-Carlo checkpoint shards "
                    "(see the module docstring: shards overlap today).")
    ap.add_argument("--out", required=True,
                    help="path for the merged checkpoint")
    ap.add_argument("shards", nargs="+", help="shard checkpoint files")
    args = ap.parse_args()

    shards = [load_shard(p) for p in args.shards]

    # Shards must agree on everything except the seed.
    base = shards[0]
    for shard in shards[1:]:
        base_rest = {k: v for k, v in base.fields.items() if k != "seed"}
        rest = {k: v for k, v in shard.fields.items() if k != "seed"}
        if base_rest != rest:
            diff = sorted(
                k for k in set(base_rest) | set(rest)
                if base_rest.get(k) != rest.get(k))
            sys.exit(f"{shard.path}: config mismatch vs {base.path} "
                     f"(differs in: {', '.join(diff)}) -- shards of "
                     f"different runs cannot be merged")

    # Overlap detection: every run samples each point's trials from 0,
    # so two shards with the same seed cover overlapping trial ranges.
    seen_seeds = {}
    for shard in shards:
        seed = shard.fields.get("seed", "?")
        if seed in seen_seeds:
            sys.exit(f"{shard.path}: overlaps {seen_seeds[seed]} -- "
                     f"both use seed={seed}, so their trial ranges "
                     f"overlap and merging would double-count")
        seen_seeds[seed] = shard.path

    merged = {}
    for shard in shards:
        for key, (trials, failures, done) in shard.points.items():
            t, f, d = merged.get(key, (0, 0, True))
            merged[key] = (t + trials, f + failures, d and done)

    seeds = ",".join(shard.fields.get("seed", "?") for shard in shards)
    summary_rest = " ".join(
        token for token in base.summary.split()
        if not token.startswith("seed="))
    summary = f"seed=merged:{seeds} {summary_rest}"

    out_lines = [f"{MAGIC} {VERSION}",
                 f"fingerprint {fnv1a64(summary):016x}",
                 f"config {summary}"]
    for key in sorted(merged):
        trials, failures, done = merged[key]
        out_lines.append(f"point {key} trials={trials} "
                         f"failures={failures} done={int(done)}")
    out_lines.append(f"end {len(merged)}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(out_lines) + "\n")

    print(f"merged {len(shards)} shard(s), {len(merged)} point(s) "
          f"-> {args.out}")
    width = max(len(k) for k in merged)
    print(f"{'point key':{width}}  {'trials':>12}  {'failures':>10}  "
          f"rate")
    for key in sorted(merged):
        trials, failures, done = merged[key]
        rate = failures / trials if trials else 0.0
        flag = "" if done else "  (incomplete)"
        print(f"{key:{width}}  {trials:>12}  {failures:>10}  "
              f"{rate:.3e}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
