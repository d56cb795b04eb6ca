#!/usr/bin/env python3
"""Project-invariant linter: repo-specific rules grep can't state.

clang-tidy and -Werror police general C++; this tool polices the
contracts this codebase defines for itself -- the ones a reviewer has
to remember today. Each rule names the invariant, the files it
covers, and the escape hatch. Comments and string literals are
stripped before matching, so prose about `fprintf` never fires.

Rules (run `--list` for this table, `--self-test` to prove each rule
fires on its fixture corpus under tools/invariant_fixtures/):

  raw-getenv           Environment access goes through src/util/env
                       helpers (envInt/envString/...), which warn once
                       on malformed values and centralize every knob.
                       Raw getenv/setenv anywhere else in src/ skips
                       that contract. Allowed file: src/util/env.cc.

  wallclock-entropy    src/ never calls rand()/srand()/time() or
                       touches std::random_device: every sampled bit
                       must come from the seeded RNG layer
                       (util/rng.h) or determinism -- bit-identical
                       resume, backend equivalence, CI reproducibility
                       -- silently dies. Wall-clock *reading* for
                       heartbeats uses std::chrono clocks, which the
                       rule does not match.

  unordered-iteration  Iterating an unordered_{map,set} yields a
                       hash-order -- libc++ vs libstdc++ vs seed-
                       dependent -- so any loop over one is one
                       refactor away from nondeterministic serialized
                       output (CSV rows, JSON fields, checkpoint
                       lines are all sorted by contract). Loops over
                       unordered containers therefore need an
                       explicit `lint-allow: unordered-iteration
                       (<why order cannot leak>)` annotation.

  raw-stderr           Library code (src/) reports through VLQ_WARN /
                       VLQ_WARN_ONCE / VLQ_FATAL / VLQ_PANIC
                       (util/logging.h): prefixed, single-write (no
                       cross-thread interleaving), and rate-limited
                       where it matters. Raw fprintf/fputs-to-stderr
                       bypasses all three. Allowed files:
                       src/util/logging.h (the implementation),
                       src/util/env.cc (CLI usage/arg-error printing,
                       which is user dialogue, not library logging).

  registry-docs        Every name registered in the decoder and
                       embedding registries must appear in README.md
                       and docs/job-protocol.md, and -- when
                       --help-bin points at built binaries -- in some
                       binary's --help output. Registries grow by
                       editing a .cc table; nothing else forces the
                       docs to follow.

Escape hatch: a `lint-allow: <rule> (<reason>)` comment on the
flagged line or the line above suppresses that finding. The reason is
mandatory -- an allow without one is itself a finding.

Usage:
    check_invariants.py [--root DIR] [--help-bin BIN]...
    check_invariants.py --self-test
    check_invariants.py --list

Exit status: 0 clean, 1 with one line per finding.
"""

import argparse
import os
import re
import subprocess
import sys

ALLOW_RE = re.compile(
    r"lint-allow:\s*(?P<rule>[a-z-]+)\s*(?P<reason>\([^)]+\))?")

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

REGISTRY_SOURCES = (
    "src/decoder/decoder_factory.cc",
    "src/core/generator_registry.cc",
)
REGISTRY_NAME_RE = re.compile(
    r"\{(?:DecoderKind|EmbeddingKind)::\w+,\s*\n?\s*"
    r"\"(?P<name>[^\"]+)\"")
REGISTRY_DOC_TARGETS = ("README.md", "docs/job-protocol.md")


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def strip_code(text):
    """Blank out comments and string/char literal contents, keeping
    line structure so finding line numbers stay true."""
    out = []
    i = 0
    n = len(text)
    mode = "code"  # code | line-comment | block-comment | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
            elif c == "'":
                mode = "chr"
            out.append(c)
        elif mode == "line-comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block-comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


class File:
    """One source file: raw lines (for allows), stripped lines (for
    matching), and repo-relative path."""

    def __init__(self, rel, text):
        self.rel = rel
        self.raw_lines = text.splitlines()
        self.lines = strip_code(text).splitlines()

    def allows(self, rule, lineno):
        """lint-allow on the flagged line or the line above. Returns
        (allowed, problem): an allow without a (reason) is reported
        instead of honored."""
        for at in (lineno, lineno - 1):
            if 1 <= at <= len(self.raw_lines):
                match = ALLOW_RE.search(self.raw_lines[at - 1])
                if match and match.group("rule") == rule:
                    if not match.group("reason"):
                        return True, (f"{self.rel}:{at}: lint-allow: "
                                      f"{rule} without a (reason)")
                    return True, None
        return False, None


def findings_for_pattern(files, rule, pattern, allowed_files,
                         message):
    regex = re.compile(pattern)
    findings = []
    for file in files:
        if file.rel in allowed_files:
            continue
        for lineno, line in enumerate(file.lines, start=1):
            if not regex.search(line):
                continue
            allowed, problem = file.allows(rule, lineno)
            if allowed:
                if problem:
                    findings.append(problem)
                continue
            findings.append(f"{file.rel}:{lineno}: {message}")
    return findings


def check_raw_getenv(files, _root, _help_bins):
    return findings_for_pattern(
        files, "raw-getenv",
        r"\b(?:secure_getenv|getenv|setenv|putenv|unsetenv)\s*\(",
        {"src/util/env.cc"},
        "raw environment access -- use the src/util/env helpers "
        "(envInt/envString/envLower), which warn on malformed values "
        "[raw-getenv]")


def check_wallclock_entropy(files, _root, _help_bins):
    return findings_for_pattern(
        files, "wallclock-entropy",
        r"\b(?:rand|srand)\s*\(|\btime\s*\(|\brandom_device\b",
        set(),
        "wall-clock or libc entropy -- all randomness must come from "
        "the seeded RNG layer (util/rng.h) or determinism breaks "
        "[wallclock-entropy]")


# Variables (locals, members, reference/pointer parameters) declared
# with an unordered container type in the same file.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{]*?>\s*[&*]?\s*"
    r"(?P<var>\w+)\s*[;{=,()]")
# A loop that walks one: range-for over the variable (possibly via
# obj.member), or an iterator for-loop calling begin()/cbegin() on it.
# Point lookups (find/count) and copy-into-sorted constructions
# (std::map sorted(c.begin(), c.end())) deliberately do not match.
LOOP_TEMPLATE = (r"for\s*\([^)]*:\s*(?:\w+(?:\.|->))*{var}\b"
                 r"|for\s*\([^)]*\b{var}\s*(?:\.|->)\s*"
                 r"(?:begin|cbegin)\s*\(")


def check_unordered_iteration(files, _root, _help_bins):
    findings = []
    for file in files:
        variables = set()
        for line in file.lines:
            for match in UNORDERED_DECL_RE.finditer(line):
                variables.add(match.group("var"))
        if not variables:
            continue
        loop_re = re.compile("|".join(
            LOOP_TEMPLATE.format(var=re.escape(var))
            for var in sorted(variables)))
        for lineno, line in enumerate(file.lines, start=1):
            if not loop_re.search(line):
                continue
            allowed, problem = file.allows("unordered-iteration",
                                           lineno)
            if allowed:
                if problem:
                    findings.append(problem)
                continue
            findings.append(
                f"{file.rel}:{lineno}: iteration over an unordered "
                f"container -- hash order must never feed serialized "
                f"output; sort first, or annotate why order cannot "
                f"leak [unordered-iteration]")
    return findings


def check_raw_stderr(files, _root, _help_bins):
    return findings_for_pattern(
        files, "raw-stderr",
        r"\bfprintf\s*\(\s*stderr\b|\bfputs\s*\([^;]*,\s*stderr\s*\)",
        {"src/util/logging.h", "src/util/env.cc"},
        "raw stderr write in library code -- use VLQ_WARN / "
        "VLQ_WARN_ONCE (or VLQ_FATAL/VLQ_PANIC for unrecoverable "
        "states) from util/logging.h [raw-stderr]")


def registry_names(root):
    names = []
    for rel in REGISTRY_SOURCES:
        try:
            with open(os.path.join(root, rel)) as fh:
                text = fh.read()
        except OSError as exc:
            return None, f"{rel}: unreadable registry source ({exc})"
        found = [m.group("name")
                 for m in REGISTRY_NAME_RE.finditer(text)]
        if not found:
            return None, (f"{rel}: no registry names matched -- the "
                          f"registration list moved; update "
                          f"check_invariants.py")
        names.extend((rel, name) for name in found)
    return names, None


def check_registry_docs(_files, root, help_bins):
    names, problem = registry_names(root)
    if problem:
        return [problem]
    findings = []
    docs = {}
    for rel in REGISTRY_DOC_TARGETS:
        try:
            with open(os.path.join(root, rel)) as fh:
                docs[rel] = fh.read()
        except OSError as exc:
            findings.append(f"{rel}: unreadable ({exc})")
    for rel, text in docs.items():
        for source, name in names:
            if name not in text:
                findings.append(
                    f"{rel}: registered name '{name}' (from {source}) "
                    f"is undocumented here [registry-docs]")
    if help_bins:
        combined = ""
        for binary in help_bins:
            try:
                proc = subprocess.run([binary, "--help"],
                                      capture_output=True, text=True,
                                      timeout=30)
            except (OSError, subprocess.TimeoutExpired) as exc:
                findings.append(f"{binary}: failed to run --help "
                                f"({exc}) [registry-docs]")
                continue
            combined += proc.stdout + proc.stderr
        for source, name in names:
            if name not in combined:
                findings.append(
                    f"--help output: registered name '{name}' (from "
                    f"{source}) appears in no binary's help text "
                    f"[registry-docs]")
    return findings


RULES = [
    ("raw-getenv", check_raw_getenv),
    ("wallclock-entropy", check_wallclock_entropy),
    ("unordered-iteration", check_unordered_iteration),
    ("raw-stderr", check_raw_stderr),
    ("registry-docs", check_registry_docs),
]


def load_sources(root):
    files = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for filename in sorted(filenames):
            if not filename.endswith(SOURCE_EXTENSIONS):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path) as fh:
                files.append(File(rel, fh.read()))
    files.sort(key=lambda file: file.rel)
    return files


def self_test(root):
    """Prove every rule fires on its bad fixtures and stays silent on
    its good ones. Fixture naming contract:
    tools/invariant_fixtures/<rule>/{bad,good}*.cc -- each bad file
    must produce >= 1 finding for exactly its rule, each good file
    zero findings."""
    fixtures = os.path.join(root, "tools", "invariant_fixtures")
    problems = []
    covered = set()
    code_rules = {name: fn for name, fn in RULES
                  if name != "registry-docs"}
    for rule, fn in sorted(code_rules.items()):
        rule_dir = os.path.join(fixtures, rule)
        cases = sorted(os.listdir(rule_dir)) \
            if os.path.isdir(rule_dir) else []
        if not any(case.startswith("bad") for case in cases) \
                or not any(case.startswith("good") for case in cases):
            problems.append(f"{rule}: fixture corpus must contain at "
                            f"least one bad* and one good* file")
            continue
        covered.add(rule)
        for case in cases:
            path = os.path.join(rule_dir, case)
            with open(path) as fh:
                # Fixtures pose as files in src/ so allowlists (which
                # name real files) never exempt them.
                file = File(f"src/fixture/{rule}/{case}", fh.read())
            findings = fn([file], root, [])
            rel = os.path.relpath(path, root)
            if case.startswith("bad") and not findings:
                problems.append(f"{rel}: expected the {rule} rule to "
                                f"fire; it stayed silent")
            if case.startswith("good") and findings:
                problems.append(f"{rel}: expected no findings, got: "
                                f"{findings[0]}")
    # registry-docs self-test: a registry list naming an undocumented
    # backend must fire against fixture docs.
    reg_dir = os.path.join(fixtures, "registry-docs")
    sample = os.path.join(reg_dir, "bad_registry.cc")
    try:
        with open(sample) as fh:
            text = fh.read()
        names = [m.group("name")
                 for m in REGISTRY_NAME_RE.finditer(text)]
        with open(os.path.join(reg_dir, "good_readme.md")) as fh:
            readme = fh.read()
        undocumented = [name for name in names if name not in readme]
        if not names:
            problems.append("registry-docs: bad_registry.cc fixture "
                            "matched no names; the extraction regex "
                            "rotted")
        elif not undocumented:
            problems.append("registry-docs: fixture corpus no longer "
                            "contains an undocumented name")
        else:
            covered.add("registry-docs")
    except OSError as exc:
        problems.append(f"registry-docs fixtures unreadable: {exc}")

    missing = {name for name, _fn in RULES} - covered
    for rule in sorted(missing):
        problems.append(f"{rule}: no passing self-test coverage")
    if problems:
        for problem in problems:
            print(f"SELF-TEST FAIL: {problem}")
        return 1
    print(f"self-test OK: {len(RULES)} rule(s) fire on bad fixtures "
          f"and stay silent on good ones")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Lint repo-specific invariants: env access, "
                    "entropy sources, unordered-container iteration, "
                    "stderr discipline, registry/doc sync.")
    ap.add_argument("--root", default=repo_root(),
                    help="repository root (default: the checkout "
                         "containing this tool)")
    ap.add_argument("--help-bin", action="append", default=[],
                    metavar="BIN",
                    help="built binary whose --help must mention "
                         "every registry name (repeatable; CI passes "
                         "the scan CLIs after the build step)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules against the fixture corpus "
                         "instead of the tree")
    ap.add_argument("--list", action="store_true",
                    help="print the rule table and exit")
    args = ap.parse_args()

    if args.list:
        print(__doc__)
        return 0
    if args.self_test:
        return self_test(args.root)

    files = load_sources(args.root)
    if not files:
        sys.exit(f"error: no sources under {args.root}/src")
    findings = []
    for _name, fn in RULES:
        findings.extend(fn(files, args.root, args.help_bin))

    if findings:
        for finding in findings:
            print(f"FAIL: {finding}")
        print(f"{len(findings)} invariant violation(s)")
        return 1
    print(f"OK: {len(files)} source file(s), {len(RULES)} rule(s), "
          f"0 violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
