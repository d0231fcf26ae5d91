#!/usr/bin/env python3
"""Fails if a src/ path or a README.md flag cited in the docs does not exist.

Usage:
    scripts/check_doc_paths.py [DOC ...]     # default: DESIGN.md README.md

Every token starting with `src/` in each document is taken as a path
relative to the repository root. Citations may use shell globs
(`src/obs/profiler*`, `src/data/world.*`) and brace alternatives
(`src/nn/gemm.{h,cc}`); every brace alternative must match at least one
file or directory.

Every `--flag` inside an inline backtick span of README.md must also
appear as a `"--flag` string literal in a file under examples/, bench/ or
scripts/ — the places that parse command lines. Fenced code blocks are
skipped (they also show cmake, ctest and google-benchmark flags).

Exits 1 and lists each dangling citation with its line number, so renamed
or deleted modules and flags cannot linger in the docs.
"""
import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A path starts at `src/` not preceded by another path character (so
# `perfbench/src/x` or `build/src/x` are not citations of the source tree).
PATH_RE = re.compile(r"(?<![\w/.-])src/[\w./*{},-]*")
BRACE_RE = re.compile(r"\{([^{}]*)\}")
SPAN_RE = re.compile(r"`([^`\n]+)`")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][\w-]*")
FLAG_DOC = "README.md"
FLAG_DIRS = ("examples", "bench", "scripts")


def expand_braces(pattern):
    match = BRACE_RE.search(pattern)
    if match is None:
        return [pattern]
    head, tail = pattern[:match.start()], pattern[match.end():]
    out = []
    for alt in match.group(1).split(","):
        out.extend(expand_braces(head + alt + tail))
    return out


def dangling(token):
    """Returns the brace alternatives of `token` that match nothing."""
    missing = []
    for pattern in expand_braces(token):
        if not glob.glob(os.path.join(ROOT, pattern)):
            missing.append(pattern)
    return missing


def check(doc):
    failures = []
    with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for raw in PATH_RE.findall(line):
                # Sentence punctuation after a citation is not part of it.
                token = raw.rstrip(".,")
                for pattern in dangling(token):
                    failures.append(f"{doc}:{lineno}: {token}"
                                    + (f" ({pattern})" if pattern != token
                                       else ""))
    return failures


def cited_flags(doc):
    """Yields (lineno, flag) for each flag in an inline backtick span."""
    in_fence = False
    with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for span in SPAN_RE.findall(line):
                for flag in FLAG_RE.findall(span):
                    yield lineno, flag


def parser_sources():
    sources = []
    for top in FLAG_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                with open(os.path.join(dirpath, name), encoding="utf-8",
                          errors="replace") as f:
                    sources.append(f.read())
    return "\n".join(sources)


def check_flags(doc):
    sources = parser_sources()
    failures = []
    seen = {}
    for lineno, flag in cited_flags(doc):
        if flag not in seen:
            literal = re.compile('"' + re.escape(flag) + r"(?![\w-])")
            seen[flag] = literal.search(sources) is not None
        if not seen[flag]:
            failures.append(f"{doc}:{lineno}: {flag}")
    return failures, len(seen)


def main(argv):
    docs = argv or ["DESIGN.md", "README.md"]
    failures = []
    for doc in docs:
        failures.extend(check(doc))
    for failure in failures:
        print(f"missing path: {failure}")
    flag_failures, num_flags = [], 0
    if FLAG_DOC in docs:
        flag_failures, num_flags = check_flags(FLAG_DOC)
    for failure in flag_failures:
        print(f"unknown flag: {failure}")
    if failures:
        print(f"{len(failures)} cited src/ path(s) do not exist")
    if flag_failures:
        print(f"{len(flag_failures)} {FLAG_DOC} flag citation(s) match no "
              f"\"--flag literal under {', '.join(FLAG_DIRS)}/")
    if failures or flag_failures:
        return 1
    print(f"all cited src/ paths exist ({', '.join(docs)}); "
          f"all {num_flags} {FLAG_DOC} flags are parsed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
