#!/usr/bin/env python3
"""Fails if a src/ path cited in the design docs does not exist.

Usage:
    scripts/check_doc_paths.py [DOC ...]     # default: DESIGN.md README.md

Every token starting with `src/` in each document is taken as a path
relative to the repository root. Citations may use shell globs
(`src/obs/profiler*`, `src/data/world.*`) and brace alternatives
(`src/nn/gemm.{h,cc}`); every brace alternative must match at least one
file or directory. Exits 1 and lists each dangling citation with its
line number, so renamed or deleted modules cannot linger in the docs.
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


def main(argv):
    docs = argv or ["DESIGN.md", "README.md"]
    failures = []
    for doc in docs:
        failures.extend(check(doc))
    for failure in failures:
        print(f"missing path: {failure}")
    if failures:
        print(f"{len(failures)} cited src/ path(s) do not exist")
        return 1
    print(f"all cited src/ paths exist ({', '.join(docs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
