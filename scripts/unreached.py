#!/usr/bin/env python3
"""List the functions of ``src/groupwalk`` that a set of jobs never enters.

Run from the root of a checkout::

    python3 scripts/unreached.py exact:0 exact:7 identities:0 identities:7 \\
        approx:0 approx:7 cli

The runs are those of ``compare_outputs.py``, and its ``collect`` runs
them in this process with this checkout's ``src`` first on the path: each
``WORKLOAD:SEED`` stands for the jobs of one pass of
``perfbench/workloads.generate(WORKLOAD, SEED, passes=1)``, and ``cli`` for
its fixed CLI spec (``cli_jobs``, ``selftest`` among them).
``sys.setprofile`` records the code of every Python call from before
``groupwalk`` is imported, so calls made at import count as entered.

Every function and method that a ``def`` in ``src/groupwalk/*.py`` defines,
nested ones included, is matched by its file and first line (for a
decorated one, its first decorator's line). Each one that no job entered is
printed as ``FILE:LINE QUALNAME``, in file and line order, and a count
follows. A generator function counts as entered once it is first resumed.
A forked Monte Carlo worker is not seen, but span 0 runs the same functions
in this process. Reads ``perfbench/`` and writes nothing under it.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

import compare_outputs

ROOT = compare_outputs.ROOT
SRC = os.path.join(ROOT, "src", "groupwalk")


def defined_functions(src_dir: str) -> list:
    """(path, first line, qualified name) of every def in the package."""
    found = []

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    found.append((path, first, name))
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(src_dir, name))
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read(), path), path, "")
    return found


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("specs", nargs="+", metavar="WORKLOAD:SEED|cli")
    args = p.parse_args(argv)
    for spec in args.specs:
        workload, _, seed = spec.partition(":")
        if not (spec == compare_outputs.CLI_SPEC
                or workload and seed.isdigit()):
            p.error("each run is WORKLOAD:SEED or cli")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename,
                         frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        # the jobs and outputs of compare_outputs.py; the outputs are dropped
        compare_outputs.collect(ROOT, args.specs, os.devnull)
    finally:
        sys.setprofile(None)
    entered = {(os.path.realpath(path), line) for path, line in entered}
    functions = defined_functions(SRC)
    unreached = [(path, line, name) for path, line, name in functions
                 if (path, line) not in entered]
    for path, line, name in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(unreached)} of {len(functions)} functions unreached by "
          f"{' '.join(args.specs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
