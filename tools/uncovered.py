"""List the statements of src/bgft that the test suite never executes.

    python tools/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process, with the given arguments (none: the suite that
pytest collects from the current directory), under a sys.settrace line
tracer that records only the lines of files under src/bgft.  It then parses
each of those files and prints every statement that never ran, as
path:line: its first source line, followed by a count per file.  Docstrings
are not counted as statements.

A simple statement ran if any of its lines ran.  A compound one (def,
class, if, for, while, with, try) ran if a line of its header ran (its
decorators through the line before its body) or any statement inside it
ran; when it never ran, it is listed alone, not with its inner statements.
Code run only in child processes (the CLI tests that start `bgft` as a
program) is not seen.  Needs only the standard library and pytest; exits
with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bgft"
DOC_PARENTS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def trace(hits: dict) -> None:
    """Install a tracer that adds each line run in a file under SRC to
    hits[resolved path]."""
    prefix = str(SRC) + os.sep
    wanted = {}  # co_filename -> the set of its lines run, or None

    def lines_of(filename):
        if filename not in wanted:
            path = os.path.realpath(filename)
            wanted[filename] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        return wanted[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    threading.settrace(tracer)


def children(node) -> list:
    """The statements directly inside a compound statement."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += getattr(node, field, [])
    for handler in getattr(node, "handlers", []):
        out += handler.body
    for case in getattr(node, "cases", []):
        out += case.body
    return out


def is_docstring(node, parent) -> bool:
    return (isinstance(parent, DOC_PARENTS) and node is parent.body[0]
            and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unrun(parent, lines: set) -> tuple[bool, list]:
    """(whether any statement in parent's body ran, the outermost statements
    in it that never ran)."""
    any_ran, missed = False, []
    for node in children(parent):
        if is_docstring(node, parent):
            continue
        inner = children(node)
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        end = max(start, inner[0].lineno - 1) if inner else node.end_lineno
        ran = not lines.isdisjoint(range(start, end + 1))
        inner_ran, inner_missed = unrun(node, lines) if inner else (False, [])
        if ran or inner_ran:
            any_ran = True
            missed += inner_missed
        else:
            missed.append(node)
    return any_ran, missed


def main(argv) -> int:
    hits = {}
    trace(hits)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        _, missed = unrun(ast.parse(source), hits.get(str(path.resolve()), set()))
        text = source.splitlines()
        for node in missed:
            print(f"{os.path.relpath(path)}:{node.lineno}: {text[node.lineno - 1].strip()}")
        print(f"{os.path.relpath(path)}: {len(missed)} statements never ran")
        total += len(missed)
    print(f"{total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
