"""Print every statement of ``src/nnmix`` that the tier-1 suite never runs.

    python tests/trace_unrun.py [pytest arguments]

The script runs the suite (``tests/`` unless arguments name other paths)
in this process under ``sys.settrace`` and then prints, file by file, each
statement that no traced frame reached, as ``path:line: source``.  It
uses the standard library only; pytest, which runs the suite, is the one
import beyond it.  Tests that run the package in a subprocess (the
``python -m nnmix`` ones) are not traced, so a statement only they reach
is printed too.  A statement is the first line of an ``ast`` statement
that compiles to bytecode, so docstrings and ``global`` lines never count
as unrun.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nnmix"


def _code_lines(code) -> set[int]:
    """The lines of ``code`` and of the code objects nested in it that
    carry bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> set[int]:
    """First lines of the statements of ``path`` that compile to bytecode."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def main(argv: list[str]) -> int:
    import pytest

    files = {str(path): statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    seen = {name: set() for name in files}
    left = {}  # per traced code object: its statements not yet run

    def local(frame, event, arg):
        if event == "line":
            lines = left[frame.f_code]
            lines.discard(frame.f_lineno)
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            if not lines:  # every statement of this code has run
                frame.f_trace = None
                return None
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        lines = left.get(code)
        if lines is None:
            if code.co_filename not in files:
                return None
            lines = left[code] = {line for _, _, line in code.co_lines()
                                  if line in files[code.co_filename]}
        return local if lines else None

    sys.path.insert(0, str(PACKAGE.parent))  # the package is imported under trace
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
                             + (argv or [str(ROOT / "tests")]))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    for name, lines in files.items():
        text = Path(name).read_text().splitlines()
        for line in sorted(lines - seen[name]):
            print(f"{os.path.relpath(name, ROOT)}:{line}: {text[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} statements of src/nnmix never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
