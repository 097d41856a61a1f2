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
as unrun.

The exit status is 1 when an unrun statement lies outside ``__main__.py``,
an ``if __name__ == "__main__":`` block and an ``if TYPE_CHECKING:``
block, which only a subprocess or a type checker runs; otherwise it is
pytest's.
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


def _is_guard(test: ast.expr) -> bool:
    """Whether an ``if`` test is ``__name__ == "__main__"`` or ``TYPE_CHECKING``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__" and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def guarded(path: Path) -> set[int]:
    """First lines of the statements of ``path`` that only a subprocess or a
    type checker runs: all of ``__main__.py``, and the bodies of its
    ``if __name__ == "__main__":`` and ``if TYPE_CHECKING:`` blocks."""
    tree = ast.parse(path.read_text())
    if path.name == "__main__.py":
        return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return {node.lineno for block in ast.walk(tree)
            if isinstance(block, ast.If) and _is_guard(block.test)
            for stmt in block.body for node in ast.walk(stmt) if isinstance(node, ast.stmt)}


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
    unrun = unguarded = 0
    for name, lines in files.items():
        text = Path(name).read_text().splitlines()
        excused = guarded(Path(name))
        for line in sorted(lines - seen[name]):
            print(f"{os.path.relpath(name, ROOT)}:{line}: {text[line - 1].strip()}")
            unrun += 1
            unguarded += line not in excused
    print(f"{unrun} statements of src/nnmix never ran, {unguarded} of them outside "
          "__main__.py and the __main__ and TYPE_CHECKING blocks")
    return 1 if unguarded else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
