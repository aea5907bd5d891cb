"""Print the lines of ``src/sclkit`` that no test runs.

    python3 scripts/unreached_lines.py [extra pytest arguments]

The script runs ``tests/`` with pytest in this one process under
``sys.settrace`` and then prints, for each module of ``src/sclkit``, the
executable lines that no test ran, as line numbers and ranges.  A line is
executable when some code object compiled from the module lists it in
``co_lines()``; docstrings are skipped.  Tests that run the library in a
subprocess, such as the ``python -O`` tamper tests, are not seen, so a line
that only they reach is listed.  Tracing makes the suite about four times
slower: a run takes about two minutes on a 2-core machine.  It needs only
the standard library, pytest and the test suite's own imports.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sclkit"


def executable_lines(path):
    """Line numbers the compiled module can run, docstrings left out."""
    source = path.read_text()
    lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return lines


def ranges(numbers):
    """'3, 5-7, 10' for [3, 5, 6, 7, 10]."""
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


class NoDeadlines:
    """Tracing slows every hypothesis example down, so a deadline would fail
    a test on speed alone.  The profile is loaded once pytest has imported
    hypothesis as its plugin."""

    @staticmethod
    def pytest_configure():
        from hypothesis import settings

        settings.register_profile("unreached-lines", deadline=None)
        settings.load_profile("unreached-lines")


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    reached = {}

    def local(frame, event, _arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv], plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - reached.get(str(path), set())
        print(f"{path.relative_to(ROOT / 'src')}: {ranges(missed) if missed else 'none'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
