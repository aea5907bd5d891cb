"""Print the lines of ``src/sclkit`` that no test runs, or check their count.

    python3 scripts/unreached_lines.py [--check] [extra pytest arguments]

The script runs ``tests/`` with pytest in this one process under
``sys.settrace`` and then prints, for each module of ``src/sclkit``, the
executable lines that no test ran, as line numbers and ranges.  A line is
executable when some code object compiled from the module lists it in
``co_lines()``; docstrings are skipped.  Tests that run the library in a
subprocess, such as the ``python -O`` tamper tests, are not seen, so a line
that only they reach is listed, and counted by ``--check``.  Tracing makes
the suite about four times slower: a run takes about two minutes on a
2-core machine.  It needs only the standard library, pytest and the test
suite's own imports.

With ``--check`` it counts the unreached lines of each function, keyed
``module.py:qualname`` (classes and enclosing functions joined by dots,
lambdas and comprehensions counted with the function around them,
``<module>`` for top-level lines), so that lines moving about do not
matter.  It compares the counts with the table in ``unreached_lines.txt``
beside it and exits 1 if any differ: a count above the table names the
function and its lines, and a count below it asks for the table to be
lowered, so the table can only shrink.  So that runs agree, hypothesis
always runs with seed 0 and no example database, and ``--check`` restarts
the script under ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sclkit"
TABLE = pathlib.Path(__file__).with_name("unreached_lines.txt")


def executable_lines(path):
    """The lines the compiled module can run, docstrings left out, each
    mapped to the qualname of the function it lies in.  A line that a
    function and the code around it both list, such as a ``def`` line,
    goes to the function."""
    source = path.read_text()
    owner = {}
    # a parent code object is read before its children, so the innermost wins
    todo = [(compile(source, str(path), "exec"), "<module>")]
    while todo:
        code, name = todo.pop()
        owner.update((line, name) for _start, _end, line in code.co_lines() if line)
        for child in code.co_consts:
            if hasattr(child, "co_lines"):
                if child.co_name.startswith("<"):
                    todo.append((child, name))
                else:
                    todo.append((child, child.co_name if name == "<module>" else f"{name}.{child.co_name}"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                for line in range(doc.lineno, doc.end_lineno + 1):
                    owner.pop(line, None)
    return owner


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
    a test on speed alone; and an example saved by an earlier failing run
    would change which lines run, so there is no example database.  The
    profile is loaded once pytest has imported hypothesis as its plugin."""

    @staticmethod
    def pytest_configure():
        from hypothesis import settings

        settings.register_profile("unreached-lines", deadline=None, database=None)
        settings.load_profile("unreached-lines")


def check(missed):
    """One line per function whose unreached-line count differs from the
    table's; ``missed`` maps each key to its unreached lines."""
    table = {}
    for line in TABLE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, count = line.split()
            table[key] = int(count)
    problems = []
    for key in sorted(table.keys() | missed.keys()):
        got, allowed = len(missed.get(key, ())), table.get(key, 0)
        if got > allowed:
            problems.append(f"{key}: {got} unreached, the table allows {allowed}: lines {ranges(missed[key])}")
        elif got < allowed:
            problems.append(f"{key}: {got} unreached, the table says {allowed}; lower the table to {got}")
    return problems


def main(argv):
    checking = "--check" in argv
    if checking and os.environ.get("PYTHONHASHSEED") != "0":
        # set and dict orders of strings follow the hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    argv = [arg for arg in argv if arg != "--check"]
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
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests"), *argv],
            plugins=[NoDeadlines()],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    by_key = {}
    for path in sorted(PACKAGE.glob("*.py")):
        owner = executable_lines(path)
        missed = owner.keys() - reached.get(str(path), set())
        print(f"{path.relative_to(ROOT / 'src')}: {ranges(missed) if missed else 'none'}")
        for line in missed:
            by_key.setdefault(f"{path.name}:{owner[line]}", []).append(line)
    if not checking:
        return int(status)
    problems = check(by_key)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"unreached lines match {TABLE.name}: {sum(map(len, by_key.values()))} in {len(by_key)} functions")
    return int(status) or int(bool(problems))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
