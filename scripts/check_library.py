"""Static checks of the library source, one function each.

    python3 scripts/check_library.py

The checks read the parsed source of ``src/sclkit`` (and, where they say
so, of ``tests`` and ``perfbench``): every definition is used, every
parameter is read, every import is used, every name a docstring or comment
puts in double backticks exists, and the library imports only the standard
library.  All five run; each failing check prints its name, its advice and
one line per failure.  The script exits 1 if any check fails, else 0.
"""

from __future__ import annotations

import ast
import builtins
import os
import pathlib
import re
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public API that only tests/ names today; wire each into the
# pipeline or move it into tests/, then drop it from this list
TESTS_ONLY = {
    "parse_complex", "print_complex",
    "ConeComplex.boundary_degrees",
    "parse_chain_file", "print_homology",
    "LpResult.certificate", "MoveLog.text",
    "default_rot_structure", "scl_compare_under_inclusion",
    "disjoint_union",
    "parse_edge_chain", "OneChain.text", "EdgeChain.text",
}


def unused_definitions():
    """Every library definition, methods and class fields included, is
    referenced somewhere else, and outside tests/ unless allow-listed."""
    files = [p for d in ("src", "tests", "perfbench") for p in sorted(pathlib.Path(d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text()) for p in files}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    sclkit_modules = {p.stem for p in pathlib.Path("src/sclkit").glob("*.py")}

    def module_names(tree):
        """Names that an import binds to a module: "import a.b" binds a,
        "import a.b as m" and "from sclkit import homology" bind m and homology."""
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                out.update(a.asname or a.name for a in node.names if a.name in sclkit_modules)
        return out

    def references(node, modules):
        """("name", x) for a module-level name x read as an ast.Name, imported,
        or read as an attribute of an imported module; ("attr", x) for any
        attribute x, the way methods and fields are reached."""
        refs = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                refs["name", sub.id] += 1
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                refs.update(("name", a.name.split(".")[-1]) for a in sub.names)
            elif isinstance(sub, ast.Attribute):
                refs["attr", sub.attr] += 1
                root = sub.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    refs["name", sub.attr] += 1
        return refs

    def traced_names(tree):
        """The perfbench tracer reaches the functions, classes and methods that
        its TRACED table names as "name" or "Class.method" strings."""
        refs = Counter()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        for part in sub.value.split("."):
                            refs.update((("name", part), ("attr", part)))
        return refs

    file_refs = {}
    for p, tree in trees.items():
        modules = module_names(tree)
        file_refs[p] = (modules, references(tree, modules) + traced_names(tree))

    unused = []
    tests_only = set()
    for path in sorted(pathlib.Path("src/sclkit").glob("*.py")):
        body = [node for node in trees[path].body if isinstance(node, kinds)]
        # module-level definitions are reached by name, and the non-dunder
        # methods of classes by attribute access (.name)
        defs = [(node.name, ("name", node.name), node) for node in body]
        for cls in body:
            if isinstance(cls, ast.ClassDef):
                defs += [
                    (f"{cls.name}.{node.name}", ("attr", node.name), node)
                    for node in cls.body
                    if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
                # annotated fields (dataclasses, NamedTuples) must be read as .field somewhere
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        if not any(refs["attr", node.target.id] for _, refs in file_refs.values()):
                            unused.append(f"{path}:{node.lineno}: {cls.name}.{node.target.id} (field never read)")
        modules = file_refs[path][0]
        for label, key, node in defs:
            # a reference inside the definition itself is no use of it
            inside = references(node, modules)[key]
            named = {p.parts[0] for p, (_, refs) in file_refs.items() if refs[key] > (inside if p == path else 0)}
            if not named:
                unused.append(f"{path}:{node.lineno}: {label}")
            elif named == {"tests"}:
                tests_only.add(label)
                if label not in TESTS_ONLY:
                    unused.append(f"{path}:{node.lineno}: {label} (named only in tests/)")
    unused += [f"allow-list: {label} is no longer named only in tests/" for label in sorted(TESTS_ONLY - tests_only)]
    return "named nowhere but in its own definition or in tests/; wire it in or delete it:", unused


def unread_parameters():
    """Every parameter of a library def or lambda is read in its body."""
    # a parameter that no call needs is dead weight every caller carries; one
    # that the function was meant to read is a bug
    unread = []
    for path in sorted(pathlib.Path("src/sclkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{path}:{node.lineno}: {name}({p.arg})"
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
            ]
    return "a parameter that the body never reads; drop it and update the callers:", unread


def unused_imports():
    """Every import in the library and the tests is used."""
    unused = []
    # __init__.py imports to re-export
    for path in [*sorted(pathlib.Path("src/sclkit").glob("*.py")), *sorted(pathlib.Path("tests").glob("*.py"))]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    # "import a.b" binds a
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path}:{line}: {name}" for name, line in sorted(imported.items()) if name not in read]
    return "imported but never used; delete the import:", unused


def double_backticked_names():
    """Every name a docstring or comment puts in double backticks exists in
    the library."""
    # a name in double backticks is a promise that the reader can find it:
    # snake_case, or written as a call, its last dotted part must be bound in
    # the library (a def, a class, a parameter, a name or an attribute) or be
    # a builtin
    files = sorted(pathlib.Path("src/sclkit").glob("*.py"))
    bound = set(dir(builtins)) | {path.stem for path in files}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, ast.Name):
                bound.add(node.id)
            elif isinstance(node, ast.Attribute):
                bound.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    name = re.compile(r"``([A-Za-z_][\w.]*)(\(.*?\))?``")
    stale = []
    for path in files:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in name.finditer(line):
                last = m.group(1).split(".")[-1]
                snake = re.fullmatch(r"[a-z_][a-z0-9_]*", last)
                if (snake or m.group(2)) and last not in bound:
                    stale.append(f"{path}:{lineno}: ``{m.group(0)[2:-2]}``")
    return "a docstring or comment names something the library does not define:", stale


def standard_library_only():
    """The library imports nothing outside the standard library."""
    # a third-party import costs set-up time and memory in every
    # benchmark workload: scipy.optimize alone takes peak RSS from 13 to 76 MB
    foreign = []
    for path in sorted(pathlib.Path("src/sclkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "sclkit":
                    foreign.append(f"{path}:{node.lineno}: {name}")
    return "the library imports a module outside the standard library:", foreign


CHECKS = {
    "unused definitions": unused_definitions,
    "unread parameters": unread_parameters,
    "unused imports": unused_imports,
    "double-backticked names": double_backticked_names,
    "standard-library-only imports": standard_library_only,
}


def main():
    # the checks read paths relative to the repository root, and print them so
    os.chdir(ROOT)
    failed = False
    for label, check in CHECKS.items():
        advice, failures = check()
        if failures:
            failed = True
            print(f"== {label} ==")
            print(advice)
            print("\n".join(failures))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
