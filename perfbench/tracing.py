"""Spans and counters around sclkit's public functions, from outside sclkit.

``Tracer.installed()`` replaces each traced function on every sclkit module
attribute that refers to it (``sclkit.homology.rank_q`` as well as
``sclkit.exactlin.rank_q``), and each traced class's ``__init__``, so the
callers' own look-ups reach the wrapper.  Leaving the context restores the
originals.

A span is ``[id, parent id, name, instance, start, end, failed]``; spans of
one instance share the instance tag, and a span's parent is the innermost
traced call open when it started.  A layer's self time is the duration of
its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# layer -> traced names; "Class" wraps construction, "Class.method" a method
TRACED = {
    "words": ("parse_chain",),
    "lp": ("solve_lp", "replay_check"),
    "scl": ("scl_lp", "RotStructure", "rot_value", "bavard_sandwich"),
    "exactlin": ("rank_q", "smith_normal_form", "kernel_q", "kernel_z", "solve_q", "mat_mul"),
    "homology": (
        "boundary_matrices",
        "homology",
        "relative_homology",
        "cone_complex",
        "is_orientable",
        "check_support_lemma",
    ),
    "complexes": ("surface_check", "link_graph", "barycentric"),
    "surfaces": ("AdmissibleSurface", "subsurface_as_admissible", "AdmissibleSurface.standard_form_report"),
    "rewrite": ("make_standard_form", "connect_link", "eliminate_fold", "remove_trivial_components"),
    "fixtures": (
        "ambient_pair",
        "torus",
        "fold_necklace",
        "fold_fixture",
        "double_fold_fixture",
        "figlnk",
        "t_itself",
        "sigma_genus1",
    ),
}

COUNTER_SPAN = "bench.counters"


def _count_lp(add, args, kwargs, result):
    objective, a_rows = args[0], args[1]
    add("lp.pivots", result.pivots)
    add("lp.rows", len(a_rows))
    add("lp.cols", len(objective))
    add("lp.nnz", sum(1 for row in a_rows for x in row if x))


def _count_scl(add, args, kwargs, result):
    add("scl.lp_path", int(result.method == "lp"))


def _count_rank(add, args, kwargs, result):
    mat = args[0]
    add("exactlin.rank_q.entries", len(mat) * (len(mat[0]) if mat else 0))


def _count_moves(add, args, kwargs, result):
    add("rewrite.moves", len(result[1].entries))


# counters read from a call's arguments and result, after its span closes
HOOKS = {
    "lp.solve_lp": _count_lp,
    "scl.scl_lp": _count_scl,
    "exactlin.rank_q": _count_rank,
    "rewrite.make_standard_form": _count_moves,
}

# (metric, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("lp.solve_lp.s", "s", "lower"),
    ("lp.solve_lp.calls", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.rows", "count", "lower"),
    ("lp.cols", "count", "lower"),
    ("lp.nnz", "count", "lower"),
    ("lp.replay_check.s", "s", "lower"),
    ("scl.scl_lp.s", "s", "lower"),
    ("scl.scl_lp.calls", "count", "lower"),
    ("scl.lp_path_frac", "ratio", "lower"),
    ("scl.RotStructure.s", "s", "lower"),
    ("scl.rot_value.s", "s", "lower"),
    ("exactlin.rank_q.s", "s", "lower"),
    ("exactlin.rank_q.calls", "count", "lower"),
    ("exactlin.rank_q.entries", "count", "lower"),
    ("exactlin.smith_normal_form.s", "s", "lower"),
    ("exactlin.smith_normal_form.calls", "count", "lower"),
    ("exactlin.kernel_q.s", "s", "lower"),
    ("exactlin.kernel_z.s", "s", "lower"),
    ("exactlin.solve_q.s", "s", "lower"),
    ("exactlin.mat_mul.s", "s", "lower"),
    ("homology.boundary_matrices.s", "s", "lower"),
    ("homology.boundary_matrices.calls", "count", "lower"),
    ("homology.homology.s", "s", "lower"),
    ("homology.relative_homology.s", "s", "lower"),
    ("homology.cone_complex.s", "s", "lower"),
    ("homology.is_orientable.s", "s", "lower"),
    ("homology.check_support_lemma.s", "s", "lower"),
    ("complexes.surface_check.s", "s", "lower"),
    ("complexes.surface_check.calls", "count", "lower"),
    ("complexes.link_graph.s", "s", "lower"),
    ("complexes.link_graph.calls", "count", "lower"),
    ("complexes.barycentric.s", "s", "lower"),
    ("surfaces.AdmissibleSurface.s", "s", "lower"),
    ("surfaces.AdmissibleSurface.calls", "count", "lower"),
    ("surfaces.subsurface_as_admissible.s", "s", "lower"),
    ("surfaces.standard_form_report.s", "s", "lower"),
    ("rewrite.make_standard_form.s", "s", "lower"),
    ("rewrite.moves", "count", "lower"),
    ("rewrite.connect_link.calls", "count", "lower"),
    ("rewrite.connect_link.failed", "count", "lower"),
    ("rewrite.connect_link.useful_frac", "ratio", "higher"),
    ("rewrite.eliminate_fold.calls", "count", "lower"),
    ("rewrite.eliminate_fold.failed", "count", "lower"),
    ("rewrite.remove_trivial_components.s", "s", "lower"),
    ("words.parse_chain.s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.fail_frac", "ratio", "lower"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # seconds; the benchmark's clock leaves out host-speed sampling
        self.spans = []
        self.counters = {}  # (instance, name) -> total
        self.instance = "setup"
        self.enabled = True
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, self.instance, self.clock(), None, False]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        except BaseException:
            record[6] = True
            raise
        finally:
            record[5] = self.clock()
            self._stack.pop()

    def add(self, name, amount):
        key = (self.instance, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def paused(self):
        """Run untraced, e.g. the output checks."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span(COUNTER_SPAN):
                    hook(self.add, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function and class of sclkit while inside."""
        for layer in TRACED:
            importlib.import_module(f"sclkit.{layer}")
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("sclkit.") and m is not None]
        undo = []
        try:
            for layer, names in TRACED.items():
                mod = sys.modules[f"sclkit.{layer}"]
                for name in names:
                    owner_name, _, method = name.partition(".")
                    owner = getattr(mod, owner_name)
                    if isinstance(owner, type):
                        attr = method or "__init__"
                        span_name = f"{layer}.{method or owner_name}"
                        original = owner.__dict__[attr]
                        setattr(owner, attr, self.wrap(span_name, original))
                        undo.append((owner, attr, original))
                        continue
                    wrapper = self.wrap(f"{layer}.{name}", owner)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is owner:
                                setattr(m, attr, wrapper)
                                undo.append((m, attr, owner))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    # -- reading the trace ---------------------------------------------------

    def group_totals(self, instances):
        """Self time, calls and failures per span name, and counters, over
        the spans whose instance is in ``instances``."""
        chosen = [s for s in self.spans if s[3] in instances]
        child_time = {}
        for s in chosen:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
        out = {}
        for s in chosen:
            name = s[2]
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (s[5] - s[4]) - child_time.get(s[0], 0.0)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + int(s[6])
        for (instance, name), total in self.counters.items():
            if instance in instances:
                out[name] = out.get(name, 0) + total
        return out

    def to_json(self):
        return {
            "fields": ["id", "parent", "name", "instance", "start", "end", "failed"],
            "spans": self.spans,
            "counters": [[i, n, v] for (i, n), v in sorted(self.counters.items())],
        }


def _derived(totals):
    calls = totals.get("scl.scl_lp.calls", 0)
    totals["scl.lp_path_frac"] = totals.get("scl.lp_path", 0) / calls if calls else 0.0
    calls = totals.get("rewrite.connect_link.calls", 0)
    failed = totals.get("rewrite.connect_link.failed", 0)
    totals["rewrite.connect_link.useful_frac"] = (calls - failed) / calls if calls else 0.0
    return totals


def layer_metrics(tracer: Tracer, passes):
    """Per-layer metrics of one set-up plus one pass.

    ``passes`` holds, per traced pass, the set of that pass's instance tags.  Times
    are the set-up's plus the median over passes; counts are the set-up's
    plus the first pass's, and ``counts_repeat`` says whether every pass
    gave the same counts.
    """
    setup = tracer.group_totals({"setup"})
    per_pass = [tracer.group_totals(tags) for tags in passes]
    names = set(setup).union(*per_pass)
    out = {}
    counts_repeat = True
    for name in names:
        values = [p.get(name, 0) for p in per_pass]
        if name.endswith(".s"):
            out[name] = setup.get(name, 0.0) + statistics.median(values)
        else:
            out[name] = setup.get(name, 0) + values[0]
            counts_repeat = counts_repeat and all(v == values[0] for v in values)
    return _derived(out), counts_repeat
