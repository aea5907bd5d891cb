"""The benchmark's three workloads: fixed inputs, the timed call of each
instance, and the check of its output.

``build(name)`` imports sclkit and builds every input of a workload; that is
the set-up that ``setup_s`` times.  Nothing here imports sclkit at module
level, so a fresh process pays the import inside ``build``.

Each workload stresses different layers, so that a change to one layer has
a workload that exercises it and one that bypasses it:

* ``scl_chains``: exact scl through the LP.  Time goes to the dense
  ``Fraction`` simplex in ``lp``; ``homology``, ``surfaces`` and ``rewrite``
  are never called.
* ``ambient_certify``: the paper's certification that a subsurface T of an
  ambient surface S satisfies scl_S = scl_T, on barycentric subdivisions.
  Time goes to exact rank, Smith normal form, kernels and ``solve_q``; scl
  takes the forced path (no LP) and standard form makes no moves.
* ``fold_necklaces``: ``make_standard_form`` on folded surfaces.  Time goes
  to rewriting moves and to re-validating rebuilt surfaces
  (``surface_check`` -> ``link_graph``), with no LP and almost no homology.

Expected values were recorded on the seed implementation; an output that
differs from them fails its check.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable


class CheckFailed(AssertionError):
    """An instance returned an output that is not the expected one."""


def expect(ok, message):
    """Raise CheckFailed unless ``ok``; works under ``python -O`` too."""
    if not ok:
        raise CheckFailed(message)


@dataclass
class Instance:
    """One timed input: ``run(prepare())`` is timed, ``check`` is not."""

    name: str
    small: bool
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]


@dataclass
class Workload:
    name: str
    instances: list
    # Inputs that fail at seed.  They are attempted every pass, untimed,
    # and counted in fail_frac, so that a fix lowers fail_frac without
    # moving wall_s.
    probes: list = field(default_factory=list)


def _same(value):
    return lambda: value


# -- scl_chains ---------------------------------------------------------------

# (name, chain text, basis, exact scl as a string or "infinite"); names use
# exponent notation, the text is what parse_chain reads.
SCL_CHAINS = (
    ("[a,b]", "[a,b]", "ab", "1/2"),
    ("[a,b]^2", "[a,b][a,b]", "ab", "1"),
    ("[a,b]^3", "[a,b][a,b][a,b]", "ab", "3/2"),
    ("a^3 b A^3 B", "aaabAAAB", "ab", "1/2"),
    ("[a,b][a,B]", "[a,b][a,B]", "ab", "1/2"),
    ("[a,b][c,d]", "[a,b][c,d]", "abcd", "3/2"),
    ("ab + BA", "ab + BA", "ab", "0"),
    ("ab", "ab", "ab", "infinite"),
)
SCL_LARGE = {"[a,b]^3"}


def _scl_check(expected):
    from fractions import Fraction

    def check(_chain, result):
        if expected == "infinite":
            expect(result.is_infinite, f"expected infinite scl, got {result.value}")
            return
        expect(result.status == "exact", f"status {result.status}")
        expect(
            isinstance(result.value, Fraction) and result.value == Fraction(expected),
            f"scl {result.value} != {expected}",
        )

    return check


def scl(chain):
    from sclkit.scl import scl_lp

    return scl_lp(chain)


def build_scl_chains():
    from sclkit.words import parse_chain

    instances = []
    for name, text, basis, expected in SCL_CHAINS:
        chain = parse_chain(text, basis)
        instances.append(
            Instance(
                name=name,
                small=name not in SCL_LARGE,
                prepare=_same(chain),
                run=scl,
                check=_scl_check(expected),
            )
        )
    return Workload("scl_chains", instances)


# -- ambient_certify ----------------------------------------------------------

AMBIENT_PAIRS = ((1, 2), (2, 4))
AMBIENT_LEVELS = (0, 1, 2)
AMBIENT_SMALL_LEVELS = (0, 1)
AMBIENT_CONE_LEVELS = (0, 1)
# Recorded at seed for every pair and level: the support lemma's hypothesis
# fails on T' + boundary(S') with H2 rank 1, and H2(S', c; Q) has rank 1.
AMBIENT_SUPPORT = (False, "hypothesis-fails", 1)
AMBIENT_CONE_H2 = 1


@dataclass
class AmbientInput:
    """S' = ambient_pair(inner, outer) subdivided ``level`` times."""

    inner: int
    level: int
    cx: Any  # S'
    t_sub: Any  # T': the faces that descend from fT
    y_sub: Any  # T' together with the boundary of S'
    chain: Any  # t read backwards through its halves
    commutators: Any  # [a1,b1]...[ai,bi] as a free-group chain
    weights: dict  # rot structure: fT faces weigh 2(2i-1) in total


def _ambient_input(inner, outer, level):
    from fractions import Fraction

    from sclkit.complexes import Subcomplex, barycentric, boundary_subcomplex, induced_subcomplex
    from sclkit.fixtures import ambient_pair
    from sclkit.words import EdgeChain, parse_chain

    cx, _ = ambient_pair(inner, outer)
    letters = ((cx.edge_id("t"), -1),)
    for _ in range(level):
        cx, halves = barycentric(cx)
        split = []
        for e, sign in letters:
            first, second = halves[e]
            split += [(first, 1), (second, 1)] if sign == 1 else [(second, -1), (first, -1)]
        letters = tuple(split)
    # barycentric names a face "<parent>:<piece>", so the root is fT or fR
    t_faces = [f for f in cx.faces if cx.name("f", f).split(":")[0] == "fT"]
    t_sub = induced_subcomplex(cx, [("f", f) for f in t_faces])
    bnd = boundary_subcomplex(cx)
    y_sub = Subcomplex(
        cx,
        t_sub.vertex_set | bnd.vertex_set,
        t_sub.edge_set | bnd.edge_set,
        t_sub.face_set | bnd.face_set,
    )
    gens = "abcdefgh"[: 2 * inner]
    text = "".join(f"[{gens[2 * k]},{gens[2 * k + 1]}]" for k in range(inner))
    t_weight = Fraction(2 * (2 * inner - 1))
    rest = [f for f in cx.faces if f not in t_sub.face_set]
    rest_weight = Fraction(-2 * cx.euler_characteristic()) - t_weight
    weights = {f: t_weight / len(t_faces) for f in t_faces}
    weights.update({f: rest_weight / len(rest) for f in rest})
    return AmbientInput(
        inner=inner,
        level=level,
        cx=cx,
        t_sub=t_sub,
        y_sub=y_sub,
        chain=EdgeChain.make(cx, [(1, letters)]),
        commutators=parse_chain(text, gens),
        weights=weights,
    )


def certify_ambient(inp: AmbientInput):
    """The paper's pipeline: witness in standard form inside T', exact scl,
    the rot sandwich, H2(S', T'), the support lemma and the mapping cone."""
    from sclkit.homology import check_support_lemma, cone_complex, relative_homology
    from sclkit.rewrite import make_standard_form
    from sclkit.scl import RotStructure, bavard_sandwich, scl_lp
    from sclkit.surfaces import subsurface_as_admissible

    witness = subsurface_as_admissible(inp.cx, inp.t_sub.cells(), inp.chain)
    standard, log = make_standard_form(witness)
    inside = standard.image_cells() <= set(inp.t_sub.cells())
    scl = scl_lp(inp.commutators)
    sandwich = bavard_sandwich(RotStructure(inp.cx, inp.weights), inp.chain, standard)
    rel = relative_homology(inp.cx, inp.t_sub, "Z")
    support = check_support_lemma(inp.cx, inp.y_sub)
    cone = cone_complex(inp.cx, inp.chain.terms) if inp.level in AMBIENT_CONE_LEVELS else None
    return {
        "moves": len(log.entries),
        "inside": inside,
        "scl": scl,
        "sandwich": sandwich,
        "rel": rel,
        "support": support,
        "cone": cone,
    }


def _ambient_check(inp: AmbientInput, out):
    from fractions import Fraction

    want = Fraction(2 * inp.inner - 1, 2)
    expect(out["moves"] == 0, f"standard form made {out['moves']} moves, seed made 0")
    expect(out["inside"], "standard-form witness leaves T'")
    expect(out["scl"].method == "forced", f"scl took the {out['scl'].method} path")
    expect(out["scl"].value == want, f"scl {out['scl'].value} != {want}")
    sandwich = out["sandwich"]
    expect(sandwich.exact is not None, f"sandwich not exact: [{sandwich.lower}, {sandwich.upper}]")
    expect(sandwich.exact == out["scl"].value, f"sandwich {sandwich.exact} != scl {out['scl'].value}")
    expect(out["rel"].is_zero(2), f"H2(S', T') = {out['rel'].describe()}")
    support = out["support"]
    got = (support.ok, support.kind, support.h2_rank)
    expect(got == AMBIENT_SUPPORT, f"support lemma verdict {got} != {AMBIENT_SUPPORT}")
    if inp.level in AMBIENT_CONE_LEVELS:
        rank = out["cone"].summary.rank(2)
        expect(rank == AMBIENT_CONE_H2, f"cone H2 rank {rank} != {AMBIENT_CONE_H2}")


def build_ambient_certify():
    instances = []
    for inner, outer in AMBIENT_PAIRS:
        for level in AMBIENT_LEVELS:
            inp = _ambient_input(inner, outer, level)
            instances.append(
                Instance(
                    name=f"ambient({inner},{outer})/L{level}",
                    small=level in AMBIENT_SMALL_LEVELS,
                    prepare=_same(inp),
                    run=certify_ambient,
                    check=_ambient_check,
                )
            )
    return Workload("ambient_certify", instances)


# -- fold_necklaces -----------------------------------------------------------

NECKLACE_SIZES = (2, 3, 4, 6)
FOLD_LARGE = {"necklace(m=3)", "necklace(m=4)", "necklace(m=6)"}
# Recorded at seed: (moves, vertex discs, handles, cellular discs) of the
# standard form.
FOLD_SEED = {
    "fold_fixture": (3, 12, 16, 5),
    "figlnk": (4, 8, 11, 4),
    "t_itself": (0, 1, 5, 1),
    "sigma_genus1": (0, 1, 3, 1),
    "necklace(m=2)": (6, 26, 39, 13),
    "necklace(m=3)": (9, 42, 63, 21),
    "necklace(m=4)": (12, 58, 87, 29),
    "necklace(m=6)": (18, 88, 132, 44),
}


def _ratio(surface):
    """-chi^- / n, the quantity standard form may not increase."""
    from fractions import Fraction

    n = surface.uniform_degree()
    return Fraction(-surface.reduced_euler(), n) if n else Fraction(0)


def standard_form(surface):
    from sclkit.rewrite import make_standard_form

    return make_standard_form(surface)


def check_standard_form(before, out):
    """Invariants every standard form must satisfy."""
    after, _log = out
    expect(after.reduced_class() == before.reduced_class(), "class in H2(S, c) changed")
    expect(_ratio(after) <= _ratio(before), f"-chi^-/n rose from {_ratio(before)} to {_ratio(after)}")
    report = after.standard_form_report()
    expect(report.connected_links, "a vertex disc has a disconnected link")
    expect(report.non_folded, "a component is folded")


def _fold_check(expected):
    def check(before, out):
        check_standard_form(before, out)
        after, log = out
        got = (len(log.entries), len(after.vpieces), len(after.hpieces), len(after.fpieces))
        expect(got == expected, f"(moves, v, h, f) = {got}, seed gave {expected}")

    return check


def _fresh(surface):
    # make_standard_form caches collapse data on its input; a deep copy
    # gives every pass an untouched surface
    return lambda: copy.deepcopy(surface)


def build_fold_necklaces():
    from sclkit.fixtures import double_fold_fixture, figlnk, fold_fixture, fold_necklace, sigma_genus1, t_itself, torus

    surfaces = {
        "fold_fixture": fold_fixture(),
        "figlnk": figlnk(),
        "t_itself": t_itself(),
        "sigma_genus1": sigma_genus1(),
    }
    for m in NECKLACE_SIZES:
        surfaces[f"necklace(m={m})"] = fold_necklace(torus(), "f", m, fold_pos=0, back_pos=2)
    instances = [
        Instance(
            name=name,
            small=name not in FOLD_LARGE,
            prepare=_fresh(surface),
            run=standard_form,
            check=_fold_check(FOLD_SEED[name]),
        )
        for name, surface in surfaces.items()
    ]
    probes = [
        Instance(
            name=name,
            small=False,
            prepare=_fresh(surface),
            run=standard_form,
            check=check_standard_form,
        )
        for name, surface in (
            ("double_fold_fixture", double_fold_fixture()),
            ("necklace(m=1)", fold_necklace(torus(), "f", 1, fold_pos=0, back_pos=2)),
        )
    ]
    return Workload("fold_necklaces", instances, probes)


BUILDERS = {
    "scl_chains": build_scl_chains,
    "ambient_certify": build_ambient_certify,
    "fold_necklaces": build_fold_necklaces,
}


def build(name) -> Workload:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; have {sorted(BUILDERS)}") from None
    return builder()
