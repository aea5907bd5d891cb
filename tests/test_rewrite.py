import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import sclkit
import sclkit.rewrite
import sclkit.surfaces
from sclkit.complexes import TwoComplex
from sclkit.fixtures import figlnk, fold_fixture, fold_necklace, t_itself, torus
from sclkit.rewrite import MoveError, connect_link, eliminate_fold, make_standard_form
from sclkit.surfaces import (
    AdmissibleSurface,
    FPiece,
    HPiece,
    derive_vpieces,
    disjoint_union,
    required_long_index,
)


def ratio(s):
    n = s.uniform_degree()
    return Fraction(-s.reduced_euler(), n) if n else Fraction(0)


# -- pinned move logs ----------------------------------------------------------

FOLD_FIXTURE_LOG = """\
move eliminate_fold discs=(0,1) face=0 ; chi_minus 0 -> 0 ; n [1] -> [1] ; fpieces +1/-1 -> +0/-0 ; link_excess 0 -> 2
move connect_link vdisc=1 policy=positive faces=[0] ; chi_minus 0 -> 0 ; n [1] -> [1] ; fpieces +0/-0 -> +1/-0 ; link_excess 2 -> 1
move connect_link vdisc=2 policy=positive faces=[0, 0, 0, 0] ; chi_minus 0 -> 0 ; n [1] -> [1] ; fpieces +1/-0 -> +5/-0 ; link_excess 1 -> 0
"""

FIGLNK_LOG = """\
move connect_link vdisc=0 policy=positive faces=[0, 1] ; chi_minus 0 -> 0 ; n [1] -> [1] ; fpieces +1/-1 -> +3/-1 ; link_excess 1 -> 0
move eliminate_fold discs=(3,1) face=1 ; chi_minus 0 -> 0 ; n [1] -> [1] ; fpieces +3/-1 -> +2/-0 ; link_excess 0 -> 1
move thicken_boundary  ; chi_minus 0 -> 0 ; n [1] -> [1] ; fpieces +2/-0 -> +2/-0 ; link_excess 1 -> 1 ; target re-cellulated; collar added
move connect_link vdisc=4 policy=positive faces=[4, 7] ; chi_minus 0 -> 0 ; n [1] -> [1] ; fpieces +2/-0 -> +4/-0 ; link_excess 1 -> 0
"""

NECKLACE2_LOG = """\
move eliminate_fold discs=(0,1) face=0 ; chi_minus 0 -> 0 ; n [2] -> [2] ; fpieces +2/-2 -> +1/-1 ; link_excess 0 -> 2
move connect_link vdisc=1 policy=positive faces=[0, 0, 0, 0] ; chi_minus 0 -> 0 ; n [2] -> [2] ; fpieces +1/-1 -> +5/-1 ; link_excess 2 -> 1
move connect_link vdisc=2 policy=positive faces=[0, 0, 0, 0] ; chi_minus 0 -> 0 ; n [2] -> [2] ; fpieces +5/-1 -> +9/-1 ; link_excess 1 -> 0
move eliminate_fold discs=(11,3) face=0 ; chi_minus 0 -> 0 ; n [2] -> [2] ; fpieces +9/-1 -> +8/-0 ; link_excess 0 -> 2
move connect_link vdisc=1 policy=positive faces=[0, 0] ; chi_minus 0 -> 0 ; n [2] -> [2] ; fpieces +8/-0 -> +10/-0 ; link_excess 2 -> 1
move connect_link vdisc=2 policy=positive faces=[0, 0, 0] ; chi_minus 0 -> 0 ; n [2] -> [2] ; fpieces +10/-0 -> +13/-0 ; link_excess 1 -> 0
"""


@pytest.mark.parametrize(
    "build, expected",
    [
        (fold_fixture, FOLD_FIXTURE_LOG),
        (figlnk, FIGLNK_LOG),
        (lambda: fold_necklace(torus(), "f", 2, 0, 2), NECKLACE2_LOG),
    ],
    ids=["fold_fixture", "figlnk", "necklace(m=2)"],
)
def test_standard_form_log_is_pinned(build, expected):
    _s, log = make_standard_form(build())
    assert log.text() == expected


# -- the necklace grid ----------------------------------------------------------

GRID = [
    (m, closed, fold_pos, back_pos)
    for m in (1, 2)
    for closed in (True, False)
    for fold_pos in range(4)
    for back_pos in range(4)
    if fold_pos != back_pos
]


@pytest.mark.parametrize("m, closed, fold_pos, back_pos", GRID)
def test_necklace_grid_reaches_standard_form(m, closed, fold_pos, back_pos):
    before = fold_necklace(torus(), "f", m, fold_pos, back_pos, closed=closed)
    if closed and (m == 1 or back_pos == (fold_pos + 1) % 4):
        # a fold pair through several handles is left, which no move rewrites
        with pytest.raises(MoveError, match="component remains folded"):
            make_standard_form(before)
        return
    after, log = make_standard_form(before)
    assert log.entries
    assert after.reduced_class() == before.reduced_class()
    assert ratio(after) <= ratio(before)
    report = after.standard_form_report()
    assert report.connected_links and report.non_folded


# -- single moves ----------------------------------------------------------------


def test_fold_elimination_validates_the_new_surface_once(monkeypatch):
    checked = []
    closed = []
    check = sclkit.surfaces.surface_check
    corners = AdmissibleSurface._check_corners

    def counting_check(cx):
        checked.append(cx)
        return check(cx)

    def counting_corners(surface):
        closed.append(surface)
        return corners(surface)

    s = fold_fixture()
    monkeypatch.setattr(sclkit.surfaces, "surface_check", counting_check)
    monkeypatch.setattr(AdmissibleSurface, "_check_corners", counting_corners)
    out = eliminate_fold(s, 0, 1)
    # surface_check runs once, on the target; the new surface is checked
    # once, on its pieces
    assert len(checked) == 1 and checked[0] is s.target
    assert len(closed) == 1 and closed[0] is out
    assert out.two_chain() == s.two_chain()


def test_standard_form_finds_components_once_per_surface(monkeypatch):
    calls = []
    built = []
    find = AdmissibleSurface._find_components
    init = AdmissibleSurface.__init__

    def counting_find(surface):
        calls.append(surface)
        return find(surface)

    def counting_init(surface, *args, **kwargs):
        init(surface, *args, **kwargs)
        built.append(surface)

    s = fold_fixture()
    monkeypatch.setattr(AdmissibleSurface, "_find_components", counting_find)
    monkeypatch.setattr(AdmissibleSurface, "__init__", counting_init)
    make_standard_form(s)
    assert built and len(calls) <= len(built)


def test_standard_form_checks_only_targets_and_builds_no_complex(monkeypatch):
    s = fold_fixture()
    checked = []
    built = []
    check = sclkit.surfaces.surface_check
    init = TwoComplex.__init__

    def counting_check(cx):
        checked.append(cx)
        return check(cx)

    def counting_init(cx, *args, **kwargs):
        built.append(cx)
        init(cx, *args, **kwargs)

    monkeypatch.setattr(sclkit.surfaces, "surface_check", counting_check)
    monkeypatch.setattr(sclkit.rewrite, "surface_check", counting_check)
    monkeypatch.setattr(TwoComplex, "__init__", counting_init)
    out, log = make_standard_form(s)
    assert log.entries and out.target is s.target
    assert built == []
    assert checked and all(cx is s.target for cx in checked)


# -- trivial components ------------------------------------------------------------


def pillow(target, face, chain):
    """Two cellular discs of opposite sign over one face, glued along every
    side: a sphere whose 2-chain is zero."""
    hpieces, sides = {}, {1: [], -1: []}
    for k, (e, eps) in enumerate(target.faces[face]):
        longs = [None, None]
        for fid, sign in ((0, 1), (1, -1)):
            li = required_long_index(sign * eps)
            longs[li] = ("f", fid, k)
            sides[sign].append((k, li))
        hpieces[k] = HPiece(e, tuple(longs), None, None)
    fpieces = {0: FPiece(face, 1, tuple(sides[1])), 1: FPiece(face, -1, tuple(sides[-1]))}
    vpieces, hpieces = derive_vpieces(target, hpieces, fpieces)
    return AdmissibleSurface(target, chain, vpieces, hpieces, fpieces)


def with_pillow(which):
    """A disjoint union whose pillow component is trivial and removable."""
    if which == "t_itself":
        s = t_itself()
        return disjoint_union(s, pillow(s.target, s.target.face_id("f2"), s.chain))
    # a link connection leaves a homotopy certificate, and the pillow comes
    # first so that the disc it sits beside is the component kept back
    s = connect_link(figlnk(), 0)
    assert s.homotopy
    return disjoint_union(pillow(s.target, s.target.face_id("top"), s.chain), s)


@pytest.mark.parametrize("which", ["t_itself", "connected figlnk"])
def test_standard_form_removes_a_pillow(which):
    start = with_pillow(which)
    assert sorted(start.component_euler()) == ([-3, 2] if which == "t_itself" else [1, 2])
    out, log = make_standard_form(start)
    removals = [e for e in log.entries if e.move == "remove_trivial_components"]
    assert len(removals) == 1
    pillow_index = 1 if which == "t_itself" else 0
    assert removals[0].args.startswith(f"components=[{pillow_index}]")
    assert removals[0].before["chi_minus"] == removals[0].after["chi_minus"] == start.reduced_euler()
    assert out.reduced_class() == start.reduced_class()
    assert out.reduced_euler() == start.reduced_euler()
    # the pillow's 2-chain comes off an integral certificate, with no solve
    assert all(type(c) is int for c in out.homotopy.values())


# -- typed errors ----------------------------------------------------------------


def test_guards_raise_typed_errors_under_optimize():
    script = textwrap.dedent(
        """
        from types import SimpleNamespace

        import sclkit.rewrite as R
        from sclkit.fixtures import fold_fixture, one_holed

        caught = []

        def expect(name, call):
            try:
                call()
            except R.MoveError:
                caught.append(name)

        # the collar changes the homology
        ranks = iter([(1, 2, 0), (1, 1, 0)])
        homology = R.homology
        R.homology = lambda cx, ring: SimpleNamespace(ranks=next(ranks))
        expect("thicken", lambda: R.thicken_boundary(one_holed(1)))
        R.homology = homology

        # standard form raises -chi^-/n
        ratios = iter([0, 1])
        R._ratio = lambda s: next(ratios)
        expect("ratio", lambda: R.make_standard_form(fold_fixture()))
        print(" ".join(caught))
        """
    )
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["thicken", "ratio"]
