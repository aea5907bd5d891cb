import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import sclkit
import sclkit.surfaces
from sclkit.complexes import TwoComplex
from sclkit.fixtures import figlnk, fold_fixture, fold_necklace, torus
from sclkit.rewrite import MoveError, eliminate_fold, make_standard_form
from sclkit.surfaces import AdmissibleSurface


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
    original = sclkit.surfaces.surface_check

    def counting(cx):
        checked.append(cx)
        return original(cx)

    s = fold_fixture()
    monkeypatch.setattr(sclkit.surfaces, "surface_check", counting)
    out = eliminate_fold(s, 0, 1)
    # once for the target, once for the assembled surface
    assert len(checked) == 2 and checked[0] is s.target
    assert out.two_chain() == s.two_chain()


def test_standard_form_finds_components_once_per_surface(monkeypatch):
    calls = []
    built = []
    find = TwoComplex.connected_components
    init = AdmissibleSurface.__init__

    def counting_find(cx):
        calls.append(cx)
        return find(cx)

    def counting_init(surface, *args, **kwargs):
        init(surface, *args, **kwargs)
        built.append(surface)

    s = fold_fixture()
    monkeypatch.setattr(TwoComplex, "connected_components", counting_find)
    monkeypatch.setattr(AdmissibleSurface, "__init__", counting_init)
    make_standard_form(s)
    assert built and len(calls) <= len(built)


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
