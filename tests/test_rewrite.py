import copy
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sclkit
import sclkit.rewrite
import sclkit.surfaces
from sclkit.complexes import TwoComplex
from sclkit.fixtures import (
    closed_genus,
    closed_genus3_split,
    disc,
    double_fold_fixture,
    figlnk,
    fold_fixture,
    fold_necklace,
    genus3_chain,
    genus3_T,
    one_holed,
    sigma_genus1,
    t_itself,
    torus,
)
from sclkit.rewrite import MoveError, MoveLog, connect_link, eliminate_fold, make_standard_form, thicken_boundary
from sclkit.surfaces import (
    FREE,
    AdmissibleSurface,
    FPiece,
    Target,
    VPiece,
    derive_vpieces,
    disjoint_union,
    subsurface_as_admissible,
)
from sclkit.words import canonical_rotation


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


@pytest.mark.parametrize(
    "m, fold_pos, back_pos, error",
    [
        (1, 0, 1, "component remains folded without an eligible fold pair"),
        (2, 0, 2, "no link connection applies: separator index out of range"),
        (2, 0, 7, None),
    ],
    ids=["folded", "separator", "standard"],
)
def test_closed_genus2_necklaces_fail_or_reach_standard_form(m, fold_pos, back_pos, error):
    before = fold_necklace(closed_genus(2), "f", m, fold_pos, back_pos)
    if error is not None:
        with pytest.raises(MoveError, match=f"^{error}$"):
            make_standard_form(before)
        return
    after, _log = make_standard_form(before)
    assert after.reduced_class() == before.reduced_class()
    assert ratio(after) <= ratio(before)
    report = after.standard_form_report()
    assert report.connected_links and report.non_folded


KNOWN_FAILURES = (
    "component remains folded without an eligible fold pair",
    "no link connection applies: separator index out of range",
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRID), st.booleans())
def test_standard_form_keeps_the_class_or_fails_as_known(params, doubled):
    m, closed, fold_pos, back_pos = params
    before = fold_necklace(torus(), "f", m, fold_pos, back_pos, closed=closed)
    if doubled:
        before = disjoint_union(before, fold_necklace(torus(), "f", m, fold_pos, back_pos, closed=closed))
    try:
        after, _log = make_standard_form(before)
    except MoveError as exc:
        assert str(exc) in KNOWN_FAILURES
        return
    assert after.reduced_class() == before.reduced_class()
    assert ratio(after) <= ratio(before)
    report = after.standard_form_report()
    assert report.connected_links and report.non_folded
    # the pieces, the anchors and the certificate alone give back the
    # circuits, whether or not the surface carries a certificate
    again = AdmissibleSurface(
        after.target,
        after.chain,
        after.vpieces,
        {hid: hp.edge for hid, hp in after.hpieces.items()},
        after.fpieces,
        assignments=after.assignment_list(),
        homotopy=after.homotopy,
    )
    assert again.circuits == after.circuits
    assert again.reduced_class() == after.reduced_class()


# -- the fold carry and the fold-pair search against their oracles ---------------


def word_matching_carry(old, raw):
    """Anchor entries for the circuits after a fold, matched by word class:
    each lettered circuit takes the (circle, degree) of the first unused old
    circuit with a cyclically equal word (how folds carried assignments
    before they renamed anchors)."""
    pool = [(canonical_rotation(c.word), c.circle, c.degree) for c in old.circuits]
    out = []
    for items, word in raw:
        if word:
            i = next(i for i, entry in enumerate(pool) if entry[0] == canonical_rotation(word))
            _key, circle, degree = pool.pop(i)
            out.append((items[0][:-1], circle, degree))
    return out


def pairwise_fold_pairs(surface):
    """Fold pairs by comparing every pair of discs: opposite discs over one
    face with a common handle at exactly one word position."""
    out = []
    for fid1, fp1 in surface.fpieces.items():
        for fid2, fp2 in surface.fpieces.items():
            if fid2 <= fid1 or fp2.face != fp1.face or fp2.sign + fp1.sign != 0:
                continue
            shared = [k for k in range(len(fp1.sides)) if fp1.sides[k] == fp2.sides[k]]
            if len(shared) == 1:
                out.append((fid1, fid2))
    return out


NECKLACE_SWEEP = [
    (m, closed, fold_pos, back_pos)
    for m in range(1, 5)
    for closed in (True, False)
    for fold_pos in range(4)
    for back_pos in range(4)
    if fold_pos != back_pos
]


def test_folds_and_fold_pairs_match_their_oracles_on_the_necklace_sweep(monkeypatch):
    fold = sclkit.rewrite.eliminate_fold
    init = AdmissibleSurface.__init__
    built = []
    folds = shared_words = 0

    def checked_fold(surface, fid1, fid2, log=None):
        nonlocal folds, shared_words
        out = fold(surface, fid1, fid2, log)
        oracle = AdmissibleSurface(
            out.target,
            out.chain,
            out.vpieces,
            {hid: hp.edge for hid, hp in out.hpieces.items()},
            out.fpieces,
            assignments=lambda raw: word_matching_carry(surface, raw),
            homotopy=out.homotopy,
        )
        # the class starts with the degree vector
        assert out.reduced_class() == oracle.reduced_class()
        classes = Counter(canonical_rotation(c.word) for c in out.circuits)
        for mine, theirs in zip(out.circuits, oracle.circuits):
            assert mine.items == theirs.items
            if classes[canonical_rotation(mine.word)] == 1:
                assert (mine.circle, mine.degree) == (theirs.circle, theirs.degree)
            elif mine.word:
                shared_words += 1
        # a handle the fold does not merge keeps its id and its free long
        # sides, so a circuit through an old anchor there keeps its winding
        anchored = {c.items[0][:-1]: (c.circle, c.degree) for c in surface.circuits if c.circle is not None}
        for mine in out.circuits:
            for item in mine.items:
                if item[:-1] in anchored:
                    assert (mine.circle, mine.degree) == anchored[item[:-1]]
        folds += 1
        return out

    def recording_init(surface, *args, **kwargs):
        init(surface, *args, **kwargs)
        built.append(surface)

    monkeypatch.setattr(sclkit.rewrite, "eliminate_fold", checked_fold)
    monkeypatch.setattr(AdmissibleSurface, "__init__", recording_init)
    finished = 0
    for m, closed, fold_pos, back_pos in NECKLACE_SWEEP:
        before = fold_necklace(torus(), "f", m, fold_pos, back_pos, closed=closed)
        try:
            after, _log = make_standard_form(before)
        except MoveError as exc:
            assert str(exc) in (
                "component remains folded without an eligible fold pair",
                "no link connection applies: separator index out of range",
            )
            continue
        assert after.reduced_class() == before.reduced_class()
        assert ratio(after) <= ratio(before)
        report = after.standard_form_report()
        assert report.connected_links and report.non_folded
        finished += 1
    for s in built:
        assert sclkit.rewrite._find_fold_pairs(s) == pairwise_fold_pairs(s)
    assert len(NECKLACE_SWEEP) == 96 and finished > 50
    # some folds leave two circuits with one word class, where the word
    # matching may hand out the degrees in either order
    assert folds > 100 and shared_words > 0
    assert any(pairwise_fold_pairs(s) for s in built)


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
    out = eliminate_fold(s, 0, 1, MoveLog())
    # the target was checked when s was built, and the fold reuses it; the
    # new surface is checked once, on its pieces
    assert checked == [] and out.target is s.target
    assert len(closed) == 1 and closed[0] is out
    assert out.two_chain() == s.two_chain()


@pytest.mark.parametrize(
    "surface, fids, message",
    [
        pytest.param(fold_fixture, (0, 9), "unknown cellular disc", id="unknown disc"),
        # figlnk's discs lie over two different triangles
        pytest.param(figlnk, (0, 1), "fold elimination needs discs over the same face", id="different faces"),
        pytest.param(double_fold_fixture, (0, 2), "fold elimination needs discs of opposite orientation", id="same sign"),
        # the open necklace has no back handle from disc 3 to disc 0
        pytest.param(
            lambda: fold_necklace(torus(), "f", 2, 0, 2, closed=False),
            (0, 3),
            "discs are not adjacent through a common handle",
            id="not adjacent",
        ),
        # with m = 1 the fold and the back handle join the same two discs
        pytest.param(
            lambda: fold_necklace(torus(), "f", 1, 0, 2),
            (0, 1),
            "discs adjacent through several handles; not supported",
            id="several handles",
        ),
    ],
)
def test_fold_elimination_names_the_input_it_refuses(surface, fids, message):
    with pytest.raises(MoveError, match=f"^{re.escape(message)}$"):
        eliminate_fold(surface(), *fids, MoveLog())


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
    monkeypatch.setattr(TwoComplex, "__init__", counting_init)
    out, log = make_standard_form(s)
    # every move reuses the target checked when s was built
    assert log.entries and out.target is s.target
    assert built == [] and checked == []


# -- the link connection's corner splice -------------------------------------------


def one_handle_annulus(slots, cx=None, edge="a"):
    """An annulus over ``cx``, the torus by default: one vertex disc over
    ``v`` with the given slots and one handle over ``edge`` whose long sides
    are both free."""
    cx = cx or torus()
    vpieces = {0: VPiece(cx.vertex_id("v"), slots)}
    return AdmissibleSurface(cx, None, vpieces, {0: cx.edge_id(edge)}, {})


ANNULI = {
    "annulus(s,_,t,_)": (("h", 0, "s"), FREE, ("h", 0, "t"), FREE),
    "annulus(s,t,_)": (("h", 0, "s"), ("h", 0, "t"), FREE),
}


@pytest.mark.parametrize("slots", list(ANNULI.values()), ids=list(ANNULI))
def test_far_handle_cannot_take_the_last_side_on_an_annulus(slots):
    # both ends of the one handle flank every free stretch, so the fan's last
    # disc has no free long side to leave on, and the move refuses up front
    s = one_handle_annulus(slots)
    assert len(s.link_runs(0)) == 2
    for separator in (0, 1):
        with pytest.raises(MoveError, match="^the far handle cannot take the fan's last side$"):
            connect_link(s, 0, MoveLog(), separator)


def test_carry_refuses_lost_winding_and_circuits_with_no_ancestry():
    s = figlnk()
    kept = [(c.items, c.word) for c in s.circuits]
    # the circuits' items come back without letters, so the winding is lost
    with pytest.raises(MoveError, match="^winding lost with its boundary circuits$"):
        sclkit.rewrite._carry_by_items(s, [(items, ()) for items, _word in kept])
    # a lettered circuit that shares no item with an old one
    stray = ((("long", max(s.hpieces) + 1, 0, 1),), kept[0][1])
    with pytest.raises(MoveError, match="^new boundary circuits with no ancestry$"):
        sclkit.rewrite._carry_by_items(s, [*kept, stray])


CLOSED_TORUS = Target.of(torus())


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: connect_link(figlnk(), 99, MoveLog(), 0), "unknown vertex disc"),
        # vertex disc 1 of figlnk has one link run
        (lambda: connect_link(figlnk(), 1, MoveLog(), 0), "vertex disc already has a connected link"),
        (
            lambda: connect_link(one_handle_annulus(ANNULI["annulus(s,_,t,_)"], one_holed(1), "a1"), 0, MoveLog(), 0),
            "vertex disc maps to a boundary vertex; thicken the target first",
        ),
        # a closed target has no boundary to thicken and comes back as it is
        (lambda: thicken_boundary(CLOSED_TORUS) is CLOSED_TORUS, None),
    ],
    ids=["unknown vertex disc", "connected link", "boundary vertex", "closed target"],
)
def test_link_connection_input_refusals_and_a_closed_target(call, refusal):
    if refusal is None:
        assert call()
    else:
        with pytest.raises(MoveError, match=f"^{re.escape(refusal)}$"):
            call()


def reference_link_splice(tokens, new_tokens, corners, cases):
    """The link connection's splice built from corner overrides.

    Each corner (y, x) asks for succ(y) = x.  Overrides chain through new
    handle ends; a chain hangs onto the old tokens by one of four anchor
    cases, and a corner from an old token to an old token closes the free
    stretch between them, which is dropped.  ``cases`` counts the five
    cases reached.
    """
    overrides = {}
    for y, x in corners:
        if y in overrides:
            raise MoveError("conflicting corner equations")
        overrides[y] = x
    incoming = {}
    for y, x in overrides.items():
        if x in incoming:
            raise MoveError("conflicting corner equations")
        incoming[x] = y

    def drop_free_run(a, b):
        cur = tokens.succ[a]
        guard = 0
        while cur != b:
            if cur[0] == "h":
                raise MoveError("free run to replace contains glued slots")
            nxt = tokens.succ[cur]
            tokens.delete(cur)
            cur = nxt
            guard += 1
            if guard > len(tokens.succ) + 2:
                raise MoveError("degenerate link connection; unsupported")

    for y, x in list(overrides.items()):
        if y not in new_tokens and x not in new_tokens:
            cases["old to old"] += 1
            drop_free_run(y, x)
            tokens.succ[y] = x
    processed = set()
    heads = [t for t in sorted(new_tokens, key=str) if incoming.get(t) not in new_tokens]
    for head in heads:
        if head in processed:
            continue
        chain = [head]
        while overrides.get(chain[-1]) in new_tokens:
            chain.append(overrides[chain[-1]])
        processed.update(chain)
        start, end = incoming.get(head), overrides.get(chain[-1])
        for a, b in zip(chain, chain[1:]):
            tokens.succ[a] = b
        if start is not None and end is not None:
            cases["both anchors"] += 1
            drop_free_run(start, end)
            tokens.succ[start] = head
            tokens.succ[chain[-1]] = end
        elif end is not None:
            cases["end anchor"] += 1
            prev = next(t for t, s in tokens.succ.items() if s == end)
            tokens.succ[prev] = head
            tokens.succ[chain[-1]] = end
        elif start is not None:
            cases["start anchor"] += 1
            tokens.succ[chain[-1]] = tokens.succ[start]
            tokens.succ[start] = head
        else:
            cases["no anchor"] += 1
            free = tokens.new_free(tokens.vertex[head])
            tokens.succ[chain[-1]] = free
            tokens.succ[free] = head


def splice_inputs():
    for m in (1, 2, 3):
        for closed in (True, False):
            for fold_pos in range(4):
                for back_pos in range(4):
                    if fold_pos != back_pos:
                        yield fold_necklace(torus(), "f", m, fold_pos, back_pos, closed=closed)
    yield from (fold_fixture(), figlnk(), t_itself(), sigma_genus1(), double_fold_fixture())
    for m in range(1, 7):
        yield fold_necklace(torus(), "f", m, fold_pos=0, back_pos=2)
    yield disjoint_union(t_itself(), sigma_genus1())
    for slots in ANNULI.values():
        yield one_handle_annulus(slots)


def test_corner_splice_matches_the_override_reference(monkeypatch):
    glue = sclkit.rewrite._glue_corners
    cases = Counter()

    def outcome(splice, tokens, new_tokens, corners):
        try:
            splice(tokens, new_tokens, corners)
        except MoveError as exc:
            return str(exc)
        return tokens.succ, tokens.vertex

    def compared(tokens, new_tokens, corners):
        want = outcome(
            lambda *args: reference_link_splice(*args, cases), copy.deepcopy(tokens), new_tokens, corners
        )
        got = outcome(glue, tokens, new_tokens, corners)
        assert got == want
        if isinstance(got, str):
            raise MoveError(got)

    monkeypatch.setattr(sclkit.rewrite, "_glue_corners", compared)
    for surface in splice_inputs():
        try:
            make_standard_form(surface)
        except MoveError:
            pass
    assert set(cases) == {"old to old", "both anchors", "end anchor", "start anchor", "no anchor"}


# -- trivial components ------------------------------------------------------------


def pillow(target, face, chain):
    """Two cellular discs of opposite sign over one face, glued along every
    side: a sphere whose 2-chain is zero."""
    word = target.faces[face]
    handles = {k: e for k, (e, _eps) in enumerate(word)}
    fpieces = {
        fid: FPiece(face, sign, tuple(range(len(word))))
        for fid, sign in ((0, 1), (1, -1))
    }
    vpieces = derive_vpieces(target, handles, fpieces)
    return AdmissibleSurface(target, chain, vpieces, handles, fpieces)


def with_pillow(which):
    """A disjoint union whose pillow component is trivial and removable."""
    if which == "t_itself":
        s = t_itself()
        return disjoint_union(s, pillow(s.target, s.target.face_id("f2"), s.chain))
    # a link connection leaves a homotopy certificate, and the pillow comes
    # first so that the disc it sits beside is the component kept back
    s = connect_link(figlnk(), 0, MoveLog(), 0)
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


# -- boundary thickening ----------------------------------------------------------


def test_thickening_a_disc_collars_edges_of_incidence_plus_one():
    cx = disc()
    assert set(cx.signed_incidences().values()) == {1}
    out = thicken_boundary(cx)
    assert (len(out.vertices), len(out.edges), len(out.faces)) == (6, 9, 4)
    # each collar runs against its old edge, so the old edges become interior
    totals = out.signed_incidences()
    assert all(totals[e] == 0 for e in cx.edges)


# -- typed errors ----------------------------------------------------------------


def test_standard_form_refuses_a_worse_surface_of_negative_degree(monkeypatch):
    # T^- has degree -1 and -chi^- = 3; T^- + T^- + T^+ has the same class and
    # -chi^- = 9, while -chi^-/n falls from -3 to -9
    cx = closed_genus3_split()
    minus, plus = (subsurface_as_admissible(cx, genus3_T(cx).cells(), genus3_chain(cx), sign=k) for k in (-1, 1))
    worse = disjoint_union(minus, minus, plus)
    assert minus.degree_vector() == worse.degree_vector() == [-1]
    assert minus.reduced_class() == worse.reduced_class()
    assert (minus.reduced_euler(), worse.reduced_euler()) == (-3, -9)
    pairs = iter([[(0, 0)], []])
    monkeypatch.setattr(sclkit.rewrite, "_find_fold_pairs", lambda s: next(pairs))
    monkeypatch.setattr(sclkit.rewrite, "eliminate_fold", lambda s, fid1, fid2, log: worse)
    with pytest.raises(MoveError, match=r"^standard form worsened -chi\^-/n$"):
        make_standard_form(minus)


def test_guards_raise_typed_errors_under_optimize():
    script = textwrap.dedent(
        """
        from types import SimpleNamespace

        import sclkit.rewrite as R
        from sclkit.fixtures import closed_genus3_split, genus3_chain, genus3_T, one_holed
        from sclkit.surfaces import disjoint_union, subsurface_as_admissible

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

        # a move returns a surface of the same class and a larger -chi^-,
        # on an input of degree -1, where -chi^-/n falls from -3 to -9
        cx = closed_genus3_split()
        minus, plus = (subsurface_as_admissible(cx, genus3_T(cx).cells(), genus3_chain(cx), sign=k) for k in (-1, 1))
        pairs = iter([[(0, 0)], []])
        R._find_fold_pairs = lambda s: next(pairs)
        R.eliminate_fold = lambda s, fid1, fid2, log: disjoint_union(minus, minus, plus)
        expect("worsened", lambda: R.make_standard_form(minus))
        print(" ".join(caught))
        """
    )
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["thicken", "worsened"]
