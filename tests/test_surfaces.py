import os
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import sclkit

from sclkit.complexes import (
    ComplexError,
    TwoComplex,
    barycentric,
    boundary_subcomplex,
    induced_subcomplex,
    link_graph,
    surface_check,
)
from sclkit.fixtures import (
    ambient_pair,
    closed_genus3_split,
    disc,
    double_fold_fixture,
    figlnk,
    fold_fixture,
    fold_necklace,
    genus3_chain,
    genus3_sigma_prime,
    genus3_T,
    rp2,
    sigma_genus1,
    square_disc,
    t_itself,
    torus,
)
from sclkit.rewrite import MoveError, make_standard_form
from sclkit.surfaces import (
    FREE,
    AdmissibleSurface,
    SurfaceError,
    Target,
    VPiece,
    corner_tokens,
    disjoint_union,
    polygon_sign,
    required_long_index,
    subsurface_as_admissible,
)
from sclkit.words import EdgeChain, cyclically_equal


def in_standard_form(report):
    """A surface is in standard form when it has no disc or sphere
    component, every link is connected and no disc pair is folded."""
    return report.disc_sphere_free and report.connected_links and report.non_folded


def handle_edges(s):
    """The handles of s as AdmissibleSurface takes them: id -> edge."""
    return {hid: hp.edge for hid, hp in s.hpieces.items()}


def rebuild(s, vpieces=None, handles=None, fpieces=None, cls=AdmissibleSurface, assignments=None):
    return cls(
        s.target,
        s.chain,
        vpieces if vpieces is not None else s.vpieces,
        handles if handles is not None else handle_edges(s),
        fpieces if fpieces is not None else s.fpieces,
        assignments=assignments if assignments is not None else s.assignment_list(),
        homotopy=s.homotopy,
    )


def reference_validate(s, vpieces=None, handles=None, fpieces=None):
    """s rebuilt, with any pieces replaced, and validated through the
    assembled complex."""
    return rebuild(s, vpieces, handles, fpieces, cls=ReferenceSurface)


def test_rebuild_from_pieces_keeps_the_circuits():
    for s in (figlnk(), fold_fixture(), t_itself(), sigma_genus1()):
        again = rebuild(s)
        assert again.circuits == s.circuits
        assert again.reduced_class() == s.reduced_class()
        assert again.euler_characteristic() == s.euler_characteristic()


@pytest.mark.parametrize("duplicate_first", [False, True])
def test_an_anchor_given_twice_is_refused(duplicate_first):
    s = t_itself()
    (entry,) = s.assignment_list()
    again = (entry[0], entry[1], 2)
    entries = [again, entry] if duplicate_first else [entry, again]
    with pytest.raises(SurfaceError, match=r"assignment anchor \('long', 4, 1\) is given twice"):
        rebuild(s, assignments=entries)


def test_an_anchor_on_no_circuit_is_refused():
    s = t_itself()
    stray = s.assignment_list() + [(("long", 999, 0), 0, 1)]
    with pytest.raises(SurfaceError, match=r"assignment anchor \('long', 999, 0\) lies on no boundary circuit"):
        rebuild(s, assignments=stray)


def test_handle_over_the_wrong_edge_is_refused():
    # over the one-vertex torus both edges join v to v, so only the side
    # check of the cellular disc can see the swap
    s = fold_fixture()
    a, b = s.target.edge_id("a"), s.target.edge_id("b")
    hid = next(h for h, hp in s.hpieces.items() if hp.edge == a and hp.longs[0] != ("free",))
    handles = handle_edges(s)
    handles[hid] = b
    with pytest.raises(SurfaceError, match="wrong edge"):
        rebuild(s, handles=handles)


def test_inferred_chain_reads_the_boundary():
    s = fold_necklace(torus(), "f", 2, fold_pos=0, back_pos=2)
    again = AdmissibleSurface(s.target, None, s.vpieces, handle_edges(s), s.fpieces)
    assert again.chain == s.chain
    assert again.circuits == s.circuits
    assert s.degree_vector() == [2]


def test_inferred_chain_reads_a_proper_power_as_a_winding():
    # one vertex disc over the torus's vertex with two handles over a; the
    # boundary reads a, a^-2 and a, so the chain is the one term a and the
    # middle circuit winds -2 times around it
    cx = torus()
    a = cx.edge_id("a")
    slots = (("h", 0, "s"), ("h", 1, "t"), ("h", 1, "s"), ("h", 0, "t"), FREE)
    s = AdmissibleSurface(cx, None, {0: VPiece(cx.vertex_id("v"), slots)}, {0: a, 1: a}, {})
    assert [c.word for c in s.circuits] == [((a, 1),), ((a, -1), (a, -1)), ((a, 1),)]
    assert s.chain == EdgeChain.make(cx, [(1, ((a, 1),))])
    assert [(c.circle, c.degree) for c in s.circuits] == [(0, 1), (0, -2), (0, 1)]
    assert s.degree_vector() == [0]


def test_subsurface_and_its_mirror():
    cx = closed_genus3_split()
    cells = genus3_T(cx).cells()
    plus = subsurface_as_admissible(cx, cells, genus3_chain(cx), sign=1)
    minus = subsurface_as_admissible(cx, cells, genus3_chain(cx), sign=-1)
    assert plus.degree_vector() == [1] and minus.degree_vector() == [-1]
    both = disjoint_union(plus, minus)
    assert both.euler_characteristic() == 2 * plus.euler_characteristic()
    report = both.standard_form_report()
    assert in_standard_form(report)
    assert not report.monotone and not report.orientation_perfect
    assert report.witnesses["orientation_mixed_face"] == [cx.face_id("f1")]


def test_a_non_orientable_subsurface_is_refused():
    # both sides of the face a a want long 1 of the one handle over a
    cx = rp2()
    with pytest.raises(SurfaceError, match="two disc sides claim one handle long side"):
        subsurface_as_admissible(cx, cx.cells(), EdgeChain.make(cx, []))


@pytest.mark.parametrize(
    "cells, message",
    [
        (lambda cx: [("f", 99)] + genus3_T(cx).cells(), "unknown face id 99"),
        (lambda cx: [("x", 0)] + genus3_T(cx).cells(), "unknown cell kind x"),
        (lambda cx: [("f", cx.face_id("f1"))], "subcomplex not closed: face edge missing"),
    ],
    ids=["unknown face", "unknown kind", "not closed"],
)
def test_subsurface_cells_must_form_a_subcomplex(cells, message):
    cx = closed_genus3_split()
    with pytest.raises(ComplexError, match=f"^{message}$"):
        subsurface_as_admissible(cx, cells(cx), genus3_chain(cx))


def test_a_target_is_checked_once_and_keeps_its_boundary():
    target = Target.of(disc())
    assert Target.of(target) is target
    assert target.boundary_vertices == frozenset(target.vertices)
    assert target.boundary_edges == frozenset(target.edges)
    assert Target.of(torus()).boundary_vertices == Target.of(torus()).boundary_edges == frozenset()
    with pytest.raises(SurfaceError, match="target is not a surface"):
        Target.of(TwoComplex.build(["p", "q"], [("a", "p", "q")], []))
    # RP2's face runs over a twice in the same direction
    with pytest.raises(SurfaceError, match="not coherently oriented: edge a has signed incidence 2"):
        Target.of(rp2())


def test_disjoint_union_of_nothing_is_refused():
    with pytest.raises(SurfaceError, match="at least one surface"):
        disjoint_union()


def test_standard_form_report_witnesses():
    report = figlnk().standard_form_report()
    assert not report.connected_links and report.witnesses["disconnected_link"] == [0]
    report = fold_fixture().standard_form_report()
    assert report.connected_links and not report.non_folded
    assert in_standard_form(t_itself().standard_form_report())


# -- the link walk that derive_vpieces replaced in subsurface_as_admissible,
# kept as a reference


def reference_subsurface_slots(target, cells, sign):
    """Vertex -> slot list ("h", edge, "s"|"t") or FREE, by walking the
    subsurface's vertex links: the forward walk steps from a half-edge h to
    the other end of the corner leaving along h."""
    sub_cx = TwoComplex(
        sorted(i for k, i in cells if k == "v"),
        {i: target.edges[i] for k, i in cells if k == "e"},
        {i: target.faces[i] for k, i in cells if k == "f"},
    )
    out = {}
    for v in sub_cx.vertices:
        lk = link_graph(sub_cx, v)
        succ = {}
        for (h1, h2), _prov in lk.links:
            # corner (s_i, s_{i+1}): h1 = inverse of the incoming side,
            # h2 = the outgoing side; the walk visits h2 then h1
            key, val = (h2, h1) if sign == 1 else (h1, h2)
            assert key not in succ
            succ[key] = val
        starts = [h for h in lk.nodes if h not in succ.values()]
        assert len(starts) <= 1
        cur = starts[0] if starts else min(lk.nodes)
        order = []
        while cur is not None and cur not in order:
            order.append(cur)
            cur = succ.get(cur)
        assert len(order) == len(lk.nodes)
        out[v] = [("h", e, "s" if s == 1 else "t") for e, s in order] + ([FREE] if starts else [])
    return out


def genus3_case(which, sign):
    cx = closed_genus3_split()
    sub = genus3_T(cx) if which == "T" else genus3_sigma_prime(cx)
    return cx, sub.cells(), genus3_chain(cx), sign


def ambient_case(inner, outer, level, sign):
    """T' in ambient_pair(inner, outer) subdivided level times, bounding t."""
    cx, _ = ambient_pair(inner, outer)
    letters = ((cx.edge_id("t"), -1),)
    for _ in range(level):
        cx, halves = barycentric(cx)
        split = []
        for e, sign in letters:
            first, second = halves[e]
            split += [(first, 1), (second, 1)] if sign == 1 else [(second, -1), (first, -1)]
        letters = tuple(split)
    t_faces = [("f", f) for f in cx.faces if cx.name("f", f).split(":")[0] == "fT"]
    return cx, induced_subcomplex(cx, t_faces).cells(), EdgeChain.make(cx, [(1, letters)]), sign


SUBSURFACE_CASES = {
    **{f"{which}, sign {sign:+d}": (genus3_case, which, sign) for which in ("T", "sigma'") for sign in (1, -1)},
    **{
        f"ambient({inner},{outer})/L{level}, sign {sign:+d}": (ambient_case, inner, outer, level, sign)
        for inner, outer in ((1, 2), (2, 4))
        for level in (0, 1, 2)
        for sign in (1, -1)
    },
}


@pytest.mark.parametrize("name", list(SUBSURFACE_CASES))
def test_subsurface_vertex_discs_match_the_link_walk(name):
    make, *args = SUBSURFACE_CASES[name]
    cx, cells, chain, sign = make(*args)
    s = subsurface_as_admissible(cx, cells, chain, sign=sign)
    expected = reference_subsurface_slots(cx, cells, sign)
    got = {}
    for vp in s.vpieces.values():
        assert vp.vertex not in got, "two vertex discs over one vertex"
        got[vp.vertex] = [slot if slot == FREE else ("h", s.hpieces[slot[1]].edge, slot[2]) for slot in vp.slots]
    assert sorted(got) == sorted(expected) == sorted(i for k, i in cells if k == "v")
    for v, slots in expected.items():
        assert cyclically_equal(got[v], slots)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("inner, outer", [(1, 2), (2, 4)])
def test_the_standard_form_of_an_ambient_subsurface_lies_in_it(inner, outer, level):
    cx, cells, chain, sign = ambient_case(inner, outer, level, 1)
    standard, _log = make_standard_form(subsurface_as_admissible(cx, cells, chain, sign=sign))
    assert standard.image_cells() <= set(cells)


def test_the_containment_check_tells_t_from_the_surface_beside_it():
    cx = closed_genus3_split()
    t_cells = set(genus3_T(cx).cells())
    assert t_itself(cx).image_cells() <= t_cells
    assert not sigma_genus1(cx).image_cells() <= t_cells


# -- validation through the assembled complex, kept as a reference -----------


def polygon_order(fp, degree):
    """The word positions in the order the disc's boundary visits them:
    ascending for sign +1, descending for sign -1."""
    if fp.sign == 1:
        return list(range(degree))
    return list(range(degree - 1, -1, -1))


class ReferenceSurface(AdmissibleSurface):
    """An admissible surface validated by assembling it as a TwoComplex with
    one vertex per slot corner and one face per piece, then checking that
    the complex is an oriented surface whose boundary is the free items."""

    def _check_corners(self):
        self._assemble()
        self._validate_surface()
        self._covered = set()
        for fp in self.fpieces.values():
            word = self.target.faces[fp.face]
            self._covered.update(corner_tokens(fp, word, k)[0] for k in range(len(word)))

    def _assemble(self):
        vertices = []
        vertex_ix = {}
        for vid, vp in self.vpieces.items():
            for j in range(len(vp.slots)):
                vertex_ix[(vid, j)] = len(vertices)
                vertices.append((vid, j))

        edges = {}
        edge_names = []
        edge_ix = {}

        def add_edge(name, a, b):
            edge_ix[name] = len(edge_names)
            edges[len(edge_names)] = (vertex_ix[a], vertex_ix[b])
            edge_names.append(name)

        for vid, vp in self.vpieces.items():
            m = len(vp.slots)
            for j in range(m):
                add_edge(("slot", vid, j), (vid, j), (vid, (j + 1) % m))
        for hid, hp in self.hpieces.items():
            dvid, j = hp.src
            m = len(self.vpieces[dvid].slots)
            s0, s1 = (dvid, j), (dvid, (j + 1) % m)
            dvid2, j2 = hp.tgt
            m2 = len(self.vpieces[dvid2].slots)
            t0, t1 = (dvid2, (j2 + 1) % m2), (dvid2, j2)
            add_edge(("long", hid, 0), s0, t0)
            add_edge(("long", hid, 1), s1, t1)

        faces = {}
        face_names = []

        def add_face(name, word):
            faces[len(face_names)] = tuple((edge_ix[e], s) for e, s in word)
            face_names.append(name)

        for vid, vp in self.vpieces.items():
            add_face(("vd", vid), [(("slot", vid, j), 1) for j in range(len(vp.slots))])
        for hid, hp in self.hpieces.items():
            svp, sj = hp.src
            tvp, tj = hp.tgt
            add_face(
                ("hd", hid),
                [
                    (("long", hid, 0), 1),
                    (("slot", tvp, tj), -1),
                    (("long", hid, 1), -1),
                    (("slot", svp, sj), -1),
                ],
            )
        for fid, fp in self.fpieces.items():
            word = self.target.faces[fp.face]
            letters = []
            for k in polygon_order(fp, len(word)):
                psign = polygon_sign(fp, word, k)
                letters.append((("long", fp.sides[k], required_long_index(psign)), psign))
            add_face(("cd", fid), letters)

        names = {}
        for (vid, j), ix in vertex_ix.items():
            names[("v", ix)] = f"p.{vid}.{j}"
        for name, ix in edge_ix.items():
            names[("e", ix)] = ".".join(str(x) for x in name)
        for i, name in enumerate(face_names):
            names[("f", i)] = ".".join(str(x) for x in name)

        try:
            self.complex = TwoComplex(range(len(vertices)), edges, faces, names)
        except ComplexError as exc:
            raise SurfaceError(f"pieces do not assemble: {exc}") from exc
        self._edge_ix = edge_ix
        self._face_names = face_names

    def _validate_surface(self):
        cxs = self.complex
        report = surface_check(cxs)
        if not report.is_surface:
            raise SurfaceError(f"assembled complex is not a surface: {report.witnesses}")
        # coherent orientation: the all-ones 2-chain must be a relative cycle
        totals = cxs.signed_incidences()
        free_items = set()
        for vid, vp in self.vpieces.items():
            for j, slot in enumerate(vp.slots):
                if slot == FREE:
                    free_items.add(("slot", vid, j))
        for hid, hp in self.hpieces.items():
            for li, ref in enumerate(hp.longs):
                if ref == FREE:
                    free_items.add(("long", hid, li))
        self._bdry_dir = {}
        for name, ix in self._edge_ix.items():
            total = totals[ix]
            if name in free_items:
                if total not in (1, -1):
                    raise SurfaceError(f"orientation inconsistency at free item {name}")
                self._bdry_dir[name] = total
            elif total != 0:
                raise SurfaceError(f"orientation inconsistency at glued item {name}")
        bset = boundary_subcomplex(cxs).edge_set
        if bset != {self._edge_ix[name] for name in free_items}:
            raise SurfaceError("boundary does not match the free items")
        chi_pieces = len(self.vpieces) - len(self.hpieces) + len(self.fpieces)
        if chi_pieces != cxs.euler_characteristic():
            raise SurfaceError("piece count and assembled Euler characteristic differ")

    def _extract_circuits(self):
        cxs = self.complex
        start_of = {}
        for name, direction in self._bdry_dir.items():
            s, t = cxs.edges[self._edge_ix[name]]
            tail = s if direction == 1 else t
            if tail in start_of:
                raise SurfaceError("boundary is not a union of circles")
            start_of[tail] = (name, direction)
        circuits = []
        used = set()
        for name in sorted(self._bdry_dir, key=str):
            if name in used:
                continue
            items = []
            word = []
            cur = name
            while cur not in used:
                used.add(cur)
                direction = self._bdry_dir[cur]
                items.append((*cur, direction))
                if cur[0] == "long":
                    word.append((self.hpieces[cur[1]].edge, direction))
                s, t = cxs.edges[self._edge_ix[cur]]
                cur = start_of[t if direction == 1 else s][0]
            circuits.append((tuple(items), tuple(word)))
        circuits.sort(key=lambda c: min(c[0]))
        self._raw_circuits = circuits

    def _find_components(self):
        comps = []
        for comp in reference_components(self.complex):
            names = (self._face_names[ident] for kind, ident in comp if kind == "f")
            comps.append(frozenset(({"vd": "v", "hd": "h", "cd": "f"}[tag], pid) for tag, pid in names))
        self._components = tuple(comps)
        self._component_chis = tuple(sum(-1 if kind == "h" else 1 for kind, _ in comp) for comp in comps)

    def euler_characteristic(self):
        return self.complex.euler_characteristic()


def reference_components(cx):
    """The connected components of a complex, as sorted lists of cells
    tagged ('v'|'e'|'f', id) and ordered by their least cell: a union-find
    over all cells."""
    parent = {c: c for c in cx.cells()}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for e, (s, t) in cx.edges.items():
        union(("e", e), ("v", s))
        union(("e", e), ("v", t))
    for f, word in cx.faces.items():
        for e, _ in word:
            union(("f", f), ("e", e))
    groups = {}
    for c in cx.cells():
        groups.setdefault(find(c), []).append(c)
    return [sorted(groups[r]) for r in sorted(groups)]


def assert_same_surface(got, ref):
    assert got._raw_circuits == ref._raw_circuits
    assert got.circuits == ref.circuits
    assert got.piece_components() == ref.piece_components()
    assert got.component_euler() == ref.component_euler()
    assert got.euler_characteristic() == ref.euler_characteristic()
    assert {vid: got.link_runs(vid) for vid in got.vpieces} == {vid: ref.link_runs(vid) for vid in ref.vpieces}


NECKLACE_GRID = [
    (m, closed, fold_pos, back_pos)
    for m in (1, 2)
    for closed in (True, False)
    for fold_pos in range(4)
    for back_pos in range(4)
    if fold_pos != back_pos
]

# the fold_necklaces benchmark's instances and its double_fold_fixture probe
FOLD_NECKLACES = {
    "fold_fixture": fold_fixture,
    "double_fold_fixture": double_fold_fixture,
    "figlnk": figlnk,
    "t_itself": t_itself,
    "sigma_genus1": sigma_genus1,
    **{f"necklace(m={m})": lambda m=m: fold_necklace(torus(), "f", m, fold_pos=0, back_pos=2) for m in (2, 3, 4, 6)},
}


def surfaces_built_by_standard_form(start, monkeypatch):
    """start and every surface make_standard_form constructs from it."""
    built = [start]
    init = AdmissibleSurface.__init__

    def recording_init(surface, *args, **kwargs):
        init(surface, *args, **kwargs)
        built.append(surface)

    with monkeypatch.context() as patch:
        patch.setattr(AdmissibleSurface, "__init__", recording_init)
        try:
            make_standard_form(start)
        except MoveError:
            pass  # the probes' and the grid's error texts are pinned elsewhere
    return built


def test_surfaces_built_by_standard_form_match_the_reference(monkeypatch):
    starts = [make() for make in FOLD_NECKLACES.values()] + [
        fold_necklace(torus(), "f", m, fold_pos, back_pos, closed=closed)
        for m, closed, fold_pos, back_pos in NECKLACE_GRID
    ]
    starts.append(disjoint_union(t_itself(), sigma_genus1()))  # two components
    built = [s for start in starts for s in surfaces_built_by_standard_form(start, monkeypatch)]
    assert len(built) > 250
    for s in built:
        assert_same_surface(s, reference_validate(s))


def mutated_vpieces(s, rng):
    """The vertex discs of s after one random slot permutation, free-slot
    insertion or deletion, or handle-end move."""
    slots = {vid: list(vp.slots) for vid, vp in s.vpieces.items()}
    kind = rng.choice(["permute", "insert", "delete", "move"])
    vid = rng.choice(sorted(slots))
    if kind == "permute":
        rng.shuffle(slots[vid])
    elif kind == "insert":
        slots[vid].insert(rng.randrange(len(slots[vid]) + 1), FREE)
    elif kind == "delete":
        free = [j for j, slot in enumerate(slots[vid]) if slot == FREE]
        if free and len(slots[vid]) > 1:
            del slots[vid][rng.choice(free)]
    else:
        hid = rng.choice(sorted(s.hpieces))
        end = rng.choice(["s", "t"])
        old = s.hpieces[hid].src if end == "s" else s.hpieces[hid].tgt
        if len(slots[old[0]]) > 1:
            slots[old[0]].remove(("h", hid, end))
            over = [v for v in sorted(slots) if s.vpieces[v].vertex == s.vpieces[old[0]].vertex]
            dest = slots[rng.choice(over)]
            dest.insert(rng.randrange(len(dest) + 1), ("h", hid, end))
    return {v: VPiece(s.vpieces[v].vertex, tuple(sl)) for v, sl in slots.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutated_pieces_are_accepted_and_read_as_the_reference_does(seed, monkeypatch):
    rng = random.Random(seed)
    bases = [b for make in (figlnk, fold_fixture, double_fold_fixture) for b in surfaces_built_by_standard_form(make(), monkeypatch)]
    bases += [disjoint_union(t_itself(), sigma_genus1()), fold_necklace(torus(), "f", 3, fold_pos=0, back_pos=2)]
    accepted = rejected = 0
    for _ in range(600):
        base = rng.choice(bases)
        args = (base.target, None, mutated_vpieces(base, rng), handle_edges(base), base.fpieces)
        try:
            ref = ReferenceSurface(*args)
        except SurfaceError:
            with pytest.raises(SurfaceError):
                AdmissibleSurface(*args)
            rejected += 1
            continue
        assert_same_surface(AdmissibleSurface(*args), ref)
        accepted += 1
    assert accepted > 100 and rejected > 100


def test_an_unclosed_corner_is_named():
    s = fold_fixture()
    vid = next(v for v, vp in s.vpieces.items() if len(vp.slots) > 2)
    slots = list(s.vpieces[vid].slots)
    slots[0], slots[1] = slots[1], slots[0]
    vpieces = dict(s.vpieces)
    vpieces[vid] = VPiece(s.vpieces[vid].vertex, tuple(slots))
    with pytest.raises(SurfaceError, match=r"cellular disc \d+ corner \d+ does not close at vertex disc \d+"):
        rebuild(s, vpieces=vpieces)
    with pytest.raises(SurfaceError, match="pieces do not assemble"):
        reference_validate(s, vpieces=vpieces)


def with_slot(s, vid, j, slot):
    """The vertex discs of s with slot j of disc vid replaced."""
    slots = list(s.vpieces[vid].slots)
    slots[j] = slot
    return {**s.vpieces, vid: VPiece(s.vpieces[vid].vertex, tuple(slots))}


def test_an_unplaced_handle_end_is_refused():
    s = fold_fixture()
    vid, j = s.hpieces[0].src
    with pytest.raises(SurfaceError, match="handle 0 s-end is not placed"):
        rebuild(s, vpieces=with_slot(s, vid, j, FREE))


def test_a_handle_end_held_by_two_slots_is_refused():
    s = figlnk()
    j = s.vpieces[0].slots.index(FREE)
    with pytest.raises(SurfaceError, match="handle 0 s-end is held by two slots"):
        rebuild(s, vpieces=with_slot(s, 0, j, ("h", 0, "s")))


def with_side(s, fid, k, side):
    """The cellular discs of s with side k of disc fid replaced."""
    sides = list(s.fpieces[fid].sides)
    sides[k] = side
    return {**s.fpieces, fid: replace(s.fpieces[fid], sides=tuple(sides))}


def test_a_long_side_claimed_by_two_disc_sides_is_refused():
    # over the torus word a b A B, side 0 of the positive disc and side 2 of
    # the negative one both want long 1 of a handle over a
    s = fold_fixture()
    plus, minus = (next(fid for fid, fp in s.fpieces.items() if fp.sign == sign) for sign in (1, -1))
    hid = s.fpieces[plus].sides[0]
    with pytest.raises(SurfaceError, match=f"handle {hid} long 1 is claimed by two disc sides"):
        rebuild(s, fpieces=with_side(s, minus, 2, hid))


# figlnk(): vertex disc 0 over v holds the s-ends of the spoke handles 0..3
# and two free slots, disc 1 over u1 holds (h0 t, h4 s, free); cellular disc
# 0 lies over the face left = s2 R12 S1, its sides on handles 1, 4 and 0,
# which the sign rule puts on their long sides 1, 0 and 0
PIECE_REFUSALS = [
    pytest.param(
        lambda s: {"vpieces": {**s.vpieces, 1: replace(s.vpieces[1], vertex=99)}},
        "vertex disc 1 maps to unknown vertex",
        id="unknown vertex",
    ),
    pytest.param(
        lambda s: {"vpieces": {**s.vpieces, 1: replace(s.vpieces[1], slots=())}},
        "vertex disc 1 has no slots",
        id="no slots",
    ),
    pytest.param(
        lambda s: {"vpieces": with_slot(s, 1, 2, ("h", 9, "s"))},
        "disc 1 slot 2 references a missing handle",
        id="missing handle",
    ),
    pytest.param(
        lambda s: {"vpieces": with_slot(s, 0, 2, ("h", 0, "s"))},
        "handle 0 s-end is held by two slots",
        id="end held twice",
    ),
    pytest.param(
        lambda s: {"handles": {**handle_edges(s), 0: 99}},
        "handle 0 maps to unknown edge",
        id="unknown edge",
    ),
    pytest.param(
        lambda s: {"vpieces": with_slot(s, 1, 0, FREE)},
        "handle 0 t-end is not placed on a slot",
        id="end not placed",
    ),
    pytest.param(
        # over s2, v -> u2, handle 0's t-end still sits on disc 1 over u1
        lambda s: {"handles": {**handle_edges(s), 0: s.target.edge_id("s2")}},
        "handle 0 t-end sits on a disc over the wrong vertex",
        id="wrong vertex",
    ),
    pytest.param(
        lambda s: {"fpieces": {**s.fpieces, 0: replace(s.fpieces[0], face=99)}},
        "cellular disc 0 maps to unknown face",
        id="unknown face",
    ),
    pytest.param(
        lambda s: {"fpieces": {**s.fpieces, 0: replace(s.fpieces[0], sign=0)}},
        "cellular disc 0 has bad sign",
        id="bad sign",
    ),
    pytest.param(
        lambda s: {"fpieces": {**s.fpieces, 0: replace(s.fpieces[0], sides=s.fpieces[0].sides[:2])}},
        "cellular disc 0 must have 3 sides",
        id="side count",
    ),
    pytest.param(
        lambda s: {"fpieces": with_side(s, 0, 1, 9)},
        "cellular disc 0 side 1 references a missing handle",
        id="invalid reference",
    ),
    pytest.param(
        lambda s: {"fpieces": with_side(s, 0, 0, 0)},
        "cellular disc 0 side 0 glued to a handle over the wrong edge",
        id="wrong edge",
    ),
    pytest.param(
        lambda s: {"fpieces": {**s.fpieces, 2: s.fpieces[0]}},
        "handle 1 long 1 is claimed by two disc sides",
        id="long claimed twice",
    ),
]


@pytest.mark.parametrize("broken, message", PIECE_REFUSALS)
def test_every_piece_refusal_names_the_broken_piece(broken, message):
    s = figlnk()
    with pytest.raises(SurfaceError, match=f"^{re.escape(message)}$"):
        rebuild(s, **broken(s))


# -- boundary, subsurface and union refusals -------------------------------------


def square_rim_chain(cx):
    """The rim loop r12 r23 r34 r41 of ``square_disc``: it visits u1..u4
    but not the centre v."""
    return EdgeChain.make(cx, [(1, tuple((cx.edge_id(name), 1) for name in ("r12", "r23", "r34", "r41")))])


def lone_discs(cx, *names):
    """Vertex discs with one free slot each, over the named vertices: each
    is a component whose boundary is a constant circuit."""
    return {vid: VPiece(cx.vertex_id(name), (FREE,)) for vid, name in enumerate(names)}


def built(s, chain=None, vpieces=None, assignments=None, homotopy=None):
    """s rebuilt with its pieces and the given chain (s's own when None),
    assignments (as given, None included) and homotopy certificate."""
    return AdmissibleSurface(
        s.target,
        s.chain if chain is None else chain,
        vpieces if vpieces is not None else s.vpieces,
        handle_edges(s),
        s.fpieces,
        assignments=assignments,
        homotopy=homotopy,
    )


# t_itself(): one vertex disc over the one vertex of closed_genus3_split,
# one cellular disc over f1 and the chain c^-1 (edge 4); its one boundary
# circuit reads c^-1 from its anchor ('long', 4, 1).  Face f2's boundary is
# the 1-chain c.  fold_fixture()'s one circuit carries the longs
# ('long', 1, 0) and ('long', 2, 1).
BOUNDARY_REFUSALS = [
    pytest.param(
        lambda: built(t_itself(), homotopy={0: 1}),
        "homotoped boundaries need explicit circuit assignments",
        id="homotopy without assignments",
    ),
    pytest.param(
        lambda: built(t_itself(), chain=EdgeChain.make(closed_genus3_split(), [(1, ((5, 1),))])),
        "boundary word ((4, -1),) matches no circle of the chain",
        id="no matching circle",
    ),
    pytest.param(
        lambda: built(fold_fixture(), assignments=[(("long", 1, 0), 0, 1), (("long", 2, 1), 0, 2)]),
        "conflicting assignments on one circuit",
        id="conflicting assignments",
    ),
    pytest.param(
        lambda: built(t_itself(), assignments=[]),
        "circuit ('long', 4, 1, -1) has no assignment",
        id="circuit without assignment",
    ),
    pytest.param(
        lambda: built(t_itself(), assignments=[(("long", 4, 1), 3, 1)]),
        "assignment to unknown circle 3",
        id="unknown circle",
    ),
    pytest.param(
        lambda: built(t_itself(), assignments=[(("long", 4, 1), 0, 2)]),
        "boundary word mismatch with chain: ((4, -1),) is not circle 0 to the power 2",
        id="word not the power",
    ),
    pytest.param(
        lambda: built(t_itself(), assignments=[(("long", 4, 1), 0, 1)], homotopy={99: 1}),
        "homotopy certificate uses an unknown face",
        id="homotopy over an unknown face",
    ),
    pytest.param(
        lambda: built(t_itself(), assignments=[(("long", 4, 1), 0, 1)], homotopy={1: 1}),
        "boundary words do not match the chain, even up to the homotopy certificate",
        id="homotopy of the wrong boundary",
    ),
    pytest.param(
        lambda: AdmissibleSurface(square_disc(), square_rim_chain(square_disc()), lone_discs(square_disc(), "v"), {}, {}),
        "constant boundary circuit at a vertex not visited by the chain",
        id="constant circuit off the chain",
    ),
    pytest.param(
        lambda: subsurface_as_admissible(closed_genus3_split(), genus3_T().cells(), genus3_chain(), sign=0),
        "sign must be +1 or -1",
        id="subsurface sign",
    ),
    pytest.param(
        # the loop c alone: an edge on no face
        lambda: subsurface_as_admissible(closed_genus3_split(), [("v", 0), ("e", 4)], genus3_chain()),
        "the chosen cells do not form a surface",
        id="subsurface not a surface",
    ),
    pytest.param(
        lambda: disjoint_union(t_itself(), fold_fixture()),
        "disjoint union needs a common target",
        id="union of two targets",
    ),
    pytest.param(
        # both over a torus, bounding different chains
        lambda: disjoint_union(fold_fixture(), fold_necklace(torus(), "f", 1, 0, 2)),
        "disjoint union needs a common chain",
        id="union of two chains",
    ),
]


@pytest.mark.parametrize("build, message", BOUNDARY_REFUSALS)
def test_every_boundary_refusal_is_reached(build, message):
    with pytest.raises(SurfaceError, match=f"^{re.escape(message)}$"):
        build()


def test_the_constant_circuit_check_passes_on_the_chain():
    # the same lone disc over u1, which the rim visits, is accepted
    cx = square_disc()
    s = AdmissibleSurface(cx, square_rim_chain(cx), lone_discs(cx, "u1"), {}, {})
    assert [c.word for c in s.circuits] == [()]


def test_boundary_guards_that_cannot_fail_raise_when_tampered_under_optimize():
    # circuits are read off the pieces, so their 1-chain is the pushforward
    # boundary, and a letterless circuit never leaves its vertex disc; a
    # tampered reading reaches each check
    script = textwrap.dedent(
        """
        import sclkit.surfaces as S
        from sclkit.fixtures import square_disc, t_itself
        from sclkit.words import EdgeChain

        caught = []

        def expect(name, message, call):
            try:
                call()
            except S.SurfaceError as exc:
                if str(exc) == message:
                    caught.append(name)

        s = t_itself()
        handles = {hid: hp.edge for hid, hp in s.hpieces.items()}
        one_chain, calls = S.one_chain, []
        def tampered(pairs):
            # the third 1-chain of the boundary check is the pushforward
            calls.append(pairs)
            out = one_chain(pairs)
            return {**out, 4: out.get(4, 0) + 1} if len(calls) == 3 else out
        S.one_chain = tampered
        expect("pushforward", "pushforward boundary disagrees with circuit words",
               lambda: S.AdmissibleSurface(s.target, s.chain, s.vpieces, handles, s.fpieces))
        S.one_chain = one_chain

        cx = square_disc()
        rim = EdgeChain.make(cx, [(1, tuple((cx.edge_id(n), 1) for n in ("r12", "r23", "r34", "r41")))])
        discs = {0: S.VPiece(cx.vertex_id("u1"), (S.FREE,)), 1: S.VPiece(cx.vertex_id("u2"), (S.FREE,))}
        extract = S.AdmissibleSurface._extract_circuits
        def merged(surface):
            # the two constant circuits read as one
            extract(surface)
            (a, _), (b, _) = surface._raw_circuits
            surface._raw_circuits = [(a + b, ())]
        S.AdmissibleSurface._extract_circuits = merged
        expect("letterless", "letterless circuit touching several vertices",
               lambda: S.AdmissibleSurface(cx, rim, discs, {}, {}))
        S.AdmissibleSurface._extract_circuits = extract
        print(" ".join(caught))
        """
    )
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["pushforward", "letterless"]
