import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sclkit.complexes
from sclkit.complexes import (
    ComplexError,
    LinkGraph,
    Subcomplex,
    SurfaceReport,
    TwoComplex,
    barycentric,
    boundary_subcomplex,
    induced_subcomplex,
    inv,
    link_graph,
    link_shapes,
    parse_complex,
    print_complex,
    surface_check,
)
from sclkit.fixtures import COMPLEX_FIXTURES, closed_genus, fold_fixture, fold_necklace
from sclkit.surfaces import FREE, AdmissibleSurface, VPiece, polygon_sign
from test_surfaces import (
    FOLD_NECKLACES,
    NECKLACE_GRID,
    as_complex,
    handle_edges,
    polygon_order,
    reference_validate,
    surfaces_built_by_standard_form,
)


def torus():
    return TwoComplex.build(
        ["v"],
        [("a", "v", "v"), ("b", "v", "v")],
        [("f", [("a", 1), ("b", 1), ("a", -1), ("b", -1)])],
    )


def rp2():
    return TwoComplex.build(["v"], [("a", "v", "v")], [("f", [("a", 1), ("a", 1)])])


def disc():
    return TwoComplex.build(
        ["p", "q", "r"],
        [("e1", "p", "q"), ("e2", "q", "r"), ("e3", "r", "p")],
        [("f", [("e1", 1), ("e2", 1), ("e3", 1)])],
    )


def one_holed_genus(g):
    """Genus g surface with one boundary edge c; face [a1,b1]...[ag,bg]c-."""
    edges = []
    word = []
    for i in range(1, g + 1):
        edges += [(f"a{i}", "v", "v"), (f"b{i}", "v", "v")]
        word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
    edges.append(("c", "v", "v"))
    word.append(("c", -1))
    return TwoComplex.build(["v"], edges, [("f", word)])


def test_build_torus():
    t2 = torus()
    assert t2.euler_characteristic() == 0
    assert t2.degree(0) == 4


def test_build_rp2():
    p = rp2()
    assert p.degree(0) == 2
    assert p.side_incidences() == {0: 2}


def test_build_nonclosing_word():
    with pytest.raises(ComplexError, match="close"):
        TwoComplex.build(
            ["p", "q", "r"],
            [("a", "p", "q"), ("b", "r", "p")],
            [("f", [("a", 1), ("b", 1)])],
        )


def test_build_dangling_edge():
    with pytest.raises(ComplexError, match="dangling"):
        TwoComplex.build(["p"], [("a", "p", "zz")], [])


def test_build_empty_face_word():
    with pytest.raises(ComplexError, match="empty"):
        TwoComplex(["v"], {}, {0: ()})


# edges 0: p -> q, 1: q -> r, 2: r -> p around a triangle on vertices 0, 1, 2
TRIANGLE = {0: (0, 1), 1: (1, 2), 2: (2, 0)}


@pytest.mark.parametrize(
    "vertices, faces, message",
    [
        ([0, 1, 1, 2], {}, "duplicate vertex id"),
        ([0, 1], {}, "edge e1 has dangling endpoint"),
        ([0, 1, 2], {0: ((0, 1), (3, 1), (2, 1))}, "face f0 uses unknown edge 3"),
        ([0, 1, 2], {0: ((0, 1), (1, 0), (2, 1))}, "face f0 has bad sign 0"),
        # side 0 runs q -> p, side 1 starts at q
        ([0, 1, 2], {0: ((0, -1), (1, 1), (2, 1))}, "face f0 does not close at position 0"),
        # side 1 ends at r, side 2 runs q -> p
        ([0, 1, 2], {0: ((0, 1), (1, 1), (0, -1))}, "face f0 does not close at position 1"),
        # sides 0..2 close up at p, and side 3 ends at q, not where side 0 starts
        ([0, 1, 2], {0: ((0, 1), (1, 1), (2, 1), (0, 1))}, "face f0 does not close at position 3"),
    ],
)
def test_the_constructor_names_what_it_refuses(vertices, faces, message):
    with pytest.raises(ComplexError, match=f"^{message}$"):
        TwoComplex(vertices, TRIANGLE, faces)


def test_torus_link_is_single_circle():
    t2 = torus()
    lk = link_graph(t2, 0)
    assert len(lk.nodes) == 4
    assert len(lk.links) == 4
    assert reference_link_kind(lk) == "circle"
    assert link_shapes(t2)[0] == (4, 0, 0, 2, 1)
    # independent corner enumeration of the square a b a- b-
    word = [(0, 1), (1, 1), (0, -1), (1, -1)]
    expected = set()
    for k in range(4):
        e1, s1 = word[k]
        e2, s2 = word[(k + 1) % 4]
        expected.add(frozenset({(e1, -s1), (e2, s2)}) if (e1, -s1) != (e2, s2) else frozenset({(e1, -s1)}))
    got = {frozenset({h1, h2}) for (h1, h2), _ in lk.links}
    assert got == expected


def test_disc_links_are_arcs():
    d = disc()
    for v in d.vertices:
        lk = link_graph(d, v)
        assert len(lk.nodes) == 2
        assert len(lk.links) == 1
        assert reference_link_kind(lk) == "arc"
        assert link_shapes(d)[v].kind() == "arc"


def test_isolated_vertex_link_empty():
    cx = TwoComplex.build(["v", "w"], [("a", "v", "v")], [])
    assert reference_link_kind(link_graph(cx, 1)) == "empty"
    assert link_shapes(cx)[1] == (0, 0, 0, 0, 0)
    assert link_shapes(cx)[1].kind() == "empty"


def test_unknown_vertex_link():
    with pytest.raises(ComplexError, match="unknown vertex id 99"):
        link_graph(torus(), 99)


def small_links(cx):
    """True iff every edge meets at most two face sides."""
    return all(count <= 2 for count in cx.side_incidences().values())


def test_small_links_torus():
    assert torus().side_incidences() == {0: 2, 1: 2}
    assert small_links(torus())


def test_small_links_three_squares_on_common_edge():
    verts = ["p", "q"]
    edges = [("m", "p", "q")]
    faces = []
    for i in range(3):
        edges += [(f"x{i}", "q", "p")]
        faces.append((f"f{i}", [("m", 1), (f"x{i}", 1)]))
    cx = TwoComplex.build(verts, edges, faces)
    over = [cx.name("e", e) for e, count in cx.side_incidences().items() if count > 2]
    assert over == ["m"]
    assert link_shapes(cx)[cx.vertex_id("p")].kind() == "branched"


def test_small_links_rp2():
    assert small_links(rp2())
    assert rp2().side_incidences()[0] == 2


def test_small_links_matches_link_formulation():
    # both formulations agree on a mixed bag of complexes
    samples = [torus(), rp2(), disc(), one_holed_genus(2)]
    verts = ["p", "q"]
    edges = [("m", "p", "q"), ("x0", "q", "p"), ("x1", "q", "p"), ("x2", "q", "p")]
    faces = [(f"f{i}", [("m", 1), (f"x{i}", 1)]) for i in range(3)]
    samples.append(TwoComplex.build(verts, edges, faces))
    for cx in samples:
        ok = all(shape.max_degree <= 2 for shape in link_shapes(cx).values())
        link_ok = all(
            reference_link_kind(link_graph(cx, v)) in ("circle", "arc", "point", "union", "empty")
            and all(d <= 2 for d in reference_node_degrees(link_graph(cx, v)).values())
            for v in cx.vertices
        )
        assert ok == link_ok
        assert ok == small_links(cx)


def test_surface_check_torus():
    rep = surface_check(torus())
    assert rep.is_surface
    assert rep.boundary_vertices == ()


def test_surface_check_disc():
    rep = surface_check(disc())
    assert rep.is_surface
    assert set(rep.boundary_vertices) == {0, 1, 2}


def test_surface_check_wedge_of_triangles():
    # two triangles sharing exactly one vertex
    cx = TwoComplex.build(
        ["o", "p", "q", "r", "s"],
        [
            ("a1", "o", "p"), ("a2", "p", "q"), ("a3", "q", "o"),
            ("b1", "o", "r"), ("b2", "r", "s"), ("b3", "s", "o"),
        ],
        [
            ("f1", [("a1", 1), ("a2", 1), ("a3", 1)]),
            ("f2", [("b1", 1), ("b2", 1), ("b3", 1)]),
        ],
    )
    rep = surface_check(cx)
    assert not rep.is_surface
    assert rep.witnesses[0][0] == 0  # the shared vertex


def test_surface_implies_small_links():
    for cx in (torus(), disc(), one_holed_genus(3)):
        assert surface_check(cx).is_surface
        assert small_links(cx)


def test_boundary_subcomplex_disc():
    b = boundary_subcomplex(disc())
    assert b.edge_set == {0, 1, 2}
    assert b.vertex_set == {0, 1, 2}


def test_boundary_subcomplex_torus_empty():
    b = boundary_subcomplex(torus())
    assert not b.edge_set and not b.vertex_set


def test_boundary_subcomplex_one_holed_genus2():
    cx = one_holed_genus(2)
    b = boundary_subcomplex(cx)
    assert {cx.name("e", e) for e in b.edge_set} == {"c"}
    assert b.vertex_set == {0}
    # each boundary edge is glued along exactly one face side
    for e in b.edge_set:
        assert cx.side_incidences()[e] == 1


def test_euler_one_holed_genus2():
    assert one_holed_genus(2).euler_characteristic() == -3


def test_induced_subcomplex_closure():
    cx = one_holed_genus(2)
    sub = induced_subcomplex(cx, [("f", 0)])
    assert sub.face_set == {0}
    assert sub.edge_set == set(cx.edges)
    assert sub.vertex_set == {0}


def test_induced_subcomplex_all_and_empty():
    cx = torus()
    full = induced_subcomplex(cx, cx.cells())
    assert (full.vertex_set, full.edge_set, full.face_set) == (set(cx.vertices), set(cx.edges), set(cx.faces))
    empty = induced_subcomplex(cx, [])
    assert not empty.cells()


def test_induced_subcomplex_unknown_id():
    with pytest.raises(ComplexError):
        induced_subcomplex(torus(), [("f", 9)])


@pytest.mark.parametrize(
    "cells, message",
    [
        (({0}, {0, 1}, {9}), "unknown face id 9"),
        (({0}, {0, 9}, set()), "unknown edge id 9"),
        (({0, 9}, {0, 1}, set()), "unknown vertex id 9"),
        (({0}, {0}, {0}), "face edge missing"),
        ((set(), {0}, set()), "edge endpoint missing"),
    ],
)
def test_subcomplex_refuses_unknown_cells_and_open_cell_sets(cells, message):
    # torus(): vertex 0, loops a = 0 and b = 1, face 0 = a b A B
    vs, es, fs = map(frozenset, cells)
    with pytest.raises(ComplexError, match=message):
        Subcomplex(torus(), vs, es, fs)


def test_corner_accounting():
    # total link edges over all vertices equals total face degree
    for cx in (torus(), rp2(), disc(), one_holed_genus(3)):
        total_links = sum(len(link_graph(cx, v).links) for v in cx.vertices)
        total_degree = sum(cx.degree(f) for f in cx.faces)
        assert total_links == total_degree


def test_subcomplex_stability_of_small_links():
    rng = random.Random(41)
    pool = [torus(), rp2(), one_holed_genus(2), disc()]
    for _ in range(40):
        cx = rng.choice(pool)
        assert small_links(cx)
        cells = [c for c in cx.cells() if rng.random() < 0.6]
        sub = as_complex(induced_subcomplex(cx, cells))
        assert small_links(sub)


def test_text_roundtrip_byte_stable():
    for cx in (torus(), rp2(), disc(), one_holed_genus(2)):
        text = print_complex(cx)
        again = print_complex(parse_complex(text))
        assert text == again


def test_parse_errors():
    with pytest.raises(ComplexError):
        parse_complex("vertex v\nedge a v\n")
    with pytest.raises(ComplexError):
        parse_complex("face f = a\n")
    with pytest.raises(ComplexError):
        parse_complex("widget w\n")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TwoComplex.build(["p", "p"], [], []), "duplicate vertex name"),
        (lambda: TwoComplex.build(["p"], [("a", "p", "p"), ("a", "p", "p")], []), "duplicate edge name a"),
        (lambda: TwoComplex.build(["p"], [("a", "p", "p")], [("f", [("b", 1)])]), "face f uses unknown edge b"),
        (
            lambda: TwoComplex.build(["v"], [("a", "v", "v"), ("b", "v", "v")], [("f", [("a", 1)]), ("f", [("b", 1)])]),
            "duplicate face name f",
        ),
        (lambda: torus().vertex_id("w"), "unknown vertex w"),
        (lambda: torus().edge_id("c"), "unknown edge c"),
        (lambda: torus().face_id("g"), "unknown face g"),
        (lambda: induced_subcomplex(torus(), [("v", 9)]), "unknown vertex id 9"),
        (lambda: induced_subcomplex(torus(), [("e", 9)]), "unknown edge id 9"),
        (lambda: induced_subcomplex(torus(), [("x", 0)]), "unknown cell kind x"),
        (lambda: parse_complex("vertex p q\n"), "line 1: vertex wants one name"),
        (lambda: parse_complex("vertex p\nface f a+\n"), "line 2: face wants 'face <name> = <word>'"),
    ],
    ids=[
        "duplicate vertex name",
        "duplicate edge name",
        "face over unknown edge",
        "duplicate face name",
        "vertex name",
        "edge name",
        "face name",
        "induced vertex",
        "induced edge",
        "induced kind",
        "vertex line",
        "face line",
    ],
)
def test_every_complex_refusal_is_reached(call, message):
    with pytest.raises(ComplexError, match=f"^{re.escape(message)}$"):
        call()


# -- references for ``link_graph``, ``surface_check`` and ``link_shapes``:
# every link read off the face words in one pass, its shape by depth-first
# search


def reference_links(cx):
    """Every vertex link at once, read off the edge table and the face words.

    Each half-edge sits where the edge table puts it, (e, 1) at the source
    of e and (e, -1) at its target.  Each corner of a face word joins the
    half-edge that its side arrives along with the one the next side leaves
    along, and lies where the latter sits, which must be where the former
    sits.  One pass over the words, with no per-vertex scan and no
    ``cx.endpoint``.
    """
    home = {}
    for e, (s, t) in cx.edges.items():
        home[(e, 1)], home[(e, -1)] = s, t
    nodes = {v: [] for v in cx.vertices}
    for half in sorted(home):
        nodes[home[half]].append(half)
    corners = {v: [] for v in cx.vertices}
    for f, word in cx.faces.items():
        for k, (e, sign) in enumerate(word):
            arrive, leave = (e, -sign), word[(k + 1) % len(word)]
            assert home[arrive] == home[leave]
            corners[home[leave]].append(((arrive, leave), (f, k)))
    return {v: LinkGraph(vertex=v, nodes=tuple(nodes[v]), links=tuple(corners[v])) for v in cx.vertices}


def reference_node_degrees(lk):
    deg = {n: 0 for n in lk.nodes}
    for (h1, h2), _prov in lk.links:
        deg[h1] += 1
        deg[h2] += 1
    return deg


def reference_link_components(lk):
    """Node sets of the link's components, by depth-first search."""
    adj = {n: [] for n in lk.nodes}
    for (h1, h2), _prov in lk.links:
        adj[h1].append(h2)
        adj[h2].append(h1)
    seen = set()
    out = []
    for n in sorted(lk.nodes):
        if n in seen:
            continue
        comp = []
        stack = [n]
        seen.add(n)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out.append(sorted(comp))
    return out


def reference_link_kind(lk):
    """'circle' | 'arc' | 'point' | 'union' | 'branched' | 'empty', by DFS."""
    if not lk.nodes:
        return "empty"
    deg = reference_node_degrees(lk)
    if any(d > 2 for d in deg.values()):
        return "branched"
    if len(reference_link_components(lk)) > 1:
        return "union"
    ones = sum(1 for d in deg.values() if d == 1)
    zeros = sum(1 for d in deg.values() if d == 0)
    if zeros:
        return "point" if len(lk.nodes) == 1 else "union"
    if ones == 0:
        return "circle"
    if ones == 2:
        return "arc"
    return "branched"


def reference_surface_check(cx):
    boundary, bad = [], []
    for v, lk in reference_links(cx).items():
        kind = reference_link_kind(lk)
        if kind == "arc":
            boundary.append(v)
        elif kind != "circle":
            bad.append((v, kind))
    return SurfaceReport(not bad, tuple(boundary), tuple(bad))


def assert_shapes_match_the_dfs(cx):
    shapes = link_shapes(cx)
    assert list(shapes) == list(cx.vertices)
    for v, lk in reference_links(cx).items():
        degrees = list(reference_node_degrees(lk).values())
        assert shapes[v] == (
            len(lk.nodes),
            degrees.count(0),
            degrees.count(1),
            max(degrees, default=0),
            len(reference_link_components(lk)),
        )
        assert shapes[v].kind() == reference_link_kind(lk)


def assert_matches_references(cx):
    for v, lk in reference_links(cx).items():
        assert link_graph(cx, v) == lk
    assert surface_check(cx) == reference_surface_check(cx)
    assert_shapes_match_the_dfs(cx)


@pytest.mark.parametrize("name", sorted(COMPLEX_FIXTURES))
def test_a_link_graph_that_drops_a_corner_fails_the_references(name, monkeypatch):
    cx = COMPLEX_FIXTURES[name]()
    assert_matches_references(cx)
    original = link_graph

    def dropping(cx, v):
        lk = original(cx, v)
        return LinkGraph(lk.vertex, lk.nodes, lk.links[1:])

    monkeypatch.setitem(globals(), "link_graph", dropping)
    with pytest.raises(AssertionError):
        assert_matches_references(cx)


@st.composite
def small_complexes(draw):
    """Loop edges, isolated vertices, faces of length 1 and 2, sparse ids.

    A face word is a random walk, closed by walking it back when it does
    not end where it started.
    """
    vertices = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    edge_ids = draw(st.lists(st.integers(0, 40), max_size=8, unique=True))
    edges = {e: (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))) for e in edge_ids}
    at = {v: [] for v in vertices}
    for e, (s, t) in edges.items():
        at[s].append((e, 1))
        at[t].append((e, -1))
    starts = [v for v in vertices if at[v]]
    faces = {}
    for f in range(draw(st.integers(0, 5)) if starts else 0):
        v = start = draw(st.sampled_from(starts))
        walk = []
        for _ in range(draw(st.integers(1, 4))):
            side = draw(st.sampled_from(at[v]))
            walk.append(side)
            e, sign = side
            v = edges[e][1] if sign == 1 else edges[e][0]
        if v != start:
            walk += [inv(side) for side in reversed(walk)]
        faces[draw(st.integers(0, 3)) + 4 * f] = walk
    return TwoComplex(vertices, edges, faces)


def subdivided(cx: TwoComplex) -> TwoComplex:
    """Coned subdivision: each face becomes a fan of triangles.

    A barycentre vertex is added per face, with one spoke per polygon
    corner; face words of length 1 or 2 subdivide like the rest (the spokes
    make every triangle word length 3).  Old cells keep their ids, so
    chains and subcomplex cell sets remain meaningful.
    """
    vertices = list(cx.vertices)
    edges = dict(cx.edges)
    faces = {}
    names = {k: v for k, v in cx.names.items() if k[0] != "f"}
    next_v = max(cx.vertices, default=-1) + 1
    next_e = max(cx.edges, default=-1) + 1
    next_f = 0
    for f, word in cx.faces.items():
        deg = len(word)
        beta = next_v
        next_v += 1
        vertices.append(beta)
        names[("v", beta)] = f"{cx.name('f', f)}*"
        spokes = []
        for i in range(deg):
            corner = cx.endpoint(word[i], 0)
            spokes.append(next_e)
            edges[next_e] = (corner, beta)
            names[("e", next_e)] = f"{cx.name('f', f)}*{i}"
            next_e += 1
        for i in range(deg):
            tri = (word[i], (spokes[(i + 1) % deg], 1), (spokes[i], -1))
            faces[next_f] = tri
            names[("f", next_f)] = f"{cx.name('f', f)}.{i}"
            next_f += 1
    return TwoComplex(vertices, edges, faces, names)


def union_of(a, b):
    """Disjoint union keeping a's ids and shifting b's past them."""
    dv = max(a.vertices, default=-1) + 1
    de = max(a.edges, default=-1) + 1
    df = max(a.faces, default=-1) + 1
    return TwoComplex(
        list(a.vertices) + [v + dv for v in b.vertices],
        {**a.edges, **{e + de: (s + dv, t + dv) for e, (s, t) in b.edges.items()}},
        {**a.faces, **{f + df: [(e + de, sign) for e, sign in w] for f, w in b.faces.items()}},
    )


@settings(max_examples=150, deadline=None)
@given(small_complexes(), small_complexes(), st.sampled_from(["plain", "union", "barycentric", "subdivided"]))
def test_links_and_components_match_the_per_vertex_scans(a, b, image):
    cx = {
        "plain": lambda: a,
        "union": lambda: union_of(a, b),
        "barycentric": lambda: barycentric(union_of(b, a))[0],
        "subdivided": lambda: subdivided(a),
    }[image]()
    assert_matches_references(cx)


@pytest.mark.parametrize("name", sorted(COMPLEX_FIXTURES))
def test_links_and_components_match_on_fixture_images(name):
    cx = COMPLEX_FIXTURES[name]()
    for image in (cx, barycentric(cx)[0], subdivided(cx), union_of(cx, subdivided(cx))):
        assert_matches_references(image)


# a loop edge under a one-sided face (an arc link); backtracking words
# (self-loops in the link), a loop edge, an edge with no face side and an
# isolated vertex
LOOP_ARC = TwoComplex([0], {0: (0, 0)}, {0: ((0, 1),)})
BACKTRACK = TwoComplex(
    [0, 1, 2, 3, 4],
    {0: (0, 1), 1: (1, 2), 2: (2, 2), 3: (0, 3)},
    {0: ((0, 1), (0, -1)), 1: ((1, 1), (2, 1), (1, -1))},
)


def test_link_shapes_on_loops_backtracks_and_free_edges():
    for cx in (LOOP_ARC, BACKTRACK, union_of(BACKTRACK, LOOP_ARC)):
        for image in (cx, barycentric(cx)[0], subdivided(cx)):
            assert_matches_references(image)
    assert link_shapes(LOOP_ARC)[0] == (2, 0, 2, 1, 1)
    # vertex 0: a self-loop from the backtrack plus the free edge's end;
    # vertex 1: two self-loops; vertex 2: a path through the loop edge
    assert list(link_shapes(BACKTRACK).values()) == [
        (2, 1, 0, 2, 2),
        (2, 0, 0, 2, 2),
        (3, 0, 2, 2, 1),
        (1, 1, 0, 0, 1),
        (0, 0, 0, 0, 0),
    ]
    assert [s.kind() for s in link_shapes(BACKTRACK).values()] == ["union", "union", "arc", "point", "empty"]


def reference_collapse(surface):
    """The collapsed complex of a surface: vertex discs become vertices,
    handles edges and cellular discs faces, each in ascending id order."""
    vix = {vid: i for i, vid in enumerate(surface.vpieces)}
    hix = {hid: i for i, hid in enumerate(surface.hpieces)}
    edges = {hix[hid]: (vix[hp.src[0]], vix[hp.tgt[0]]) for hid, hp in surface.hpieces.items()}
    faces = {}
    for i, fp in enumerate(surface.fpieces.values()):
        word = surface.target.faces[fp.face]
        faces[i] = [(hix[fp.sides[k]], polygon_sign(fp, word, k)) for k in polygon_order(fp, len(word))]
    return TwoComplex(range(len(vix)), edges, faces)


def assert_bar_links_match_the_dfs(surface):
    collapsed = reference_collapse(surface)
    for ix, vid in enumerate(surface.vpieces):
        assert surface.bar_link_components(vid) == len(reference_link_components(link_graph(collapsed, ix)))
        assert sorted(j for run in surface.link_runs(vid) for j in run) == [
            j for j, slot in enumerate(surface.vpieces[vid].slots) if slot != FREE
        ]


@pytest.mark.parametrize("name", sorted(FOLD_NECKLACES))
def test_bar_link_components_match_the_dfs_on_fold_fixtures(name, monkeypatch):
    for surface in surfaces_built_by_standard_form(FOLD_NECKLACES[name](), monkeypatch):
        assert_bar_links_match_the_dfs(surface)


def test_bar_link_components_match_the_dfs_on_the_necklace_grid(monkeypatch):
    assert len(NECKLACE_GRID) == 48
    built = 0
    for m, closed, fold_pos, back_pos in NECKLACE_GRID:
        start = fold_necklace(torus(), "f", m, fold_pos, back_pos, closed=closed)
        surfaces = surfaces_built_by_standard_form(start, monkeypatch)
        for surface in surfaces:
            assert_bar_links_match_the_dfs(surface)
        built += len(surfaces)
    assert built > 3 * len(NECKLACE_GRID)


def rotated(surface, r):
    """The same surface with every vertex disc's slot list started r slots later."""
    vpieces = {}
    for vid, vp in surface.vpieces.items():
        k = r % len(vp.slots)
        vpieces[vid] = VPiece(vp.vertex, vp.slots[k:] + vp.slots[:k])
    return AdmissibleSurface(surface.target, surface.chain, vpieces, handle_edges(surface), surface.fpieces)


@pytest.mark.parametrize("name", ["fold_fixture", "double_fold_fixture", "figlnk", "necklace(m=2)"])
def test_bar_link_components_do_not_depend_on_where_slot_lists_start(name):
    # a run may wrap round from the last slot to the first
    surface = FOLD_NECKLACES[name]()
    counts = [surface.bar_link_components(vid) for vid in surface.vpieces]
    for r in range(1, max(len(vp.slots) for vp in surface.vpieces.values())):
        turned = rotated(surface, r)
        assert [turned.bar_link_components(vid) for vid in turned.vpieces] == counts
        assert_bar_links_match_the_dfs(turned)


@pytest.mark.parametrize("which", ["genus 8", "fold_fixture"])
def test_surface_check_builds_no_link_graph(which, monkeypatch):
    if which == "genus 8":
        cx = barycentric(barycentric(closed_genus(8))[0])[0]
        assert (len(cx.vertices), len(cx.edges), len(cx.faces)) == (178, 576, 384)
    else:
        cx = reference_validate(fold_fixture()).complex

    def forbidden(*args):
        raise AssertionError("surface_check built a link graph")

    monkeypatch.setattr(sclkit.complexes, "link_graph", forbidden)
    report = surface_check(cx)
    assert report == reference_surface_check(cx)
    if which == "genus 8":
        assert report.is_surface and report.boundary_vertices == ()
