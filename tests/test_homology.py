import os
import random
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

from sclkit.complexes import (
    ComplexError,
    Subcomplex,
    TwoComplex,
    boundary_subcomplex,
    induced_subcomplex,
    surface_check,
)
from sclkit.complexes import barycentric
from sclkit.exactlin import kernel_q, rank_q, smith_normal_form
from sclkit.fixtures import (
    ambient_pair,
    closed_genus,
    closed_genus3_split,
    disc,
    genus3_T,
    one_holed,
    rp2,
    sphere_two_triangles,
    torus,
)
from sclkit.homology import (
    RingError,
    _assert_orientation_witness,
    _contract,
    _d1_edges,
    _rank_torsion,
    boundary_matrices,
    check_support_lemma,
    cone_complex,
    d2_rows,
    homology,
    is_orientable,
    parse_chain_file,
    print_homology,
    relative_homology,
)
from sclkit.words import ChainError
from test_surfaces import as_complex


def loop(cx, name, sign=1):
    return ((cx.edge_id(name), sign),)


def dense(rows, ncols):
    """The dense matrix of sparse rows, for the routines that want one."""
    mat = [[0] * ncols for _ in rows]
    for out, row in zip(mat, rows):
        for j, c in row.items():
            out[j] = c
    return mat


def support(chain):
    """The cells a {cell id: coefficient} chain is nonzero on."""
    return {cell for cell, c in chain.items() if c}


def reference_d2_columns(cx, sub=None):
    """(columns, es, fs): d2 of C_*(X), or rel Y = ``sub``, as one column
    {edge index: signed side count} per face outside Y, counted off the
    face word with the edges and faces outside Y in ascending id."""
    es = [e for e in cx.edges if sub is None or e not in sub.edge_set]
    fs = [f for f in cx.faces if sub is None or f not in sub.face_set]
    columns = []
    for f in fs:
        count = Counter(e for e, sign in cx.faces[f] if sign == 1)
        count.subtract(e for e, sign in cx.faces[f] if sign == -1)
        columns.append({es.index(e): c for e, c in count.items() if c and e in es})
    return columns, es, fs


def rows_of(columns, nrows):
    """The sparse rows of the map with the given sparse columns."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows[i][j] = c
    return rows


def test_boundary_matrices_torus_vanish():
    cx = torus()
    d2, d1 = boundary_matrices(cx)
    assert d2 == [{}] * len(cx.edges) and d1 == [{}] * len(cx.vertices)


def test_boundary_matrices_rp2():
    d2, d1 = boundary_matrices(rp2())
    assert d2 == [{0: 2}] and d1 == [{}]


def test_boundary_matrices_disc():
    cx = disc()
    d2, d1 = boundary_matrices(cx)
    assert len(d2) == 3 and all(set(row) == {0} for row in d2)
    assert sorted(abs(row[0]) for row in d2) == [1, 1, 1]
    assert rank_q(dense(d2, 1)) == 1
    # each edge column of d1: +1 at its target, -1 at its source
    vs = list(cx.vertices)
    for j, (s, t) in enumerate(cx.edges.values()):
        assert d1[vs.index(t)][j] == 1 and d1[vs.index(s)][j] == -1
    assert sum(len(row) for row in d1) == 2 * len(cx.edges)


def test_homology_closed_genus():
    for g in (1, 2, 3):
        h = homology(closed_genus(g), "Q")
        assert h.ranks == (1, 2 * g, 1)


def test_homology_rp2():
    assert homology(rp2(), "Q").ranks == (1, 0, 0)
    hz = homology(rp2(), "Z")
    assert hz.ranks == (1, 0, 0)
    assert hz.torsion_of(1) == (2,)


@pytest.mark.parametrize(
    "make, ring, text",
    [
        (torus, "Z", "H0 = Z^1; H1 = Z^2; H2 = Z^1"),
        (rp2, "Z", "H0 = Z^1; H1 = Z^0 + Z/2; H2 = Z^0"),
        (rp2, "Q", "H0 = Q^1; H1 = Q^0; H2 = Q^0"),
    ],
)
def test_a_homology_summary_describes_each_degree(make, ring, text):
    assert homology(make(), ring).describe() == text


def test_homology_euler_poincare_fixtures():
    for cx in (torus(), rp2(), disc(), closed_genus(2), one_holed(2), closed_genus3_split()):
        h = homology(cx, "Q")
        assert h.rank(0) - h.rank(1) + h.rank(2) == cx.euler_characteristic()


def test_relative_homology_genus3_pair():
    cx = closed_genus3_split()
    t = genus3_T(cx)
    h = relative_homology(cx, t, "Q")
    assert h.rank(2) == 1


def test_relative_homology_ambient_pair():
    s, t = ambient_pair(2, 3)
    h = relative_homology(s, t, "Q")
    assert h.is_zero(2)


def test_relative_homology_self_is_zero():
    cx = torus()
    h = relative_homology(cx, induced_subcomplex(cx, cx.cells()), "Q")
    assert h.ranks == (0, 0, 0)


def test_cone_one_holed_boundary_loop():
    cx = one_holed(1)
    cone = cone_complex(cx, [(1, loop(cx, "c"))])
    assert cone.summary.rank(2) == 1
    # the connecting map is injective: the basis class has nonzero degree
    degs = cone.boundary_degrees([Fraction(1)])
    assert degs[0] != 0


def test_cone_boundary_degrees_without_classes():
    # H2(X, c) = 0: the only class is 0, whose degree on the one circle is 0
    cx = one_holed(1)
    cone = cone_complex(cx, [(1, loop(cx, "a1"))])
    assert cone.summary.rank(2) == 0
    assert cone.boundary_degrees([]) == [0]


def test_cone_zero_chain_is_absolute():
    cx = closed_genus(1)
    cone = cone_complex(cx, [])
    assert cone.summary.rank(2) == homology(cx, "Q").rank(2) == 1


def test_cone_genus3_separating_loop():
    cx = closed_genus3_split()
    cone = cone_complex(cx, [(1, loop(cx, "c", -1))])
    assert cone.summary.rank(2) == 2


def test_cone_open_path_rejected():
    cx = disc()
    with pytest.raises(ChainError, match="edge loop does not close up"):
        cone_complex(cx, [(1, ((cx.edge_id("e1"), 1),))])


def test_cone_empty_loop_rejected():
    with pytest.raises(ChainError, match="edge loop must be nonempty"):
        cone_complex(torus(), [(1, ())])


def test_cone_unknown_edge_is_named_with_its_term():
    with pytest.raises(ChainError, match=r"chain term \(1, \(\(9, 1\),\)\) uses unknown edge id 9"):
        cone_complex(torus(), [(1, ((9, 1),))])


def test_cone_refuses_an_edge_sign_other_than_one():
    # read as a reversed edge of weight 2, the sign would give a cone
    cx = one_holed(1)
    with pytest.raises(ChainError, match=r"chain term \(1, \(\(\d+, 2\),\)\): edge \d+ has sign 2"):
        cone_complex(cx, [(1, ((cx.edge_id("c"), 2),))])


def _subdivided_cone(cx, terms):
    """H_*(X, c; Q) ranks and the image of H2(X, c) in H1 of the circles,
    from a mapping cone whose circle for a term (n, w) is subdivided into
    |w| * |n| edges reading w^n: edge k runs from circle vertex k to k + 1
    and maps to letter k, and vertex k maps to the start of letter k."""
    words = [tuple(w) * n if n > 0 else tuple((e, -s) for e, s in reversed(w)) * -n for n, w in terms]
    offsets = [sum(len(w) for w in words[:i]) for i in range(len(words))]
    n_c = sum(len(w) for w in words)
    eix = {e: n_c + i for i, e in enumerate(cx.edges)}
    vix = {v: i for i, v in enumerate(cx.vertices)}
    # degree 2: columns circle edges then faces; rows circle vertices then edges
    d2 = [[0] * (n_c + len(cx.faces)) for _ in range(n_c + len(cx.edges))]
    # degree 1: columns circle vertices then edges; rows vertices
    d1 = [[0] * (n_c + len(cx.edges)) for _ in cx.vertices]
    for off, word in zip(offsets, words):
        for k, (e, sign) in enumerate(word):
            d2[off + k][off + k] += 1
            d2[off + (k + 1) % len(word)][off + k] -= 1
            d2[eix[e]][off + k] -= sign
            d1[vix[cx.endpoint((e, sign), 0)]][off + k] -= 1
    for j, f in enumerate(cx.faces):
        for e, sign in cx.faces[f]:
            d2[eix[e]][n_c + j] += sign
    for e, (a, b) in cx.edges.items():
        d1[vix[b]][eix[e]] += 1
        d1[vix[a]][eix[e]] -= 1
    r2, r1 = rank_q(d2), rank_q(d1)
    ranks = (len(d1) - r1, len(d2) - r1 - r2, len(d2[0]) - r2)
    rows = [{j: c for j, c in enumerate(row) if c} for row in d2]
    degrees = [[vec[off] for off in offsets] for vec in kernel_q(rows, len(d2[0]))]
    return ranks, degrees


CONE_FIXTURES = {
    "torus": torus,
    "closed genus 2": lambda: closed_genus(2),
    "one-holed genus 1": lambda: one_holed(1),
    "one-holed genus 2": lambda: one_holed(2),
    "closed genus 3 split": closed_genus3_split,
    "ambient pair (1, 2)": lambda: ambient_pair(1, 2)[0],
    "subdivided one-holed genus 1": lambda: barycentric(one_holed(1))[0],
    "disc": disc,
    "rp2": rp2,
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_edge_cone_matches_subdivided_cone(data):
    cx = CONE_FIXTURES[data.draw(st.sampled_from(sorted(CONE_FIXTURES)))]()
    loops = [tuple(word) for word in cx.faces.values()]
    loops += [((e, 1),) for e, (a, b) in cx.edges.items() if a == b]
    terms = data.draw(
        st.lists(st.tuples(st.sampled_from((-2, -1, 1, 2, 3)), st.sampled_from(loops)), max_size=3)
    )
    cone = cone_complex(cx, terms)
    ranks, degrees = _subdivided_cone(cx, terms)
    assert cone.summary.ranks == ranks
    n = len(cone.kernel_basis)
    assert cone.boundary_degrees([0] * n) == [0] * len(terms)
    ours = [cone.boundary_degrees([int(i == j) for i in range(n)]) for j in range(n)]
    # the two images in Q^terms span the same subspace
    assert rank_q(ours) == rank_q(degrees) == rank_q(ours + degrees)


def test_orientable_closed_genus2():
    w = is_orientable(closed_genus(2))
    assert w is not None
    assert support(w) == {0}


def test_orientable_rp2_fails():
    assert is_orientable(rp2()) is None


def test_orientable_disc():
    w = is_orientable(disc())
    assert w is not None


def mobius_band():
    """A square with its left side glued to its right side reversed, cut by
    the diagonal d into two triangles.  Rel the boundary b c, the rows of
    a and d are {lower: -1, upper: -1} and {lower: -1, upper: 1}: a parity
    conflict with no one-entry row."""
    return TwoComplex.build(
        ["p", "q"],
        [("a", "p", "q"), ("b", "p", "q"), ("c", "q", "p"), ("d", "p", "p")],
        [("lower", [("b", 1), ("a", -1), ("d", -1)]), ("upper", [("d", 1), ("c", -1), ("a", -1)])],
    )


def klein_bottle():
    """The square a b a^-1 b on one vertex, cut by the diagonal d = a b into
    two triangles; b meets them with equal signs, a and d with opposite."""
    return TwoComplex.build(
        ["v"],
        [("a", "v", "v"), ("b", "v", "v"), ("d", "v", "v")],
        [("lower", [("a", 1), ("b", 1), ("d", -1)]), ("upper", [("d", 1), ("a", -1), ("b", 1)])],
    )


def test_a_parity_conflict_makes_mobius_band_and_klein_bottle_non_orientable():
    for cx in (mobius_band(), klein_bottle()):
        rep = surface_check(cx)
        assert rep.is_surface
        # every row of d2 rel boundary ties the two faces with unit entries
        rows, _ = d2_rows(cx, boundary_subcomplex(cx))
        assert rows and all(len(row) == 2 and set(map(abs, row.values())) == {1} for row in rows)
        assert is_orientable(cx) is None
        assert reference_orientation_witness(cx) is None


def test_support_lemma_refuses_a_mobius_band():
    cx = mobius_band()
    with pytest.raises(ComplexError, match="X must be orientable"):
        check_support_lemma(cx, induced_subcomplex(cx, cx.cells()))


def test_orientable_iff_b2_for_connected_closed_surface():
    for cx in (torus(), rp2(), closed_genus(2), sphere_two_triangles(), klein_bottle()):
        rep = surface_check(cx)
        assert rep.is_surface and not rep.boundary_vertices
        b2 = homology(cx, "Q").rank(2)
        assert (is_orientable(cx) is not None) == (b2 == 1)


def test_support_lemma_missing_face_fails():
    cx = closed_genus(1)
    sub = induced_subcomplex(cx, [("e", e) for e in cx.edges])
    verdict = check_support_lemma(cx, sub)
    assert not verdict.ok
    assert verdict.h2_rank == 1


def test_support_lemma_disc_full():
    cx = disc()
    verdict = check_support_lemma(cx, induced_subcomplex(cx, cx.cells()))
    assert verdict.ok and verdict.kind == "contains-all-faces"


def test_support_lemma_precondition_boundary():
    # T inside the genus 3 surface does not contain the (empty) boundary issue:
    # use the one-holed surface where the boundary edge is outside Y
    cx = one_holed(2)
    sub = induced_subcomplex(cx, [("v", 0)])
    with pytest.raises(ComplexError, match="boundary"):
        check_support_lemma(cx, sub)


def test_support_lemma_refuses_a_subcomplex_of_another_complex():
    # every cell of the genus-2 surface: the torus lacks most of them
    genus2 = closed_genus(2)
    y = induced_subcomplex(genus2, genus2.cells())
    for check in (check_support_lemma, relative_homology):
        with pytest.raises(ComplexError, match="does not live"):
            check(torus(), y)


def test_support_lemma_closed_surface_specialisation():
    # orientable closed surface, H2(S, T) = 0 forces S = T
    cx = closed_genus(2)
    verdict = check_support_lemma(cx, induced_subcomplex(cx, cx.cells()))
    assert verdict.ok


def _random_subcomplex(rng, cx):
    cells = [c for c in cx.cells() if rng.random() < 0.5]
    return induced_subcomplex(cx, cells)


def test_support_lemma_rank_matches_relative_homology():
    rng = random.Random(37)
    pool = [torus(), disc(), closed_genus(2), one_holed(2), closed_genus3_split()]
    for _ in range(40):
        cx = rng.choice(pool)
        cells = [c for c in cx.cells() if rng.random() < 0.5]
        y = induced_subcomplex(cx, cells + list(boundary_subcomplex(cx).cells()))
        h2 = relative_homology(cx, y, "Z")
        assert h2.torsion_of(2) == () and h2.rank(2) == relative_homology(cx, y, "Q").rank(2)
        verdict = check_support_lemma(cx, y)
        assert verdict.ok == h2.is_zero(2)
        assert verdict.h2_rank == h2.rank(2)


def test_euler_poincare_relative_random():
    rng = random.Random(23)
    pool = [torus(), rp2(), disc(), closed_genus(2), one_holed(2), closed_genus3_split()]
    for _ in range(60):
        cx = rng.choice(pool)
        sub = _random_subcomplex(rng, cx)
        h = relative_homology(cx, sub, "Q")
        chi_x = cx.euler_characteristic()
        chi_y = (
            len(sub.vertex_set) - len(sub.edge_set) + len(sub.face_set)
        )
        assert h.rank(0) - h.rank(1) + h.rank(2) == chi_x - chi_y


def test_subcomplex_orientability_stability():
    rng = random.Random(29)
    pool = [torus(), disc(), closed_genus(2), one_holed(2), closed_genus3_split()]
    for _ in range(40):
        cx = rng.choice(pool)
        assert all(count <= 2 for count in cx.side_incidences().values())
        beta = is_orientable(cx)
        assert beta is not None
        sub = _random_subcomplex(rng, cx)
        sub_cx = as_complex(sub)
        assert is_orientable(sub_cx) is not None or not sub.face_set
        # the restriction of the ambient witness is itself a witness
        if sub.face_set:
            restricted = {f: c for f, c in beta.items() if f in sub.face_set}
            _assert_orientation_witness(sub_cx, restricted, boundary_subcomplex(sub_cx))


def test_excision_injectivity_random():
    # H2(X0, Y0) -> H2(X, Y) with Y0 = Y intersect X0 is injective:
    # relative 2-cycles of the small pair stay independent in the big pair
    rng = random.Random(31)
    pool = [closed_genus(2), closed_genus3_split(), one_holed(2), torus()]
    for _ in range(40):
        cx = rng.choice(pool)
        y = _random_subcomplex(rng, cx)
        x0 = _random_subcomplex(rng, cx)
        y0 = Subcomplex(
            cx,
            y.vertex_set & x0.vertex_set,
            y.edge_set & x0.edge_set,
            y.face_set & x0.face_set,
        )
        small_faces = [f for f in sorted(x0.face_set) if f not in y0.face_set]
        small_edges = [e for e in sorted(x0.edge_set) if e not in y0.edge_set]
        eix = {e: i for i, e in enumerate(small_edges)}
        rows = [{} for _ in small_edges]
        for j, f in enumerate(small_faces):
            for e, sign in cx.faces[f]:
                if e in eix:
                    rows[eix[e]][j] = rows[eix[e]].get(j, 0) + sign
        rows = [{j: c for j, c in row.items() if c} for row in rows]
        small_kernel = kernel_q(rows, len(small_faces))
        big_faces = [f for f in cx.faces if f not in y.face_set]
        big_edges = [e for e in cx.edges if e not in y.edge_set]
        bix = {e: i for i, e in enumerate(big_edges)}
        fbig = {f: i for i, f in enumerate(big_faces)}
        mapped = []
        for vec in small_kernel:
            out = [Fraction(0)] * len(big_faces)
            for j, f in enumerate(small_faces):
                out[fbig[f]] = vec[j]
            mapped.append(out)
            # image must still be a relative cycle for the big pair
            for e in big_edges:
                total = sum(
                    sign * out[fbig[f]]
                    for f in big_faces
                    for e2, sign in cx.faces[f]
                    if e2 == e
                )
                assert total == 0
        if mapped:
            assert rank_q(mapped) == len(small_kernel)


def test_chain_file_and_report():
    cx = closed_genus3_split()
    chain = parse_chain_file("1 f1\n-1 f2\n", cx, kind="f")
    assert chain == {cx.face_id("f1"): 1, cx.face_id("f2"): -1}
    # the lines of one cell add up, and a sum of 0 is left out
    assert parse_chain_file("1 f1\n2 f2\n-1 f1\n", cx) == {cx.face_id("f2"): 2}
    text = print_homology(homology(cx, "Q"))
    assert "H2 rank 1" in text


def test_chain_file_names_the_line_of_a_malformed_coefficient():
    cx = torus()
    with pytest.raises(ComplexError, match=r"^line 1: coefficient '1/2' is not an integer$"):
        parse_chain_file("1/2 f", cx)
    with pytest.raises(ComplexError, match=r"^line 2: coefficient 'x' is not a rational number$"):
        parse_chain_file("1/2 f\nx f", cx, ring="Q")
    with pytest.raises(ComplexError, match=r"^line 1: coefficient '1/0' is not a rational number$"):
        parse_chain_file("1/0 f", cx, ring="Q")
    assert parse_chain_file("1/2 f", cx, ring="Q") == {cx.face_id("f"): Fraction(1, 2)}


def test_chain_file_names_an_unknown_kind():
    with pytest.raises(ComplexError, match=r"^kind must be 'v', 'e' or 'f', got 'x'$"):
        parse_chain_file("1 f", torus(), kind="x")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: homology(torus(), "R"), RingError, "ring must be 'Z' or 'Q', got 'R'"),
        (lambda: cone_complex(torus(), [(0, loop(torus(), "a"))]), ComplexError, "chain term with zero coefficient"),
        (lambda: parse_chain_file("1 f\n2\n", torus()), ComplexError, "line 2: want '<coeff> <cell>'"),
    ],
    ids=["ring", "cone zero coefficient", "chain file line"],
)
def test_every_homology_refusal_is_reached(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_homology_z_top_degree_torsion_free():
    for cx in (torus(), rp2(), closed_genus(2), closed_genus3_split()):
        assert homology(cx, "Z").torsion_of(2) == ()


# -- sparse reduction against dense Smith normal form ---------------------------


def _random_complex(rng):
    """A small random 2-complex: loops and multi-edges allowed, faces are
    random closed walks, some of them repeated to produce torsion."""
    nv = rng.randint(1, 4)
    edges = {e: (rng.randrange(nv), rng.randrange(nv)) for e in range(rng.randint(1, 6))}
    steps = {v: [] for v in range(nv)}  # vertex -> signed edges leaving it
    for e, (s, t) in edges.items():
        steps[s].append((e, 1))
        steps[t].append((e, -1))
    faces = {}
    for f in range(rng.randint(0, 5)):
        start = rng.choice([v for v in range(nv) if steps[v]] or [None])
        if start is None:
            break
        walk, here = [], start
        for _ in range(rng.randint(1, 5)):
            e, sign = rng.choice(steps[here])
            walk.append((e, sign))
            here = edges[e][1] if sign == 1 else edges[e][0]
        # close the walk by retracing it when it did not come back
        if here != start:
            walk += [(e, -sign) for e, sign in reversed(walk)]
        faces[f] = tuple(walk) * rng.choice((1, 1, 2, 3))
    return TwoComplex(range(nv), edges, faces)


def _dense_maps(cx, sub=None):
    """(d2, d1, (n2, n1, n0)) of C_*(X), or of C_*(X)/C_*(Y) for Y =
    ``sub``: the maps as dense matrices written down from the face words and
    the edge ends, with the cells outside Y in ascending id, and the number
    of faces, edges and vertices outside Y."""
    vs = [v for v in cx.vertices if sub is None or v not in sub.vertex_set]
    es = [e for e in cx.edges if sub is None or e not in sub.edge_set]
    fs = [f for f in cx.faces if sub is None or f not in sub.face_set]
    d2 = [[0] * len(fs) for _ in es]
    for j, f in enumerate(fs):
        for e, sign in cx.faces[f]:
            if e in es:
                d2[es.index(e)][j] += sign
    d1 = [[0] * len(es) for _ in vs]
    for j, e in enumerate(es):
        for v, c in zip(cx.edges[e], (-1, 1)):
            if v in vs:
                d1[vs.index(v)][j] += c
    return d2, d1, (len(fs), len(es), len(vs))


def _dense_snf_homology(cx, sub=None):
    """Ranks and torsion of C_*(X), or of C_*(X)/C_*(Y) for Y = ``sub``,
    from Smith normal forms of the whole dense maps of ``_dense_maps``."""
    d2, d1, (n2, n1, n0) = _dense_maps(cx, sub)
    s2 = smith_normal_form(d2) if n2 and n1 else None
    s1 = smith_normal_form(d1) if n1 and n0 else None
    r2 = s2.rank if s2 else 0
    r1 = s1.rank if s1 else 0
    t1 = tuple(s2.torsion) if s2 else ()
    t0 = tuple(s1.torsion) if s1 else ()
    return (n0 - r1, n1 - r1 - r2, n2 - r2), (t0, t1, ())


def test_homology_matches_dense_smith_normal_form_on_random_complexes():
    rng = random.Random(41)
    sub_rng = random.Random(43)
    torsion_seen = relative_torsion_seen = 0
    for _ in range(300):
        cx = _random_complex(rng)
        d2, d1 = boundary_matrices(cx)
        assert (dense(d2, len(cx.faces)), dense(d1, len(cx.edges))) == _dense_maps(cx)[:2]
        ranks, torsion = _dense_snf_homology(cx)
        hz = homology(cx, "Z")
        assert (hz.ranks, hz.torsion) == (ranks, torsion)
        assert homology(cx, "Q").ranks == ranks
        torsion_seen += bool(torsion[1])
        sub = _random_subcomplex(sub_rng, cx)
        ranks, torsion = _dense_snf_homology(cx, sub)
        hz = relative_homology(cx, sub, "Z")
        assert (hz.ranks, hz.torsion) == (ranks, torsion)
        assert relative_homology(cx, sub, "Q").ranks == ranks
        relative_torsion_seen += bool(torsion[1])
    assert torsion_seen > 10 and relative_torsion_seen > 10


def test_rp2_torsion_comes_from_the_non_unit_residual():
    # d2 of RP^2 is [[2]]: no unit pivot, the whole map is the residual
    assert boundary_matrices(rp2())[0] == [{0: 2}]
    assert _contract([{0: 2}], 1) == ([(0, 1)], [{0: 2}], 1)
    assert homology(rp2(), "Z").torsion == ((), (2,), ())


# -- ranks by contraction against elimination ----------------------------------


def reference_rank_torsion(columns, nrows, ring):
    """(rank, torsion) of the map with the given sparse columns with no
    contraction: ``rank_q`` over Q, or the Smith normal form over Z, of the
    whole dense map.  The transpose has the same rank and invariant factors,
    so the columns serve as rows."""
    mat = dense(columns, nrows)
    if ring == "Q":
        return rank_q(mat), ()
    snf = smith_normal_form(mat)
    return snf.rank, tuple(snf.torsion)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_rank_torsion_matches_the_dense_snf_on_integer_rows(nrows, ncols, data):
    # sparse rows with many unit entries, so that the contraction merges,
    # forces and leaves rows, and the residual is ranked on what is left
    entry = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -3))
    flat = data.draw(st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols))
    m = [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]
    rows = [{j: v for j, v in enumerate(row) if v} for row in m]
    before = [dict(row) for row in rows]
    snf = smith_normal_form(m)
    assert _rank_torsion(rows, ncols, "Z") == (snf.rank, tuple(snf.torsion))
    assert _rank_torsion(rows, ncols, "Q") == (snf.rank, ())
    assert rows == before  # input untouched


def test_rank_torsion_keeps_a_non_unit_block():
    # the first row ties x1 = -x0, and the second closes a cycle inside that
    # class with the other sign: it is left as [2], one unit pivot and the
    # invariant factor 2
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert _contract(rows, 2) == ([(0, 1), (0, -1)], [{0: 2}], 1)
    assert _rank_torsion(rows, 2, "Z") == (2, (2,))


def reference_h2_rank(cx, sub):
    """rank H2(X, Y) = #faces outside Y - rank of d2 rel Y, by elimination."""
    d2, es, fs = reference_d2_columns(cx, sub)
    return len(fs) - reference_rank_torsion(d2, len(es), "Q")[0]


def book():
    """Three triangles m x_i y_i on one edge m, whose row ties three faces."""
    return TwoComplex.build(
        ["p", "q", "r0", "r1", "r2"],
        [("m", "p", "q")]
        + [(f"x{i}", "q", f"r{i}") for i in range(3)]
        + [(f"y{i}", f"r{i}", "p") for i in range(3)],
        [(f"f{i}", [("m", 1), (f"x{i}", 1), (f"y{i}", 1)]) for i in range(3)],
    )


def test_graph_rank_reads_loops_ends_in_y_and_circle_columns():
    # a loop, an edge with both ends in Y, an edge with one end in Y, and
    # two circle columns on one vertex: the one-entry rows force both
    # vertices to 0, and no row is left
    cx = TwoComplex(range(4), {0: (0, 0), 1: (2, 3), 2: (1, 3), 3: (0, 1)}, {})
    sub = induced_subcomplex(cx, [("v", 2), ("v", 3)])
    d1, vs = _d1_edges(cx, sub)
    assert vs == [0, 1] and d1 == [{}, {}, {1: -1}, {1: 1, 0: -1}]
    columns = [{0: -1}, {0: -1}] + d1
    assert _contract(columns, 2) == ([(None, 0), (None, 0)], [], 0)
    for ring in ("Z", "Q"):
        assert _rank_torsion(columns, 2, ring) == reference_rank_torsion(columns, 2, ring) == (2, ())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graph_rank_matches_elimination_on_d1(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    cx = _random_complex(rng)
    sub = _random_subcomplex(rng, cx) if data.draw(st.booleans()) else None
    d1, vs = _d1_edges(cx, sub)
    # a cone circle's column: -1 at the start of its word, no row for its end
    circles = data.draw(st.lists(st.integers(0, len(vs) - 1), max_size=2)) if vs else []
    columns = [{v: -1} for v in circles] + d1
    # an incidence matrix: the contraction leaves no row, and H0 has no
    # torsion
    assert _contract(columns, len(vs))[1] == []
    rank, _ = reference_rank_torsion(columns, len(vs), "Q")
    assert _rank_torsion(columns, len(vs), "Q") == (rank, ())
    assert _rank_torsion(columns, len(vs), "Z") == reference_rank_torsion(columns, len(vs), "Z") == (rank, ())


def h2_rank(cx, sub):
    """rank H2(X, Y) = #faces outside Y - rank of d2 rel Y, by contraction."""
    rows, fs = d2_rows(cx, sub)
    return len(fs) - _rank_torsion(rows, len(fs), "Q")[0]


def test_contraction_leaves_rows_or_forces_classes_on_the_named_shapes():
    # rel its x and y edges, the book's row of m is left to elimination
    cx = book()
    sub = induced_subcomplex(cx, [("e", e) for e in cx.edges if cx.name("e", e) != "m"])
    rows, fs = d2_rows(cx, sub)
    assert _contract(rows, len(fs))[1:] == ([{0: 1, 1: 1, 2: 1}], 3)
    assert h2_rank(cx, sub) == reference_h2_rank(cx, sub) == 2
    # the free edges of a disc are one-entry unit rows: its class is forced
    # to 0
    rows, fs = d2_rows(disc())
    assert _contract(rows, len(fs)) == ([(None, 0)], [], 0)
    # RP^2's entry 2 and the Moebius band's parity conflict are left to
    # elimination as one row {0: +-2} over their one class: H2 = 0, and the
    # invariant factor 2 is their Z/2
    for cx, entry in ((rp2(), 2), (mobius_band(), -2)):
        sub = boundary_subcomplex(cx)
        rows, fs = d2_rows(cx, sub)
        assert _contract(rows, len(fs))[1:] == ([{0: entry}], 1)
        assert h2_rank(cx, sub) == reference_h2_rank(cx, sub) == 0
        assert _rank_torsion(rows, len(fs), "Z") == (len(fs), (2,))


RANK_SHAPES = {"book": book, "rp2": rp2, "mobius band": mobius_band, "klein bottle": klein_bottle}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_h2_rank_by_contraction_matches_elimination(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    kind = data.draw(st.sampled_from(("random", "shape", "subdivided")))
    if kind == "random":
        # faces run twice or three times, and edges on three or more sides
        cx = _random_complex(rng)
    elif kind == "shape":
        cx = RANK_SHAPES[data.draw(st.sampled_from(sorted(RANK_SHAPES)))]()
    else:
        cx = barycentric(SUBDIVIDED_FIXTURES[data.draw(st.sampled_from(sorted(SUBDIVIDED_FIXTURES)))]())[0]
    sub = _random_subcomplex(rng, cx)
    d2, es, fs = reference_d2_columns(cx, sub)
    assert d2_rows(cx, sub) == (rows_of(d2, len(es)), fs)
    assert h2_rank(cx, sub) == reference_h2_rank(cx, sub)
    assert _rank_torsion(rows_of(d2, len(es)), len(fs), "Z") == reference_rank_torsion(d2, len(es), "Z")


# -- orientation witness against the kernel-based oracle ---------------------


def reference_orientation_witness(cx):
    """``is_orientable`` as it was before faces were contracted: a kernel
    basis of all of d2 rel boundary from ``kernel_q``, weighted by powers of
    3, or of a base larger than any partial sum, so that supports cannot
    cancel."""
    bsub = boundary_subcomplex(cx)
    d2, es, fs = reference_d2_columns(cx, bsub)
    basis = kernel_q(rows_of(d2, len(es)), len(fs))
    covered = {j for vec in basis for j, x in enumerate(vec) if x}
    if covered != set(range(len(fs))):
        return None
    max_entry = max((abs(x) for vec in basis for x in vec), default=0)
    for base in (3, 2 * max_entry * max(3, len(basis)) + 3):
        combo = [0] * len(fs)
        w = 1
        for vec in basis:
            for j, x in enumerate(vec):
                combo[j] += w * x
            w *= base
        if all(combo):
            chain = dict(zip(fs, combo))
            _assert_orientation_witness(cx, chain, bsub)
            return chain
    raise AssertionError("reference witness combination failed")


def _witness_agrees_with_reference(cx):
    """Compare ``is_orientable`` with the oracle, check the witness, and
    return whether ``cx`` is orientable."""
    witness = is_orientable(cx)
    assert (witness is None) == (reference_orientation_witness(cx) is None)
    if witness is not None:
        assert all(type(c) is int for c in witness.values())
        _assert_orientation_witness(cx, witness, boundary_subcomplex(cx))
    return witness is not None


SUBDIVIDED_FIXTURES = {
    "rp2": rp2,
    "torus": torus,
    "disc": disc,
    "sphere": sphere_two_triangles,
    "one-holed genus 2": lambda: one_holed(2),
    "closed genus 3 split": closed_genus3_split,
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_contracted_witness_matches_the_kernel_witness(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    if data.draw(st.booleans()):
        cx = _random_complex(random.Random(seed))
    else:
        # an induced subcomplex of a subdivided fixture: pieces of surfaces,
        # Moebius bands among the pieces of RP^2
        big = barycentric(SUBDIVIDED_FIXTURES[data.draw(st.sampled_from(sorted(SUBDIVIDED_FIXTURES)))]())[0]
        keep = data.draw(st.sampled_from((0.3, 0.6, 0.9)))
        rng = random.Random(seed)
        cx = as_complex(induced_subcomplex(big, [c for c in big.cells() if rng.random() < keep]))
    _witness_agrees_with_reference(cx)


def test_rows_the_contraction_cannot_read_reach_the_kernel(monkeypatch):
    import sclkit.homology

    handed = []
    solve = sclkit.homology.kernel_q

    def recording_kernel_q(rows, ncols):
        handed.append(any(rows))
        return solve(rows, ncols)

    monkeypatch.setattr(sclkit.homology, "kernel_q", recording_kernel_q)
    rng = random.Random(47)
    orientable = three_faces = run_twice = 0
    for _ in range(400):
        cx = _random_complex(rng)
        handed.clear()
        orientable += _witness_agrees_with_reference(cx)
        if any(handed):
            rows, _ = d2_rows(cx, boundary_subcomplex(cx))
            # an edge on the sides of three or more faces, and an edge that
            # one face runs twice the same way and another face runs once
            three_faces += any(len(row) >= 3 for row in rows)
            run_twice += any(len(row) == 2 and {1} != set(map(abs, row.values())) for row in rows)
    # both answers occur, and both kinds of row are handed to kernel_q
    assert 40 < orientable < 360
    assert three_faces > 20 and run_twice > 20


def test_disjoint_triangles_get_a_unit_witness_without_kernel_q(monkeypatch):
    import sclkit.homology

    # 400 triangles: rel its boundary each is a class of its own, and no
    # row is left for kernel_q
    edges, faces = {}, {}
    for t in range(400):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges.update({a: (a, b), b: (b, c), c: (c, a)})
        faces[t] = ((a, 1), (b, 1), (c, 1))
    cx = TwoComplex(range(1200), edges, faces)
    handed = []
    monkeypatch.setattr(sclkit.homology, "kernel_q", lambda rows, ncols: handed.append(rows))
    witness = is_orientable(cx)
    assert witness is not None and support(witness) == set(cx.faces)
    assert {abs(c) for c in witness.values()} == {1}
    assert handed == []


def test_closed_genus8_twice_subdivided():
    cx = barycentric(barycentric(closed_genus(8))[0])[0]
    assert (len(cx.vertices), len(cx.edges), len(cx.faces)) == (178, 576, 384)
    hz = homology(cx, "Z")
    assert hz.ranks == (1, 16, 1) and hz.torsion == ((), (), ())
    assert homology(cx, "Q").ranks == (1, 16, 1)
    witness = is_orientable(cx)
    assert witness is not None and support(witness) == set(cx.faces)


def test_certify_steps_solve_on_sparse_rows_and_rot_ranks_only_d2(monkeypatch):
    import sclkit.exactlin
    import sclkit.homology
    import sclkit.scl
    from sclkit.scl import RotStructure, rot_value
    from sclkit.words import EdgeChain

    # ambient_pair(2, 4) subdivided once; t read backwards bounds the fT half,
    # which weighs 2 (2 * 2 - 1) of the -2 chi = 14
    s, _ = ambient_pair(2, 4)
    cx, halves = barycentric(s)
    first, second = halves[s.edge_id("t")]
    chain = EdgeChain.make(cx, [(1, ((second, -1), (first, -1)))])
    t_faces = [f for f in cx.faces if cx.name("f", f).startswith("fT:")]
    rest = len(cx.faces) - len(t_faces)
    weights = {f: Fraction(6, len(t_faces)) if f in t_faces else Fraction(8, rest) for f in cx.faces}

    rows_seen, builds, eliminated, residuals = [], [], [], []
    int_row, eliminate = sclkit.exactlin._int_row, sclkit.exactlin._eliminate
    d2_rows, d1_edges = sclkit.homology.d2_rows, sclkit.homology._d1_edges
    rank_q, smith_normal_form = sclkit.homology.rank_q, sclkit.homology.smith_normal_form

    def recording_int_row(row):
        rows_seen.append(row)
        return int_row(row)

    def recording_eliminate(rows, ncols):
        eliminated.append(list(rows))
        return eliminate(rows, ncols)

    def counting_d2_rows(*args):
        builds.append("d2")
        return d2_rows(*args)

    def counting_d1_edges(*args):
        builds.append("d1")
        return d1_edges(*args)

    def recording_rank_q(mat):
        residuals.append(mat)
        return rank_q(mat)

    def recording_smith_normal_form(mat):
        residuals.append(mat)
        return smith_normal_form(mat)

    monkeypatch.setattr(sclkit.exactlin, "_int_row", recording_int_row)
    monkeypatch.setattr(sclkit.exactlin, "_eliminate", recording_eliminate)
    monkeypatch.setattr(sclkit.homology, "d2_rows", counting_d2_rows)
    monkeypatch.setattr(sclkit.scl, "d2_rows", counting_d2_rows)
    monkeypatch.setattr(sclkit.homology, "_d1_edges", counting_d1_edges)
    monkeypatch.setattr(sclkit.homology, "rank_q", recording_rank_q)
    monkeypatch.setattr(sclkit.homology, "smith_normal_form", recording_smith_normal_form)
    # the rot structure builds d2 alone, once, and solves on the same rows;
    # every face collapses through a free edge, which ranks d2 with no
    # residual and leaves no d2 row to eliminate
    structure = RotStructure(cx, weights)
    assert rot_value(structure, chain) == 3
    assert builds == ["d2"]
    assert len(structure.order) == len(cx.faces) and not structure.rest
    assert not any(eliminated)
    assert residuals == []
    # rel its boundary every face contracts into one class: the witness
    # builds d2 once, no d1, and is read off the contraction, with nothing
    # eliminated
    builds.clear()
    eliminated.clear()
    witness = is_orientable(cx)
    assert witness is not None and support(witness) == set(cx.faces)
    assert builds == ["d2"]
    assert eliminated == []
    # the cone builds each of X's maps once: the contraction ranks its d1
    # with no row left, so rank_q sees an empty residual, and its d2 rank is
    # read off the kernel
    builds.clear()
    assert cone_complex(cx, chain.terms).summary.rank(2) == 1
    assert residuals == [[]] and builds == ["d2", "d1"]
    # over Z as well, homology ranks both maps with an empty residual
    residuals.clear()
    assert homology(cx, "Z").ranks == (1, 8, 0)
    assert residuals == [[], []]
    # every row the solvers read is sparse: an edge meets at most two faces,
    # plus one entry for a right-hand side or a circle edge
    assert rows_seen and all(type(row) is dict and all(row.values()) for row in rows_seen)
    assert max(len(row) for row in rows_seen) == 3 < len(cx.faces)


# -- typed errors ------------------------------------------------------------


def test_guards_raise_typed_errors_under_optimize():
    script = textwrap.dedent(
        """
        import sclkit.homology as H
        from sclkit.complexes import ComplexError, TwoComplex, barycentric, boundary_subcomplex, induced_subcomplex
        from sclkit.exactlin import SnfError, SnfResult
        from sclkit.fixtures import closed_genus, disc, one_holed, rp2, torus
        from sclkit.words import ChainError

        caught = []

        def expect(name, error, call):
            try:
                call()
            except error:
                caught.append(name)

        # a face word that does not close up, which would give d1 d2 != 0
        cx = disc()
        expect("d1d2", ComplexError, lambda: TwoComplex(cx.vertices, cx.edges, {0: cx.faces[0][:-1]}))

        # a chain loop that is an open path, whose circle would make the
        # cone differential square to nonzero
        expect("cone d2", ChainError, lambda: H.cone_complex(cx, [(1, ((0, 1),))]))

        # a kernel vector on the circle edge alone: its image -c is no cycle
        cx = one_holed(1)
        kernel_q = H.kernel_q
        H.kernel_q = lambda rows, ncols: [[1] + [0] * (ncols - 1)]
        expect("cone cycle", H.HomologyError,
               lambda: H.cone_complex(cx, [(1, ((cx.edge_id("c"), 1),))]))
        H.kernel_q = kernel_q

        # more coordinates than kernel basis vectors
        cone = H.cone_complex(cx, [(1, ((cx.edge_id("c"), 1),))])
        expect("cone coordinates", H.HomologyError, lambda: cone.boundary_degrees([1, 5, 7]))

        cx = torus()
        expect("witness support", H.HomologyError,
               lambda: H._assert_orientation_witness(cx, {}, boundary_subcomplex(cx)))
        cx = barycentric(closed_genus(1))[0]
        witness = H.is_orientable(cx)
        witness[0] += 1
        expect("witness leak", H.HomologyError,
               lambda: H._assert_orientation_witness(cx, witness, boundary_subcomplex(cx)))

        # a tampered H2(X, Y) = 0 for a Y that misses the face: the support
        # lemma's contraction, which follows the orientation witness's, forces
        # every face to 0
        cx = closed_genus(1)
        sub = induced_subcomplex(cx, [("e", e) for e in cx.edges])
        contract, calls = H._contract, []
        def tampered(rows, ncols):
            calls.append(rows)
            if len(calls) == 1:
                return contract(rows, ncols)
            return [(None, 0)] * ncols, [], 0
        H._contract = tampered
        expect("support", H.HomologyError, lambda: H.check_support_lemma(cx, sub))
        H._contract = contract

        # a Smith normal form whose D is not U M V: RP^2's residual [[2]]
        smith_normal_form = H.smith_normal_form
        def doubled(mat):
            snf = smith_normal_form(mat)
            return SnfResult(snf.U, [[2 * x for x in row] for row in snf.D], snf.V)
        H.smith_normal_form = doubled
        expect("snf", SnfError, lambda: H.homology(rp2(), "Z"))
        H.smith_normal_form = smith_normal_form

        print(" ".join(name.replace(" ", "_") for name in caught))
        """
    )
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == [
        "d1d2",
        "cone_d2",
        "cone_cycle",
        "cone_coordinates",
        "witness_support",
        "witness_leak",
        "support",
        "snf",
    ]
