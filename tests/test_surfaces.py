from dataclasses import replace

import pytest

from sclkit.complexes import TwoComplex, barycentric, induced_subcomplex, links
from sclkit.fixtures import (
    ambient_pair,
    closed_genus3_split,
    figlnk,
    fold_fixture,
    fold_necklace,
    genus3_chain,
    genus3_sigma_prime,
    genus3_T,
    sigma_genus1,
    t_itself,
    torus,
)
from sclkit.surfaces import (
    FREE,
    AdmissibleSurface,
    SurfaceError,
    VPiece,
    disjoint_union,
    subsurface_as_admissible,
)
from sclkit.words import EdgeChain, cyclically_equal


def rebuild(s, vpieces=None, hpieces=None, fpieces=None):
    return AdmissibleSurface(
        s.target,
        s.chain,
        vpieces if vpieces is not None else s.vpieces,
        hpieces if hpieces is not None else s.hpieces,
        fpieces if fpieces is not None else s.fpieces,
        assignments=s.assignment_list(),
        homotopy=s.homotopy,
        relaxed_boundary=s.relaxed,
    )


def test_rebuild_from_pieces_keeps_the_circuits():
    for s in (figlnk(), fold_fixture(), t_itself(), sigma_genus1()):
        again = rebuild(s)
        assert again.circuits == s.circuits
        assert again.reduced_class() == s.reduced_class()
        assert again.euler_characteristic() == s.euler_characteristic()


def test_non_mutual_slot_is_refused():
    s = figlnk()
    slots = list(s.vpieces[0].slots)
    slots[0], slots[1] = slots[1], slots[0]
    vpieces = dict(s.vpieces)
    vpieces[0] = VPiece(s.vpieces[0].vertex, tuple(slots))
    with pytest.raises(SurfaceError, match="not mutual"):
        rebuild(s, vpieces=vpieces)


def test_handle_over_the_wrong_edge_is_refused():
    # over the one-vertex torus both edges join v to v, so only the side
    # check of the cellular disc can see the swap
    s = fold_fixture()
    a, b = s.target.edge_id("a"), s.target.edge_id("b")
    hid = next(h for h, hp in s.hpieces.items() if hp.edge == a and hp.longs[0] != ("free",))
    hpieces = dict(s.hpieces)
    hpieces[hid] = replace(s.hpieces[hid], edge=b)
    with pytest.raises(SurfaceError, match="wrong edge"):
        rebuild(s, hpieces=hpieces)


def test_inferred_chain_reads_the_boundary():
    s = fold_necklace(torus(), "f", 2, fold_pos=0, back_pos=2)
    again = AdmissibleSurface(s.target, None, s.vpieces, s.hpieces, s.fpieces)
    assert again.chain == s.chain
    assert again.circuits == s.circuits
    assert s.degree_vector() == [2]


def test_subsurface_and_its_mirror():
    cx = closed_genus3_split()
    cells = genus3_T(cx).cells()
    plus = subsurface_as_admissible(cx, cells, genus3_chain(cx), sign=1)
    minus = subsurface_as_admissible(cx, cells, genus3_chain(cx), sign=-1)
    assert plus.degree_vector() == [1] and minus.degree_vector() == [-1]
    both = disjoint_union(plus, minus)
    assert both.euler_characteristic() == 2 * plus.euler_characteristic()
    report = both.standard_form_report()
    assert report.in_standard_form()
    assert not report.monotone and not report.orientation_perfect
    assert report.witnesses["orientation_mixed_face"] == [cx.face_id("f1")]


def test_disjoint_union_of_nothing_is_refused():
    with pytest.raises(SurfaceError, match="at least one surface"):
        disjoint_union()


def test_standard_form_report_witnesses():
    report = figlnk().standard_form_report()
    assert not report.connected_links and report.witnesses["disconnected_link"] == [0]
    report = fold_fixture().standard_form_report()
    assert report.connected_links and not report.non_folded
    assert t_itself().standard_form_report().in_standard_form()


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
    for v, lk in links(sub_cx).items():
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
