from dataclasses import replace

import pytest

from sclkit.fixtures import (
    closed_genus3_split,
    figlnk,
    fold_fixture,
    fold_necklace,
    genus3_chain,
    genus3_T,
    sigma_genus1,
    t_itself,
    torus,
)
from sclkit.surfaces import (
    AdmissibleSurface,
    SurfaceError,
    VPiece,
    disjoint_union,
    subsurface_as_admissible,
)


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
