"""Worked example library.

Every fixture is rebuilt on each call (complexes are immutable, so sharing
would also be fine; rebuilding keeps tests independent).

Naming:

* ``torus`` / ``rp2`` / ``disc``       : the classical small complexes.
* ``closed_genus(g)``                  : one-vertex closed orientable genus g.
* ``one_holed(g)``                     : genus g, one boundary edge ``c``,
  face ``[a1,b1]...[ag,bg] c-``.
* ``closed_genus3_split``              : genus 3 as two faces glued along the
  separating edge ``c``; ``f1 = [a1,b1][a2,b2]c-`` and ``f2 = [a3,b3]c+``.
  The closure of ``f1`` is a one-holed genus 2 subsurface ``T``; the closure
  of ``f2`` is a one-holed torus ``SigmaPrime``.
* ``ambient_pair(inner, outer)``       : one-holed genus ``outer`` surface
  containing a one-holed genus ``inner`` subcomplex ``T`` with H2(S, T) = 0
  (the complement meets the boundary).
* ``square_disc``                      : a disc cellulated as four triangles
  around an interior vertex (the playground for link-connection moves).
"""

from __future__ import annotations

from .complexes import TwoComplex, induced_subcomplex
from .surfaces import (
    FREE,
    AdmissibleSurface,
    FPiece,
    VPiece,
    derive_vpieces,
    subsurface_as_admissible,
)
from .words import EdgeChain


def torus() -> TwoComplex:
    return TwoComplex.build(
        ["v"],
        [("a", "v", "v"), ("b", "v", "v")],
        [("f", [("a", 1), ("b", 1), ("a", -1), ("b", -1)])],
    )


def rp2() -> TwoComplex:
    return TwoComplex.build(["v"], [("a", "v", "v")], [("f", [("a", 1), ("a", 1)])])


def disc() -> TwoComplex:
    return TwoComplex.build(
        ["p", "q", "r"],
        [("e1", "p", "q"), ("e2", "q", "r"), ("e3", "r", "p")],
        [("f", [("e1", 1), ("e2", 1), ("e3", 1)])],
    )


def sphere_two_triangles() -> TwoComplex:
    return TwoComplex.build(
        ["p", "q", "r"],
        [("a", "p", "q"), ("b", "q", "r"), ("c", "r", "p")],
        [
            ("up", [("a", 1), ("b", 1), ("c", 1)]),
            ("down", [("c", -1), ("b", -1), ("a", -1)]),
        ],
    )


def _commutator_word(i):
    return [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]


def closed_genus(g) -> TwoComplex:
    if g < 1:
        raise ValueError("closed_genus wants g >= 1")
    edges = []
    word = []
    for i in range(1, g + 1):
        edges += [(f"a{i}", "v", "v"), (f"b{i}", "v", "v")]
        word += _commutator_word(i)
    return TwoComplex.build(["v"], edges, [("f", word)])


def one_holed(g) -> TwoComplex:
    if g < 1:
        raise ValueError("one_holed wants g >= 1")
    edges = []
    word = []
    for i in range(1, g + 1):
        edges += [(f"a{i}", "v", "v"), (f"b{i}", "v", "v")]
        word += _commutator_word(i)
    edges.append(("c", "v", "v"))
    word.append(("c", -1))
    return TwoComplex.build(["v"], edges, [("f", word)])


def closed_genus3_split() -> TwoComplex:
    """Closed genus 3 split along the separating edge c into f1 and f2."""
    edges = [
        ("a1", "v", "v"), ("b1", "v", "v"),
        ("a2", "v", "v"), ("b2", "v", "v"),
        ("c", "v", "v"),
        ("a3", "v", "v"), ("b3", "v", "v"),
    ]
    f1 = _commutator_word(1) + _commutator_word(2) + [("c", -1)]
    f2 = _commutator_word(3) + [("c", 1)]
    return TwoComplex.build(["v"], edges, [("f1", f1), ("f2", f2)])


def genus3_T(cx=None):
    """Closure of f1 inside closed_genus3_split: one-holed genus 2."""
    cx = cx or closed_genus3_split()
    return induced_subcomplex(cx, [("f", cx.face_id("f1"))])


def genus3_sigma_prime(cx=None):
    """Closure of f2 inside closed_genus3_split: one-holed torus."""
    cx = cx or closed_genus3_split()
    return induced_subcomplex(cx, [("f", cx.face_id("f2"))])


def ambient_pair(inner, outer):
    """(S, T): one-holed genus ``outer`` containing one-holed genus ``inner``.

    S has faces fT = [a1,b1]..[a_inner,b_inner] t-  and
    fR = t [a_{inner+1},b_{inner+1}].. c-, sharing the edge t.  The closure
    of fT is the subsurface T with boundary t; the complement carries the
    boundary c of S, so H2(S, T) = 0.
    """
    if not (1 <= inner < outer):
        raise ValueError("ambient_pair wants 1 <= inner < outer")
    edges = []
    for i in range(1, outer + 1):
        edges += [(f"a{i}", "v", "v"), (f"b{i}", "v", "v")]
    edges += [("t", "v", "v"), ("c", "v", "v")]
    f_t = []
    for i in range(1, inner + 1):
        f_t += _commutator_word(i)
    f_t.append(("t", -1))
    f_r = [("t", 1)]
    for i in range(inner + 1, outer + 1):
        f_r += _commutator_word(i)
    f_r.append(("c", -1))
    cx = TwoComplex.build(["v"], edges, [("fT", f_t), ("fR", f_r)])
    t_sub = induced_subcomplex(cx, [("f", cx.face_id("fT"))])
    return cx, t_sub


def square_disc() -> TwoComplex:
    """Four triangles around an interior vertex v; a cellulated disc.

    Spokes s1..s4 run v -> u1..u4; rims r41: u4->u1, r12: u1->u2,
    r23: u2->u3, r34: u3->u4.  Faces: top (v,u1,u4), right (v,u4,u3),
    bottom (v,u2,u3)... every face written so the total 2-chain is a
    relative cycle (the disc is coherently oriented).
    """
    verts = ["v", "u1", "u2", "u3", "u4"]
    edges = [
        ("s1", "v", "u1"), ("s2", "v", "u2"), ("s3", "v", "u3"), ("s4", "v", "u4"),
        ("r41", "u4", "u1"), ("r12", "u1", "u2"), ("r23", "u2", "u3"), ("r34", "u3", "u4"),
    ]
    faces = [
        ("top", [("s1", 1), ("r41", -1), ("s4", -1)]),
        ("right", [("s4", 1), ("r34", -1), ("s3", -1)]),
        ("bottom", [("s3", 1), ("r23", -1), ("s2", -1)]),
        ("left", [("s2", 1), ("r12", -1), ("s1", -1)]),
    ]
    return TwoComplex.build(verts, edges, faces)


COMPLEX_FIXTURES = {
    "T2": torus,
    "RP2": rp2,
    "Disc": disc,
    "Sphere": sphere_two_triangles,
    "ClosedS1": lambda: closed_genus(1),
    "ClosedS2": lambda: closed_genus(2),
    "ClosedS3": closed_genus3_split,
    "Sg1b1": lambda: one_holed(1),
    "Sg1b2": lambda: one_holed(2),
    "Sg1b3": lambda: one_holed(3),
    "SquareDisc": square_disc,
    "Ambient23": lambda: ambient_pair(2, 3)[0],
}


# -- admissible surface fixtures --------------------------------------------


def genus3_chain(cx=None) -> EdgeChain:
    """The separating boundary loop of T in the split genus 3 surface,
    positively induced: d(f1) = -c, so the loop reads c backwards."""
    cx = cx or closed_genus3_split()
    return EdgeChain.make(cx, [(1, ((cx.edge_id("c"), -1),))])


def t_itself(cx=None) -> AdmissibleSurface:
    """The one-holed genus 2 subsurface T of the split genus 3 surface,
    included as an admissible surface for its boundary chain."""
    cx = cx or closed_genus3_split()
    t = genus3_T(cx)
    return subsurface_as_admissible(cx, t.cells(), genus3_chain(cx))


def sigma_genus1(cx=None) -> AdmissibleSurface:
    """The one-holed torus on the other side of c, traversed backwards
    (one cellular disc over f2 with sign -1), bounding the same chain."""
    cx = cx or closed_genus3_split()
    sp = genus3_sigma_prime(cx)
    return subsurface_as_admissible(cx, sp.cells(), genus3_chain(cx), sign=-1)


def figlnk() -> AdmissibleSurface:
    """A disc over the four-triangle square with a disconnected-link vertex disc.

    The central vertex disc D maps to the interior vertex v and carries two
    cellular discs of opposite orientation over the left and right triangles,
    attached on opposite corners, so D's collapsed link has two components.
    """
    cx = square_disc()
    s1, s2, s3, s4 = (cx.edge_id(f"s{i}") for i in (1, 2, 3, 4))
    r12, r34 = cx.edge_id("r12"), cx.edge_id("r34")
    left, right = cx.face_id("left"), cx.face_id("right")

    # handles 0..3 over the spokes s1..s4; 4 over r12; 5 over r34
    vpieces = {
        0: VPiece(cx.vertex_id("v"), (
            ("h", 1, "s"), ("h", 0, "s"), FREE, ("h", 2, "s"), ("h", 3, "s"), FREE,
        )),
        1: VPiece(cx.vertex_id("u1"), (("h", 0, "t"), ("h", 4, "s"), FREE)),
        2: VPiece(cx.vertex_id("u2"), (("h", 4, "t"), ("h", 1, "t"), FREE)),
        3: VPiece(cx.vertex_id("u3"), (("h", 5, "s"), ("h", 2, "t"), FREE)),
        4: VPiece(cx.vertex_id("u4"), (("h", 3, "t"), ("h", 5, "t"), FREE)),
    }
    handles = dict(enumerate((s1, s2, s3, s4, r12, r34)))
    fpieces = {
        0: FPiece(left, 1, (1, 4, 0)),
        1: FPiece(right, -1, (3, 5, 2)),
    }
    chain = EdgeChain.make(
        cx,
        [(1, ((s2, 1), (r12, -1), (s1, -1), (s3, 1), (r34, 1), (s4, -1)))],
    )
    return AdmissibleSurface(cx, chain, vpieces, handles, fpieces)


def fold_necklace(target=None, face_name="f", m=1, fold_pos=0, back_pos=1, closed=True) -> AdmissibleSurface:
    """Cyclic chain of 2m mirrored cellular discs over one face.

    Discs alternate orientation around the necklace; consecutive opposite
    pairs share a handle at ``fold_pos`` (the fold) or at ``back_pos``, and
    every other side sits on a handle with a free outer long.  Every
    adjacent pair is an eligible fold elimination.
    """
    if m < 1:
        raise ValueError("fold_necklace wants m >= 1")
    target = target or torus()
    face = target.face_id(face_name)
    word = target.faces[face]
    deg = len(word)
    backs = list(back_pos) if isinstance(back_pos, (list, tuple)) else [back_pos]
    if deg < 2 or any(b == fold_pos or not 0 <= b < deg for b in backs) or not (0 <= fold_pos < deg):
        raise ValueError("necklace needs distinct positions on a face of degree >= 2")

    n_discs = 2 * m
    handles = {}
    sides = {i: [None] * deg for i in range(n_discs)}

    def glue(pos, *discs):
        # one new handle over the edge at pos, glued to each disc's side there
        hid = len(handles)
        handles[hid] = word[pos][0]
        for i in discs:
            sides[i][pos] = hid

    for j in range(m):
        glue(fold_pos, 2 * j, 2 * j + 1)
    back_pairs = m if closed else m - 1
    for j in range(back_pairs):
        glue(backs[j % len(backs)], 2 * j + 1, (2 * j + 2) % n_discs)
    for i in range(n_discs):
        for pos in range(deg):
            if pos != fold_pos and sides[i][pos] is None:
                glue(pos, i)

    fpieces = {i: FPiece(face, 1 if i % 2 == 0 else -1, tuple(sides[i])) for i in range(n_discs)}
    vpieces = derive_vpieces(target, handles, fpieces)
    return AdmissibleSurface(target, None, vpieces, handles, fpieces)


def fold_fixture() -> AdmissibleSurface:
    """Two mirrored discs over the torus face joined through one handle."""
    return fold_necklace(torus(), "f", m=1, fold_pos=0, back_pos=2, closed=False)


def double_fold_fixture() -> AdmissibleSurface:
    """Four mirrored discs in a closed necklace with staggered back
    positions; two eliminations leave an annulus with no cellular discs."""
    return fold_necklace(torus(), "f", m=2, fold_pos=0, back_pos=[1, 3])
