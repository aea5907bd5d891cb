"""Print every homology answer of sclkit on fixed inputs, one line each.

Run it on two checkouts and compare the outputs byte for byte: a change to
how boundary maps are ranked or solved should print the same lines.

    PYTHONPATH=src python3 scripts/dump_homology_answers.py > answers.txt

The inputs are the fixtures and their barycentric subdivisions, 500 random
complexes (the generator of ``tests/test_homology.py``) with random
subcomplexes, the ambient pairs (1, 2) and (2, 4) subdivided 0 to 3 times,
and ``closed_genus3_split``.  For each it prints ``boundary_matrices``,
homology and relative homology over Z and Q, the orientation witness, the
support lemma's verdict, the rot structure and rot values, and the mapping
cone's summary with its kernel basis.  An exception prints as its type and
message.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT)]

from test_homology import _random_complex, _random_subcomplex

from perfbench.workloads import _ambient_input
from sclkit.complexes import Subcomplex, barycentric, boundary_subcomplex, induced_subcomplex
from sclkit.fixtures import (
    closed_genus,
    closed_genus3_split,
    disc,
    one_holed,
    rp2,
    sphere_two_triangles,
    square_disc,
    torus,
)
from sclkit.homology import (
    boundary_matrices,
    check_support_lemma,
    cone_complex,
    homology,
    is_orientable,
    relative_homology,
)
from sclkit.scl import RotStructure, default_rot_structure, rot_value
from sclkit.words import EdgeChain


def answer(call):
    try:
        return repr(call())
    except Exception as exc:  # the message is the answer
        return f"{type(exc).__name__}: {exc}"


def summary(h):
    return (h.ring, h.ranks, h.torsion)


def cone(cx, terms):
    c = cone_complex(cx, terms)
    return c.circles, summary(c.summary), [[str(x) for x in vec] for vec in c.kernel_basis]


def rot(cx, structure_of):
    structure = structure_of()
    values = [
        rot_value(structure, EdgeChain.make(cx, [(1, word)]))
        for word in list(cx.faces.values())[:6]
    ]
    return sorted(structure.weights.items()), [str(v) for v in values]


def uniform_weights(cx):
    total = -2 * cx.euler_characteristic()
    return {f: Fraction(total, len(cx.faces)) for f in cx.faces}


def dump(name, cx, subs, terms):
    print(f"== {name}: {len(cx.vertices)} vertices, {len(cx.edges)} edges, {len(cx.faces)} faces")
    print("boundary", answer(lambda: boundary_matrices(cx)))
    for ring in ("Z", "Q"):
        print("homology", ring, answer(lambda: summary(homology(cx, ring))))
    print("witness", answer(lambda: is_orientable(cx)))
    bnd = boundary_subcomplex(cx)
    for label, sub in subs:
        for ring in ("Z", "Q"):
            print("relative", label, ring, answer(lambda: summary(relative_homology(cx, sub, ring))))
        with_bnd = Subcomplex(
            cx,
            sub.vertex_set | bnd.vertex_set,
            sub.edge_set | bnd.edge_set,
            sub.face_set | bnd.face_set,
        )
        print("support", label, answer(lambda: check_support_lemma(cx, with_bnd)))
    print("rot default", answer(lambda: rot(cx, lambda: default_rot_structure(cx))))
    if cx.faces and cx.euler_characteristic() < 0:
        print("rot uniform", answer(lambda: rot(cx, lambda: RotStructure(cx, uniform_weights(cx)))))
    for label, t in terms:
        print("cone", label, answer(lambda: cone(cx, t)))


def face_terms(cx):
    faces = list(cx.faces.values())
    terms = [("face 0", [(1, faces[0])]), ("face 0 twice", [(2, faces[0])])] if faces else []
    if len(faces) > 1:
        terms.append(("faces 0, -1", [(1, faces[0]), (-1, faces[-1])]))
    return terms


def fixture_inputs():
    named = {
        "torus": torus,
        "rp2": rp2,
        "disc": disc,
        "sphere": sphere_two_triangles,
        "square disc": square_disc,
        "closed genus 2": lambda: closed_genus(2),
        "one-holed genus 2": lambda: one_holed(2),
        "closed genus 3 split": closed_genus3_split,
    }
    rng = random.Random(5)
    for name, make in named.items():
        cx = make()
        for level in range(3 if len(cx.faces) < 3 else 2):
            subs = [("empty", induced_subcomplex(cx, [])), ("boundary", boundary_subcomplex(cx))]
            subs += [(f"random {k}", _random_subcomplex(rng, cx)) for k in range(3)]
            yield f"{name} L{level}", cx, subs, face_terms(cx)
            cx = barycentric(cx)[0]


def random_inputs():
    rng = random.Random(2302)
    for k in range(500):
        cx = _random_complex(rng)
        subs = [(f"random {j}", _random_subcomplex(rng, cx)) for j in range(2)]
        yield f"random complex {k}", cx, subs, face_terms(cx)


def ambient_inputs():
    for inner, outer in ((1, 2), (2, 4)):
        for level in range(4):
            inp = _ambient_input(inner, outer, level)
            subs = [("T", inp.t_sub), ("T + boundary", inp.y_sub)]
            terms = [("t", inp.chain.terms)] if level < 3 else []
            name = f"ambient({inner},{outer})/L{level}"
            yield name, inp.cx, subs, terms
            structure = RotStructure(inp.cx, inp.weights)
            print("rot ambient", name, rot_value(structure, inp.chain))


def main():
    for inputs in (fixture_inputs(), random_inputs(), ambient_inputs()):
        for name, cx, subs, terms in inputs:
            dump(name, cx, subs, terms)


if __name__ == "__main__":
    main()
