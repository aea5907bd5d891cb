import functools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sclkit.scl
from sclkit.complexes import ComplexError, TwoComplex, barycentric, induced_subcomplex
from sclkit.exactlin import rank_q, solve_q
from sclkit.fixtures import ambient_pair, one_holed, closed_genus3_split, torus
from sclkit.homology import d2_rows
from sclkit.scl import (
    RotStructure,
    SclResult,
    _scl_circles,
    _scl_full_lp,
    bavard_sandwich,
    default_rot_structure,
    rot_value,
    scl_compare_under_inclusion,
    scl_lp,
    scl_upper_from_surface,
)
from sclkit.surfaces import subsurface_as_admissible
from sclkit.words import (
    ChainError,
    EdgeChain,
    OneChain,
    cyclic_reduce,
    letter_inverse,
    parse_chain,
    parse_edge_chain,
    word_inverse,
    word_power,
)


def scaled(chain, k):
    """k times the chain."""
    return OneChain.make(chain.basis, [(k * c, w) for c, w in chain.terms])


def scl(text, basis):
    return scl_lp(parse_chain(text, basis))


def test_scl_commutator():
    res = scl("[a,b]", "ab")
    assert res.value == Fraction(1, 2)


def test_scl_genus_two_relator():
    res = scl("[a,b][c,d]", "abcd")
    assert res.value == Fraction(3, 2)


def test_scl_commutator_square_homogeneity():
    res = scl("[a,b][a,b]", "ab")
    assert res.value == Fraction(1)


def test_scl_commutator_cube():
    res = scl("[a,b][a,b][a,b]", "ab")
    assert res.value == Fraction(3, 2)


def test_scl_infinite_for_nonboundary():
    res = scl("ab", "ab")
    assert res.is_infinite


def test_scl_zero_chain():
    res = scl("ab - ab", "ab")
    assert res.value == 0


def test_scl_annulus_chain():
    # a + a^{-1} bounds an annulus
    res = scl("a + A", "ab")
    assert res.value == 0


def test_scl_conjugation_invariance():
    base = scl("[a,b]", "ab").value
    for text in ("bABa", "ABab", "b*[a,b]*B".replace("*", "")):
        assert scl(text, "ab").value == base


def test_scl_chain_with_two_terms():
    # scl(a b + b^{-1} a^{-1}) = 0: the two circles cobound an annulus, and
    # the homogeneous form cancels them to the zero chain
    res = scl("ab + BA", "ab")
    assert (res.value, res.method, res.chain.is_zero()) == (0, "trivial", True)
    assert _scl_circles(parse_chain("ab + BA", "ab")).value == 0


def test_scl_of_a_power_runs_on_its_root_and_scales():
    res = scl("[a,b][a,b][a,b]", "ab")
    assert (res.value, res.method, res.scale) == (Fraction(3, 2), "forced", 3)
    assert res.chain == parse_chain("[a,b]", "ab")
    res = scl("aaabAAAB", "ab")
    assert (res.scale, res.chain, res.method) == (1, parse_chain("aaabAAAB", "ab"), "lp")


def test_scl_alternating_word():
    # scl(abaB) hmm: abaB has exponent a:2 -> infinite
    assert scl("abaB", "ab").is_infinite
    # abAB with doubled a-letters: a classical value scl(aabABB) hmm, use
    # a known small case instead: scl([a,b]) in a bigger basis
    assert scl("[a,b]", "abc").value == Fraction(1, 2)


def test_scl_homogeneity_on_corpus():
    corpus = ["[a,b]", "[a,b][c,d]", "abAB"]
    for text in corpus:
        c1 = parse_chain(text, "abcd")
        c2 = parse_chain(f"({text})({text})".replace("(", "").replace(")", ""), "abcd")
        v1 = scl_lp(c1).value
        v2 = scl_lp(c2).value
        assert v2 == 2 * v1


@pytest.mark.parametrize("text", ["[a,b]", "ab + BA"])
def test_scl_scales_with_the_chain(text):
    chain = parse_chain(text, "ab")
    value = scl_lp(chain).value
    for k in (2, 3):
        assert scl_lp(scaled(chain, k)).value == k * value


LETTERS = (("a", 1), ("a", -1), ("b", 1), ("b", -1))


@st.composite
def boundary_chains(draw, max_letters):
    """Nonzero 1-boundaries in F2 with at most ``max_letters`` letters: one
    or two random reduced words, and the word a^-i b^-j that cancels their
    exponent sums i in a and j in b.

    Both hold by construction.  A letter moves one exponent sum by one, so
    it adds 2 to the letters of the words and the balance together, or 0
    when it moves the sum towards 0; a letter that adds 2 is drawn only
    while 2 letters are left.  The first word has a letter, and terms merge
    only by adding coefficients 1, so the chain is not zero.
    """
    sums = {"a": 0, "b": 0}
    room = max_letters
    words = []
    for _ in range(draw(st.integers(1, 2))):
        word = []
        for _ in range(draw(st.integers(1, max_letters - 1))):
            fits = [
                x
                for x in LETTERS
                if (room >= 2 or sums[x[0]] * x[1] < 0) and not (word and x == letter_inverse(word[-1]))
            ]
            if not fits:
                break
            x = draw(st.sampled_from(fits))
            room -= 0 if sums[x[0]] * x[1] < 0 else 2
            sums[x[0]] += x[1]
            word.append(x)
        words.append(word)
    words.append([(g, -1 if e > 0 else 1) for g, e in sums.items() for _ in range(abs(e))])
    return OneChain.make("ab", [(1, w) for w in words if cyclic_reduce(tuple(w))])


def _relettered(chain, f):
    return OneChain.make(chain.basis, [(c, [f(x) for x in w]) for c, w in chain.terms])


@settings(max_examples=40, deadline=None)
@given(boundary_chains(10), st.data())
def test_scl_is_invariant_under_rotation_conjugation_and_automorphisms(chain, data):
    # each variant is a different colour-flow LP for the same scl
    value = scl_lp(chain).value
    i = data.draw(st.integers(0, len(chain.terms) - 1))
    coeff, word = chain.terms[i]
    k = data.draw(st.integers(1, len(word)))
    x = data.draw(st.sampled_from(LETTERS))

    def with_term(new):
        return OneChain.make(chain.basis, [*chain.terms[:i], (coeff, new), *chain.terms[i + 1 :]])

    variants = {
        "term rotated": with_term(word[k:] + word[:k]),
        "term conjugated by a letter": with_term((x, *word, letter_inverse(x))),
        "a and b swapped": _relettered(chain, lambda y: ("b" if y[0] == "a" else "a", y[1])),
        "a inverted": _relettered(chain, lambda y: (y[0], -y[1]) if y[0] == "a" else y),
    }
    for name, other in variants.items():
        assert scl_lp(other).value == value, name


@settings(max_examples=30, deadline=None)
@given(boundary_chains(6))
def test_scl_of_twice_a_random_chain_is_twice_its_scl(chain):
    # 2c reduces to c with scale 2; the LP on the circles of c checks that
    assert scl_lp(scaled(chain, 2)).value == 2 * _scl_circles(chain).value


@settings(max_examples=20, deadline=None)
@given(boundary_chains(10))
def test_scl_of_the_negated_chain_is_its_scl(chain):
    # -c lists every word with coefficient -1, which the LP reads backwards
    assert _scl_circles(scaled(chain, -1)).value == scl_lp(chain).value


@settings(max_examples=30, deadline=None)
@given(boundary_chains(6), st.data())
def test_the_homogeneous_form_has_the_scl_of_the_chain(chain, data):
    # scl through the homogeneous form against the LP on the circles as
    # given, on a boundary that B_1^H reduces: k times the chain with one
    # term written as its k-th power, or the chain plus a term and the
    # inverse of a rotation of it, or both
    terms = list(chain.terms)
    i = data.draw(st.integers(0, len(terms) - 1))
    coeff, word = terms[i]
    change = data.draw(st.sampled_from(["power", "inverse", "both"]))
    if change != "inverse":
        k = data.draw(st.sampled_from([2, 3]))
        terms = [(c * k, w) for c, w in terms]
        terms[i] = (coeff, word_power(word, k))
    if change != "power":
        j = data.draw(st.integers(0, len(word) - 1))
        terms += [(1, word), (1, word_inverse(word[j:] + word[:j]))]
    other = OneChain.make(chain.basis, terms)
    # the unreduced LP grows as the cube of its letter positions
    assume(sum(abs(c) * len(w) for c, w in other.terms) <= 12)
    assert scl_lp(other).value == _scl_circles(other).value


def _a_to_ab(chain):
    """The image of a chain under the automorphism a -> ab of F2."""
    image = {("a", 1): [("a", 1), ("b", 1)], ("a", -1): [("b", -1), ("a", -1)]}
    return OneChain.make(chain.basis, [(c, [y for x in w for y in image.get(x, [x])]) for c, w in chain.terms])


@settings(max_examples=30, deadline=None)
@given(boundary_chains(6))
def test_scl_is_invariant_under_the_nielsen_move_a_to_ab(chain):
    # each image has at most twice the letters: 12
    assert scl_lp(_a_to_ab(chain)).value == scl_lp(chain).value


def _full_lp_of_forced(npos, edges):
    """``_scl_full_lp`` on the arguments of a ``_scl_forced`` call: the pair
    of edge k // 2 is read off the far ends of its two edges."""
    ends = {}
    for _, dst, idx in edges:
        ends.setdefault(idx, []).append(dst)
    pairs = [tuple(sorted(ends[idx])) for idx in range(len(ends))]
    partners = {u: [idx for idx, pair in enumerate(pairs) if u in pair] for u in range(npos)}
    return _scl_full_lp(npos, pairs, partners, edges)


@settings(max_examples=40, deadline=None)
@given(boundary_chains(10))
def test_scl_of_a_random_chain_meets_duncan_howie_and_the_forced_path_meets_the_lp(chain):
    forced = sclkit.scl._scl_forced

    def forced_checked_by_lp(npos, edges):
        result = forced(npos, edges)
        assert result.value == _full_lp_of_forced(npos, edges).value
        return result

    # the product of the chain's words, each taken c times, is one word
    # with zero exponent sums: Duncan-Howie gives it scl >= 1/2 unless it
    # is trivial
    word = [x for c, w in chain.terms for x in (w if c > 0 else word_inverse(w)) * abs(c)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sclkit.scl, "_scl_forced", forced_checked_by_lp)
        scl_lp(chain)
        if cyclic_reduce(tuple(word)):
            assert scl_lp(OneChain.make("ab", [(1, word)])).value >= Fraction(1, 2)


REDUCED_WORDS = st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4).filter(
    lambda w: all(w[i + 1] != letter_inverse(w[i]) for i in range(len(w) - 1))
)


@settings(max_examples=15, deadline=None)
@given(REDUCED_WORDS, REDUCED_WORDS)
def test_scl_of_a_pair_of_pants_boundary_is_at_most_a_half(g, h):
    # g, h and (gh)^-1 bound a pair of pants, -chi = 1; a circle whose word
    # reduces to 1 is capped off with a disc
    words = [w for w in (g, h, word_inverse(tuple(g + h))) if cyclic_reduce(tuple(w))]
    chain = OneChain.make("ab", [(1, w) for w in words])
    value = scl_lp(chain).value
    assert 0 <= value <= Fraction(1, 2)


def test_scl_compare_under_basis_inclusion():
    report = scl_compare_under_inclusion(parse_chain("[a,b]", "ab"), "abcd")
    assert report.small.value == report.big.value == Fraction(1, 2)
    report = scl_compare_under_inclusion(parse_chain("[a,b][c,d]", "abcd"), "abcdef")
    assert report.small.value == report.big.value == Fraction(3, 2)


def test_rot_one_holed():
    for g in (1, 2, 3):
        cx = one_holed(g)
        structure = default_rot_structure(cx)
        # the boundary of the surface, positively oriented, is c traversed
        # backwards: d(face) = -c
        chain = parse_edge_chain("c-", cx)
        assert rot_value(structure, chain) == 2 * g - 1


def test_rot_zero_chain():
    cx = one_holed(1)
    structure = default_rot_structure(cx)
    assert rot_value(structure, EdgeChain(())) == 0


def test_rot_rejects_nonboundary():
    cx = one_holed(1)
    structure = default_rot_structure(cx)
    with pytest.raises(ComplexError):
        rot_value(structure, parse_edge_chain("a1+", cx))


def test_rot_structure_validation():
    cx = one_holed(1)
    with pytest.raises(ComplexError):
        RotStructure(cx, {cx.face_id("f"): Fraction(1)})  # wrong total
    with pytest.raises(ComplexError):
        RotStructure(closed_genus3_split(), {0: 1, 1: 1})  # H2 nonzero


def test_rot_independent_of_weight_split():
    # two-face one-holed surface: rot of the boundary ignores the split
    s, _ = __import__("sclkit.fixtures", fromlist=["ambient_pair"]).ambient_pair(1, 2)
    total = Fraction(-2 * s.euler_characteristic())
    w1 = {s.face_id("fT"): Fraction(1), s.face_id("fR"): total - 1}
    w2 = {s.face_id("fT"): total - 2, s.face_id("fR"): Fraction(2)}
    chain = parse_edge_chain("c-", s)
    r1 = rot_value(RotStructure(s, w1), chain)
    r2 = rot_value(RotStructure(s, w2), chain)
    assert r1 == r2 == 3  # -chi = 3


def test_rot_structure_refuses_weights_that_are_not_rational():
    s, _ = ambient_pair(1, 2)
    for bad in (0.1, 3.0):
        weights = {f: bad for f in s.faces}
        with pytest.raises(ComplexError, match=r"area weight of face fT is .*, not an int or a Fraction"):
            RotStructure(s, weights)
    # an int and a Fraction are both exact
    weights = {s.face_id("fT"): 2, s.face_id("fR"): Fraction(4)}
    assert rot_value(RotStructure(s, weights), parse_edge_chain("c-", s)) == 3


@pytest.mark.parametrize("face, edge", [(8, 9), (0, 12)], ids=["no_edge_of_S", "mixed"])
def test_rot_refuses_a_chain_edge_outside_its_complex(face, edge):
    # a face loop of the subdivision bounds there; over S, face 8's loop
    # would read area 0, and face 0's loop, which also runs over an edge id
    # that S has, would read as no 1-boundary
    s, _ = ambient_pair(1, 2)
    structure = RotStructure(s, {s.face_id("fT"): 2, s.face_id("fR"): 4})
    big = barycentric(s)[0]
    chain = EdgeChain.make(big, [(1, big.faces[face])])
    message = f"chain edge {edge} is not an edge of the rot structure's complex"
    for call in (rot_value, bavard_sandwich):
        with pytest.raises(ComplexError, match=message):
            call(structure, chain)


def test_rot_refusals_are_typed_under_optimize():
    script = textwrap.dedent(
        """
        from fractions import Fraction

        from sclkit.complexes import ComplexError
        from sclkit.fixtures import ambient_pair, closed_genus3_split
        from sclkit.scl import RotStructure, rot_value
        from sclkit.words import parse_edge_chain

        s, _ = ambient_pair(1, 2)
        t, r = s.face_id("fT"), s.face_id("fR")
        cases = {
            "float": lambda: RotStructure(s, {t: 0.1, r: 5.9}),
            "exact_float": lambda: RotStructure(s, {t: 3.0, r: 3.0}),
            "h2": lambda: RotStructure(closed_genus3_split(), {0: 4, 1: 4}),
            "positive": lambda: RotStructure(s, {t: 0, r: 6}),
            "total": lambda: RotStructure(s, {t: 1, r: 1}),
            "boundary": lambda: rot_value(RotStructure(s, {t: 3, r: 3}), parse_edge_chain("a1+", s)),
        }
        for name, call in cases.items():
            try:
                call()
            except ComplexError as exc:
                print(name, "|", exc)
        """
    )
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "float | area weight of face fT is 0.1, not an int or a Fraction",
        "exact_float | area weight of face fT is 3.0, not an int or a Fraction",
        "h2 | rot structure needs H2(S; Q) = 0",
        "positive | area weights must be positive",
        "total | area weights total 2 pi but -2 chi = 6 pi",
        "boundary | chain is not a cellular 1-boundary",
    ]


# -- the rot path against a solve of all of d2 ------------------------------


def reference_rot_value(cx, weights, chain):
    """rot by ``solve_q`` on every row of d2 and a Fraction sum."""
    d2, fs = d2_rows(cx)
    vec = chain.one_chain_vector()
    sol = solve_q(d2, len(fs), [vec.get(e, 0) for e in cx.edges])
    if sol is None:
        raise ComplexError("chain is not a cellular 1-boundary")
    return sum(sol[j] * Fraction(weights[f]) for j, f in enumerate(fs)) / 2


def reference_rot_refusal(cx, weights):
    """The message ``RotStructure`` refuses rational weights with, ranking
    all of d2, written out dense, by ``rank_q``, or None."""
    d2, fs = d2_rows(cx)
    if rank_q([[row.get(j, 0) for j in range(len(fs))] for row in d2]) != len(fs):
        return "rot structure needs H2(S; Q) = 0"
    if set(weights) != set(fs):
        return "rot structure must weight every face"
    if any(w <= 0 for w in weights.values()):
        return "area weights must be positive"
    total = sum(map(Fraction, weights.values()))
    expected = Fraction(-2 * cx.euler_characteristic())
    if total != expected:
        return f"area weights total {total} pi but -2 chi = {expected} pi"
    return None


def _collapse_stops():
    """Loops a and b with faces a a b and a b b, wedged onto one_holed(2):
    the collapse takes the one-holed face through c and stops, since a and
    b each lie on three face sides.  H2 = 0 (det [[2, 1], [1, 2]] = 3) and
    chi = -3; a and b bound over Q, a1 does not."""
    base = one_holed(2)
    edges = [(base.name("e", e), "v", "v") for e in base.edges] + [("a", "v", "v"), ("b", "v", "v")]
    word = [(base.name("e", e), sign) for e, sign in base.faces[base.face_id("f")]]
    faces = [("f", word), ("aab", [("a", 1), ("a", 1), ("b", 1)]), ("abb", [("a", 1), ("b", 1), ("b", 1)])]
    cx = TwoComplex.build(["v"], edges, faces)
    return cx, [((cx.edge_id(name), 1),) for name in ("a", "b", "a1")]


def _ambient(inner, outer, level):
    """ambient_pair(inner, outer) subdivided ``level`` times, with the loop
    a1, which bounds nothing, carried through the halves."""
    cx, _ = ambient_pair(inner, outer)
    loop = ((cx.edge_id("a1"), 1),)
    for _ in range(level):
        cx, halves = barycentric(cx)
        loop = tuple(
            x
            for e, sign in loop
            for x in (((halves[e][0], 1), (halves[e][1], 1)) if sign == 1 else ((halves[e][1], -1), (halves[e][0], -1)))
        )
    return cx, [loop]


ROT_COMPLEXES = {
    **{
        f"ambient({i},{o})/L{level}": functools.partial(_ambient, i, o, level)
        for i, o in ((1, 2), (2, 4))
        for level in (0, 1, 2)
    },
    "aab + abb on one_holed(2)": _collapse_stops,
    "closed genus 3 split": lambda: (closed_genus3_split(), []),
}


@functools.cache
def _rot_complex(name):
    return ROT_COMPLEXES[name]()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ROT_COMPLEXES)), st.data())
def test_rot_value_matches_a_solve_of_all_of_d2(name, data):
    cx, loops = _rot_complex(name)
    fs = list(cx.faces)
    parts = data.draw(st.lists(st.integers(1, 6), min_size=len(fs), max_size=len(fs)))
    target = -2 * cx.euler_characteristic()
    weights = {f: Fraction(p * target, sum(parts)) for f, p in zip(fs, parts)}
    if data.draw(st.booleans()):
        weights = {f: int(w) if w.denominator == 1 else w for f, w in weights.items()}
    f = data.draw(st.sampled_from(fs))
    broken = data.draw(st.sampled_from((None, None, None, "zero", "total", "missing")))
    if broken == "zero":
        weights[f] = 0
    elif broken == "total":
        weights[f] += 1
    elif broken == "missing":
        del weights[f]
    refusal = reference_rot_refusal(cx, weights)
    if refusal is not None:
        with pytest.raises(ComplexError) as exc:
            RotStructure(cx, weights)
        assert str(exc.value) == refusal
        return
    structure = RotStructure(cx, weights)
    # a small integer sum of face words, and now and then of other loops
    faces = data.draw(st.lists(st.tuples(st.sampled_from(fs), st.integers(-2, 2)), max_size=4))
    extra = data.draw(st.lists(st.tuples(st.sampled_from(loops), st.integers(-2, 2)), max_size=2)) if loops else []
    chain = EdgeChain.make(cx, [(k, cx.faces[f]) for f, k in faces] + [(k, loop) for loop, k in extra])
    try:
        expected = reference_rot_value(cx, weights, chain)
    except ComplexError:
        with pytest.raises(ComplexError, match="chain is not a cellular 1-boundary"):
            rot_value(structure, chain)
        return
    assert rot_value(structure, chain) == expected
    if not any(k for _, k in extra):
        # H2 = 0: the face words bound exactly the faces they came from
        assert expected == sum(k * Fraction(weights[f]) for f, k in faces) / 2


def test_a_collapse_that_stops_leaves_rows_to_eliminate():
    cx, (a, b, a1) = _collapse_stops()
    structure = default_rot_structure(cx)
    assert len(structure.order) == 1 and len(structure.rest) == 2
    # the face f, then 2 x + y = 1 and x + 2 y = 0 on the faces a a b and
    # a b b: thirds, which scale the numerator of f found before them
    f, aab, abb = (cx.face_id(name) for name in ("f", "aab", "abb"))
    chain = EdgeChain.make(cx, [(1, cx.faces[f]), (1, a)])
    weights = structure.weights
    area = weights[f] + Fraction(2, 3) * weights[aab] - Fraction(1, 3) * weights[abb]
    assert rot_value(structure, chain) == area / 2
    with pytest.raises(ComplexError, match="chain is not a cellular 1-boundary"):
        rot_value(structure, EdgeChain.make(cx, [(1, a1)]))


def test_the_surface_bound_refuses_a_chain_with_no_terms():
    cx = torus()
    witness = subsurface_as_admissible(cx, cx.cells(), EdgeChain.make(cx, []))
    assert witness.degree_vector() == []
    with pytest.raises(ComplexError, match="^the surface bounds a chain with no terms$"):
        scl_upper_from_surface(witness)


def test_bavard_sandwich_lower_only():
    cx = one_holed(2)
    verdict = bavard_sandwich(default_rot_structure(cx), parse_edge_chain("c-", cx))
    assert verdict.lower == Fraction(3, 2)
    assert verdict.upper is None and verdict.exact is None


def _t_inverse_on_ambient_pair():
    """ambient_pair(1, 2), the chain t^-1 and its witness T, which bounds
    it, so scl(t^-1) <= 1/2."""
    cx, t_sub = ambient_pair(1, 2)
    chain = EdgeChain.make(cx, [(1, ((cx.edge_id("t"), -1),))])
    return cx, chain, subsurface_as_admissible(cx, t_sub.cells(), chain)


@pytest.mark.parametrize(
    "weights, lower",
    [((5, 1), "5/4"), (None, "9/14")],
    ids=["fT=5,fR=1", "default"],
)
def test_bavard_sandwich_refuses_a_lower_bound_above_the_witness(weights, lower):
    # positive weights fix no corner angle, so rot/2 need not bound scl
    cx, chain, witness = _t_inverse_on_ambient_pair()
    if weights is None:
        structure = default_rot_structure(cx)
    else:
        structure = RotStructure(cx, dict(zip((cx.face_id("fT"), cx.face_id("fR")), weights)))
    assert str(rot_value(structure, chain) / 2) == lower
    with pytest.raises(ComplexError, match=f"rot lower bound {lower} exceeds the witness's upper bound 1/2"):
        bavard_sandwich(structure, chain, witness)


def test_bavard_sandwich_certifies_when_the_chain_is_geodesic():
    # fT of area 2 puts all of the vertex's angle at fT's corners, so t^-1
    # does not turn there
    cx, chain, witness = _t_inverse_on_ambient_pair()
    structure = RotStructure(cx, {cx.face_id("fT"): 2, cx.face_id("fR"): 4})
    verdict = bavard_sandwich(structure, chain, witness)
    assert verdict.lower == verdict.upper == verdict.exact == Fraction(1, 2)


def test_bavard_sandwich_refuses_a_witness_of_another_chain():
    # T bounds t^-1, not the boundary c^-1 of S; with geodesic weights the
    # bounds would read 3/2 > 1/2 and blame the weights
    cx, chain, witness = _t_inverse_on_ambient_pair()
    other = EdgeChain.make(cx, [(1, ((cx.edge_id("c"), -1),))])
    structure = RotStructure(cx, {cx.face_id("fT"): 2, cx.face_id("fR"): 4})
    with pytest.raises(ComplexError, match=r"^the witness bounds the chain \(\(1, \(\(4, -1\),\)\),\), not \(\(1, \(\(5, -1\),\)\),\)$"):
        bavard_sandwich(structure, other, witness)
    with pytest.raises(ComplexError, match="the witness bounds the chain"):
        bavard_sandwich(structure, EdgeChain.make(cx, [(2, chain.terms[0][1])]), witness)


def test_bavard_sandwich_takes_a_witness_of_a_rotated_loop():
    # subdivided once, t^-1 reads two edges; the witness built for one
    # rotation of the loop serves the other
    s, _ = ambient_pair(1, 2)
    cx, halves = barycentric(s)
    first, second = halves[s.edge_id("t")]
    chain = EdgeChain.make(cx, [(1, ((second, -1), (first, -1)))])
    rotated = EdgeChain.make(cx, [(1, ((first, -1), (second, -1)))])
    t_faces = [f for f in cx.faces if cx.name("f", f).startswith("fT:")]
    witness = subsurface_as_admissible(cx, induced_subcomplex(cx, [("f", f) for f in t_faces]).cells(), chain)
    rest = len(cx.faces) - len(t_faces)
    structure = RotStructure(cx, {f: Fraction(2, len(t_faces)) if f in t_faces else Fraction(4, rest) for f in cx.faces})
    for c in (chain, rotated):
        assert bavard_sandwich(structure, c, witness).exact == Fraction(1, 2)


def test_scl_matches_rot_lower_bound():
    # the boundary word of the one-holed genus g surface has
    # scl = (2g-1)/2; the free-group side sees the product of commutators
    for g, basis, text in ((1, "ab", "[a,b]"), (2, "abcd", "[a,b][c,d]")):
        lp_value = scl(text, basis).value
        cx = one_holed(g)
        lower = rot_value(default_rot_structure(cx), parse_edge_chain("c-", cx)) / 2
        assert lp_value == lower


def circles(text):
    """scl of the chain's circles as given, with no homogeneous reduction:
    the colour-flow LP of a power word."""
    return _scl_circles(parse_chain(text, "ab"))


def test_lp_determinism():
    first = circles("[a,b][a,b]")
    again = circles("[a,b][a,b]")
    assert first.value == again.value
    assert first.lp.pivots == again.lp.pivots
    assert first.lp.solution == again.lp.solution


# exact pivot counts of Dantzig's rule with the temporary Bland fallback
PINNED_PIVOTS = [
    ("[a,b][a,b]", Fraction(1), 34),
    ("[a,b][a,b][a,b]", Fraction(3, 2), 108),
    ("aaabAAAB", Fraction(1, 2), 56),
    ("[a,b][a,B]", Fraction(1, 2), 39),
    ("[a,b][a,b][a,B]", Fraction(1, 2), 141),
    ("[a,b][a,b][a,b][a,b]", Fraction(2), 253),
    # about 3 s; Bland's rule alone takes 4532 pivots and about a minute
    ("[a,b][a,b][a,b][a,b][a,b]", Fraction(5, 2), 677),
]


@pytest.mark.parametrize("text, value, pivots", PINNED_PIVOTS, ids=[t for t, _, _ in PINNED_PIVOTS])
def test_lp_pivot_counts_are_pinned(text, value, pivots):
    res = circles(text)
    assert res.method == "lp"
    assert (res.value, res.lp.pivots) == (value, pivots)
    assert res.lp.dual is not None


LP_SHAPES = [("[a,b][a,b]", (59, 58, 182)), ("[a,b][a,b][a,b]", (125, 179, 555))]


@pytest.mark.parametrize("text, shape", LP_SHAPES, ids=[t for t, _ in LP_SHAPES])
def test_scl_lp_shape_is_pinned(monkeypatch, text, shape):
    # (rows, columns, nonzeros) of the colour-flow LP, and each row given as
    # sorted (column, nonzero coefficient) pairs with no column repeated
    captured = []
    solve = sclkit.scl.solve_lp

    def capture(objective, rows, rhs):
        captured.append((objective, rows))
        return solve(objective, rows, rhs)

    monkeypatch.setattr(sclkit.scl, "solve_lp", capture)
    assert circles(text).method == "lp"
    [(objective, rows)] = captured
    assert (len(rows), len(objective), sum(map(len, rows))) == shape
    for row in rows:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(v for _, v in row)


def test_bland_fallback_runs_on_a_real_scl_lp():
    assert circles("[a,b][a,b]").lp.bland_pivots == 0
    res = circles("[a,b][a,b][a,b]").lp
    assert 0 < res.bland_pivots < res.pivots
    assert res.certificate()["bland_pivots"] == res.bland_pivots


def test_compare_under_inclusion_rejects_a_monotonicity_failure(monkeypatch):
    values = iter([Fraction(1, 2), Fraction(1)])
    monkeypatch.setattr(
        "sclkit.scl.scl_lp", lambda chain: SclResult(next(values), "exact")
    )
    with pytest.raises(ChainError):
        scl_compare_under_inclusion(parse_chain("[a,b]", "ab"), "abc")
