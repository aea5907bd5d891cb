from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sclkit.complexes import ComplexError
from sclkit.fixtures import one_holed, closed_genus3_split
from sclkit.scl import (
    RotStructure,
    SclResult,
    bavard_sandwich,
    default_rot_structure,
    rot_value,
    scl_compare_under_inclusion,
    scl_lp,
)
from sclkit.words import ChainError, EdgeChain, OneChain, cyclic_reduce, letter_inverse, parse_chain, parse_edge_chain


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
    # scl(a b + b^{-1} a^{-1}) = 0: the two circles cobound an annulus
    res = scl("ab + BA", "ab")
    assert res.value == 0


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
        assert scl_lp(chain.scaled(k)).value == k * value


LETTERS = (("a", 1), ("a", -1), ("b", 1), ("b", -1))


@st.composite
def boundary_chains(draw, max_letters):
    """Nonzero 1-boundaries in F2 with at most ``max_letters`` letters: one
    or two random reduced words, and the word a^-i b^-j that cancels their
    exponent sums i in a and j in b."""
    words = []
    for _ in range(draw(st.integers(1, 2))):
        word = [draw(st.sampled_from(LETTERS))]
        for _ in range(draw(st.integers(0, max_letters - 2))):
            word.append(draw(st.sampled_from([x for x in LETTERS if x != letter_inverse(word[-1])])))
        words.append(word)
    balance = []
    for g in "ab":
        e = sum(sign for word in words for h, sign in word if h == g)
        balance += [(g, -1 if e > 0 else 1)] * abs(e)
    words.append(balance)
    assume(sum(map(len, words)) <= max_letters)
    chain = OneChain.make("ab", [(1, w) for w in words if cyclic_reduce(tuple(w))])
    assume(not chain.is_zero())
    return chain


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
    assert scl_lp(chain.scaled(2)).value == 2 * scl_lp(chain).value


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


def test_bavard_sandwich_lower_only():
    cx = one_holed(2)
    verdict = bavard_sandwich(default_rot_structure(cx), parse_edge_chain("c-", cx))
    assert verdict.lower == Fraction(3, 2)
    assert verdict.upper is None and verdict.exact is None


def test_scl_matches_rot_lower_bound():
    # the boundary word of the one-holed genus g surface has
    # scl = (2g-1)/2; the free-group side sees the product of commutators
    for g, basis, text in ((1, "ab", "[a,b]"), (2, "abcd", "[a,b][c,d]")):
        lp_value = scl(text, basis).value
        cx = one_holed(g)
        lower = rot_value(default_rot_structure(cx), parse_edge_chain("c-", cx)) / 2
        assert lp_value == lower


def test_lp_determinism():
    first = scl("[a,b][a,b]", "ab")
    again = scl("[a,b][a,b]", "ab")
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
    res = scl(text, "ab")
    assert res.method == "lp"
    assert (res.value, res.lp.pivots) == (value, pivots)
    assert res.lp.dual is not None


def test_bland_fallback_runs_on_a_real_scl_lp():
    assert scl("[a,b][a,b]", "ab").lp.bland_pivots == 0
    res = scl("[a,b][a,b][a,b]", "ab").lp
    assert 0 < res.bland_pivots < res.pivots
    assert res.certificate()["bland_pivots"] == res.bland_pivots


def test_compare_under_inclusion_rejects_a_monotonicity_failure(monkeypatch):
    values = iter([Fraction(1, 2), Fraction(1)])
    monkeypatch.setattr(
        "sclkit.scl.scl_lp", lambda chain: SclResult(next(values), "exact")
    )
    with pytest.raises(ChainError):
        scl_compare_under_inclusion(parse_chain("[a,b]", "ab"), "abc")
