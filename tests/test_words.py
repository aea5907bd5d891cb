import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclkit.complexes import TwoComplex
from sclkit.fixtures import closed_genus3_split, one_holed, torus
from sclkit.words import (
    ChainError,
    EdgeChain,
    OneChain,
    cyclic_reduce,
    cyclically_equal,
    orbits,
    parse_chain,
    parse_edge_chain,
    word_inverse,
)


def w(text):
    return tuple((c.lower(), 1 if c.islower() else -1) for c in text)


def test_cyclic_reduce():
    assert cyclic_reduce(w("abAB")) == w("abAB")
    assert cyclic_reduce(w("aA")) == ()
    assert cyclic_reduce(w("Aba")) == w("b")
    assert cyclically_equal(cyclic_reduce(w("baBAab")), w("ab"))  # conjugate collapses


def test_cyclically_equal():
    assert cyclically_equal(w("abAB"), w("ABab"))
    assert not cyclically_equal(w("ab"), w("ba") + w("a"))


def test_parse_commutator_sugar():
    c = parse_chain("[a,b]", "ab")
    assert c.terms == ((1, w("abAB")),)


def test_parse_merging():
    c = parse_chain("2*abAB - abAB", "ab")
    assert c.terms == ((1, w("abAB")),)


def test_parse_cancel_to_zero():
    c = parse_chain("abAB - abAB", "ab")
    assert c.is_zero()


def test_parse_empty_word_rejected():
    with pytest.raises(ChainError):
        parse_chain("aA", "ab")


def test_parse_unknown_letter():
    with pytest.raises(ChainError):
        parse_chain("xyz", "ab")


def test_parse_chain_names_a_malformed_coefficient():
    with pytest.raises(ChainError, match=r"^term 'x\*ab': coefficient 'x' is not an integer$"):
        parse_chain("x*ab", "ab")
    with pytest.raises(ChainError, match=r"^term '1/2\*\[a,b\]': coefficient '1/2' is not an integer$"):
        parse_chain("ab - 1/2*[a,b]", "ab")


def test_parse_nested_commutator():
    c = parse_chain("[[a,b],c]", "abc")
    inner = w("abAB")
    expected = inner + w("c") + word_inverse(inner) + w("C")
    assert cyclically_equal(c.terms[0][1], cyclic_reduce(expected))


def test_exponent_vector():
    assert parse_chain("[a,b]", "ab").exponent_vector() == {"a": 0, "b": 0}
    assert parse_chain("a + b", "ab").exponent_vector() == {"a": 1, "b": 1}
    c = parse_chain("2*ab - 2*ba", "ab")
    # the two words are cyclically equal, so they merge to zero
    assert c.is_zero()
    d = OneChain.make("ab", [(2, w("ab")), (-2, w("aabb"))])
    assert d.exponent_vector() == {"a": -2, "b": -2}


def test_in_basis():
    c = parse_chain("[a,b]", "ab")
    big = c.in_basis("abcd")
    assert big.basis == ("a", "b", "c", "d")
    assert big.terms == c.terms
    with pytest.raises(ChainError):
        c.in_basis("ax")


def test_chain_text_roundtrip():
    for text in ("[a,b]", "ab + 2*ba", "[a,b] - 2*[a,c]"):
        c = parse_chain(text, "abc")
        again = parse_chain(c.text(), "abc")
        assert again == c


def test_edge_chain_closure():
    cx = one_holed(2)
    c = EdgeChain.make(cx, [(1, ((cx.edge_id("c"), -1),))])
    assert c.circle_words() == [((cx.edge_id("c"), -1),)]


def test_edge_chain_open_path_rejected():
    cx = TwoComplex.build(["p", "q"], [("a", "p", "q")], [])
    with pytest.raises(ChainError):
        EdgeChain.make(cx, [(1, ((0, 1),))])


def test_edge_chain_refuses_a_sign_other_than_plus_or_minus_one():
    # TwoComplex refuses the same sign in a face word
    with pytest.raises(ChainError, match="edge 0 has sign 2, not"):
        EdgeChain.make(torus(), [(1, ((0, 2),))])


@pytest.mark.parametrize(
    "loop, message",
    [(((99, 1),), "unknown edge id 99"), (((0, 1), (1, 1), (0, 5)), "edge 0 has sign 5, not")],
    ids=["unknown edge", "bad sign"],
)
def test_edge_chain_checks_a_term_with_coefficient_zero(loop, message):
    with pytest.raises(ChainError, match=message):
        EdgeChain.make(torus(), [(0, loop)])


def test_edge_chain_drops_a_term_with_coefficient_zero():
    a = ((torus().edge_id("a"), 1),)
    assert EdgeChain.make(torus(), [(0, a), (2, a)]).terms == ((2, a),)


def test_edge_chain_negative_coefficient_words():
    cx = one_holed(1)
    a = cx.edge_id("a1")
    b = cx.edge_id("b1")
    c = EdgeChain.make(cx, [(-2, ((a, 1), (a, -1)))])
    assert c.circle_words() == [((a, 1), (a, -1)) * 2]


def test_edge_chain_parse_and_text():
    cx = closed_genus3_split()
    c = parse_edge_chain("c-", cx)
    assert c.text(cx) == "c-"
    d = parse_edge_chain("2*a1+ b1-", cx)
    assert d.terms[0][0] == 2
    assert d.text(cx) == "2*a1+ b1-"


def test_parse_edge_chain_names_a_malformed_coefficient():
    with pytest.raises(ChainError, match=r"^term 'k \* a\+ b\+ a- b-': coefficient 'k' is not an integer$"):
        parse_edge_chain("k * a+ b+ a- b-", torus())
    with pytest.raises(ChainError, match=r"^term '2.5\*a\+': coefficient '2.5' is not an integer$"):
        parse_edge_chain("a+ b+ a- b- + 2.5*a+", torus())


def test_edge_chain_one_chain_vector():
    cx = closed_genus3_split()
    c = parse_edge_chain("2*c-", cx)
    assert c.one_chain_vector() == {cx.edge_id("c"): -2}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: OneChain.make("aa", []), "duplicate generator in basis"),
        (lambda: OneChain.make("a", [(1, w("aA"))]), "chain term reduces to the empty word"),
        (lambda: OneChain.make("a", [(1, w("b"))]), "letter 'b' outside the basis"),
        (lambda: OneChain.make("a", [(1, (("a", 2),))]), "letter sign must be +1 or -1"),
        (lambda: parse_chain("[a,b", "ab"), "term '[a,b': malformed commutator"),
        (lambda: parse_chain("a1", "a"), "term 'a1': unexpected character '1'"),
        (lambda: parse_chain("a", ["ab"]), "word grammar wants single lowercase letters as generators"),
        (lambda: parse_chain(" + ", "a"), "empty chain text"),
        (lambda: EdgeChain.make(torus(), [(1, ())]), "chain term (1, ()): edge loop must be nonempty"),
        (lambda: parse_edge_chain("a+ b", torus()), "edge token 'b' needs +/- suffix"),
    ],
    ids=[
        "duplicate generator",
        "empty word",
        "letter outside basis",
        "letter sign",
        "malformed commutator",
        "unexpected character",
        "long generator",
        "empty text",
        "empty loop",
        "edge token suffix",
    ],
)
def test_every_chain_refusal_is_reached(call, message):
    with pytest.raises(ChainError, match=f"^{re.escape(message)}$"):
        call()


def test_orbits_fixed_cases():
    assert orbits({}, []) == []
    # a permutation: each cycle once, from its first item among the starts
    assert orbits({0: 1, 1: 2, 2: 0, 3: 3}, [3, 1, 0, 2]) == [[3], [1, 2, 0]]
    # a chain stops at its last item, and a later walk before a visited one
    assert orbits({"a": "b", "b": "c"}, ["b", "a", "c"]) == [["b", "c"], ["a"]]
    # a start with no successor is a walk of its own; unreached items are left out
    assert orbits({1: 2}, [3, 3]) == [[3]]


def reference_orbits(succ, starts):
    visited = []
    walks = []
    for start in starts:
        if start in visited:
            continue
        walk = [start]
        while walk[-1] in succ and succ[walk[-1]] not in visited + walk:
            walk.append(succ[walk[-1]])
        visited += walk
        walks.append(walk)
    return walks


@st.composite
def partial_maps(draw):
    """An injective partial map on range(n) and a start order with repeats."""
    n = draw(st.integers(0, 12))
    image = draw(st.permutations(range(n)))
    domain = draw(st.sets(st.sampled_from(range(n)))) if n else set()
    starts = draw(st.lists(st.sampled_from(range(n)), max_size=2 * n)) if n else []
    return {i: image[i] for i in sorted(domain)}, starts


@settings(max_examples=300, deadline=None)
@given(partial_maps())
def test_orbits_match_a_reference_walk(case):
    succ, starts = case
    walks = orbits(succ, starts)
    assert walks == reference_orbits(succ, starts)
    # the walks partition the items reached from the starts
    reached = set()
    frontier = list(starts)
    while frontier:
        item = frontier.pop()
        if item not in reached:
            reached.add(item)
            frontier += [succ[item]] if item in succ else []
    items = [item for walk in walks for item in walk]
    assert len(items) == len(set(items)) and set(items) == reached
    visited = set()
    for walk in walks:
        # each walk follows succ and ends at a visited item or at one with no successor
        assert all(succ.get(a) == b for a, b in zip(walk, walk[1:]))
        visited.update(walk)
        assert walk[-1] not in succ or succ[walk[-1]] in visited
    # each cycle of succ that a start meets is one walk, from its first start
    for start in dict.fromkeys(starts):
        cycle = [start]
        while cycle[-1] in succ and succ[cycle[-1]] not in cycle:
            cycle.append(succ[cycle[-1]])
        if cycle[-1] in succ and succ[cycle[-1]] == start:
            first = next(s for s in starts if s in cycle)
            rotation = cycle[cycle.index(first):] + cycle[: cycle.index(first)]
            assert rotation in walks
