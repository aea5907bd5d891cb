import pytest

from sclkit.complexes import TwoComplex
from sclkit.fixtures import closed_genus3_split, one_holed, torus
from sclkit.words import (
    ChainError,
    EdgeChain,
    OneChain,
    cyclic_reduce,
    cyclically_equal,
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
