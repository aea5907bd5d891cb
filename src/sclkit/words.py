"""Integral 1-chains as weighted cyclic words.

Two flavours share the grammar machinery:

* OneChain:  chains over a free group basis.  Letters are (generator, +1/-1);
  words are cyclically reduced and nonempty, terms pairwise distinct as
  cyclic words.
* EdgeChain: chains of loops on a complex 1-skeleton.  Letters are signed
  edge ids; each loop must close up in the complex.

Word grammar (free group side): lowercase letter = generator, uppercase =
its inverse, ``[x,y]`` expands to the commutator, ``k*word`` scales a term,
terms are separated by ``+`` / ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import TwoComplex


class ChainError(ValueError):
    pass


def letter_inverse(letter):
    sym, sign = letter
    return (sym, -sign)


def word_inverse(word):
    return tuple(letter_inverse(l) for l in reversed(word))


def word_power(word, n):
    """w^n: ``word`` traversed n times, or its inverse -n times when n < 0."""
    return tuple(word) * n if n >= 0 else word_inverse(word) * -n


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == letter_inverse(letter):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == letter_inverse(w[-1]):
        w = w[1:-1]
        w = list(free_reduce(w))
    return tuple(w)


def cyclic_rotations(word):
    return [word[k:] + word[:k] for k in range(len(word))] or [word]


def canonical_rotation(word):
    """Lexicographically least rotation; canonical key for cyclic equality."""
    return min(cyclic_rotations(word)) if word else word


def word_root(word):
    """(u, m): the shortest prefix u of ``word`` with word = u^m.  A word
    with period p dividing its length is its prefix of length p repeated,
    and the prefix of a cyclically reduced word is cyclically reduced."""
    n = len(word)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and word[p:] == word[:-p]:
            return word[:p], n // p
    return word, 1


def _merge_cyclic(terms, inverses=False):
    """(coeff, word) terms summed over equal cyclic words, each into the
    first word form and in the order words first appear; with ``inverses``,
    a word cyclically equal to the inverse of an earlier one is subtracted
    from it.  One dict keyed on the canonical rotation does the matching."""
    index = {}
    merged = []
    for coeff, word in terms:
        key = canonical_rotation(word)
        if key in index:
            merged[index[key]][0] += coeff
            continue
        if inverses:
            inv = canonical_rotation(word_inverse(word))
            if inv in index:
                merged[index[inv]][0] -= coeff
                continue
        index[key] = len(merged)
        merged.append([coeff, word])
    return merged


def cyclically_equal(w1, w2):
    """Whether the word ``w1`` is a rotation of ``w2``, read as tuples of
    letters; this is the one comparison of cyclic words, powers included:
    a loop reads u^d exactly when it is cyclically equal to
    ``word_power(u, d)``."""
    return len(w1) == len(w2) and tuple(w1) in cyclic_rotations(tuple(w2))


def one_chain(pairs):
    """The sum of (cell, count) pairs as a {cell: count} dict, in the order
    the cells first appear, without zero entries; the one sum of chains."""
    out = {}
    for cell, count in pairs:
        out[cell] = out.get(cell, 0) + count
    return {cell: count for cell, count in out.items() if count}


def orbits(succ, starts):
    """The walks of the successor map ``succ`` from each start not yet
    visited, in the order of ``starts``; the one walk of successor maps.

    A walk stops before an item already visited or at an item with no
    successor, so on a permutation each cycle is listed once, from its
    first item in ``starts``.
    """
    seen = set()
    out = []
    for start in starts:
        if start in seen:
            continue
        walk = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            walk.append(cur)
            # an item with no successor leads back to the visited start
            cur = succ.get(cur, start)
        out.append(walk)
    return out


@dataclass(frozen=True)
class OneChain:
    """Integral 1-chain over a free group: sum of coeff * cyclic word."""

    basis: tuple  # generator names, ordered
    terms: tuple  # ((coeff, word), ...) with word a tuple of (gen, sign)

    @classmethod
    def make(cls, basis, terms):
        basis = tuple(basis)
        bset = set(basis)
        if len(bset) != len(basis):
            raise ChainError("duplicate generator in basis")
        reduced = []
        for coeff, word in terms:
            word = cyclic_reduce(tuple(word))
            if not word:
                raise ChainError("chain term reduces to the empty word")
            for sym, sign in word:
                if sym not in bset:
                    raise ChainError(f"letter {sym!r} outside the basis")
                if sign not in (1, -1):
                    raise ChainError("letter sign must be +1 or -1")
            reduced.append((coeff, word))
        return cls(basis, tuple((c, w) for c, w in _merge_cyclic(reduced) if c))

    def is_zero(self):
        return not self.terms

    def homogeneous(self):
        """(d, reduced): the chain is d * reduced in B_1^H, where g^n = n g
        and g + g^-1 = 0, so scl(chain) = d * scl(reduced).

        Each term c * u^m, u the root of its word, adds c * m to u;
        conjugate roots add and inverse-conjugate roots subtract.  A
        negative weight becomes the inverse root, zero weights drop and d is
        the gcd of what is left, each term keeping its weight over d.  A
        chain this leaves as it is, the zero chain included, is returned
        itself with d = 1.
        """
        rooted = []
        for coeff, word in self.terms:
            root, m = word_root(word)
            rooted.append((coeff * m, root))
        if len(rooted) > 1:  # one term has nothing to merge with
            rooted = _merge_cyclic(rooted, inverses=True)
        weights = [(k, u) if k > 0 else (-k, word_inverse(u)) for k, u in rooted if k]
        d = gcd(*(k for k, _ in weights)) or 1
        terms = tuple((k // d, u) for k, u in weights)
        if terms == self.terms:
            return 1, self
        return d, OneChain(self.basis, terms)

    def exponent_vector(self):
        """Per-generator signed letter count, weighted by coefficients.

        Zero iff the chain is a 1-boundary of the free group.
        """
        out = {g: 0 for g in self.basis}
        for coeff, word in self.terms:
            for sym, sign in word:
                out[sym] += coeff * sign
        return out

    def is_boundary(self):
        return all(v == 0 for v in self.exponent_vector().values())

    def in_basis(self, bigger):
        """The same chain viewed over a larger basis."""
        bigger = tuple(bigger)
        if not set(self.basis) <= set(bigger):
            raise ChainError("target basis does not contain the chain's basis")
        return OneChain.make(bigger, self.terms)

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for coeff, word in self.terms:
            body = "".join(s if sign == 1 else s.upper() for s, sign in word)
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _parse_word(text, basis_set, where):
    """Word tokens: letters and [w1,w2] commutator sugar, recursively."""
    word = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "[":
            depth = 1
            j = i + 1
            comma = None
            while j < len(text):
                if text[j] == "[":
                    depth += 1
                elif text[j] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                elif text[j] == "," and depth == 1:
                    comma = j
                j += 1
            if j >= len(text) or comma is None:
                raise ChainError(f"{where}: malformed commutator")
            left = _parse_word(text[i + 1 : comma], basis_set, where)
            right = _parse_word(text[comma + 1 : j], basis_set, where)
            word += list(left) + list(right) + list(word_inverse(left)) + list(word_inverse(right))
            i = j + 1
        elif ch.isalpha():
            sym = ch.lower()
            if sym not in basis_set:
                raise ChainError(f"{where}: unknown letter {ch!r}")
            word.append((sym, 1 if ch.islower() else -1))
            i += 1
        elif ch.isspace():
            i += 1
        else:
            raise ChainError(f"{where}: unexpected character {ch!r}")
    return tuple(word)


def _coefficient(term, head):
    """The integer ``head`` before the '*' of ``term``, or a ChainError
    naming the term."""
    try:
        return int(head.strip())
    except ValueError:
        raise ChainError(f"term {term!r}: coefficient {head.strip()!r} is not an integer") from None


def parse_chain(text, basis) -> OneChain:
    """Parse the chain grammar over single-letter generators."""
    basis = tuple(basis)
    bset = set(basis)
    for g in basis:
        if len(g) != 1 or not g.isalpha() or not g.islower():
            raise ChainError("word grammar wants single lowercase letters as generators")
    # split into signed terms at top level
    terms = []
    current = []
    sign = 1
    depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth -= 1
            current.append(ch)
        elif ch in "+-" and depth == 0:
            if current and any(not c.isspace() for c in current):
                terms.append((sign, "".join(current)))
            current = []
            sign = 1 if ch == "+" else -1
        else:
            current.append(ch)
    if current and any(not c.isspace() for c in current):
        terms.append((sign, "".join(current)))
    if not terms:
        raise ChainError("empty chain text")
    parsed = []
    for sign, chunk in terms:
        chunk = chunk.strip()
        coeff = sign
        if "*" in chunk:
            head, body = chunk.split("*", 1)
            coeff = sign * _coefficient(chunk, head)
            chunk = body
        word = _parse_word(chunk.strip(), bset, f"term {chunk!r}")
        reduced = cyclic_reduce(word)
        if not reduced:
            raise ChainError(f"term {chunk!r} reduces to the empty word")
        parsed.append((coeff, reduced))
    return OneChain.make(basis, parsed)


@dataclass(frozen=True)
class EdgeChain:
    """Integral chain of loops on the 1-skeleton of a complex."""

    terms: tuple  # ((coeff, loop), ...) with loop a tuple of signed edges

    @classmethod
    def make(cls, cx: TwoComplex, terms):
        """The chain of (coeff, loop) terms on ``cx``, each loop a nonempty
        closed path of edges of ``cx`` with signs +1 or -1.  This is the one
        check of a chain of loops: a refusal is a ChainError that names its
        term."""
        out = []
        for coeff, loop in terms:
            loop = tuple(tuple(se) for se in loop)
            term = (coeff, loop)
            if not loop:
                raise ChainError(f"chain term {term}: edge loop must be nonempty")
            for e, sign in loop:
                if e not in cx.edges:
                    raise ChainError(f"chain term {term} uses unknown edge id {e}")
                if sign not in (1, -1):
                    raise ChainError(f"chain term {term}: edge {e} has sign {sign}, not +1 or -1")
            if cx.open_position(loop) is not None:
                raise ChainError(f"chain term {term}: edge loop does not close up")
            # a term with coefficient 0 is checked like any other, then dropped
            if coeff:
                out.append((coeff, loop))
        return cls(tuple(out))

    def circle_words(self):
        """Edge word of each circle: the loop traversed coeff times."""
        return [word_power(loop, coeff) for coeff, loop in self.terms]

    def one_chain_vector(self):
        """Image in C1 of the complex: edge id -> signed count."""
        return one_chain((e, coeff * sign) for coeff, loop in self.terms for e, sign in loop)

    def text(self, cx: TwoComplex):
        if not self.terms:
            return "0"
        parts = []
        for coeff, loop in self.terms:
            body = " ".join(
                f"{cx.name('e', e)}{'+' if sign == 1 else '-'}" for e, sign in loop
            )
            parts.append(body if coeff == 1 else f"{coeff}*{body}")
        return " + ".join(parts)


def parse_edge_chain(text, cx: TwoComplex) -> EdgeChain:
    """Grammar: terms 'k * e1+ e2- ...' joined by '+'."""
    terms = []
    pieces = [p.strip() for p in text.split(" + ")] if " + " in text else [text.strip()]
    for piece in pieces:
        if not piece or piece == "0":
            continue
        coeff = 1
        if "*" in piece:
            head, body = piece.split("*", 1)
            coeff = _coefficient(piece, head)
            piece = body
        loop = []
        for tok in piece.split():
            if tok.endswith("+"):
                loop.append((cx.edge_id(tok[:-1]), 1))
            elif tok.endswith("-"):
                loop.append((cx.edge_id(tok[:-1]), -1))
            else:
                raise ChainError(f"edge token {tok!r} needs +/- suffix")
        terms.append((coeff, tuple(loop)))
    return EdgeChain.make(cx, terms)
