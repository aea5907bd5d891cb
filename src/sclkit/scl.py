"""Exact scl in free groups, with the rotation-number sandwich.

The calculator encodes monotone admissible surfaces over a wedge of
circles in disc-and-band normal form:

* a band pairs two letter positions carrying inverse letters and its two
  long sides lie on the boundary, which reads every circle word with total
  degree n (normalised to 1, so multiplicities are rational);
* vertex discs are the complementary polygons; walking the boundary, the
  transition after position p enters the band covering p+1 and emerges at
  the paired position q, so vertex discs are exactly the cycles of the
  induced flow on transition gaps.

With coverage 1 per position,  -chi(surface) = (number of bands) - (number
of discs), and scl is half the minimum.  Disc counting is made linear by
colouring flow by the least gap on each cycle: a conserved flow supported
on gaps >= m contributes its out-flow at m many cycles through m, and any
cycle decomposition arises this way.  All arithmetic is exact rational.

No programme is built for the chain as given.  scl is a function on
B_1^H, the real 1-boundaries modulo g^n = n g and h g h^-1 = g, and it is
homogeneous under positive scaling (Calegari, *scl*, MSJ Memoirs 20, 2009,
section 2.6).  So a term c * u^m counts as c m * u, conjugate roots add,
inverse-conjugate roots subtract (g^-1 = -g), and with d the gcd of the
weights left the chain is d times its homogeneous form, whose scl is
exactly 1/d of the chain's.  ``scl_lp`` counts or solves that form
(``OneChain.homogeneous``), which has no more letter positions than the
input and often far fewer: [a,b]^3 becomes 3 * [a,b], whose one
commutator takes the forced count in place of an LP on 12 positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .complexes import ComplexError, TwoComplex
from .homology import _rank_torsion, d2_rows
from .exactlin import peel, solve_peeled
from .lp import LpResult, solve_lp
from .words import ChainError, EdgeChain, OneChain, cyclically_equal, letter_inverse, orbits, word_power


INFINITE = "infinite"


@dataclass
class SclResult:
    """scl of a chain, as ``scale`` times the scl of ``chain``, its
    homogeneous form (``OneChain.homogeneous``); ``method`` names the path
    that ran on ``chain``: 'trivial', 'homology', 'forced' or 'lp'."""

    value: Fraction | None  # None means infinite
    status: str  # 'exact' | 'infinite'
    lp: LpResult | None = None  # primal x and dual y, checked, of 2 * value / scale on chain
    method: str = "lp"
    scale: int = 1  # d: the input chain is d * chain in B_1^H
    chain: OneChain | None = None  # the reduced chain the forced count or the LP ran on

    @property
    def is_infinite(self):
        return self.status == INFINITE


def _expand_positions(chain: OneChain):
    """(letters, prev): the circle words w_i^{n_i} as one global list of
    letter positions, and each position's cyclic predecessor in its own
    circle word.  Every circle word is nonempty, so the first position of
    one has the last as its predecessor."""
    letters = []
    prev = []
    for coeff, word in chain.terms:
        start = len(letters)
        letters.extend(word_power(word, coeff))
        prev += [len(letters) - 1, *range(start, len(letters) - 1)]
    return letters, prev


def scl_lp(chain: OneChain) -> SclResult:
    """Exact scl of an integral chain over the free group on its basis:
    d times the scl of its homogeneous form."""
    scale, reduced = chain.homogeneous()
    result = _scl_circles(reduced)
    result.scale = scale
    if result.value is not None:
        result.value *= scale
    return result


def _scl_circles(chain: OneChain) -> SclResult:
    """Exact scl of the chain read as circles: a term (k, w) is one circle
    reading w^k, counted or solved with no reduction."""
    if chain.is_zero():
        return SclResult(Fraction(0), "exact", method="trivial", chain=chain)
    if not chain.is_boundary():
        return SclResult(None, INFINITE, method="homology", chain=chain)

    letters, prev = _expand_positions(chain)
    npos = len(letters)

    pairs = []  # unordered (u, v), u < v, inverse letters
    for u in range(npos):
        for v in range(u + 1, npos):
            if letters[v] == letter_inverse(letters[u]):
                pairs.append((u, v))
    # a boundary's letters have signed count 0 per generator, so every
    # position has a partner
    partners = {u: [] for u in range(npos)}
    for idx, (u, v) in enumerate(pairs):
        partners[u].append(idx)
        partners[v].append(idx)

    # directed gap edges: pair (u, v) crossed at u gives prev(u) -> v
    edges = []  # (src gap, dst gap, pair index)
    for idx, (u, v) in enumerate(pairs):
        edges.append((prev[u], v, idx))
        edges.append((prev[v], u, idx))

    if all(len(lst) == 1 for lst in partners.values()):
        result = _scl_forced(npos, edges)
    else:
        result = _scl_full_lp(npos, pairs, partners, edges)
    result.chain = chain
    return result


def _scl_forced(npos, edges):
    """All pair multiplicities forced to 1: count flow cycles directly."""
    # each position is in one pair, and prev is a bijection, so each gap is
    # the src of exactly one edge
    nxt = {src: dst for src, dst, _ in edges}
    discs = len(orbits(nxt, range(npos)))
    bands = len(edges) // 2
    value = Fraction(bands - discs, 2)
    return SclResult(value, "exact", method="forced")


def _scl_full_lp(npos, pairs, partners, edges):
    # variables: pair multiplicities, then coloured flows; no two edges share
    # (src, dst), since dst is the far end of the band and prev^-1(src) the
    # near end, and together they name the pair and the side it is crossed at;
    # edge (src, dst) has colours 0..min(src, dst) in consecutive columns
    nvar = len(pairs)
    firsts = []  # each edge's colour-0 column
    for src, dst, _ in edges:
        firsts.append(nvar)
        nvar += min(src, dst) + 1

    # each row is its sorted (column, coefficient) pairs
    rows = []
    rhs = []

    # coverage: each position is covered once
    for u in range(npos):
        rows.append([(pidx, 1) for pidx in partners[u]])
        rhs.append(1)

    # colour totals: sum of colours on a directed edge equals its pair weight
    for (src, dst, pidx), first in zip(edges, firsts):
        rows.append([(pidx, -1), *((first + c, 1) for c in range(min(src, dst) + 1))])
        rhs.append(0)

    # conservation of each colour at each eligible node: in-flow minus
    # out-flow.  Each node lists its in and out edges once, in edge order,
    # which is column order for every colour; no edge is a loop (words are
    # cyclically reduced), so no column is both in and out
    incident = [[] for _ in range(npos)]  # (colour-0 column, sign, top colour)
    for (src, dst, _), first in zip(edges, firsts):
        top = min(src, dst)
        incident[dst].append((first, 1, top))
        incident[src].append((first, -1, top))
    for colour in range(npos):
        for node in range(colour, npos):
            row = [(first + colour, sign) for first, sign, top in incident[node] if colour <= top]
            if row:
                rows.append(row)
                rhs.append(0)

    # objective: bands minus discs
    objective = [1] * len(pairs) + [0] * (nvar - len(pairs))
    for (src, dst, _), first in zip(edges, firsts):
        if src <= dst:
            objective[first + src] = -1

    result = solve_lp(objective, rows, rhs)
    if result.status != "optimal":
        raise ChainError(f"scl programme unexpectedly {result.status}")
    return SclResult(result.value / 2, "exact", lp=result, method="lp")


def scl_upper_from_surface(surface) -> Fraction:
    """Upper bound -chi^- / 2n from a monotone admissible surface."""
    if not surface.chain.terms:
        raise ComplexError("the surface bounds a chain with no terms")
    n = surface.uniform_degree()
    if n is None:
        raise ComplexError("surface degrees are not uniform across circles")
    if n <= 0:
        raise ComplexError("surface degree must be positive")
    return Fraction(-surface.reduced_euler(), 2 * n)


# -- rotation number via cellular area -------------------------------------
#
# Positive face weights w_f, in units of pi and totalling -2 chi, give S an
# area; rot(c) here is the area a cellular 1-boundary c encloses over 2 pi,
# that is sum w_f x_f / 2 for the 2-chain x with d2 x = c.  It is the
# rotation quasimorphism, of defect 1, only for weights in which the edge
# loops of c are geodesics.  H2(S; Q) = 0 makes x unique.  A complete
# collapse of S through its free edges certifies it, since each collapse
# step solves one face, and the same order then solves x for every c.  The
# area is one integer dot product: the weights are numerators over one
# denominator D, x is numerators over one denominator d, and one Fraction is
# formed at the end.


@dataclass
class RotStructure:
    """Per-face positive area weights, in units of pi, totalling -2 chi;
    nothing checks that they make any chain geodesic.

    Requires H2(S; Q) = 0, so a cellular 1-boundary has a unique bounding
    2-chain and the enclosed area is well defined.  The rows of d2, one per
    edge, are peeled once (``exactlin.peel``): each free edge solves the one
    face it has left, which is the cellular collapse of S through its free
    edges.  A complete collapse, which every surface with boundary has,
    solves every face, so rank d2 = #faces, i.e. H2(S; Q) = 0, with nothing
    eliminated; only the rows a collapse leaves are ranked, by
    ``homology._rank_torsion``, which ranks every boundary map.
    The order and the rows left are kept for ``rot_value``.  The weights,
    each an int or a Fraction, are kept as integer numerators over one
    denominator.
    """

    cx: TwoComplex
    weights: dict  # face id -> positive int or Fraction
    d2: list = field(init=False, repr=False, compare=False)  # edge rows {face index: count}
    order: list = field(init=False, repr=False, compare=False)  # (face index, edge row) solved in turn
    rest: dict = field(init=False, repr=False, compare=False)  # edge row -> its faces the collapse left
    area: list = field(init=False, repr=False, compare=False)  # per face index, over ``denominator``
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.d2, fs = d2_rows(self.cx)
        self.order, self.rest = peel(self.d2, len(fs))
        rank = len(self.order)
        if self.rest:
            rank += _rank_torsion(list(self.rest.values()), len(fs), "Q")[0]
        if rank != len(fs):
            raise ComplexError("rot structure needs H2(S; Q) = 0")
        if set(self.weights) != set(fs):
            raise ComplexError("rot structure must weight every face")
        weights = [self.weights[f] for f in fs]
        for f, w in zip(fs, weights):
            if not isinstance(w, (int, Fraction)):
                raise ComplexError(
                    f"area weight of face {self.cx.name('f', f)} is {w!r}, not an int or a Fraction"
                )
        self.denominator = lcm(*(w.denominator for w in weights))
        self.area = [w.numerator * (self.denominator // w.denominator) for w in weights]
        if any(a <= 0 for a in self.area):
            raise ComplexError("area weights must be positive")
        expected = -2 * self.cx.euler_characteristic()
        if sum(self.area) != expected * self.denominator:
            raise ComplexError(
                f"area weights total {Fraction(sum(self.area), self.denominator)} pi but -2 chi = {expected} pi"
            )


def default_rot_structure(cx: TwoComplex) -> RotStructure:
    """Weights proportional to (degree - 2), scaled to total -2 chi."""
    raw = {f: cx.degree(f) - 2 for f in cx.faces}
    total = sum(raw.values())
    if total <= 0 or any(v <= 0 for v in raw.values()):
        raise ComplexError("default weighting needs every face degree > 2")
    target = Fraction(-2 * cx.euler_characteristic())
    if target <= 0:
        raise ComplexError("rot needs a complex with negative Euler characteristic")
    weights = {f: Fraction(v) * target / total for f, v in raw.items()}
    return RotStructure(cx, weights)


def rot_value(structure: RotStructure, chain: EdgeChain) -> Fraction:
    """Enclosed area / 2 pi of a cellular 1-boundary c: rot(c) when the
    weights make the edge loops of c geodesics, and a bare area otherwise.

    The chain's edge vector b is substituted through the structure's
    collapse order, face by face, on integer numerators over one running
    denominator d, and the rows the collapse left are eliminated.  Each edge
    row that solved a face holds by construction, and every other one is
    checked against b, which certifies d2 x = b.  The area is then one
    integer dot product: sum of w_f x_f over 2 D d, with the weights w_f
    over their denominator D.  A chain with an edge that is not an edge of
    the structure's complex is refused, naming the edge.
    """
    cx = structure.cx
    outside = {e for _coeff, loop in chain.terms for e, _sign in loop} - cx.edges.keys()
    if outside:
        raise ComplexError(f"chain edge {min(outside)} is not an edge of the rot structure's complex")
    vec = chain.one_chain_vector()
    n = len(structure.area)
    rows = [{**row, n: vec[e]} if e in vec else row for row, e in zip(structure.d2, cx.edges)]
    sol = solve_peeled(rows, n, structure.order, structure.rest)
    if sol is None:
        raise ComplexError("chain is not a cellular 1-boundary")
    x, d = sol
    area = structure.area
    return Fraction(sum(area[k] * v for k, v in x.items()), 2 * structure.denominator * d)


@dataclass
class SandwichVerdict:
    lower: Fraction
    upper: Fraction | None
    exact: Fraction | None


def bavard_sandwich(structure: RotStructure, chain: EdgeChain, witness=None) -> SandwichVerdict:
    """Lower bound rot/2 against a witness bound.

    The witness must bound ``chain`` itself: its chain has the same terms,
    in order, each loop up to cyclic rotation.  rot/2 bounds scl only for
    weights that make the chain geodesic, so a lower bound above the
    witness's upper bound is refused.  When the bounds agree the value is
    certified independently of the LP.
    """
    if witness is not None and not (
        len(witness.chain.terms) == len(chain.terms)
        and all(
            c == d and cyclically_equal(loop, other)
            for (c, loop), (d, other) in zip(witness.chain.terms, chain.terms)
        )
    ):
        raise ComplexError(f"the witness bounds the chain {witness.chain.terms}, not {chain.terms}")
    lower = rot_value(structure, chain) / 2
    upper = None
    if witness is not None:
        upper = scl_upper_from_surface(witness)
        if lower > upper:
            raise ComplexError(
                f"rot lower bound {lower} exceeds the witness's upper bound {upper}: "
                "the area weights do not make the chain geodesic"
            )
    exact = lower if (upper is not None and upper == lower) else None
    return SandwichVerdict(lower=lower, upper=upper, exact=exact)


@dataclass
class InclusionReport:
    small: SclResult
    big: SclResult


def scl_compare_under_inclusion(chain: OneChain, ambient_basis) -> InclusionReport:
    """scl of the chain in its own free group and in a larger one.

    Any homomorphism is scl-nonincreasing, so the ambient value can never
    exceed the small one; for basis inclusions they agree, and the report
    asserts monotonicity while leaving equality to the caller's check.
    """
    big_chain = chain.in_basis(ambient_basis)
    small = scl_lp(chain)
    big = scl_lp(big_chain)
    if small.is_infinite != big.is_infinite:
        raise ChainError("chain is a boundary in only one of the two bases")
    if not small.is_infinite and big.value > small.value:
        raise ChainError("monotonicity of scl violated")
    return InclusionReport(small=small, big=big)
