"""Exact cellular homology of finite 2-complexes.

Coefficients are Z or Q, selected by the ring tag "Z" / "Q".  Z carries
torsion via Smith normal form; Q is rank data only.  The homology of a
pair (X, c), where c is an integral 1-chain of loops on the 1-skeleton,
is computed through the algebraic mapping cone of the chain map from a
disjoint union of circles into X.  Each circle has one vertex and one
edge, and the edge of a term (n, w) maps to the loop word w^n, so a
degree-2 cone chain is a winding per circle together with a 2-chain of X:
the coordinates of ``AdmissibleSurface.reduced_class``.

Boundary maps are built sparsely, in one form each, from the face words
and the edge ends.  ``d2_rows`` reads d2, absolute or rel Y, straight
off the face words as one {face index: coefficient} row per edge, at
most deg(f) nonzeros per face; homology, the cone, the orientation
witness, the support lemma and the rot structure all read these rows,
which are the form ``kernel_q`` and ``solve_q`` take, so d2 is never
transposed.  ``_d1_edges`` builds d1 as one {vertex index: +-1} per
edge, the rows of its transpose, which has the same rank and invariant
factors (only ``boundary_matrices`` lays it out as vertex rows).  No
map is checked where it is built: d1 d2 = 0, rel every Y, is the face
words closing up, each side starting where the one before it ends, which
a ``TwoComplex`` checks once when it is built
(``TwoComplex.open_position``), and the square of the cone's differential
vanishes because ``EdgeChain.make`` checks every loop of the chain the
same way.  No dense boundary matrix is ever formed.

Rank and torsion.  Every map is ranked by one routine, ``_rank_torsion``:
a contraction of its unit rows (``_contract``), which leaves a residual
R, the rows left over the columns they touch, written out dense.  Every
merge and every forced class is a unit pivot, so the map is equivalent
over Z to I_k + R: rank = k + rank R, and the invariant factors are k
ones followed by those of R.  Over Z the torsion is read from
``smith_normal_form(R)``, checked to give U R V = D; over Q the rank is
``rank_q(R)``.  Nothing is left to reduce in d1, an incidence matrix
whose every edge row ties two vertices with +-1 or has one end outside
(in Y, or a cone circle's missing end), nor in d2 of a surface that has
boundary or is orientable.  A closed non-orientable surface leaves one
row {k: +-2} per component: RP^2 leaves R = [[2]], which is its Z/2.

Contraction.  A row {f: a, g: b} with a, b = +-1 says x_g = -a b x_f; one
pass of a signed union-find over these rows merges the columns into
classes, and a one-entry row {f: +-1} forces its class to 0.  Each merge
and each forcing is a unit pivot, so what is left is the other rows,
rewritten over one column per class left free: edges on three or more
face sides, non-unit entries (RP^2's {0: 2}), and rows that close a cycle
inside a class, which vanish or, with the other sign, become {k: +-2} (a
Moebius band).  The rank is the number of columns less the classes left
free, plus the rank of those rows.  The support lemma needs only
rank H2(X, Y), the number of faces outside Y less the rank of d2 rel Y.

Orientation witness.  ``is_orientable`` looks for a 2-cycle rel boundary
that is nonzero on every face, in integers, and returns it as a plain
{face id: int} dict.  It reads the same contraction.  On a surface no row
is left, so the kernel has one vector per class left free, on disjoint
supports, and the witness is the contraction's sign on each face, with
no kernel solved.  Rows that are left reach ``kernel_q``, whose basis is
integral; the basis vectors are summed with weights 1, B, B^2, ..., for
B one more than their largest |entry|, which cancels no face that some
basis vector is nonzero on.

Collapse.  The exact solvers peel singletons before they eliminate (see
``exactlin``).  On a surface with boundary the free edges, those on one
face side only, are d2's singleton rows: peeling one removes its face,
which frees the face's other edges, so the peel is the cellular collapse
of the surface through its boundary.  ``scl.RotStructure`` keeps the
collapse order to solve every chain it is given.

Every guard here raises ``HomologyError`` (a ``ComplexError``), so the
checks also run under ``python -O``; a malformed chain of loops is
refused by ``EdgeChain.make`` with a ``ChainError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import ComplexError, Subcomplex, TwoComplex, boundary_subcomplex
from .exactlin import check_snf, kernel_q, rank_q, smith_normal_form
from .words import EdgeChain, one_chain


class RingError(ValueError):
    pass


class HomologyError(ComplexError):
    """A homology result failed one of its own consistency checks."""


def check_ring(ring):
    if ring not in ("Z", "Q"):
        raise RingError(f"ring must be 'Z' or 'Q', got {ring!r}")


def _add(col, i, c):
    """col[i] += c, dropping the entry when it cancels."""
    x = col.get(i, 0) + c
    if x:
        col[i] = x
    else:
        col.pop(i, None)


def _d1_edges(cx: TwoComplex, sub: Subcomplex | None = None):
    """(d1, vs): d1 of C_*(X), or of C_*(X)/C_*(Y) for Y = ``sub``, as one
    {vertex index: +-1} per edge outside Y, in ascending edge id: +1 at its
    target and -1 at its source, an end in Y left out, and a loop empty.
    ``vs`` lists the vertices outside Y in ascending id.
    """
    vs = [v for v in cx.vertices if sub is None or v not in sub.vertex_set]
    vix = {v: i for i, v in enumerate(vs)}
    d1 = []
    for e, (s, t) in cx.edges.items():
        if sub is None or e not in sub.edge_set:
            col = {}
            if t in vix:
                col[vix[t]] = 1
            if s in vix:
                _add(col, vix[s], -1)
            d1.append(col)
    return d1, vs


def d2_rows(cx: TwoComplex, sub: Subcomplex | None = None):
    """(rows, fs): d2 of C_*(X), or of C_*(X)/C_*(Y) for Y = ``sub``, as one
    sparse row {face index: signed side count} per edge outside Y, in
    ascending edge id, with one column per face of ``fs``, the faces outside
    Y in ascending id.

    The rows are read straight off the face words, each face adding its
    signed sides to the rows of their edges, so each row lists its columns
    in ascending order; only a row that one face meets twice can cancel to
    a zero entry, which is then dropped.  No d1 is built: a ``TwoComplex``
    checks that every face word closes up, which is d1 d2 = 0.
    """
    eix = {e: i for i, e in enumerate(e for e in cx.edges if sub is None or e not in sub.edge_set)}
    fs = [f for f in cx.faces if sub is None or f not in sub.face_set]
    faces = cx.faces
    rows = [{} for _ in eix]
    repeated = []
    for j, f in enumerate(fs):
        for e, sign in faces[f]:
            i = eix.get(e)
            if i is not None:
                row = rows[i]
                if j in row:
                    row[j] += sign
                    repeated.append(i)
                else:
                    row[j] = sign
    for i in repeated:
        if not all(rows[i].values()):
            rows[i] = {j: c for j, c in rows[i].items() if c}
    return rows, fs


def boundary_matrices(cx: TwoComplex):
    """(d2, d1) with d1 * d2 = 0, as integer sparse rows.

    d2 has one row per edge, {face index: signed side count}; d1 has one
    row per vertex, {edge index: +1 at the target, -1 at the source}.  Rows
    and columns are indexed in ascending cell id, and zero entries are left
    out, so these are exactly the rows that ``kernel_q`` and ``solve_q``
    take, with len(cx.faces) and len(cx.edges) columns.
    """
    d2, _ = d2_rows(cx)
    d1, vs = _d1_edges(cx)
    rows = [{} for _ in vs]
    for j, col in enumerate(d1):
        for i, c in col.items():
            rows[i][j] = c
    return d2, rows


@dataclass
class HomologySummary:
    """Betti numbers per degree, with invariant-factor torsion over Z."""

    ring: str
    ranks: tuple  # (b0, b1, b2)
    torsion: tuple = ((), (), ())  # per degree, Z only

    def rank(self, n):
        return self.ranks[n] if 0 <= n < len(self.ranks) else 0

    def torsion_of(self, n):
        return self.torsion[n] if 0 <= n < len(self.torsion) else ()

    def is_zero(self, n):
        return self.rank(n) == 0 and not self.torsion_of(n)

    def describe(self):
        parts = []
        for n in range(len(self.ranks)):
            t = "".join(f" + Z/{d}" for d in self.torsion_of(n))
            base = f"{self.ring}^{self.rank(n)}" if self.ring == "Q" else f"Z^{self.rank(n)}"
            parts.append(f"H{n} = {base}{t}")
        return "; ".join(parts)


def _contract(rows, ncols):
    """Contract columns across the rows that tie two of them with units.

    ``rows`` are sparse rows {column: int} without zeros, over ``ncols``
    columns.  A row {f: a, g: b} with a, b = +-1 and f, g in different
    classes says x_g = -a b x_f and joins the two classes in a signed
    union-find; a row {f: +-1} forces the class of f to 0.  Every other
    row is rewritten over the classes that are left, one column each, and
    kept unless it vanishes.

    Returns (column_class, rest, k): per column (class, sign), or (None, 0)
    in a class forced to 0, and the rewritten rows over k columns.  Each
    merge and each forcing is a unit pivot, so the kernel of ``rows`` is
    exactly {x : x_f = sign * y[class]} for y in the kernel of ``rest``, the
    rank is ncols - k + rank(rest), and the invariant factors are ncols - k
    ones followed by those of ``rest``.
    """
    parent = list(range(ncols))
    sign = [1] * ncols  # x_j = sign[j] * x_parent[j]
    size = [1] * ncols
    zero = [False] * ncols  # at a root: the class is forced to 0

    def find(j):
        """(root of j, x_j / x_root); union by size keeps the walk short."""
        s = 1
        while parent[j] != j:
            s *= sign[j]
            j = parent[j]
        return j, s

    rest = []
    for row in rows:
        if len(row) == 1:
            ((f, a),) = row.items()
            if a * a == 1:
                zero[find(f)[0]] = True
                continue
        elif len(row) == 2:
            (f, a), (g, b) = row.items()
            if a * a == 1 and b * b == 1:
                (rf, sf), (rg, sg) = find(f), find(g)
                s = -a * b * sf * sg  # x_rg = s * x_rf
                if rf != rg:
                    if size[rf] < size[rg]:
                        rf, rg = rg, rf
                    parent[rg], sign[rg] = rf, s
                    size[rf] += size[rg]
                    zero[rf] = zero[rf] or zero[rg]
                    continue
                if s == 1:  # the row vanishes over the class
                    continue
        rest.append(row)

    columns = {}
    column_class = []
    for j in range(ncols):
        r, s = find(j)
        column_class.append((None, 0) if zero[r] else (columns.setdefault(r, len(columns)), s))
    rewritten = []
    for row in rest:
        new = {}
        for j, a in row.items():
            k, s = column_class[j]
            if k is not None:
                _add(new, k, s * a)
        if new:
            rewritten.append(new)
    return column_class, rewritten, len(columns)


def _rank_torsion(rows, ncols, ring):
    """(rank, torsion) of the map with the given sparse rows over ``ncols``
    columns; the torsion (invariant factors > 1) is () over Q.

    The rows are contracted (``_contract``), and the rows left, written out
    dense over the columns they touch, are the residual R.  Over Z the
    Smith normal form of R is checked, U R V = D, before it is read."""
    _, rest, k = _contract(rows, ncols)
    at = {c: j for j, c in enumerate(sorted(set().union(*rest)))}
    residual = []
    for row in rest:
        dense = [0] * len(at)
        for c, v in row.items():
            dense[at[c]] = v
        residual.append(dense)
    if ring == "Q":
        return ncols - k + rank_q(residual), ()
    snf = smith_normal_form(residual)
    check_snf(residual, snf)
    return ncols - k + snf.rank, tuple(snf.torsion)


def _complex_homology(cx: TwoComplex, sub: Subcomplex | None, ring):
    """Homology of C_*(X), or of C_*(X)/C_*(Y) for Y = ``sub``, over ``ring``."""
    d2, fs = d2_rows(cx, sub)
    d1, vs = _d1_edges(cx, sub)
    r2, t1 = _rank_torsion(d2, len(fs), ring)
    r1, t0 = _rank_torsion(d1, len(vs), ring)
    ranks = (len(vs) - r1, len(d1) - r1 - r2, len(fs) - r2)
    if ring == "Q":
        return HomologySummary("Q", ranks)
    # the torsion of Hn is that of the invariant factors of d(n+1); the top
    # degree is a subgroup of a free module, so it has none
    return HomologySummary("Z", ranks, (t0, t1, ()))


def homology(cx: TwoComplex, ring="Z") -> HomologySummary:
    check_ring(ring)
    return _complex_homology(cx, None, ring)


def _check_lives_in(cx: TwoComplex, sub: Subcomplex):
    """Refuse a subcomplex whose cells are not cells of ``cx``; one of a
    rebuilt complex with the same cell ids passes."""
    if sub.parent is not cx and not (
        sub.vertex_set <= set(cx.vertices)
        and sub.edge_set <= set(cx.edges)
        and sub.face_set <= set(cx.faces)
    ):
        raise ComplexError("subcomplex does not live in the given complex")


def relative_homology(cx: TwoComplex, sub: Subcomplex, ring="Z") -> HomologySummary:
    """Homology of the quotient chain complex C_*(X)/C_*(Y)."""
    check_ring(ring)
    _check_lives_in(cx, sub)
    return _complex_homology(cx, sub, ring)


# -- mapping cone of a chain of loops -------------------------------------


@dataclass
class ConeComplex:
    """Algebraic mapping cone of circles -> X for a chain of loops.

    Degree n of the cone is C_(n-1)(circles) + C_n(X); the differential is
    (a, x) -> (-d a, d x - gamma a).  Each circle has one vertex and one
    edge, so a degree-2 chain is a winding per circle followed by a 2-chain
    of X.  With no 3-cells anywhere, H2 of the cone is exactly the kernel
    of its degree-2 differential.  ``kernel_basis`` holds that kernel's
    basis from ``kernel_q``: integral cone 2-cycles, each a winding per
    circle and a 2-chain of X, like ``AdmissibleSurface.reduced_class``.
    It spans H2(X, c; Q); as integer vectors it need not span the lattice.
    """

    circles: int  # one per chain term; the first coordinates of a 2-chain
    kernel_basis: list  # integral cone 2-cycles, a basis of H2(X, c; Q)
    summary: HomologySummary

    def boundary_degrees(self, coords):
        """Image of a class (in kernel-basis coordinates) in H1 of the circles."""
        if len(coords) != len(self.kernel_basis):
            raise HomologyError(
                f"{len(coords)} coordinates for a kernel basis of {len(self.kernel_basis)} vectors"
            )
        degs = [0] * self.circles
        for c, vec in zip(coords, self.kernel_basis):
            degs = [d + c * x for d, x in zip(degs, vec)]
        return degs


def cone_complex(cx: TwoComplex, terms) -> ConeComplex:
    """Build the mapping cone for the chain with the given (coeff, loop) terms.

    The cone has one circle per term, whose one edge maps to the loop word
    w^n of its term (n, w), read off ``EdgeChain.make(cx, terms)``: that is
    where a loop is refused, with a ``ChainError``, unless it is a nonempty
    closed edge path of ``cx`` with signs +-1, so the cone's differential
    squares to 0.  The cone checks one thing itself: a term with
    coefficient 0, which would leave its circle without a word, is refused.

    The summary carries H_*(X, c; Q); the connecting map to H1 of the
    circles is available through ConeComplex.boundary_degrees.
    """
    terms = list(terms)
    if any(coeff == 0 for coeff, _loop in terms):
        raise ComplexError("chain term with zero coefficient")
    words = EdgeChain.make(cx, terms).circle_words()
    rows, fs = d2_rows(cx)
    d1x, vs = _d1_edges(cx)
    k = len(words)

    # degree 2: columns circle edges then X faces; rows circle vertices,
    # left out since no column meets them (a one-edge loop has d = 0), then
    # X edges.  So the rows are X's, shifted by k, with -gamma in the circle
    # columns.
    d2 = [{k + j: c for j, c in row.items()} for row in rows]
    eix = {e: i for i, e in enumerate(cx.edges)}
    for c, word in enumerate(words):
        for e, sign in word:
            _add(d2[eix[e]], c, -sign)
    # degree 1: circle vertices then X edges; rows X vertices.  -gamma_0
    # sends a circle's vertex to the start of its word.
    vix = {v: i for i, v in enumerate(vs)}
    d1 = [{vix[cx.endpoint(word[0], 0)]: -1} for word in words]
    d1.extend(d1x)

    rows2, cols2, rows1 = k + len(d2), k + len(fs), len(vs)
    kernel = kernel_q(d2, cols2)
    # certificate: every kernel vector is a cone 2-cycle
    for vec in kernel:
        if any(sum(c * vec[j] for j, c in row.items()) for row in d2):
            raise HomologyError("cone kernel vector is not a cycle")
    r2 = cols2 - len(kernel)
    r1 = _rank_torsion(d1, rows1, "Q")[0]
    summary = HomologySummary("Q", (rows1 - r1, rows2 - r1 - r2, cols2 - r2))
    return ConeComplex(circles=k, kernel_basis=kernel, summary=summary)


# -- orientability ---------------------------------------------------------


def is_orientable(cx: TwoComplex):
    """A 2-cycle rel boundary supported on every face, as {face id: int},
    or None when there is none.

    Such a cycle is an orientation, and one exists over Z exactly when one
    exists over Q: scale a rational one by the lcm of its denominators.
    The cycles of d2 rel boundary are found by contracting faces across
    every edge that ties two of them (``_contract``); with no row left,
    each face's coefficient is its sign in its class, +-1.  Otherwise the
    rows the contraction leaves go to ``kernel_q``, over one unknown per
    class of faces, and its integer basis is combined so that no face is
    cancelled.
    """
    return _orientation_witness(cx, boundary_subcomplex(cx))


def _orientation_witness(cx: TwoComplex, bsub: Subcomplex):
    """``is_orientable`` with the boundary subcomplex ``bsub`` of ``cx``
    already at hand."""
    rows, fs = d2_rows(cx, bsub)
    face_class, rest, k = _contract(rows, len(fs))
    if rest:
        # sum B^i v_i with B = M + 1, M the largest |entry| of the basis v:
        # where v_i is the last vector nonzero on a class, the earlier ones
        # add up to at most M (B^i - 1) / (B - 1) < B^i in absolute value
        kernel = kernel_q(rest, k)
        base = 1 + max((abs(x) for vec in kernel for x in vec), default=0)
        combo = [0] * k
        w = 1
        for vec in kernel:
            for c, x in enumerate(vec):
                combo[c] += w * x
            w *= base
    else:
        # the kernel has one vector per class, on disjoint supports
        combo = [1] * k
    if any(col is None or not combo[col] for col, _ in face_class):
        return None
    witness = {f: s * combo[col] for f, (col, s) in zip(fs, face_class)}
    _assert_orientation_witness(cx, witness, bsub)
    return witness


def _assert_orientation_witness(cx: TwoComplex, witness, bsub: Subcomplex):
    """Refuse a {face id: int} ``witness`` that misses a face or whose
    boundary has an edge outside ``bsub``."""
    if set(witness) != set(cx.faces) or not all(witness.values()):
        raise HomologyError("witness must be supported on every face")
    totals = one_chain((e, sign * c) for f, c in witness.items() for e, sign in cx.faces[f])
    if not set(totals) <= bsub.edge_set:
        raise HomologyError("witness boundary leaks outside the complex boundary")


@dataclass
class SupportVerdict:
    ok: bool
    kind: str  # 'contains-all-faces' | 'hypothesis-fails'
    h2_rank: int = 0


def check_support_lemma(cx: TwoComplex, sub: Subcomplex) -> SupportVerdict:
    """Orientable X with boundary(X) <= Y <= X and H2(X, Y) = 0 forces Y
    to contain every 2-cell of X.

    Verifies the preconditions, then either asserts the conclusion or
    reports the nonvanishing H2 rank.  H2 of a 2-complex pair is free and an
    orientation exists over Z exactly when it exists over Q, so the verdict
    needs no ring: rank H2(X, Y) is the number of faces outside Y less the
    rank of d2 rel Y (``_rank_torsion``), and no d1 is built.
    """
    _check_lives_in(cx, sub)
    bsub = boundary_subcomplex(cx)
    if not bsub.is_subset_of(sub):
        raise ComplexError("precondition: boundary of X must lie in Y")
    if _orientation_witness(cx, bsub) is None:
        raise ComplexError("precondition: X must be orientable")
    rows, fs = d2_rows(cx, sub)
    h2_rank = len(fs) - _rank_torsion(rows, len(fs), "Q")[0]
    if not h2_rank:
        missing = sorted(set(cx.faces) - sub.face_set)
        if missing:
            raise HomologyError(f"support lemma violated: faces {missing} escape Y")
        return SupportVerdict(True, "contains-all-faces")
    return SupportVerdict(False, "hypothesis-fails", h2_rank=h2_rank)


# -- chain file format -----------------------------------------------------


def parse_chain_file(text, cx: TwoComplex, kind="f", ring="Z"):
    """Lines '<coeff> <cell name>' into {cell id: coefficient} over cells of
    one kind, without zeros; a coefficient is an int over Z, a Fraction
    over Q, and the lines of one cell add up."""
    check_ring(ring)
    lookup = {"v": cx.vertex_id, "e": cx.edge_id, "f": cx.face_id}.get(kind)
    if lookup is None:
        raise ComplexError(f"kind must be 'v', 'e' or 'f', got {kind!r}")
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ComplexError(f"line {lineno}: want '<coeff> <cell>'")
        try:
            c = int(parts[0]) if ring == "Z" else Fraction(parts[0])
        except (ValueError, ZeroDivisionError):
            number = "an integer" if ring == "Z" else "a rational number"
            raise ComplexError(f"line {lineno}: coefficient {parts[0]!r} is not {number}") from None
        pairs.append((lookup(parts[1]), c))
    return one_chain(pairs)


def print_homology(summary: HomologySummary) -> str:
    lines = []
    for n in (0, 1, 2):
        line = f"H{n} rank {summary.rank(n)}"
        tor = summary.torsion_of(n)
        if tor:
            line += " torsion " + ",".join(str(d) for d in tor)
        lines.append(line)
    return "\n".join(lines) + "\n"
