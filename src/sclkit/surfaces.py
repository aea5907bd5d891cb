"""Transverse admissible surfaces over a cellulated surface.

A surface mapping to a 2-complex S in transverse form decomposes into

* vertex discs ("vpieces"): discs mapping to vertices, with a cyclic
  boundary of slots, each slot either the end of a 1-handle or a free arc
  lying on the boundary of the surface;
* 1-handles ("hpieces"): bands mapping onto edges, with two long sides
  (glued to cellular-disc sides or free) and two short ends glued to
  vertex-disc slots;
* cellular discs ("fpieces"): polygons mapping homeomorphically onto
  faces, carrying an orientation sign, with one side per position of the
  face's attaching word, each naming the handle it is glued to; the sign
  rule below picks the long side.

Each gluing is given once: a surface is built from its vertex discs, its
handles as a map from handle id to edge, and its cellular discs.  A
handle's ends are the slots that hold them and its long sides the disc
sides glued to them; ``hpieces`` holds the ``HPiece`` values read off that
way.

Both the surface and the target are oriented.  The target is a ``Target``,
a surface checked once to have a coherent positive orientation: the sum of
all its face words is a relative cycle.  Every piece's attaching word below
is its counterclockwise boundary, and these conventions make the
identifications canonical:

* vertex disc with m slots: corner points p_0..p_{m-1}; slot edge j runs
  p_j -> p_{j+1}; the disc's word is slot_0 ... slot_{m-1}.
* handle over e glued at slots (D, j) and (D', j'): the src end is the
  slot edge of (D, j) in the same direction, the tgt end is the slot edge
  of (D', j') reversed.  Its long edges run parallel to e: long0 from p_j
  to p_{j'+1}, long1 from p_{j+1} to p_{j'}; its word is
  long0 . slot(D',j')^-1 . long1^-1 . slot(D,j)^-1, so it traverses long0
  positively and long1 negatively.
* cellular disc over sigma with sign s: its word lists the long edges of
  the named handles in attaching-word order (reversed and inverted when
  s = -1).  The sign rule (``required_long_index``) puts a side with
  polygon sign -1 on its handle's long0 and a side with polygon sign +1 on
  its long1, so that the long edge cancels.

Validation runs on the pieces; no complex is assembled.  Given the
gluing, sign and long-index rules that ``_validate_pieces`` enforces, the
pieces form an oriented surface whose boundary is exactly the free items,
with one check left over:

* a vertex disc runs over each slot with sign +1, and a handle runs over
  both of its end slots with sign -1;
* a handle runs over long0 with sign +1 and long1 with sign -1; the sign
  rule puts a polygon side of polygon sign -1 on long0 and one of +1 on
  long1, and no long takes two polygon sides;
* so every glued item cancels, every free item is +-1, and the boundary
  is exactly the free items;
* a corner point's link has at most four half-edges: its two slot halves,
  plus at most one long half from each of the handles in the two slots
  beside it.  The vertex-disc corner joins the two slot halves, and each
  handle corner joins its slot half to its long half, so these corners
  make the link an arc.  A polygon corner joins two long halves, and each
  long half meets at most one polygon corner; when the two halves lie at
  one point they are the ends of its arc, which the corner closes into a
  circle.  So every link is a circle or an arc once each polygon corner
  joins two long halves at one point, which ``_check_corners`` checks.

The boundary circuits are then walked through the free items and their
words matched against the chain's circles.  Surfaces produced by
homotopy moves carry a 2-chain certificate instead of literal word
equality: the total boundary 1-chain minus the degree-weighted circle
1-chains must equal the boundary of the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ComplexError, Subcomplex, TwoComplex, surface_check
from .words import EdgeChain, cyclically_equal, one_chain, orbits, word_power


class SurfaceError(ValueError):
    """Invalid admissible-surface description."""


@dataclass(frozen=True)
class VPiece:
    vertex: int
    slots: tuple  # ("h", hpiece id, "s"|"t") or ("free",)


@dataclass(frozen=True)
class HPiece:
    edge: int
    longs: tuple  # two entries: ("f", fpiece id, side index) or ("free",)
    src: tuple  # (vpiece id, slot index)
    tgt: tuple


@dataclass(frozen=True)
class FPiece:
    face: int
    sign: int
    sides: tuple  # per word position: the hpiece id glued there; the sign rule picks its long side


FREE = ("free",)


def polygon_sign(fp: FPiece, word, position):
    return fp.sign * word[position][1]


def required_long_index(psign):
    # a handle traverses long0 positively and long1 negatively, so a
    # polygon side must traverse with the opposite sign
    return 0 if psign == -1 else 1


def corner_tokens(fp: FPiece, word, k):
    """(gap token, end token) of the disc's corner at word corner k.

    Tokens are handle slots ("h", hpiece id, "s"|"t").  The corner between
    polygon-consecutive sides X then Y satisfies succ(start slot of Y) =
    end slot of X, and the gap after the start slot is the corner point.
    A side names its handle, and its polygon sign picks the long side: a
    side of sign -1 lies on long0, which it traverses negatively, so it
    starts at the handle's tgt end and ends at its src end; a side of sign
    +1 lies on long1 and runs the other way round.  For a disc of sign -1
    the polygon runs through the word backwards, swapping the roles of the
    two sides at the corner.
    """
    deg = len(word)
    if fp.sign == 1:
        x_pos, y_pos = k, (k + 1) % deg
    else:
        x_pos, y_pos = (k + 1) % deg, k
    start = "t" if polygon_sign(fp, word, y_pos) == -1 else "s"
    end = "s" if polygon_sign(fp, word, x_pos) == -1 else "t"
    return ("h", fp.sides[y_pos], start), ("h", fp.sides[x_pos], end)


@dataclass(frozen=True)
class Circuit:
    items: tuple  # ("long", h, li, dir) | ("slot", vp, slot index, dir)
    word: tuple  # signed target edges read along the circuit
    circle: int | None
    degree: int


@dataclass
class StandardFormReport:
    disc_sphere_free: bool
    monotone: bool
    connected_links: bool
    non_folded: bool
    orientation_perfect: bool
    witnesses: dict


class Target(TwoComplex):
    """A coherently oriented cellulated surface, checked once by ``of``,
    which passes a ``Target`` through unchecked.  It shares the cells of the
    complex it is made from and keeps ``boundary_vertices`` (arc links) and
    ``boundary_edges`` (one face side)."""

    @classmethod
    def of(cls, cx: TwoComplex) -> Target:
        if isinstance(cx, Target):
            return cx
        report = surface_check(cx)
        if not report.is_surface:
            raise SurfaceError(f"target is not a surface: {report.witnesses}")
        target = cls.__new__(cls)
        target.__dict__.update(vars(cx))
        target.boundary_vertices = frozenset(report.boundary_vertices)
        target.boundary_edges = frozenset(e for e, n in cx.side_incidences().items() if n == 1)
        for e, total in cx.signed_incidences().items():
            if total and e not in target.boundary_edges:
                raise SurfaceError(
                    "target words are not coherently oriented: "
                    f"edge {cx.name('e', e)} has signed incidence {total}"
                )
        return target


class AdmissibleSurface:
    """A validated transverse admissible surface over a cellulated surface.

    ``target`` goes through ``Target.of``.  ``vpieces`` and ``fpieces`` map
    ids to ``VPiece`` and ``FPiece`` values, and ``handles`` maps each handle
    id to its edge.  Construction runs every check once and reads each
    handle's ends and long sides off the slots and disc sides that hold them,
    as ``hpieces``.

    ``assignments`` says which circle each lettered boundary circuit winds
    around, and how often:

    * None: match each circuit word against the chain's circles, as a
      power of one circle word;
    * a list of (anchor item, circle, degree) entries, as made by
      ``assignment_list``, with each anchor given once and lying on a
      boundary circuit;
    * a function of the raw boundary circuits, a list of (items, word)
      pairs, that returns such a list; moves carry the assignments of the
      surface they rewrite this way.

    With ``chain`` None the chain's terms are read off the boundary
    (``_infer_chain``), and the circuits are then matched against them like
    any other chain's.

    One rule certifies the boundary.  Without a ``homotopy`` certificate
    each lettered circuit reads its circle word to its degree, a nonzero
    one; with one, assignments must be given and the circuits may be any
    loops the certificate homotopes onto the circles.  ``_check_boundary``
    checks the 1-chain identities either way.
    """

    def __init__(
        self,
        target: TwoComplex,
        chain: EdgeChain,
        vpieces: dict,
        handles: dict,
        fpieces: dict,
        assignments=None,
        homotopy=None,
    ):
        self.target = target = Target.of(target)
        self.chain = chain
        self.vpieces = {k: vpieces[k] for k in sorted(vpieces)}
        self.fpieces = {k: fpieces[k] for k in sorted(fpieces)}
        self.homotopy = {f: c for f, c in (homotopy or {}).items() if c}
        self._validate_pieces(handles)
        self._check_corners()
        self._extract_circuits()
        if chain is None:
            self.chain = _infer_chain(target, self._raw_circuits)
        if callable(assignments):
            assignments = assignments(self._raw_circuits)
        self._resolve_assignments(assignments)
        self._check_boundary()
        self._find_components()
        self._find_link_runs()

    # -- validation ------------------------------------------------------

    def _validate_pieces(self, handles):
        """Check the pieces and read off each handle's gluing.

        A handle's ends are the slots that hold them, and each long side is
        the cellular-disc side glued to it, or FREE where no side is; each
        end must sit in exactly one slot, over the vertex its edge runs
        from or to, and each long side takes at most one disc side.
        """
        cx = self.target
        vertices = set(cx.vertices)
        ends = {}
        for vid, vp in self.vpieces.items():
            if vp.vertex not in vertices:
                raise SurfaceError(f"vertex disc {vid} maps to unknown vertex")
            if not vp.slots:
                raise SurfaceError(f"vertex disc {vid} has no slots")
            for j, slot in enumerate(vp.slots):
                if slot == FREE:
                    continue
                kind, hid, which = slot
                if kind != "h" or not _is_handle(hid, handles) or which not in ("s", "t"):
                    raise SurfaceError(f"disc {vid} slot {j} references a missing handle")
                if (hid, which) in ends:
                    raise SurfaceError(f"handle {hid} {which}-end is held by two slots")
                ends[(hid, which)] = (vid, j)
        longs = {}
        for hid in sorted(handles):
            if handles[hid] not in cx.edges:
                raise SurfaceError(f"handle {hid} maps to unknown edge")
            for which, vertex in zip("st", cx.edges[handles[hid]]):
                if (hid, which) not in ends:
                    raise SurfaceError(f"handle {hid} {which}-end is not placed on a slot")
                if self.vpieces[ends[(hid, which)][0]].vertex != vertex:
                    raise SurfaceError(
                        f"handle {hid} {which}-end sits on a disc over the wrong vertex"
                    )
            longs[hid] = [FREE, FREE]
        for fid, fp in self.fpieces.items():
            if fp.face not in cx.faces:
                raise SurfaceError(f"cellular disc {fid} maps to unknown face")
            if fp.sign not in (1, -1):
                raise SurfaceError(f"cellular disc {fid} has bad sign")
            word = cx.faces[fp.face]
            if len(fp.sides) != len(word):
                raise SurfaceError(
                    f"cellular disc {fid} must have {len(word)} sides"
                )
            for k, hid in enumerate(fp.sides):
                if not _is_handle(hid, handles):
                    raise SurfaceError(f"cellular disc {fid} side {k} references a missing handle")
                if handles[hid] != word[k][0]:
                    raise SurfaceError(
                        f"cellular disc {fid} side {k} glued to a handle over the wrong edge"
                    )
                li = required_long_index(polygon_sign(fp, word, k))
                if longs[hid][li] != FREE:
                    raise SurfaceError(f"handle {hid} long {li} is claimed by two disc sides")
                longs[hid][li] = ("f", fid, k)
        self.hpieces = {
            hid: HPiece(handles[hid], tuple(refs), ends[(hid, "s")], ends[(hid, "t")])
            for hid, refs in longs.items()
        }

    def _check_corners(self):
        """Every polygon corner closes at one vertex-disc corner point.

        By ``corner_tokens`` the slot after the start slot of the side a
        corner enters must be the end slot of the side it leaves.  The gap
        tokens are the covered gaps that ``_find_link_runs`` reads.
        """

        def slot_of(token):
            hp = self.hpieces[token[1]]
            return hp.src if token[2] == "s" else hp.tgt

        self._covered = set()
        for fid, fp in self.fpieces.items():
            word = self.target.faces[fp.face]
            for k in range(len(word)):
                start, end = corner_tokens(fp, word, k)
                vid, j = slot_of(start)
                if slot_of(end) != (vid, (j + 1) % len(self.vpieces[vid].slots)):
                    raise SurfaceError(
                        f"cellular disc {fid} corner {k} does not close at vertex disc {vid}"
                    )
                self._covered.add(start)

    def _extract_circuits(self):
        """Walk the free items into boundary circuits.

        The points are the vertex-disc corners (vid, j).  Slot j runs from
        (vid, j) to (vid, j+1).  For a handle glued at slots (D, j) and
        (D', j') the walk runs along long0 from (D, j) to (D', j'+1) and
        against long1 from (D', j') to (D, j+1): each free item is walked
        with the sign its piece gives it.
        """

        def after(vid, j):
            return vid, (j + 1) % len(self.vpieces[vid].slots)

        # each free item (kind, id, j, direction) runs from its tail point
        # to its head point, and each point is the tail of at most one item;
        # the circuits are the ``orbits`` of the items' successor map, from
        # the items in ``str`` order
        at = {}  # tail point -> free item
        head = {}  # free item -> head point
        for vid, vp in self.vpieces.items():
            n = len(vp.slots)
            for j, slot in enumerate(vp.slots):
                if slot == FREE:
                    at[vid, j] = item = ("slot", vid, j, 1)
                    head[item] = vid, (j + 1) % n
        for hid, hp in self.hpieces.items():
            if hp.longs[0] == FREE:
                at[hp.src] = item = ("long", hid, 0, 1)
                head[item] = after(*hp.tgt)
            if hp.longs[1] == FREE:
                at[hp.tgt] = item = ("long", hid, 1, -1)
                head[item] = after(*hp.src)
        succ = {item: at[point] for item, point in head.items()}
        circuits = []
        for items in orbits(succ, sorted(head, key=str)):
            word = [(self.hpieces[hid].edge, d) for kind, hid, _, d in items if kind == "long"]
            circuits.append((tuple(items), tuple(word)))
        circuits.sort(key=lambda c: min(c[0]))
        self._raw_circuits = circuits

    def _resolve_assignments(self, assignments):
        """Give each circuit its (circle, degree) from (anchor, circle,
        degree) entries.  With ``assignments`` None the entries are made
        here: each lettered circuit, anchored at its first item, is matched
        to the circle whose word it reads a power of."""
        circle_words = self.chain.circle_words()
        if assignments is None:
            assignments = []
            for items, word in self._raw_circuits:
                if not word:
                    continue
                if self.homotopy:
                    raise SurfaceError(
                        "homotoped boundaries need explicit circuit assignments"
                    )
                match = _match_circle(word, circle_words)
                if match is None:
                    raise SurfaceError(
                        f"boundary word {word} matches no circle of the chain"
                    )
                assignments.append((items[0][:-1], *match))
        by_anchor = {}
        for anchor, circle, degree in assignments:
            anchor = tuple(anchor)
            if anchor in by_anchor:
                raise SurfaceError(f"assignment anchor {anchor} is given twice")
            by_anchor[anchor] = (circle, degree)
        unplaced = set(by_anchor)
        resolved = []
        for items, word in self._raw_circuits:
            found = None
            for item in items:
                if item[:-1] in by_anchor:
                    unplaced.discard(item[:-1])
                    if found is not None and found != by_anchor[item[:-1]]:
                        raise SurfaceError("conflicting assignments on one circuit")
                    found = by_anchor[item[:-1]]
            if found is None:
                if word:
                    raise SurfaceError(f"circuit {items[0]} has no assignment")
                resolved.append(Circuit(items, word, None, 0))
            else:
                circle, degree = found
                if word and degree == 0 and not self.homotopy:
                    # without a homotopy certificate a lettered circuit
                    # must wind at least once around its circle
                    raise SurfaceError("lettered circuit assigned degree 0")
                resolved.append(Circuit(items, word, circle, degree))
        if unplaced:
            anchor = min(unplaced, key=str)
            raise SurfaceError(f"assignment anchor {anchor} lies on no boundary circuit")
        for circ in resolved:
            if circ.circle is not None and not (
                0 <= circ.circle < len(circle_words)
            ):
                raise SurfaceError(f"assignment to unknown circle {circ.circle}")
        self.circuits = tuple(resolved)

    def _check_boundary(self):
        """The circuit 1-chain must equal the degree-weighted circle
        1-chains plus the boundary of the homotopy certificate, and the
        pushforward boundary of the cellular discs."""
        circle_words = self.chain.circle_words()
        if not self.homotopy:
            for circ in self.circuits:
                if not circ.word:
                    self._check_constant_circuit(circ)
                    continue
                u = circle_words[circ.circle]
                if not cyclically_equal(circ.word, word_power(u, circ.degree)):
                    raise SurfaceError(
                        f"boundary word mismatch with chain: {circ.word} is not "
                        f"circle {circ.circle} to the power {circ.degree}"
                    )
        faces = self.target.faces
        words = one_chain((e, sign) for circ in self.circuits for e, sign in circ.word)
        if any(f not in faces for f in self.homotopy):
            raise SurfaceError("homotopy certificate uses an unknown face")
        expected = one_chain(
            [(e, circ.degree * sign) for circ in self.circuits if circ.circle is not None
             for e, sign in circle_words[circ.circle]]
            + [(e, c * sign) for f, c in self.homotopy.items() for e, sign in faces[f]]
        )
        if expected != words:
            raise SurfaceError(
                "boundary words do not match the chain, even up to the "
                "homotopy certificate"
            )
        pushed = one_chain((e, fp.sign * sign) for fp in self.fpieces.values() for e, sign in faces[fp.face])
        if pushed != words:
            raise SurfaceError("pushforward boundary disagrees with circuit words")

    def _check_constant_circuit(self, circ):
        vertices = {self.vpieces[item[1]].vertex for item in circ.items}
        if len(vertices) != 1:
            raise SurfaceError("letterless circuit touching several vertices")
        v = vertices.pop()
        if not self.chain.terms:
            return
        for _coeff, loop in self.chain.terms:
            for k in range(len(loop)):
                if self.target.endpoint(loop[k], 0) == v:
                    return
        raise SurfaceError(
            "constant boundary circuit at a vertex not visited by the chain"
        )

    def _find_components(self):
        """Components as frozensets of piece keys, in order of their least
        vertex disc, and their Euler characteristics; pieces never change,
        so once is enough.

        The union-find runs on vertex discs only: a handle joins its two
        vertex discs, and a cellular disc lies with its first handle (its
        closed corners put all its handles in one component).
        """
        parent = {vid: vid for vid in self.vpieces}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for hp in self.hpieces.values():
            rs, rt = find(hp.src[0]), find(hp.tgt[0])
            if rs != rt:
                parent[max(rs, rt)] = min(rs, rt)
        groups = {}
        for vid in self.vpieces:
            groups.setdefault(find(vid), set()).add(("v", vid))
        for hid, hp in self.hpieces.items():
            groups[find(hp.src[0])].add(("h", hid))
        for fid, fp in self.fpieces.items():
            groups[find(self.hpieces[fp.sides[0]].src[0])].add(("f", fid))
        comps = [frozenset(groups[root]) for root in sorted(groups)]
        self._components = tuple(comps)
        self._component_chis = tuple(
            sum(-1 if kind == "h" else 1 for kind, _ in comp) for comp in comps
        )

    def _find_link_runs(self):
        """Each vertex disc's link in the collapsed complex, as slot runs.

        Collapsing vertex discs to vertices and handles to edges makes a
        disc's handle slots the nodes of its link, and a polygon corner at
        the disc joins the two slots on either side of the gap it covers.
        A run is a maximal sequence of handle slots joined by covered gaps,
        so the runs are the link components.
        """
        covered = self._covered
        self._link_runs = {}
        for vid, vp in self.vpieces.items():
            slots = vp.slots
            handles = [j for j, slot in enumerate(slots) if slot != FREE]
            # walk from a slot after a free slot or an uncovered gap, so a
            # run through the last and first slots is not split; a disc
            # whose gaps are all covered is one run
            i = next((i for i, j in enumerate(handles) if slots[j - 1] not in covered), 0)
            runs = []
            for j in handles[i:] + handles[:i]:
                if not runs or slots[j - 1] not in covered:
                    runs.append([])
                runs[-1].append(j)
            self._link_runs[vid] = tuple(tuple(run) for run in runs)

    # -- analyses ----------------------------------------------------------

    def euler_characteristic(self):
        return len(self.vpieces) - len(self.hpieces) + len(self.fpieces)

    def piece_components(self):
        """Connected components as frozensets of piece keys ('v'|'h'|'f', id)."""
        return self._components

    def component_euler(self):
        """Euler characteristic per component, in piece_components order."""
        return self._component_chis

    def reduced_euler(self):
        return sum(min(0, chi) for chi in self.component_euler())

    def degree_vector(self):
        degs = [0] * len(self.chain.terms)
        for circ in self.circuits:
            if circ.circle is not None:
                degs[circ.circle] += circ.degree
        return degs

    def uniform_degree(self):
        """The common circle degree n, or None when degrees differ."""
        degs = self.degree_vector()
        return degs[0] if len(set(degs)) == 1 else None

    def two_chain(self):
        return one_chain((fp.face, fp.sign) for fp in self.fpieces.values())

    def reduced_class(self):
        """Exact fingerprint of the class in H2(S, c).

        A 2-complex target means the cone has no 3-chains, so the class of
        the surface is literally its cone cycle: the circle winding vector
        together with the 2-chain minus the homotopy certificate, the same
        coordinates as a degree-2 chain of ``homology.ConeComplex``.  Two
        surfaces over the same target and chain represent the same class
        iff these agree.
        """
        x = one_chain([*self.two_chain().items(), *((f, -c) for f, c in self.homotopy.items())])
        return tuple(self.degree_vector()), tuple(sorted(x.items()))

    def link_runs(self, vid):
        """The link components of a vertex disc in the collapsed complex,
        each a run of slot indices in slot order."""
        return self._link_runs[vid]

    def bar_link_components(self, vid):
        """Number of link components of a vertex disc in the collapsed complex."""
        return len(self._link_runs[vid])

    def standard_form_report(self) -> StandardFormReport:
        witnesses = {}
        comps = self.piece_components()
        chis = self.component_euler()
        bad = [i for i, chi in enumerate(chis) if chi > 0]
        disc_sphere_free = not bad
        if bad:
            witnesses["disc_sphere"] = [sorted(comps[i]) for i in bad]

        per_circle = {}
        for circ in self.circuits:
            if circ.circle is not None and circ.degree:
                per_circle.setdefault(circ.circle, []).append(circ.degree)
        monotone = True
        for circle, degs in per_circle.items():
            if any(d > 0 for d in degs) and any(d < 0 for d in degs):
                monotone = False
                witnesses.setdefault("monotone", []).append(circle)

        connected_links = True
        for vid in self.vpieces:
            if self.bar_link_components(vid) > 1:
                connected_links = False
                witnesses.setdefault("disconnected_link", []).append(vid)

        non_folded = True
        for comp in comps:
            signs = {self.fpieces[pid].sign for kind, pid in comp if kind == "f"}
            if len(signs) > 1:
                non_folded = False
                witnesses.setdefault("folded_component", []).append(sorted(comp))

        by_face = {}
        for fid, fp in self.fpieces.items():
            by_face.setdefault(fp.face, set()).add(fp.sign)
        orientation_perfect = True
        for face, signs in by_face.items():
            if len(signs) > 1:
                orientation_perfect = False
                witnesses.setdefault("orientation_mixed_face", []).append(face)

        report = StandardFormReport(
            disc_sphere_free=disc_sphere_free,
            monotone=monotone,
            connected_links=connected_links,
            non_folded=non_folded,
            orientation_perfect=orientation_perfect,
            witnesses=witnesses,
        )
        # orientation-perfect surfaces with connected links cannot be folded:
        # adjacent discs of opposite sign share a target face
        if orientation_perfect and connected_links and not non_folded:
            raise SurfaceError("perfect orientation with connected links must be non-folded")
        return report

    def image_cells(self):
        """Cells of the target hit by the surface, closed under boundaries."""
        cells = set()
        for vp in self.vpieces.values():
            cells.add(("v", vp.vertex))
        for hp in self.hpieces.values():
            cells.add(("e", hp.edge))
        for fp in self.fpieces.values():
            cells.add(("f", fp.face))
        return cells

    def assignment_list(self):
        """Anchor-based assignment entries reproducing self.circuits."""
        out = []
        for circ in self.circuits:
            if circ.circle is not None:
                out.append((circ.items[0][:-1], circ.circle, circ.degree))
        return out

    def __repr__(self):
        return (
            f"AdmissibleSurface({len(self.vpieces)} vertex discs, "
            f"{len(self.hpieces)} handles, {len(self.fpieces)} cellular discs, "
            f"chi={self.euler_characteristic()})"
        )


def _is_handle(hid, handles):
    """Whether ``hid`` names a handle; an unhashable id names none."""
    try:
        return hid in handles
    except TypeError:
        return False


def _match_circle(word, circle_words):
    for i, u in enumerate(circle_words):
        if not u or len(word) % len(u):
            continue
        d = len(word) // len(u)
        if cyclically_equal(word, word_power(u, d)):
            return i, d
        if cyclically_equal(word, word_power(u, -d)):
            return i, -d
    return None


# -- canonical decomposition of an embedded subsurface ----------------------


def subsurface_as_admissible(
    target: TwoComplex,
    cells,
    chain: EdgeChain,
    sign=1,
) -> AdmissibleSurface:
    """The inclusion of a subsurface T as a transverse admissible surface.

    cells: the cell set of T, (kind, id) pairs of kind "v", "e" or "f",
    grouped by kind into a ``Subcomplex`` of ``target``, which refuses an
    unknown kind, an unknown cell or a set that is not closed with a
    ``ComplexError``.  Every face is covered by one cellular disc carrying
    ``sign``; for sign = -1 the mirror surface traverses the chain
    backwards.

    T must be a surface, and that is read off the pieces as they are made,
    with no complex of T built:

    1. every edge of T lies on one or two sides of T's face words;
    2. every vertex of T lies under exactly one of the vertex discs that
       ``derive_vpieces`` reads off the corners.

    Together these are ``surface_check`` on T.  Each half-edge of an edge
    has the edge's side count as its link degree, so step 1 leaves no link
    node isolated or branched.  ``derive_vpieces`` joins the two handle-end
    tokens at each corner of T's faces, as the link does, and refuses a
    token with two successors or two predecessors, so each link component
    is one path or cycle, walked into one disc; a vertex on no edge of T
    gets none.  So step 2 asks that each link be one arc or circle.
    """
    if sign not in (1, -1):
        raise SurfaceError("sign must be +1 or -1")
    by_kind = {"v": set(), "e": set(), "f": set()}
    for kind, ident in cells:
        if kind not in by_kind:
            raise ComplexError(f"unknown cell kind {kind}")
        by_kind[kind].add(ident)
    sub = Subcomplex(target, *map(frozenset, by_kind.values()))

    handles = dict(enumerate(sorted(sub.edge_set)))
    hid_of_edge = {e: i for i, e in handles.items()}
    fpieces = {
        i: FPiece(f, sign, tuple(hid_of_edge[e] for e, _eps in target.faces[f]))
        for i, f in enumerate(sorted(sub.face_set))
    }
    sides = dict.fromkeys(handles, 0)
    for fp in fpieces.values():
        for hid in fp.sides:
            sides[hid] += 1
    for hid, n in sides.items():
        if not 1 <= n <= 2:
            where = f"{n} face sides" if n else "no face"
            raise SurfaceError(
                f"the chosen cells do not form a surface: edge {target.name('e', handles[hid])} "
                f"lies on {where} of them"
            )
    # the corners order the slots round each vertex disc
    vpieces = derive_vpieces(target, handles, fpieces)
    discs = dict.fromkeys(sorted(sub.vertex_set), 0)
    for vp in vpieces.values():
        discs[vp.vertex] += 1
    for v, n in discs.items():
        if n != 1:
            where = f"under {n} vertex discs" if n else "on no edge of them"
            raise SurfaceError(
                f"the chosen cells do not form a surface: vertex {target.name('v', v)} lies {where}"
            )
    return AdmissibleSurface(target, chain, vpieces, handles, fpieces)


def disjoint_union(*surfaces) -> AdmissibleSurface:
    """Disjoint union over a common target and chain."""
    if not surfaces:
        raise SurfaceError("disjoint union needs at least one surface")
    first = surfaces[0]
    for s in surfaces[1:]:
        if s.target is not first.target and s.target.faces != first.target.faces:
            raise SurfaceError("disjoint union needs a common target")
        if s.chain != first.chain:
            raise SurfaceError("disjoint union needs a common chain")
    vpieces, handles, fpieces = {}, {}, {}
    assignments = []
    voff = hoff = foff = 0
    for s in surfaces:
        hmap = {hid: hid + hoff for hid in s.hpieces}
        for vid, vp in s.vpieces.items():
            slots = tuple(
                FREE if slot == FREE else ("h", hmap[slot[1]], slot[2])
                for slot in vp.slots
            )
            vpieces[vid + voff] = VPiece(vp.vertex, slots)
        for hid, hp in s.hpieces.items():
            handles[hmap[hid]] = hp.edge
        for fid, fp in s.fpieces.items():
            fpieces[fid + foff] = FPiece(fp.face, fp.sign, tuple(hmap[hid] for hid in fp.sides))
        for anchor, circle, degree in s.assignment_list():
            # a lettered circuit starts at its least item, a long side
            assignments.append((("long", hmap[anchor[1]], anchor[2]), circle, degree))
        voff = max(vpieces, default=-1) + 1
        hoff = max(handles, default=-1) + 1
        foff = max(fpieces, default=-1) + 1
    return AdmissibleSurface(
        first.target,
        first.chain,
        vpieces,
        handles,
        fpieces,
        assignments=assignments,
        homotopy=one_chain(item for s in surfaces for item in s.homotopy.items()),
    )


def _infer_chain(target, circuits):
    """The chain whose terms the raw boundary circuits read.

    Each circuit word that is not a power of an earlier term, positive or
    negative, becomes a new term of coefficient 1; ``AdmissibleSurface``
    then matches the circuits to the terms as it does for any chain.  So a
    circuit reading a term backwards winds -1 times around it, and one
    reading a proper power of a term, k times, winds k times around it.
    Useful for constructing fixtures whose boundary words are easier to
    trace than to write down.
    """
    terms = []
    for _items, word in circuits:
        if word and _match_circle(word, terms) is None:
            terms.append(word)
    return EdgeChain.make(target, [(1, w) for w in terms])


def derive_vpieces(target, handles, fpieces):
    """Vertex discs implied by the cellular discs' corner adjacencies.

    ``handles`` maps each handle id to its edge.  Every polygon corner
    forces one slot to follow another around a vertex disc; the chains and
    cycles of that successor relation are the vertex discs, with one free
    arc closing each open chain.  Handle ends touching no corner become
    their own two-slot discs (end plus free arc).  The discs are the
    ``orbits`` of the successor map from the chain heads, then from every
    token, in handle order; a disc's id and slot rotation follow that order.
    A disc lies over its first end's vertex: ``AdmissibleSurface`` refuses
    an end over any other.
    """
    succ = {}
    pred = set()
    for fp in fpieces.values():
        word = target.faces[fp.face]
        for k in range(len(word)):
            start, end = corner_tokens(fp, word, k)
            # each token names one long side, and each side starts one
            # corner and ends another; so no token has two predecessors,
            # and a walk from a head never meets a token already walked
            if start in succ or end in pred:
                raise SurfaceError("two disc sides claim one handle long side")
            succ[start] = end
            pred.add(end)
    tokens = [("h", hid, end) for hid in sorted(handles) for end in ("s", "t")]
    heads = [tok for tok in tokens if tok not in pred]
    vpieces = {}
    for walk in orbits(succ, heads + tokens):
        _, hid, end = walk[0]
        vertex = target.edges[handles[hid]][0 if end == "s" else 1]
        # a chain ends at a token with no successor, a cycle before its head
        vpieces[len(vpieces)] = VPiece(vertex, tuple(walk if walk[-1] in succ else walk + [FREE]))
    return vpieces
