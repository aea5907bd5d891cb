"""Finite combinatorial 2-complexes.

A complex is given by vertices, directed edges, and faces attached along
closed edge paths written as words of signed edges.  A signed edge
``(e, +1)`` is traversed from source to target, ``(e, -1)`` backwards.
Cells are identified by opaque integer ids assigned in input order; names
are kept alongside for I/O.  All iteration is in ascending id order, so
every derived object is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class ComplexError(ValueError):
    """Malformed complex description."""


def inv(signed):
    return (signed[0], -signed[1])


class TwoComplex:
    """Immutable finite 2-complex with combinatorial attaching maps."""

    def __init__(self, vertices, edges, faces, names=None):
        """Build and validate.

        vertices: iterable of vertex ids.
        edges:    dict id -> (source id, target id).
        faces:    dict id -> tuple of signed edges (edge id, +1/-1).
        names:    optional dict ('v'|'e'|'f', id) -> str.
        """
        self.vertices = tuple(sorted(vertices))
        self.edges = {e: tuple(edges[e]) for e in sorted(edges)}
        self.faces = {f: tuple(tuple(se) for se in faces[f]) for f in sorted(faces)}
        self.names = dict(names or {})
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ComplexError("duplicate vertex id")
        for e, (s, t) in self.edges.items():
            if s not in vset or t not in vset:
                raise ComplexError(f"edge {self.name('e', e)} has dangling endpoint")
        for f, word in self.faces.items():
            if not word:
                raise ComplexError(f"face {self.name('f', f)} has empty attaching word")
            for e, sign in word:
                if e not in self.edges:
                    raise ComplexError(f"face {self.name('f', f)} uses unknown edge {e}")
                if sign not in (1, -1):
                    raise ComplexError(f"face {self.name('f', f)} has bad sign {sign}")
            k = self.open_position(word)
            if k is not None:
                raise ComplexError(f"face {self.name('f', f)} does not close at position {k}")

    # -- construction helpers -------------------------------------------

    @classmethod
    def build(cls, vertices, edges, faces):
        """Build from named data.

        vertices: list of names; edges: list of (name, src, dst);
        faces: list of (name, [(edge name, sign), ...]).
        """
        vid = {name: i for i, name in enumerate(vertices)}
        if len(vid) != len(vertices):
            raise ComplexError("duplicate vertex name")
        eid = {}
        edict = {}
        names = {}
        for i, name in enumerate(vertices):
            names[("v", i)] = name
        for i, (name, s, t) in enumerate(edges):
            if name in eid:
                raise ComplexError(f"duplicate edge name {name}")
            if s not in vid or t not in vid:
                raise ComplexError(f"edge {name} has dangling endpoint")
            eid[name] = i
            edict[i] = (vid[s], vid[t])
            names[("e", i)] = name
        fdict = {}
        fseen = set()
        for i, (name, word) in enumerate(faces):
            if name in fseen:
                raise ComplexError(f"duplicate face name {name}")
            fseen.add(name)
            try:
                fdict[i] = tuple((eid[e], sign) for e, sign in word)
            except KeyError as exc:
                raise ComplexError(f"face {name} uses unknown edge {exc.args[0]}") from exc
            names[("f", i)] = name
        return cls(range(len(vertices)), edict, fdict, names)

    def name(self, kind, ident):
        return self.names.get((kind, ident), f"{kind}{ident}")

    def vertex_id(self, name):
        for v in self.vertices:
            if self.name("v", v) == name:
                return v
        raise ComplexError(f"unknown vertex {name}")

    def edge_id(self, name):
        for e in self.edges:
            if self.name("e", e) == name:
                return e
        raise ComplexError(f"unknown edge {name}")

    def face_id(self, name):
        for f in self.faces:
            if self.name("f", f) == name:
                return f
        raise ComplexError(f"unknown face {name}")

    # -- basic structure -------------------------------------------------

    def endpoint(self, signed, which):
        """Endpoint of a signed edge: which=0 start, which=1 end."""
        e, sign = signed
        s, t = self.edges[e]
        if sign == 1:
            return t if which else s
        return s if which else t

    def open_position(self, word):
        """The first position k at which side k of the nonempty edge
        ``word`` does not end where side k + 1, cyclically, starts; None
        when the word is a closed edge path.  As in ``endpoint``, a side of
        sign 1 runs from its edge's source to its target, any other back."""
        edges = self.edges
        e, sign = word[0]
        start = here = edges[e][sign != 1]
        for k, (e, sign) in enumerate(word):
            s, t = edges[e]
            if sign != 1:
                s, t = t, s
            if s != here:
                return k - 1
            here = t
        return None if here == start else len(word) - 1

    def degree(self, f):
        return len(self.faces[f])

    def side_incidences(self):
        """Edge id -> number of face sides glued to it, counted with
        multiplicity, from one pass over the face words."""
        counts = dict.fromkeys(self.edges, 0)
        for word in self.faces.values():
            for e, _ in word:
                counts[e] += 1
        return counts

    def signed_incidences(self):
        """Edge id -> sum of the signs with which the face words run over
        it; zero on every edge when the faces form a cycle."""
        counts = dict.fromkeys(self.edges, 0)
        for word in self.faces.values():
            for e, sign in word:
                counts[e] += sign
        return counts

    # -- invariants ------------------------------------------------------

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def cells(self):
        out = [("v", v) for v in self.vertices]
        out += [("e", e) for e in self.edges]
        out += [("f", f) for f in self.faces]
        return out

    def __repr__(self):
        return (
            f"TwoComplex({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, {len(self.faces)} faces)"
        )


@dataclass(frozen=True)
class LinkGraph:
    """Link of a vertex: a multigraph on oriented half-edges.

    Each corner of a face word passing through the vertex contributes one
    edge between the inverse of the incoming side and the outgoing side,
    tagged by (face id, corner index).  ``link_graph`` builds the link of
    one vertex.  Only ``rewrite._walk_link_until`` still walks link graphs:
    questions about the shape of a link are answered by ``link_shapes``
    without building them.
    """

    vertex: int
    nodes: tuple
    links: tuple  # ((half1, half2), (face, corner index)) pairs


class LinkShape(NamedTuple):
    """The counts that decide the shape of one vertex link."""

    nodes: int  # half-edges at the vertex
    zeros: int  # nodes of link degree 0
    ones: int  # nodes of link degree 1
    max_degree: int
    components: int

    def kind(self):
        """'circle' | 'arc' | 'point' | 'union' | 'branched' | 'empty'.

        circle: connected, every node degree 2.
        arc:    connected, two degree-1 ends, rest degree 2, at least 1 edge.
        point:  single node, no edges (degenerate arc).
        union:  disconnected but all degrees <= 2.
        branched: some node of degree >= 3.
        """
        if not self.nodes:
            return "empty"
        if self.max_degree > 2:
            return "branched"
        if self.components > 1:
            return "union"
        if self.zeros:
            # a connected link with an isolated node is that node alone
            return "point"
        # a connected graph of degrees 1 and 2 is a cycle or a path: by the
        # handshake lemma it has no ends or two
        return "arc" if self.ones else "circle"


def link_graph(cx: TwoComplex, v) -> LinkGraph:
    """Link of vertex v in cx: the half-edges at v in edge order, (e, -1)
    before (e, 1), and the corners at v in face order."""
    if v not in cx.vertices:
        raise ComplexError(f"unknown vertex id {v}")
    nodes = []
    for e, (s, t) in cx.edges.items():
        if t == v:
            nodes.append((e, -1))
        if s == v:
            nodes.append((e, 1))
    corners = []
    for f, word in cx.faces.items():
        for k, side in enumerate(word):
            if cx.endpoint(side, 1) == v:
                corners.append(((inv(side), word[(k + 1) % len(word)]), (f, k)))
    return LinkGraph(vertex=v, nodes=tuple(nodes), links=tuple(corners))


def link_shapes(cx: TwoComplex) -> dict:
    """Shapes of all vertex links: vertex id -> LinkShape, in vertex id order.

    The half-edge (e, +1) sits at the source of e and (e, -1) at its
    target.  Each occurrence of e in a face word leaves the corner before it
    along one half-edge of e and reaches the corner after it along the
    other, so it adds 1 to the link degree of both: each half-edge of e
    has the side incidence of e as its link degree, and no link edge need
    be listed.
    A corner joins two half-edges at one vertex, so one union-find over
    half-edges, with one union per corner, finds the link components of
    every vertex at once: a vertex has as many components as half-edges,
    less the unions that merged two of its classes.
    """
    counts = cx.side_incidences()
    leaving = {}  # signed side -> the half-edge it leaves its start along
    arriving = {}  # signed side -> the half-edge it reaches its end along
    home = []  # half-edge -> its vertex
    degrees = {v: [] for v in cx.vertices}
    for e, (s, t) in cx.edges.items():
        leaving[(e, 1)] = arriving[(e, -1)] = len(home)
        leaving[(e, -1)] = arriving[(e, 1)] = len(home) + 1
        home += (s, t)
        degrees[s].append(counts[e])
        degrees[t].append(counts[e])
    parent = list(range(len(home)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = dict.fromkeys(cx.vertices, 0)
    for word in cx.faces.values():
        incoming = arriving[word[-1]]
        for side in word:
            a, b = find(incoming), find(leaving[side])
            if a != b:
                parent[a] = b
                merges[home[b]] += 1
            incoming = arriving[side]
    return {
        v: LinkShape(len(d), d.count(0), d.count(1), max(d, default=0), len(d) - merges[v])
        for v, d in degrees.items()
    }


@dataclass
class SurfaceReport:
    is_surface: bool
    boundary_vertices: tuple
    witnesses: tuple  # (vertex, link classification) for non-surface vertices


def surface_check(cx: TwoComplex) -> SurfaceReport:
    """Surface criterion: every vertex link a circle or nondegenerate arc.

    Vertices with arc links are exactly the boundary vertices.  The kinds
    come from ``link_shapes``, one linear pass over edges and corners that
    builds no link graph.
    """
    boundary = []
    bad = []
    for v, shape in link_shapes(cx).items():
        kind = shape.kind()
        if kind == "arc":
            boundary.append(v)
        elif kind != "circle":
            bad.append((v, kind))
    return SurfaceReport(
        is_surface=not bad,
        boundary_vertices=tuple(boundary),
        witnesses=tuple(bad),
    )


@dataclass(frozen=True)
class Subcomplex:
    """A subset of cells closed under the boundary relations."""

    parent: TwoComplex
    vertex_set: frozenset
    edge_set: frozenset
    face_set: frozenset

    def __post_init__(self):
        cx = self.parent
        for f in self.face_set:
            if f not in cx.faces:
                raise ComplexError(f"unknown face id {f}")
            for e, _ in cx.faces[f]:
                if e not in self.edge_set:
                    raise ComplexError("subcomplex not closed: face edge missing")
        for e in self.edge_set:
            if e not in cx.edges:
                raise ComplexError(f"unknown edge id {e}")
            s, t = cx.edges[e]
            if s not in self.vertex_set or t not in self.vertex_set:
                raise ComplexError("subcomplex not closed: edge endpoint missing")
        unknown = self.vertex_set.difference(cx.vertices)
        if unknown:
            raise ComplexError(f"unknown vertex id {min(unknown)}")

    def as_complex(self) -> TwoComplex:
        """The subcomplex as a TwoComplex, keeping the parent's cell ids and
        the names the parent gives its cells; ``subsurface_as_admissible``
        checks that it is a surface."""
        cx = self.parent
        own = {"v": self.vertex_set, "e": self.edge_set, "f": self.face_set}
        return TwoComplex(
            self.vertex_set,
            {e: cx.edges[e] for e in self.edge_set},
            {f: cx.faces[f] for f in self.face_set},
            names={cell: name for cell, name in cx.names.items() if cell[1] in own[cell[0]]},
        )

    def cells(self):
        out = [("v", v) for v in sorted(self.vertex_set)]
        out += [("e", e) for e in sorted(self.edge_set)]
        out += [("f", f) for f in sorted(self.face_set)]
        return out

    def is_subset_of(self, other: "Subcomplex"):
        return (
            self.vertex_set <= other.vertex_set
            and self.edge_set <= other.edge_set
            and self.face_set <= other.face_set
        )


def induced_subcomplex(cx: TwoComplex, cells) -> Subcomplex:
    """Close a cell set under face boundaries and edge endpoints."""
    vs, es, fs = set(), set(), set()
    vertices = set(cx.vertices)
    for kind, ident in cells:
        if kind == "v":
            if ident not in vertices:
                raise ComplexError(f"unknown vertex id {ident}")
            vs.add(ident)
        elif kind == "e":
            if ident not in cx.edges:
                raise ComplexError(f"unknown edge id {ident}")
            es.add(ident)
        elif kind == "f":
            if ident not in cx.faces:
                raise ComplexError(f"unknown face id {ident}")
            fs.add(ident)
        else:
            raise ComplexError(f"unknown cell kind {kind}")
    for f in fs:
        for e, _ in cx.faces[f]:
            es.add(e)
    for e in es:
        s, t = cx.edges[e]
        vs.add(s)
        vs.add(t)
    return Subcomplex(cx, frozenset(vs), frozenset(es), frozenset(fs))


def boundary_subcomplex(cx: TwoComplex) -> Subcomplex:
    """Edges glued to exactly one face side, plus their endpoints.

    For a cellulated surface this is the topological boundary: interior
    points of such edges have half-disc neighbourhoods.
    """
    es = {e for e, count in cx.side_incidences().items() if count == 1}
    vs = set()
    for e in es:
        s, t = cx.edges[e]
        vs.add(s)
        vs.add(t)
    return Subcomplex(cx, frozenset(vs), frozenset(es), frozenset())


# -- text format ---------------------------------------------------------
#
#   # comment
#   vertex <name>
#   edge <name> <src> <dst>
#   face <name> = <edge><+|-> <edge><+|-> ...


def parse_complex(text) -> TwoComplex:
    vertices = []
    edges = []
    faces = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 2:
                raise ComplexError(f"line {lineno}: vertex wants one name")
            vertices.append(parts[1])
        elif kind == "edge":
            if len(parts) != 4:
                raise ComplexError(f"line {lineno}: edge wants name src dst")
            edges.append((parts[1], parts[2], parts[3]))
        elif kind == "face":
            if len(parts) < 4 or parts[2] != "=":
                raise ComplexError(f"line {lineno}: face wants 'face <name> = <word>'")
            word = []
            for tok in parts[3:]:
                if tok.endswith("+"):
                    word.append((tok[:-1], 1))
                elif tok.endswith("-"):
                    word.append((tok[:-1], -1))
                else:
                    raise ComplexError(f"line {lineno}: side {tok} needs +/- suffix")
            faces.append((parts[1], word))
        else:
            raise ComplexError(f"line {lineno}: unknown directive {kind}")
    return TwoComplex.build(vertices, edges, faces)


def print_complex(cx: TwoComplex) -> str:
    """Canonical text form; parse(print(cx)) is byte-stable."""
    lines = []
    for v in cx.vertices:
        lines.append(f"vertex {cx.name('v', v)}")
    for e, (s, t) in cx.edges.items():
        lines.append(f"edge {cx.name('e', e)} {cx.name('v', s)} {cx.name('v', t)}")
    for f, word in cx.faces.items():
        sides = " ".join(
            f"{cx.name('e', e)}{'+' if sign == 1 else '-'}" for e, sign in word
        )
        lines.append(f"face {cx.name('f', f)} = {sides}")
    return "\n".join(lines) + "\n"


def barycentric(cx: TwoComplex):
    """Full barycentric-style subdivision.

    Every edge is halved through a midpoint and every face becomes 2 x degree
    triangles around a barycentre.  Each triangle has three distinct
    vertices (corner, midpoint, barycentre) and three distinct edges, which
    makes every surface surgery over the result non-degenerate.  Returns
    (complex, edge map) with edge map: old edge id -> (first half, second
    half) ids in the new complex.
    """
    vertices = list(cx.vertices)
    names = {}
    for v in cx.vertices:
        names[("v", v)] = cx.name("v", v)
    next_v = max(cx.vertices, default=-1) + 1
    mid = {}
    for e in cx.edges:
        mid[e] = next_v
        names[("v", next_v)] = cx.name("e", e) + ":m"
        vertices.append(next_v)
        next_v += 1
    edges = {}
    next_e = 0
    halves = {}
    for e, (u, w) in cx.edges.items():
        h1, h2 = next_e, next_e + 1
        next_e += 2
        edges[h1] = (u, mid[e])
        edges[h2] = (mid[e], w)
        names[("e", h1)] = cx.name("e", e) + ":1"
        names[("e", h2)] = cx.name("e", e) + ":2"
        halves[e] = (h1, h2)
    faces = {}
    next_f = 0
    for f, word in cx.faces.items():
        deg = len(word)
        bary = next_v
        next_v += 1
        vertices.append(bary)
        names[("v", bary)] = cx.name("f", f) + ":b"
        corner_spokes = []
        mid_spokes = []
        for i in range(deg):
            corner = cx.endpoint(word[i], 0)
            s = next_e
            next_e += 1
            edges[s] = (corner, bary)
            names[("e", s)] = f"{cx.name('f', f)}:s{i}"
            corner_spokes.append(s)
            t = next_e
            next_e += 1
            edges[t] = (mid[word[i][0]], bary)
            names[("e", t)] = f"{cx.name('f', f)}:t{i}"
            mid_spokes.append(t)
        for i in range(deg):
            e, eps = word[i]
            h1, h2 = halves[e]
            first = (h1, 1) if eps == 1 else (h2, -1)
            second = (h2, 1) if eps == 1 else (h1, -1)
            faces[next_f] = (first, (mid_spokes[i], 1), (corner_spokes[i], -1))
            names[("f", next_f)] = f"{cx.name('f', f)}:a{i}"
            next_f += 1
            faces[next_f] = (
                second,
                (corner_spokes[(i + 1) % deg], 1),
                (mid_spokes[i], -1),
            )
            names[("f", next_f)] = f"{cx.name('f', f)}:b{i}"
            next_f += 1
    out = TwoComplex(vertices, edges, faces, names)
    return out, halves
