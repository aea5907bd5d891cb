"""Rewriting moves on transverse admissible surfaces.

``make_standard_form`` reaches standard form by one route: it drops
trivial components, connects disconnected vertex-disc links and
eliminates folds, thickening the target's boundary when a link to be
connected sits over a boundary vertex of the ``Target``.  All moves return
new surfaces, validated on their pieces, over their input's target, plus
log entries; thickening makes the one new target, checked once.

The surgery engine works on a global successor map over slot tokens:
every vertex disc contributes a cyclic list of tokens (handle ends and
free arcs), and every corner either move glues is the cross-splice

    succ(t1), succ(t2)  :=  succ(t2), succ(t1)

A fold splices the two tokens of each mirrored pair of corners; a link
connection splices the y of each new corner (y, x) with the predecessor
of x, which makes succ(y) = x.  Vertex discs are recovered as the cycles
of the final map: ``words.orbits`` walks them from every token in ``str``
order (``_Tokens.rebuild_vpieces``), and the corner gluing walks the
cycles it touched from its spliced tokens, in splice order
(``_glue_corners``).  Handle pairs whose freed long sides become glued to
each other fuse end to end into single handles.

Boundary words are only changed by the link-connection move; it records a
2-chain certificate (the faces the boundary was pushed across) so that the
class in H2(S, c) is computed from an honest relative cycle and can be
checked unchanged.

A move carries each circuit's (circle, degree) by its anchor, the free
long side it starts at.  A fold keeps every free long side, renamed onto
the handle it merges into; a link connection reroutes boundary arcs, so
it clusters old and new circuits by shared items.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import count

from .complexes import TwoComplex, link_graph
from .homology import homology
from .surfaces import (
    FREE,
    AdmissibleSurface,
    FPiece,
    SurfaceError,
    Target,
    VPiece,
    corner_tokens,
)
from .words import canonical_rotation, one_chain, orbits


class MoveError(RuntimeError):
    pass


# -- move log ----------------------------------------------------------------


def _metrics(surface: AdmissibleSurface):
    pos = sum(1 for fp in surface.fpieces.values() if fp.sign == 1)
    neg = sum(1 for fp in surface.fpieces.values() if fp.sign == -1)
    links = sum(
        surface.bar_link_components(vid) - 1 for vid in surface.vpieces
    )
    return {
        "chi_minus": surface.reduced_euler(),
        "degrees": tuple(surface.degree_vector()),
        "pos": pos,
        "neg": neg,
        "link_excess": links,
    }


@dataclass
class MoveEntry:
    move: str
    args: str
    before: dict
    after: dict
    note: str = ""

    def line(self):
        b, a = self.before, self.after
        out = (
            f"move {self.move} {self.args} ; "
            f"chi_minus {b['chi_minus']} -> {a['chi_minus']} ; "
            f"n {list(b['degrees'])} -> {list(a['degrees'])} ; "
            f"fpieces +{b['pos']}/-{b['neg']} -> +{a['pos']}/-{a['neg']} ; "
            f"link_excess {b['link_excess']} -> {a['link_excess']}"
        )
        if self.note:
            out += f" ; {self.note}"
        return out


@dataclass
class MoveLog:
    entries: list = field(default_factory=list)

    def record(self, move, args, before, after, note=""):
        self.entries.append(MoveEntry(move, args, before, after, note))

    def text(self):
        return "\n".join(e.line() for e in self.entries) + ("\n" if self.entries else "")


# -- the token surgery engine ------------------------------------------------


def _slot(tok):
    # a handle end's token is its own slot; every other token is a free arc
    return tok if tok[0] == "h" else FREE


class _Tokens:
    """Cyclic slot structure of all vertex discs as one successor map.  A
    free arc's token is ("free", vid, j), or ("free+", n) once moved."""

    def __init__(self, surface: AdmissibleSurface):
        self.succ = {}
        self.vertex = {}
        self.free_n = 0
        for vid, vp in surface.vpieces.items():
            toks = []
            for j, slot in enumerate(vp.slots):
                tok = ("free", vid, j) if slot == FREE else ("h", slot[1], slot[2])
                self.vertex[tok] = vp.vertex
                toks.append(tok)
            for j, tok in enumerate(toks):
                self.succ[tok] = toks[(j + 1) % len(toks)]

    def new_free(self, vertex):
        tok = ("free+", self.free_n)
        self.free_n += 1
        self.vertex[tok] = vertex
        self.succ[tok] = tok
        return tok

    def add_handle_token(self, hid, end, vertex):
        tok = ("h", hid, end)
        self.vertex[tok] = vertex
        self.succ[tok] = tok
        return tok

    def cross_splice(self, t1, t2):
        self.succ[t1], self.succ[t2] = self.succ[t2], self.succ[t1]

    def delete(self, tok):
        # only valid on self-looped or chained-out tokens
        del self.succ[tok]
        del self.vertex[tok]

    def fuse(self, toks, new_tok):
        """Replace the tokens of ``toks``, one consecutive run, by new_tok."""
        heads = [t for t in toks if all(self.succ.get(o) != t for o in toks if o != t)]
        if len(heads) == 1:
            head = heads[0]
        elif not heads and toks:
            head = min(toks)  # the run is a whole disc boundary by itself
        else:
            raise MoveError("merged handle ends are not a single run")
        run = [head]
        while len(run) < len(toks):
            nxt = self.succ.get(run[-1])
            if nxt not in toks:
                raise MoveError("merged handle ends are not contiguous")
            run.append(nxt)
        prev = next(t for t, s in self.succ.items() if s == run[0])
        nxt = self.succ[run[-1]]
        self.vertex[new_tok] = self.vertex[run[0]]
        if prev == run[-1]:
            self.succ[new_tok] = new_tok
        else:
            self.succ[prev] = new_tok
            self.succ[new_tok] = nxt
        for t in run:
            self.delete(t)

    def rebuild_vpieces(self):
        """Vertex discs from the cycles of the successor map: its
        ``orbits`` from every token in ``str`` order, so a disc's id and
        slot rotation follow that order."""
        vpieces = {}
        for vid, cyc in enumerate(orbits(self.succ, sorted(self.succ, key=str))):
            verts = {self.vertex[t] for t in cyc}
            if len(verts) != 1:
                raise MoveError("surgery produced a vertex disc over several vertices")
            vpieces[vid] = VPiece(verts.pop(), tuple(_slot(tok) for tok in cyc))
        return vpieces


def _rebuild(surface: AdmissibleSurface, tokens: _Tokens, handles, fpieces, assignments, homotopy=None):
    """The surface after a token surgery, validated once.

    ``handles`` maps each handle id to its edge, and ``assignments`` is
    what ``AdmissibleSurface`` takes: a fold renames the old anchors, and a
    link connection clusters circuits by items (``_carry_by_items``).
    """
    return AdmissibleSurface(
        surface.target,
        surface.chain,
        tokens.rebuild_vpieces(),
        handles,
        fpieces,
        assignments=assignments,
        homotopy=surface.homotopy if homotopy is None else homotopy,
    )


# -- disc and sphere removal -------------------------------------------------


def _without_components(surface: AdmissibleSurface, dead_indices):
    comps = surface.piece_components()
    dead_pieces = set()
    for i in dead_indices:
        dead_pieces |= comps[i]
    if len(dead_pieces) == sum(len(c) for c in comps):
        raise MoveError("refusing to remove every component")
    vpieces = {k: v for k, v in surface.vpieces.items() if ("v", k) not in dead_pieces}
    handles = {k: v.edge for k, v in surface.hpieces.items() if ("h", k) not in dead_pieces}
    fpieces = {k: v for k, v in surface.fpieces.items() if ("f", k) not in dead_pieces}
    # a lettered circuit's anchor is its least item, a long side
    assignments = [entry for entry in surface.assignment_list() if ("h", entry[0][1]) not in dead_pieces]
    # each dropped component bounds its own 2-chain, so taking that off the
    # certificate leaves one for the kept boundary; dropped circuits that do
    # not wind 0 in total change the degree vector, and the class check in
    # remove_trivial_components rejects the removal
    dead_faces = [(fp.face, -fp.sign) for k, fp in surface.fpieces.items() if ("f", k) in dead_pieces]
    homotopy = one_chain([*surface.homotopy.items(), *dead_faces]) if surface.homotopy else {}
    return AdmissibleSurface(
        surface.target,
        surface.chain,
        vpieces,
        handles,
        fpieces,
        assignments=assignments,
        homotopy=homotopy,
    )


def remove_trivial_components(surface: AdmissibleSurface, log: MoveLog):
    """Drop components with positive Euler characteristic.

    Dropping never changes -chi^-, to which a component of positive Euler
    characteristic adds 0.  A disc or sphere whose removal would
    change the class in H2(S, c) is kept instead (such components occur
    over simply connected targets, where essential-looking words bound).
    """
    chis = surface.component_euler()
    dead = [i for i, chi in enumerate(chis) if chi > 0]
    if not dead:
        return surface
    before = _metrics(surface)
    old_coords = surface.reduced_class()
    kept_back = []
    while dead:
        try:
            out = _without_components(surface, dead)
            new_coords = out.reduced_class()
        except (MoveError, SurfaceError):
            new_coords = None
        if new_coords == old_coords:
            break
        kept_back.append(dead.pop())
    if not dead:
        return surface
    log.record(
        "remove_trivial_components",
        f"components={dead}" + (f" kept={kept_back}" if kept_back else ""),
        before,
        _metrics(out),
    )
    return out


# -- fold elimination ----------------------------------------------------------


def _mirror_surgery(surface: AdmissibleSurface, fid1, fid2, shared_position):
    """Delete two mirrored discs, splicing their remaining side handles.

    shared_position is the word position of the handle the two discs of
    the fold share.  Handles whose freed long sides become glued to each
    other merge in chains; a chain closing onto itself would be a circle
    bundle over an edge, which the transverse model cannot express, and is
    rejected.  ``rename`` maps each handle of a chain to the merged handle,
    which keeps the long sides left over under their long indices.

    A handle has two long sides, so a chain is a path, and each of its
    pairs takes a disc side off each of its two members.  The two discs
    have opposite signs, so a pair takes long a at one member and 1 - a at
    the next, and only the path's two ends keep a long side: 1 - a at one
    end and a at the other.
    """
    fp1 = surface.fpieces[fid1]
    fp2 = surface.fpieces[fid2]
    word = surface.target.faces[fp1.face]
    deg = len(word)
    if deg < 2:
        raise MoveError("mirror surgery needs a face of degree at least 2")

    shared = fp1.sides[shared_position]

    tokens = _Tokens(surface)
    # glue every mirrored pair of corners
    for k in range(deg):
        tokens.cross_splice(corner_tokens(fp1, word, k)[0], corner_tokens(fp2, word, k)[0])

    handles = {hid: hp.edge for hid, hp in surface.hpieces.items()}
    fpieces = {k: v for k, v in surface.fpieces.items() if k not in (fid1, fid2)}

    for end in ("s", "t"):
        tok = ("h", shared, end)
        if tokens.succ.get(tok) != tok:
            raise MoveError("shared handle did not close off during the splice")
        tokens.delete(tok)
    del handles[shared]

    # handles freed by the deleted discs merge in chains; group them
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(deg):
        if k == shared_position:
            continue
        ra, rb = find(fp1.sides[k]), find(fp2.sides[k])
        if ra == rb:
            raise MoveError(
                "freed handles close into a circle bundle; not supported"
            )
        parent[max(ra, rb)] = min(ra, rb)

    groups = {}
    for hid in parent:
        groups.setdefault(find(hid), []).append(hid)

    next_id = max(handles, default=-1) + 1
    rename = {}
    for root in sorted(groups):
        members = sorted(groups[root])
        cid = next_id
        next_id += 1
        rename.update(dict.fromkeys(members, cid))
        # each pair joins the two discs' sides at one word position, so the
        # whole chain lies over that position's edge
        handles[cid] = surface.hpieces[members[0]].edge
        for h in members:
            del handles[h]
        # fuse the members' end tokens, one run per end label
        for label in ("s", "t"):
            tokens.fuse({("h", h, label) for h in members}, ("h", cid, label))

    fpieces = {
        fid: FPiece(fp.face, fp.sign, tuple(rename.get(hid, hid) for hid in fp.sides))
        for fid, fp in fpieces.items()
    }
    return tokens, handles, fpieces, rename


def eliminate_fold(surface: AdmissibleSurface, fid1, fid2, log: MoveLog):
    """Delete two adjacent cellular discs of opposite orientation.

    The discs must map to the same face and share a handle through the same
    word position; the elimination splices their remaining side handles
    pairwise, preserving the Euler characteristic, the class in H2(S, c)
    and the boundary words.
    """
    if fid1 not in surface.fpieces or fid2 not in surface.fpieces:
        raise MoveError("unknown cellular disc")
    fp1 = surface.fpieces[fid1]
    fp2 = surface.fpieces[fid2]
    if fp1.face != fp2.face:
        raise MoveError("fold elimination needs discs over the same face")
    if fp1.sign + fp2.sign != 0:
        raise MoveError("fold elimination needs discs of opposite orientation")
    if fp1.sign == -1:
        fid1, fid2, fp1, fp2 = fid2, fid1, fp2, fp1
    shared_positions = [
        k
        for k in range(len(fp1.sides))
        if fp1.sides[k] == fp2.sides[k]
    ]
    if not shared_positions:
        raise MoveError("discs are not adjacent through a common handle")
    if len(shared_positions) > 1:
        raise MoveError("discs adjacent through several handles; not supported")
    k = shared_positions[0]

    before = _metrics(surface)
    old_coords = surface.reduced_class()
    old_words = sorted(canonical_rotation(c.word) for c in surface.circuits)

    tokens, handles, fpieces, rename = _mirror_surgery(surface, fid1, fid2, k)
    # every free long side survives, so each circuit keeps its anchor
    assignments = [
        (("long", rename.get(h, h), li), circle, degree)
        for (_, h, li), circle, degree in surface.assignment_list()
    ]
    out = _rebuild(surface, tokens, handles, fpieces, assignments)

    delta = out.euler_characteristic() - surface.euler_characteristic()
    if delta < 0 or delta % 2:
        raise MoveError("fold elimination changed the Euler characteristic")
    # delta > 0 happens when a corner splice pinches a vertex disc, which
    # the surgery resolves by the compression the pinch makes available;
    # each compression raises the Euler characteristic by 2 and preserves
    # the pushforward class, so the estimate only improves
    if out.reduced_class() != old_coords:
        raise MoveError("fold elimination changed the class in H2(S, c)")
    new_words = sorted(canonical_rotation(c.word) for c in out.circuits)
    if new_words != old_words:
        raise MoveError("fold elimination changed the boundary words")
    note = f"with {delta // 2} compressions" if delta else ""
    log.record(
        "eliminate_fold",
        f"discs=({fid1},{fid2}) face={fp1.face}",
        before,
        _metrics(out),
        note=note,
    )
    return out


# -- link connection -----------------------------------------------------------


def _walk_link_until(surface, v, start_half, stop_half):
    """Corners crossed and intermediate half-edges from start to stop.

    The walk goes round the target's link circle in the direction of the
    positive discs: each crossed corner is looked up by its outgoing side
    h2 and hands over its incoming side h1.  ``v`` is an interior vertex of
    the ``Target``, whose link is a circle and whose face words are
    coherently oriented, so each half-edge at v is the outgoing side of
    exactly one corner and the walk from start reaches stop.
    """
    by_out = {h2: (h1, prov) for (h1, h2), prov in link_graph(surface.target, v).links}
    corners = []
    halves = []
    cur = start_half
    while True:
        cur, prov = by_out[cur]
        corners.append(prov)
        if cur == stop_half:
            return corners, halves
        halves.append(cur)


def _carry_by_items(old: AdmissibleSurface, new_raw):
    """Anchor entries carrying (circle, degree) across a move that reroutes
    boundary arcs.

    Circuits exchange arcs, merge and split, so individual windings are not
    determined by item overlap; only the total winding per overlap cluster
    is.  All circuits in a cluster must sit on one circle; the cluster's
    total degree goes to its longest new circuit and the rest get 0 (the
    honest per-circuit windings are not recoverable once the boundary is
    tracked through a homotopy certificate, and the class computation only
    uses the totals).
    """
    old_all = list(old.circuits)
    old_sets = [frozenset(c.items) for c in old_all]
    new_sets = [frozenset(items) for items, _word in new_raw]
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb, key=str)] = min(ra, rb, key=str)

    item_owner = {}
    for i, s in enumerate(old_sets):
        for item in s:
            item_owner[item] = i
    for j, s in enumerate(new_sets):
        for item in s:
            if item in item_owner:
                union(("old", item_owner[item]), ("new", j))

    clusters = {}
    for i in range(len(old_all)):
        clusters.setdefault(find(("old", i)), [[], []])[0].append(i)
    for j in range(len(new_raw)):
        clusters.setdefault(find(("new", j)), [[], []])[1].append(j)

    out = []
    spare = []
    for key in sorted(clusters, key=str):
        olds, news = clusters[key]
        lettered_old = [i for i in olds if old_all[i].circle is not None]
        lettered_new = [j for j in news if new_raw[j][1]]
        if not lettered_old and not lettered_new:
            continue
        if not lettered_old:
            spare.extend(lettered_new)
            continue
        circles = {old_all[i].circle for i in lettered_old}
        if len(circles) > 1:
            raise MoveError("move merged circuits of different circles")
        circle = circles.pop()
        total = sum(old_all[i].degree for i in lettered_old)
        if not lettered_new:
            if total:
                raise MoveError("winding lost with its boundary circuits")
            continue
        main = max(lettered_new, key=lambda j: (len(new_raw[j][1]), -j))
        for j in lettered_new:
            out.append((new_raw[j][0][0][:-1], circle, total if j == main else 0))
    if spare:
        raise MoveError("new boundary circuits with no ancestry")
    return out


def _glue_corners(tokens: _Tokens, new_tokens, corners):
    """Glue every corner (y, x) of the new discs by the cross-splice that
    makes succ(y) = x.

    Each token of ``new_tokens`` starts as a cycle of its own.  After the
    splices the free stretch the fan replaces is a cycle of free tokens,
    which is deleted, and a cycle made only of new handle ends meets the
    boundary: it gets one fresh free arc after its unglued end.
    """
    pred = {s: t for t, s in tokens.succ.items()}
    glued = set()
    touched = []
    for y, x in corners:
        p = pred[x]
        if y in glued or p in glued:
            raise MoveError("conflicting corner equations")
        s = tokens.succ[y]
        tokens.cross_splice(y, p)
        pred[x], pred[s] = y, p
        glued.add(y)
        touched += [y, p]
    open_ends = []
    for cyc in orbits(tokens.succ, touched):
        if all(_slot(t) == FREE for t in cyc):
            for t in cyc:
                tokens.delete(t)
        elif new_tokens.issuperset(cyc):
            open_ends += [(tokens.succ[t], t) for t in cyc if t not in glued]
    for head, end in sorted(open_ends, key=lambda pair: str(pair[0])):
        free = tokens.new_free(tokens.vertex[head])
        tokens.succ[end] = free
        tokens.succ[free] = head


def connect_link(surface: AdmissibleSurface, vid, log: MoveLog, separator):
    """Connect the collapsed link of a vertex disc by pushing the boundary
    across a fan of target faces.

    A free stretch of the disc's boundary between two link components, the
    ones ``separator`` names, is replaced by a path of new positive cellular
    discs, together with the fresh handles and vertex discs the crossed
    faces require; the negative discs are left as they are.  Every corner
    of the new discs is glued by one cross-splice (``_glue_corners``).  The
    boundary is moved by a homotopy, so the class in H2(S, c) is unchanged;
    the faces crossed are added to the homotopy certificate.

    Before it builds anything it refuses an unknown vertex disc, a
    connected link, a boundary vertex ("thicken the target first"), a
    separator out of range, and a stretch flanked by both ends of one
    handle.
    """
    if vid not in surface.vpieces:
        raise MoveError("unknown vertex disc")
    vp = surface.vpieces[vid]
    v = vp.vertex
    runs = surface.link_runs(vid)
    if len(runs) <= 1:
        raise MoveError("vertex disc already has a connected link")
    if v in surface.target.boundary_vertices:
        raise MoveError(
            "vertex disc maps to a boundary vertex; thicken the target first"
        )

    slots = vp.slots
    # the separator after run i joins run i to run i+1
    if not 0 <= separator < len(runs):
        raise MoveError("separator index out of range")
    jE = runs[separator][-1]
    jS = runs[(separator + 1) % len(runs)][0]
    _, hE_hid, hE_end = slots[jE]
    _, hS_hid, hS_end = slots[jS]
    if hS_hid == hE_hid:
        raise MoveError("the far handle cannot take the fan's last side")
    half_E = (surface.hpieces[hE_hid].edge, 1 if hE_end == "s" else -1)
    half_S = (surface.hpieces[hS_hid].edge, 1 if hS_end == "s" else -1)
    # jE ends a link run and jS starts one, so the long sides of their
    # handles that the fan's first and last discs take are free
    corners, halves = _walk_link_until(surface, v, half_E, half_S)
    faces = surface.target.faces

    before = _metrics(surface)
    old_coords = surface.reduced_class()

    # build the new pieces
    handles = {hid: hp.edge for hid, hp in surface.hpieces.items()}
    fpieces = dict(surface.fpieces)
    next_f = max(fpieces, default=-1) + 1

    new_ids = count(max(handles, default=-1) + 1)

    def new_handle(edge):
        hid = next(new_ids)
        handles[hid] = edge
        return hid

    # disc t enters on handle t of the fan and leaves on handle t + 1: the
    # near handle, one over each crossed half-edge, then the far handle
    fan = [hE_hid, *(new_handle(half[0]) for half in halves), hS_hid]
    new_corners = []  # (y, x) tokens of every corner of the new discs
    new_faces_crossed = [face for face, _ in corners]
    for t, (face, kidx) in enumerate(corners):
        word = faces[face]
        sides = []
        for q, (edge, _sign) in enumerate(word):
            if q == (kidx + 1) % len(word):
                hid = fan[t]
            elif q == kidx:
                hid = fan[t + 1]
            else:
                hid = new_handle(edge)
            sides.append(hid)
        fpieces[next_f] = FPiece(face, 1, tuple(sides))
        new_corners += (corner_tokens(fpieces[next_f], word, k) for k in range(len(word)))
        next_f += 1

    # token surgery: glue every corner of the new discs
    tokens = _Tokens(surface)
    new_tokens = {
        tokens.add_handle_token(hid, end, vertex)
        for hid, edge in handles.items()
        if hid not in surface.hpieces
        for end, vertex in zip("st", surface.target.edges[edge])
    }
    _glue_corners(tokens, new_tokens, new_corners)

    homotopy = one_chain([*surface.homotopy.items(), *((face, 1) for face in new_faces_crossed)])

    carry = partial(_carry_by_items, surface)
    out = _rebuild(surface, tokens, handles, fpieces, carry, homotopy=homotopy)

    if out.reduced_class() != old_coords:
        raise MoveError("link connection changed the class in H2(S, c)")
    after = _metrics(out)
    if after["link_excess"] != before["link_excess"] - 1:
        raise MoveError("link connection did not lower the link excess by one")
    if after["neg"] != before["neg"]:
        raise MoveError("positive link connection changed the negative disc count")
    log.record(
        "connect_link",
        f"vdisc={vid} policy=positive faces={new_faces_crossed}",
        before,
        after,
    )
    return out


# -- boundary thickening -------------------------------------------------------


def thicken_boundary(cx: TwoComplex) -> Target:
    """Glue a cellulated annulus collar to each boundary circuit.

    The input and the result are each checked once, as a ``Target``.  The
    result is homeomorphic to the input (same Euler characteristic and
    homology, checked); every old boundary vertex becomes interior.  Old
    cells keep their ids, so complexes, chains and surfaces over the old
    cellulation remain valid over the new one.
    """
    cx = Target.of(cx)
    if not cx.boundary_edges:
        return cx
    totals = cx.signed_incidences()

    vertices = list(cx.vertices)
    edges = dict(cx.edges)
    faces = dict(cx.faces)
    names = dict(cx.names)

    next_v = max(cx.vertices, default=-1) + 1
    next_e = max(cx.edges, default=-1) + 1
    next_f = max(cx.faces, default=-1) + 1

    v_prime = {}
    rung = {}
    for v in sorted(cx.boundary_vertices):
        v_prime[v] = next_v
        names[("v", next_v)] = cx.name("v", v) + "'"
        vertices.append(next_v)
        next_v += 1
        rung[v] = next_e
        edges[next_e] = (v, v_prime[v])
        names[("e", next_e)] = "|" + cx.name("v", v)
        next_e += 1
    for e in sorted(cx.boundary_edges):
        u, w = cx.edges[e]
        e_prime = next_e
        edges[e_prime] = (v_prime[u], v_prime[w])
        names[("e", e_prime)] = cx.name("e", e) + "'"
        next_e += 1
        # a boundary edge of a coherently oriented surface has one face
        # side, so its signed incidence is +1 or -1
        if totals[e] == 1:
            word = ((e, -1), (rung[u], 1), (e_prime, 1), (rung[w], -1))
        else:
            word = ((e, 1), (rung[w], 1), (e_prime, -1), (rung[u], -1))
        faces[next_f] = word
        names[("f", next_f)] = "collar_" + cx.name("e", e)
        next_f += 1

    out = Target.of(TwoComplex(vertices, edges, faces, names))
    if out.euler_characteristic() != cx.euler_characteristic():
        raise MoveError("thickening changed the Euler characteristic")
    if homology(out, "Q").ranks != homology(cx, "Q").ranks:
        raise MoveError("thickening changed the homology")
    if cx.boundary_vertices & out.boundary_vertices:
        raise MoveError("old boundary vertex still on the boundary")
    return out


# -- standard form -------------------------------------------------------------


def _find_fold_pairs(surface: AdmissibleSurface):
    """Opposite discs over one face sharing a handle at exactly one word
    position, in order; each handle with both long sides at one position
    is one shared position of its pair."""
    shared = Counter()
    for hp in surface.hpieces.values():
        a, b = hp.longs
        if a == FREE or b == FREE or a[2] != b[2]:
            continue
        fa, fb = surface.fpieces[a[1]], surface.fpieces[b[1]]
        if fa.face == fb.face and fa.sign + fb.sign == 0:
            shared[min(a[1], b[1]), max(a[1], b[1])] += 1
    return sorted(pair for pair, n in shared.items() if n == 1)


def make_standard_form(surface: AdmissibleSurface, log: MoveLog | None = None):
    """Alternate link connection (positive policy) and fold elimination.

    Every link connection lowers the link excess by one, which
    ``connect_link`` checks.  The loop terminates because the potential
    (negative discs, total link excess, disc count) drops lexicographically
    at every move; the result is disc- and sphere-free, has connected links
    and is non-folded, with the class in H2(S, c) preserved and -chi^- never
    increased.  Every move checks the class, so the degree n never changes,
    and -chi^-/|n| does not rise either, whatever the sign of n.
    """
    log = log if log is not None else MoveLog()
    s = remove_trivial_components(surface, log)
    start_euler = s.reduced_euler()
    guard = 0
    while True:
        guard += 1
        if guard > 40 + 14 * (len(s.fpieces) + len(s.vpieces) + 2):
            raise MoveError("standard-form loop exceeded its potential bound")
        vids = [v for v in sorted(s.vpieces) if s.bar_link_components(v) > 1]
        if vids:
            if any(s.vpieces[v].vertex in s.target.boundary_vertices for v in vids):
                before = _metrics(s)
                # the collar keeps every cell id, so the pieces and the chain
                # read the same over the thickened target
                s = AdmissibleSurface(
                    thicken_boundary(s.target),
                    s.chain,
                    s.vpieces,
                    {hid: hp.edge for hid, hp in s.hpieces.items()},
                    s.fpieces,
                    assignments=s.assignment_list(),
                    homotopy=s.homotopy,
                )
                log.record(
                    "thicken_boundary",
                    "",
                    before,
                    _metrics(s),
                    note="target re-cellulated; collar added",
                )
                continue
            done = False
            last_exc = None
            for vid in vids:
                for sep in range(len(s.vpieces[vid].slots)):
                    try:
                        s = connect_link(s, vid, log, sep)
                        done = True
                    except MoveError as exc:
                        last_exc = exc
                        continue
                    break
                if done:
                    break
            if not done:
                raise MoveError(f"no link connection applies: {last_exc}")
            continue
        pairs = _find_fold_pairs(s)
        if not pairs:
            break
        s = eliminate_fold(s, *pairs[0], log)
        s = remove_trivial_components(s, log)
    # the loop leaves only with every link connected; discs and spheres are
    # not an error here: remove_trivial_components has dropped every one it
    # could, and over a simply connected target the ones left carry the class
    report = s.standard_form_report()
    if not report.non_folded:
        # with connected links, a mixed component must contain an adjacent
        # opposite pair over one face; its absence means a fold pair through
        # several handles, which this implementation does not rewrite
        raise MoveError("component remains folded without an eligible fold pair")
    if s.reduced_euler() < start_euler:
        raise MoveError("standard form worsened -chi^-/n")
    return s, log
