"""Embedded graphs over a segment registry, spin networks, and canonical forms.

The ambient space is modeled combinatorially.  A :class:`SegmentRegistry`
holds named oriented segments (curves known only by identity and endpoints),
a graph is a finite subset of registry segments, and two graphs are the same
exactly when those subsets coincide.  A :class:`SpinNetwork` labels edges
(words in signed segments) with nontrivial spins and labels the points where
edges end with intertwiners.

Every graph splits uniquely into decomposition points (points where the
number of incident segment ends differs from two), open intervals between
such points, and closed circles; :func:`decompose` computes that splitting.
:func:`canonicalize` rewrites a network so each interval or circle carries a
single edge oriented along its least segment id, absorbing interior bivalent
vertices, and :func:`common_refinement` re-expresses two networks with
one-segment edges so they share group variables segment by segment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .rep_core import Intertwiner, Spin, _dualized, _sort_key


class InvalidNetworkError(ValueError):
    """A registry, graph, or network violates a structural requirement."""


class SegmentRegistry:
    """Catalog of points and oriented segments standing in for the ambient space.

    Segment ids play the role of curve ranges: two segments are the same
    piece of space exactly when their ids coincide.
    """

    def __init__(self) -> None:
        self._points: set = set()
        self._segments: dict = {}

    def add_point(self, point_id):
        self._points.add(point_id)
        return point_id

    def add_segment(self, segment_id, source, target):
        if segment_id in self._segments:
            raise InvalidNetworkError(f"segment {segment_id!r} is already registered")
        self._points.add(source)
        self._points.add(target)
        self._segments[segment_id] = (source, target)
        return segment_id

    @property
    def points(self) -> frozenset:
        return frozenset(self._points)

    @property
    def segment_ids(self) -> frozenset:
        return frozenset(self._segments)

    def endpoints(self, segment_id):
        """Return (source, target) of a segment."""
        try:
            return self._segments[segment_id]
        except KeyError:
            raise InvalidNetworkError(f"unknown segment {segment_id!r}") from None

    def __contains__(self, segment_id) -> bool:
        return segment_id in self._segments

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentRegistry):
            return NotImplemented
        return self._points == other._points and self._segments == other._segments

    __hash__ = None  # mutable container

    def __repr__(self) -> str:
        return f"SegmentRegistry({len(self._points)} points, {len(self._segments)} segments)"

    def graph(self, segment_ids: Iterable) -> "EmbeddedGraph":
        return EmbeddedGraph(self, frozenset(segment_ids))


@dataclass(frozen=True, eq=False)
class EmbeddedGraph:
    """A graph in the modeled space: a finite set of registry segments."""

    registry: SegmentRegistry
    segments: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", frozenset(self.segments))
        missing = [s for s in self.segments if s not in self.registry]
        if missing:
            raise InvalidNetworkError(f"segments not in registry: {missing!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return self.registry == other.registry and self.segments == other.segments

    def __hash__(self) -> int:
        return hash(tuple(sorted(map(_sort_key, self.segments))))

    def degree(self, point) -> int:
        """Number of segment ends incident to a point (a loop segment counts twice)."""
        deg = 0
        for s in self.segments:
            src, tgt = self.registry.endpoints(s)
            deg += (src == point) + (tgt == point)
        return deg

    def points(self) -> frozenset:
        touched = set()
        for s in self.segments:
            src, tgt = self.registry.endpoints(s)
            touched.add(src)
            touched.add(tgt)
        return frozenset(touched)


def _check_shared_registry(a: "SpinNetwork", b: "SpinNetwork") -> None:
    """Raise InvalidNetworkError unless the networks share one registry."""
    if a.graph.registry != b.graph.registry:
        raise InvalidNetworkError("networks must share a segment registry")


def _inverse_word(word) -> tuple:
    """The word traversed backwards: each step reversed, in reverse order."""
    return tuple((s, not r) for s, r in reversed(word))


def _step_endpoints(registry: SegmentRegistry, step) -> tuple:
    segment, reverse = step
    src, tgt = registry.endpoints(segment)
    return (tgt, src) if reverse else (src, tgt)


@dataclass(frozen=True)
class Interval:
    """Maximal open chain between two decomposition points, canonically oriented."""

    steps: tuple
    start: object
    end: object


@dataclass(frozen=True)
class Circle:
    """Closed chain of segments all of whose points have two incident ends."""

    steps: tuple
    basepoint: object


@dataclass(frozen=True)
class GraphDecomposition:
    points: tuple
    intervals: tuple
    circles: tuple


def decompose(graph: EmbeddedGraph) -> GraphDecomposition:
    """Split a graph into decomposition points, intervals, and circles.

    The split is unique; this function also fixes a canonical presentation:
    every chain is oriented so its least segment id is traversed forward,
    circles start at the source of their least segment, and pieces are listed
    by least segment id.
    """
    reg = graph.registry
    ends: dict = {}
    for s in graph.segments:
        src, tgt = reg.endpoints(s)
        ends.setdefault(src, []).append((s, 0))
        ends.setdefault(tgt, []).append((s, 1))
    degree = {p: len(v) for p, v in ends.items()}
    dec_points = sorted((p for p, d in degree.items() if d != 2), key=_sort_key)

    visited: set = set()

    def walk(seg, end):
        """Steps from segment end (seg, end) through points of degree 2, up to
        a decomposition point or back to the first end, and the last point."""
        first = (seg, end)
        steps = []
        while True:
            visited.add(seg)
            rev = end == 1
            steps.append((seg, rev))
            _, arrived = _step_endpoints(reg, (seg, rev))
            if degree[arrived] != 2:
                return steps, arrived
            a, b = ends[arrived]
            seg, end = b if a == (seg, 0 if rev else 1) else a
            if (seg, end) == first:
                return steps, arrived

    intervals = []
    for p in dec_points:
        for seg, end in sorted(ends[p], key=lambda t: (_sort_key(t[0]), t[1])):
            if seg in visited:
                continue
            steps, arrived = walk(seg, end)
            least = min((s for s, _ in steps), key=_sort_key)
            if dict(steps)[least]:
                intervals.append(Interval(_inverse_word(steps), arrived, p))
            else:
                intervals.append(Interval(tuple(steps), p, arrived))
    intervals.sort(key=lambda iv: _sort_key(min((s for s, _ in iv.steps), key=_sort_key)))

    # The least unvisited segment is the least of its circle, so circles
    # come out in order, each starting at the source of its least segment.
    circles = []
    for seg in sorted(graph.segments, key=_sort_key):
        if seg not in visited:
            steps, base = walk(seg, 0)
            circles.append(Circle(tuple(steps), base))
    return GraphDecomposition(tuple(dec_points), tuple(intervals), tuple(circles))


@dataclass(frozen=True)
class Edge:
    """A spin-network edge: a word in signed segments joining two vertices.

    ``word`` is a tuple of ``(segment_id, reversed)`` steps traversed in
    order from ``source`` to ``target``.
    """

    id: object
    word: tuple
    source: object
    target: object
    spin: Spin

    def __post_init__(self) -> None:
        word = tuple((s, bool(r)) for s, r in self.word)
        if not word:
            raise InvalidNetworkError(f"edge {self.id!r} has an empty word")
        object.__setattr__(self, "word", word)
        if not isinstance(self.spin, Spin):
            raise InvalidNetworkError(f"edge {self.id!r} spin must be a Spin")


@dataclass(frozen=True, eq=False)
class SpinNetwork:
    """An embedded graph with spin-labeled edges and vertex intertwiners.

    The vertex intertwiner legs follow a fixed slot convention: scanning the
    edge list in order, an edge contributes an "out" slot at its source and
    then an "in" slot at its target.  Words may reuse segments (several edges
    running along the same curve); such states are webs and support
    evaluation and inner products but have no canonical network form.
    """

    graph: EmbeddedGraph
    edges: tuple
    vertices: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "vertices", dict(self.vertices))
        reg = self.graph.registry
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise InvalidNetworkError("duplicate edge ids")
        if not self.edges:
            raise InvalidNetworkError("a spin network needs at least one edge")
        used = set()
        endpoints = set()
        for e in self.edges:
            if not e.spin.nontrivial:
                raise InvalidNetworkError(f"edge {e.id!r} carries the trivial spin")
            cur = e.source
            for step in e.word:
                if step[0] not in self.graph.segments:
                    raise InvalidNetworkError(
                        f"edge {e.id!r} uses segment {step[0]!r} outside its graph"
                    )
                a, b = _step_endpoints(reg, step)
                if a != cur:
                    raise InvalidNetworkError(f"edge {e.id!r} word is not a connected path")
                cur = b
                used.add(step[0])
            if cur != e.target:
                raise InvalidNetworkError(f"edge {e.id!r} word does not end at its target")
            endpoints.add(e.source)
            endpoints.add(e.target)
        if used != set(self.graph.segments):
            raise InvalidNetworkError("graph segments and edge-word support differ")
        if endpoints != set(self.vertices):
            raise InvalidNetworkError("vertex set must be exactly the edge endpoints")
        for v, iv in self.vertices.items():
            if not isinstance(iv, Intertwiner):
                raise InvalidNetworkError(f"vertex {v!r} label must be an Intertwiner")
            expected = tuple((spin, d) for _, d, spin in self.vertex_slots(v))
            if iv.leg_spins != expected:
                raise InvalidNetworkError(
                    f"vertex {v!r} intertwiner legs {iv.leg_spins} do not match "
                    f"incident edges {expected}"
                )

    def vertex_slots(self, vertex) -> tuple:
        """Ordered slots at a vertex as (edge id, direction, spin) triples."""
        return tuple((e.id, d, e.spin) for e, d in slot_order(self.edges, vertex))

    def segment_multiplicity(self) -> Counter:
        counts: Counter = Counter()
        for e in self.edges:
            for s, _ in e.word:
                counts[s] += 1
        return counts

    @property
    def is_embedded(self) -> bool:
        """True when no segment is traversed more than once (a genuine network)."""
        return all(c == 1 for c in self.segment_multiplicity().values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinNetwork):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.edges == other.edges
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.edges, frozenset(self.vertices.items())))


def slot_order(edges, vertex) -> list:
    """The slot convention: (edge, direction) pairs at ``vertex``.

    Scanning ``edges`` in order, an edge contributes an "out" slot at its
    source and then an "in" slot at its target.
    """
    slots = []
    for e in edges:
        if e.source == vertex:
            slots.append((e, "out"))
        if e.target == vertex:
            slots.append((e, "in"))
    return slots


def network(registry: SegmentRegistry, edges: Sequence[Edge], vertices: Mapping) -> SpinNetwork:
    """Build a SpinNetwork whose graph is exactly the support of ``edges``."""
    segs = {s for e in edges for s, _ in e.word}
    return SpinNetwork(EmbeddedGraph(registry, frozenset(segs)), tuple(edges), dict(vertices))


class _WorkEdge:
    __slots__ = ("id", "steps", "source", "target", "spin")

    def __init__(self, eid, steps, source, target, spin):
        self.id = eid
        self.steps = list(steps)
        self.source = source
        self.target = target
        self.spin = spin


class _WorkVertex:
    __slots__ = ("keys", "comps")

    def __init__(self, keys, comps):
        self.keys = list(keys)
        self.comps = np.asarray(comps, dtype=complex)


def _split_working(n: SpinNetwork):
    """Split every edge into one-segment pieces, inserting identity bivalents.

    Returns (work edges by id, in edge order; work vertices by point).  Work
    vertex axes are tagged with (edge id, direction) keys so later passes can
    permute or rewrite them without positional bookkeeping.
    """
    reg = n.graph.registry
    taken = {e.id for e in n.edges}
    wedges: dict = {}
    end_slot: dict = {}
    passing: dict = {}
    for e in n.edges:
        if len(e.word) == 1:
            piece_ids = [e.id]
        else:
            piece_ids = []
            for k in range(len(e.word)):
                nid = f"{e.id}#{k}"
                while nid in taken:
                    nid = "#" + nid
                taken.add(nid)
                piece_ids.append(nid)
        for k, step in enumerate(e.word):
            a, b = _step_endpoints(reg, step)
            wedges[piece_ids[k]] = _WorkEdge(piece_ids[k], [step], a, b, e.spin)
            if k > 0:
                passing.setdefault(a, []).append(
                    ((piece_ids[k - 1], "in"), (piece_ids[k], "out"), e.spin.dim)
                )
        end_slot[(e.id, "out")] = (piece_ids[0], "out")
        end_slot[(e.id, "in")] = (piece_ids[-1], "in")

    wverts: dict = {}
    points = {w.source for w in wedges.values()} | {w.target for w in wedges.values()}
    for p in sorted(points, key=_sort_key):
        keys: list = []
        comps = np.asarray(1.0 + 0.0j)
        if p in n.vertices:
            iv = n.vertices[p]
            comps = np.asarray(iv.components, dtype=complex)
            keys = [end_slot[(eid, d)] for eid, d, _ in n.vertex_slots(p)]
        for key_in, key_out, dim in passing.get(p, ()):
            comps = np.multiply.outer(comps, np.eye(dim, dtype=complex))
            keys.extend([key_in, key_out])
        wverts[p] = _WorkVertex(keys, comps)
    return wedges, wverts


def _assemble(graph: EmbeddedGraph, wedges, wverts) -> SpinNetwork:
    """Turn working structures back into a SpinNetwork.

    The edges follow the order of ``wedges``; each work vertex's axes are
    permuted from their (edge id, direction) keys into slot-convention order.
    """
    edges = tuple(Edge(w.id, tuple(w.steps), w.source, w.target, w.spin) for w in wedges.values())
    vertices = {}
    for p, wv in wverts.items():
        slots = slot_order(edges, p)
        perm = [wv.keys.index((e.id, d)) for e, d in slots]
        legs = tuple((e.spin, d) for e, d in slots)
        vertices[p] = Intertwiner(legs, np.transpose(wv.comps, perm))
    return SpinNetwork(graph, edges, vertices)


def common_refinement(a: SpinNetwork, b: SpinNetwork) -> tuple:
    """Re-express both networks with every edge a single registry segment.

    Identity bivalent vertices are inserted at interior points, so values are
    unchanged while the two networks now name their group variables by the
    same segments.
    """
    _check_shared_registry(a, b)
    return tuple(_assemble(n.graph, *_split_working(n)) for n in (a, b))


def _reverse_work_edge(wid, wedges, wverts) -> None:
    w = wedges[wid]
    sv = wverts[w.source]
    tv = wverts[w.target]
    ax_out = sv.keys.index((wid, "out"))
    ax_in = tv.keys.index((wid, "in"))
    sv.comps = _dualized(sv.comps, ax_out, w.spin.twice_j)
    sv.keys[ax_out] = (wid, "in")
    tv.comps = _dualized(tv.comps, ax_in, w.spin.twice_j)
    tv.keys[ax_in] = (wid, "out")
    (s, r), = w.steps
    w.steps = [(s, not r)]
    w.source, w.target = w.target, w.source


def _bivalent_scalar(wv: _WorkVertex, key_in, key_out) -> complex:
    """Scalar lambda of a bivalent intertwiner, which must be lambda * identity."""
    if sorted(map(_sort_key, wv.keys)) != sorted(map(_sort_key, [key_in, key_out])):
        raise InvalidNetworkError("internal: unexpected slots at bivalent vertex")
    ax_in = wv.keys.index(key_in)
    ax_out = wv.keys.index(key_out)
    mat = np.transpose(wv.comps, (ax_in, ax_out))
    d1, d2 = mat.shape
    if d1 != d2:
        raise InvalidNetworkError(
            "bivalent vertex joins unequal spins; only the zero map intertwines them"
        )
    lam = complex(np.trace(mat) / d1)
    if np.max(np.abs(mat - lam * np.eye(d1))) > 1e-9 * max(1.0, abs(lam)):
        raise InvalidNetworkError(
            "bivalent intertwiner is not a scalar multiple of the identity"
        )
    # exact scalar matrices round-trip bitwise, keeping canonicalize idempotent
    exact = complex(mat[0, 0])
    if np.array_equal(mat, exact * np.eye(d1)):
        return exact
    return lam


def canonicalize(n: SpinNetwork) -> SpinNetwork:
    """Rewrite a network in canonical form without changing its state.

    Each decomposition interval becomes a single edge oriented along its
    least segment id, interior bivalent vertices are absorbed (their scalars
    multiply into the interval's target vertex), and each circle keeps one
    marker bivalent vertex at the source of its least segment.  Each edge is
    named by the first segment of its piece, as ``decompose`` lists it, and
    the edges are listed by that id.  Webs (words that reuse segments) are
    rejected: they have no canonical network form.
    """
    return _canonical_pieces(n)[0]


def _canonical_pieces(n: SpinNetwork) -> tuple:
    """(``canonicalize(n)``, ``decompose(n.graph)``): the canonical network
    and the decomposition of its graph, the same graph, which the canonical
    pass decomposes once."""
    if not n.is_embedded:
        raise InvalidNetworkError(
            "edge words reuse segments; only embedded networks have a canonical form"
        )
    wedges, wverts = _split_working(n)
    seg_to_wid = {w.steps[0][0]: wid for wid, w in wedges.items()}
    dec = decompose(n.graph)

    # Slot keys of merged edges carry a tag until every piece is merged: a
    # canonical id may equal the id of a work edge not yet merged.
    merged: dict = {}

    def align(piece_steps):
        wids = [seg_to_wid[s] for s, _ in piece_steps]
        for wid, (s, want_rev) in zip(wids, piece_steps):
            if wedges[wid].steps[0][1] != want_rev:
                _reverse_work_edge(wid, wedges, wverts)
        return wids

    def absorb_interior(wids):
        lam = 1.0 + 0.0j
        for k in range(len(wids) - 1):
            p = wedges[wids[k]].target
            lam *= _bivalent_scalar(wverts[p], (wids[k], "in"), (wids[k + 1], "out"))
            del wverts[p]
        return lam

    for iv in dec.intervals:
        wids = align(iv.steps)
        lam = absorb_interior(wids)
        eid = iv.steps[0][0]
        merged[eid] = _WorkEdge(eid, iv.steps, iv.start, iv.end, wedges[wids[0]].spin)
        sv = wverts[iv.start]
        sv.keys[sv.keys.index((wids[0], "out"))] = (("#canon", eid), "out")
        tv = wverts[iv.end]
        tv.keys[tv.keys.index((wids[-1], "in"))] = (("#canon", eid), "in")
        tv.comps = tv.comps * lam

    for c in dec.circles:
        wids = align(c.steps)
        lam = absorb_interior(wids)
        spin = wedges[wids[0]].spin
        marker = wverts[c.basepoint]
        lam *= _bivalent_scalar(marker, (wids[-1], "in"), (wids[0], "out"))
        eid = c.steps[0][0]
        merged[eid] = _WorkEdge(eid, c.steps, c.basepoint, c.basepoint, spin)
        marker.keys = [(("#canon", eid), "out"), (("#canon", eid), "in")]
        marker.comps = lam * np.eye(spin.dim, dtype=complex)

    for wv in wverts.values():
        wv.keys = [(tag[1], d) for tag, d in wv.keys]
    ordered = {eid: merged[eid] for eid in sorted(merged, key=_sort_key)}
    return _assemble(n.graph, ordered, wverts), dec
