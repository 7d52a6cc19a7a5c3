"""Group averaging over decomposition-preserving correspondences.

Two graphs are related by an ambient transformation exactly when their
points/intervals/circles decompositions match up; the classes of such
transformations (modulo the ones fixing every piece with orientation) are
enumerated combinatorially as :class:`Correspondence` objects.  Averaging a
state's inner products over these classes yields the invariant sesquilinear
form computed by :func:`averaged_inner_product` and :func:`averaged_gram`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inner_product import exact_inner_product
from .network_model import (
    Edge,
    GraphDecomposition,
    InvalidNetworkError,
    SpinNetwork,
    _sort_key,
    canonicalize,
    decompose,
    slot_order,
)
from .rep_core import Intertwiner


@dataclass(frozen=True)
class Correspondence:
    """One class of decomposition-preserving maps between two graphs.

    ``interval_map[i] = (j, flipped)`` sends source interval i to target
    interval j, reversing its orientation when flipped; likewise for
    circles.  ``point_map`` is the bijection of decomposition points forced
    by the interval endpoints.
    """

    source: GraphDecomposition
    target: GraphDecomposition
    point_map: tuple
    interval_map: tuple
    circle_map: tuple

    def mapped_point(self, p):
        for a, b in self.point_map:
            if a == p:
                return b
        raise KeyError(p)


def enumerate_correspondences(
    d1: GraphDecomposition, d2: GraphDecomposition, orientation_preserving_only: bool = False
) -> list:
    """All incidence-compatible piece correspondences from d1 onto d2.

    Empty when the piece counts differ.  Every decomposition point is an
    interval endpoint, so the point bijection is forced by the interval
    assignment; an assignment survives only if that forcing is consistent
    and bijective.
    """
    if (len(d1.points), len(d1.intervals), len(d1.circles)) != (
        len(d2.points),
        len(d2.intervals),
        len(d2.circles),
    ):
        return []
    flags = (False,) if orientation_preserving_only else (False, True)
    n_int, n_circ = len(d1.intervals), len(d1.circles)
    found = []
    for perm in itertools.permutations(range(n_int)):
        for orient in itertools.product(flags, repeat=n_int):
            pmap: dict = {}
            ok = True
            for i, (j, flip) in enumerate(zip(perm, orient)):
                src, tgt = d1.intervals[i], d2.intervals[j]
                pairs = (
                    ((src.start, tgt.end), (src.end, tgt.start))
                    if flip
                    else ((src.start, tgt.start), (src.end, tgt.end))
                )
                for p, q in pairs:
                    if pmap.setdefault(p, q) != q:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            if set(pmap) != set(d1.points):
                continue
            if len(set(pmap.values())) != len(pmap):
                continue
            point_map = tuple(sorted(pmap.items(), key=lambda kv: _sort_key(kv[0])))
            interval_map = tuple(zip(perm, orient))
            for cperm in itertools.permutations(range(n_circ)):
                for corient in itertools.product(flags, repeat=n_circ):
                    found.append(
                        Correspondence(
                            d1, d2, point_map, interval_map, tuple(zip(cperm, corient))
                        )
                    )
    return found


def _reversed_steps(steps) -> tuple:
    return tuple((s, not r) for s, r in reversed(steps))


def transport(n: SpinNetwork, c: Correspondence) -> SpinNetwork:
    """Carry a canonical network across a correspondence and re-canonicalize.

    The resulting state satisfies value(transport(n), h) = value(n, h') with
    h' the pullback assignment; orientation-flipped pieces pick up the usual
    dual-representation rewriting during canonicalization.
    """
    n = canonicalize(n)
    dec = decompose(n.graph)
    if dec != c.source:
        raise InvalidNetworkError("correspondence does not start at this network's graph")

    piece_edges = {}
    for e in n.edges:
        segs = frozenset(s for s, _ in e.word)
        piece_edges[segs] = e

    edge_map: dict = {}
    new_edges = []
    marker_points = {}
    for i, iv in enumerate(dec.intervals):
        j, flip = c.interval_map[i]
        tgt = c.target.intervals[j]
        old = piece_edges[frozenset(s for s, _ in iv.steps)]
        nid = f"#t{len(new_edges)}"
        if flip:
            word, src, dst = _reversed_steps(tgt.steps), tgt.end, tgt.start
        else:
            word, src, dst = tgt.steps, tgt.start, tgt.end
        new_edges.append(Edge(nid, word, src, dst, old.spin))
        edge_map[old.id] = nid
    for i, circ in enumerate(dec.circles):
        j, flip = c.circle_map[i]
        tgt = c.target.circles[j]
        old = piece_edges[frozenset(s for s, _ in circ.steps)]
        nid = f"#t{len(new_edges)}"
        word = _reversed_steps(tgt.steps) if flip else tgt.steps
        new_edges.append(Edge(nid, word, tgt.basepoint, tgt.basepoint, old.spin))
        edge_map[old.id] = nid
        marker_points[circ.basepoint] = tgt.basepoint

    point_map = dict(c.point_map)
    point_map.update(marker_points)
    spins = {e.id: e.spin for e in new_edges}
    moved = SpinNetwork(
        n.graph.registry.graph({s for e in new_edges for s, _ in e.word}),
        tuple(new_edges),
        _relocate_vertices(n, new_edges, edge_map, point_map, spins),
    )
    return canonicalize(moved)


def _relocate_vertices(n, new_edges, edge_map, point_map, spins) -> dict:
    vertices = {}
    for p, iv in n.vertices.items():
        q = point_map[p]
        old_keys = [(edge_map[eid], d) for eid, d, _ in n.vertex_slots(p)]
        want = [(e.id, d) for e, d in slot_order(new_edges, q)]
        perm = [old_keys.index(k) for k in want]
        comps = np.transpose(iv.components, perm)
        legs = tuple((spins[eid], d) for eid, d in want)
        vertices[q] = Intertwiner(legs, comps)
    return vertices


def averaged_inner_product(
    a: SpinNetwork, b: SpinNetwork, orientation_preserving_only: bool = False
) -> complex:
    """Invariant pairing: sum of <transport(a, c), b> over all correspondences.

    One term per correspondence class, in enumeration order; zero when the
    decompositions do not match.
    """
    return _averaged_pairing(a, b, orientation_preserving_only)[0]


def _averaged_pairing(a: SpinNetwork, b: SpinNetwork, orientation_preserving_only: bool):
    """``averaged_inner_product`` and the number of correspondence classes
    it summed over."""
    ca, cb = canonicalize(a), canonicalize(b)
    corrs = enumerate_correspondences(
        decompose(ca.graph), decompose(cb.graph), orientation_preserving_only
    )
    total = 0j
    for c in corrs:
        total += exact_inner_product(transport(ca, c), cb)
    return total, len(corrs)


def averaged_gram(
    combinations: Sequence, orientation_preserving_only: bool = False
) -> np.ndarray:
    """Gram matrix of the invariant pairing on weighted network combinations.

    Each entry of ``combinations`` is a sequence of (weight, SpinNetwork)
    pairs; the pairing extends sesquilinearly, antilinear in the first slot.
    Entries are computed independently (no symmetry shortcut).
    """
    combos = [tuple(c) for c in combinations]
    size = len(combos)
    gram = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(size):
            total = 0j
            for wa, na in combos[i]:
                for wb, nb in combos[j]:
                    total += np.conj(wa) * wb * averaged_inner_product(
                        na, nb, orientation_preserving_only
                    )
            gram[i, j] = total
    return gram
