"""Group averaging over decomposition-preserving correspondences.

Two graphs are related by an ambient transformation exactly when their
points/intervals/circles decompositions match up; the classes of such
transformations (modulo the ones fixing every piece with orientation) are
enumerated combinatorially as :class:`Correspondence` objects.  Averaging a
state's inner products over these classes yields the invariant sesquilinear
form computed by :func:`averaged_inner_product` and :func:`averaged_gram`.

Each class's term is the plain inner product of the transported network
with the other one.  Both are canonical networks on one graph, whose edges
carry independent Haar-distributed holonomies, so the term is
prod_e 1/d_e * prod_v <iota^a_v, iota^b_v> (the orthonormality of
spin-network states on a fixed graph).  The pairing evaluates that product
of vertex overlaps directly; :func:`transport` builds the moved network
itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network_model import (
    GraphDecomposition,
    InvalidNetworkError,
    SpinNetwork,
    _assemble,
    _sort_key,
    _WorkEdge,
    _WorkVertex,
    _canonical_pieces,
    _check_shared_registry,
    _inverse_word,
    canonicalize,
)
from .rep_core import _dualized

# Most correspondence classes that enumerate_correspondences lists: about a
# million, each a few hundred bytes and one term of an averaged pairing.
_MAX_CLASSES = 2**20


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


def enumerate_correspondences(
    d1: GraphDecomposition, d2: GraphDecomposition, orientation_preserving_only: bool = False
) -> list:
    """All incidence-compatible piece correspondences from d1 onto d2.

    Empty when the piece counts differ.  Every decomposition point is an
    interval endpoint, so the point bijection is forced by the interval
    assignment.  Intervals are assigned one at a time, a loop only onto a
    loop, and a partial assignment is dropped at the first endpoint that
    maps inconsistently or onto an already used point.  The classes are
    listed by interval permutation, then orientation pattern, each in
    lexicographic order, and then likewise for circles.  The circle maps are
    counted first, and ValueError is raised, before any class is built, as
    soon as the interval assignments found times that count pass
    ``_MAX_CLASSES``.
    """
    if (len(d1.points), len(d1.intervals), len(d1.circles)) != (
        len(d2.points),
        len(d2.intervals),
        len(d2.circles),
    ):
        return []
    flags = (False,) if orientation_preserving_only else (False, True)
    n_int, n_circ = len(d1.intervals), len(d1.circles)
    n_circle_maps = math.factorial(n_circ) * len(flags) ** n_circ
    assignments = []
    pmap: dict = {}
    used_points: set = set()
    used_targets = [False] * n_int
    chosen = []

    def extend(i):
        if i == n_int:
            if set(pmap) == set(d1.points):
                assignments.append((tuple(chosen), dict(pmap)))
                if len(assignments) * n_circle_maps > _MAX_CLASSES:
                    raise ValueError(
                        f"the graphs have more than {_MAX_CLASSES} (2^20) correspondence "
                        f"classes, over the limit of group averaging")
            return
        src = d1.intervals[i]
        src_loop = src.start == src.end
        for j, tgt in enumerate(d2.intervals):
            if used_targets[j] or (tgt.start == tgt.end) != src_loop:
                continue
            for flip in flags:
                pairs = (
                    ((src.start, tgt.end), (src.end, tgt.start))
                    if flip
                    else ((src.start, tgt.start), (src.end, tgt.end))
                )
                added = []
                for p, q in pairs:
                    if p in pmap:
                        if pmap[p] != q:
                            break
                    elif q in used_points:
                        break
                    else:
                        pmap[p] = q
                        used_points.add(q)
                        added.append(p)
                else:
                    used_targets[j] = True
                    chosen.append((j, flip))
                    extend(i + 1)
                    chosen.pop()
                    used_targets[j] = False
                for p in added:
                    used_points.discard(pmap.pop(p))

    extend(0)
    assignments.sort(key=lambda a: (tuple(j for j, _ in a[0]), tuple(f for _, f in a[0])))
    circle_maps = [
        tuple(zip(cperm, corient))
        for cperm in itertools.permutations(range(n_circ))
        for corient in itertools.product(flags, repeat=n_circ)
    ]
    found = []
    for interval_map, pm in assignments:
        point_map = tuple(sorted(pm.items(), key=lambda kv: _sort_key(kv[0])))
        found.extend(
            Correspondence(d1, d2, point_map, interval_map, circle_map)
            for circle_map in circle_maps
        )
    return found


def transport(n: SpinNetwork, c: Correspondence) -> SpinNetwork:
    """Carry a canonical network across a correspondence and re-canonicalize.

    The resulting state satisfies value(transport(n), h) = value(n, h') with
    h' the pullback assignment; orientation-flipped pieces pick up the usual
    dual-representation rewriting during canonicalization.
    """
    prepared = _prepare(n)
    if prepared.pieces != c.source:
        raise InvalidNetworkError("correspondence does not start at this network's graph")
    cn, dec = prepared.network, prepared.pieces
    targets = [(t.steps, t.start, t.end) for t in c.target.intervals]
    targets += [(t.steps, t.basepoint, t.basepoint) for t in c.target.circles]
    n_int = len(dec.intervals)
    moves = list(c.interval_map) + [(n_int + j, flip) for j, flip in c.circle_map]
    wedges: dict = {}
    edge_map: dict = {}
    for k, (old, (j, flip)) in enumerate(zip(prepared.piece_edges, moves)):
        steps, src, dst = targets[j]
        if flip:
            steps, src, dst = _inverse_word(steps), dst, src
        nid = f"#t{k}"
        wedges[nid] = _WorkEdge(nid, steps, src, dst, old.spin)
        edge_map[old.id] = nid

    points = dict(c.point_map)
    points.update(
        (dec.circles[i].basepoint, c.target.circles[j].basepoint)
        for i, (j, _) in enumerate(c.circle_map)
    )
    wverts = {
        points[p]: _WorkVertex([(edge_map[eid], d) for eid, d, _ in cn.vertex_slots(p)],
                               iv.components)
        for p, iv in cn.vertices.items()
    }
    graph = cn.graph.registry.graph({s for w in wedges.values() for s, _ in w.steps})
    return canonicalize(_assemble(graph, wedges, wverts))


@dataclass(frozen=True)
class _Prepared:
    """A canonical network with its decomposition, the edge carried by each
    piece (the intervals in order, then the circles) and, per vertex, its
    slots as (piece index, direction) pairs in slot order."""

    network: SpinNetwork
    pieces: GraphDecomposition
    piece_edges: tuple
    slots: dict


def _prepare(n: SpinNetwork) -> _Prepared:
    cn, dec = _canonical_pieces(n)
    edges = {e.id: e for e in cn.edges}
    piece_edges = tuple(edges[piece.steps[0][0]] for piece in dec.intervals + dec.circles)
    piece_of = {e.id: k for k, e in enumerate(piece_edges)}
    slots = {
        p: tuple((piece_of[eid], d) for eid, d, _ in cn.vertex_slots(p)) for p in cn.vertices
    }
    return _Prepared(cn, dec, piece_edges, slots)


def averaged_inner_product(
    a: SpinNetwork, b: SpinNetwork, orientation_preserving_only: bool = False
) -> complex:
    """Invariant pairing: sum of <transport(a, c), b> over all correspondences.

    One term per correspondence class, in enumeration order; zero when the
    decompositions do not match.  Each term is evaluated as a product of
    vertex overlaps over the edge dimensions, without building the
    transported network.
    """
    return _averaged_pairing(a, b, orientation_preserving_only)[0]


def _averaged_pairing(a: SpinNetwork, b: SpinNetwork, orientation_preserving_only: bool):
    """``averaged_inner_product`` and the number of correspondence classes
    it summed over; a network paired with itself is prepared once."""
    pa = _prepare(a)
    return _prepared_pairing(pa, pa if b is a else _prepare(b), orientation_preserving_only)


def _prepared_pairing(pa: _Prepared, pb: _Prepared, orientation_preserving_only: bool):
    """``_averaged_pairing`` of two prepared networks.

    A class that carries a piece of ``a`` onto a piece of ``b`` with another
    spin contributes nothing (``structural_zero`` holds for its term), so it
    is counted and skipped.  Any other class contributes
    prod_e 1/d_e * prod_p <iota^a_p moved to q, iota^b_q>: the slots of
    vertex p follow their pieces, a flipped piece swaps its slot directions
    with the epsilon rewrite of ``rep_core._dualized``, and the overlaps, which
    classes largely share, are computed once per call.
    """
    corrs = enumerate_correspondences(pa.pieces, pb.pieces, orientation_preserving_only)
    if corrs:
        _check_shared_registry(pa.network, pb.network)
    spins_a = [e.spin.twice_j for e in pa.piece_edges]
    spins_b = [e.spin.twice_j for e in pb.piece_edges]
    n_int = len(pa.pieces.intervals)
    markers_a = [c.basepoint for c in pa.pieces.circles]
    markers_b = [c.basepoint for c in pb.pieces.circles]
    overlaps: dict = {}
    total = 0j
    for c in corrs:
        moves = list(c.interval_map) + [(n_int + j, f) for j, f in c.circle_map]
        if any(s != spins_b[j] for s, (j, _) in zip(spins_a, moves)):
            continue
        points = dict(c.point_map)
        points.update((markers_a[i], markers_b[j]) for i, (j, _) in enumerate(c.circle_map))
        term = 1.0 + 0.0j
        for p, slots in pa.slots.items():
            key = (p, points[p], tuple(moves[i] for i, _ in slots))
            overlap = overlaps.get(key)
            if overlap is None:
                overlap = overlaps[key] = _vertex_overlap(pa, pb, *key)
            term *= overlap
        total += term
    return total / math.prod(tj + 1 for tj in spins_a), len(corrs)


def _vertex_overlap(pa: _Prepared, pb: _Prepared, p, q, moves) -> complex:
    """<iota^a_p, iota^b_q> once each slot of p has moved along ``moves``,
    one (target piece, flipped) pair per slot."""
    comps = pa.network.vertices[p].components
    keys = []
    for axis, ((i, d), (j, flip)) in enumerate(zip(pa.slots[p], moves)):
        if flip:
            comps = _dualized(comps, axis, pa.piece_edges[i].spin.twice_j)
            d = "in" if d == "out" else "out"
        keys.append((j, d))
    perm = [keys.index(k) for k in pb.slots[q]]
    return complex(np.vdot(np.transpose(comps, perm), pb.network.vertices[q].components))


def averaged_gram(
    combinations: Sequence, orientation_preserving_only: bool = False
) -> np.ndarray:
    """Gram matrix of the invariant pairing on weighted network combinations.

    Each entry of ``combinations`` is a sequence of (weight, SpinNetwork)
    pairs; the pairing extends sesquilinearly, antilinear in the first slot.
    Each distinct network is prepared once, however many entries hold it;
    the entries on and above the diagonal are computed and the rest filled
    by conjugate symmetry of the pairing.
    """
    combos = [list(c) for c in combinations]
    prepared = {n: _prepare(n) for n in dict.fromkeys(n for c in combos for _, n in c)}
    combos = [[(w, prepared[n]) for w, n in c] for c in combos]
    size = len(combos)
    gram = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(i, size):
            total = 0j
            for wa, na in combos[i]:
                for wb, nb in combos[j]:
                    total += np.conj(wa) * wb * _prepared_pairing(
                        na, nb, orientation_preserving_only
                    )[0]
            gram[i, j] = total
            if j != i:
                gram[j, i] = np.conj(total)
    return gram
