"""State evaluation and inner products under the uniform measure.

A spin-network state is a function of one group element per registry
segment: each edge contributes the Wigner matrix of its holonomy (the
ordered product of segment elements along the edge word) and the vertex
intertwiners contract matrix rows into "in" slots and columns into "out"
slots.  Under the uniform measure the segment variables are independent and
Haar distributed, so the inner product <a, b> is the Haar integral of
conj(state_a) * state_b.

:func:`exact_inner_product` integrates it exactly: both states are
re-expressed on single-segment edges (their common refinement) and each
segment's Haar projector is contracted in factored form.
:func:`mc_inner_product` estimates it by sampling: each state is evaluated
on its own edges, batched over a chunk of samples, and the sample mean of
conj(state_a) * state_b is taken.  :func:`evaluate` is the one-sample case
of that evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .network_model import InvalidNetworkError, SpinNetwork, _sort_key, common_refinement
from .rep_core import GroupElement, _quat_product, inverse, multiply
from .tensor_engine import (
    MC_CHUNK,
    GroupFactor,
    LabeledTensor,
    Leg,
    _factor_arrays,
    _execute,
    _mc_mean,
    _plan,
    _Plan,
    contract,
    haar_factored,
)


@dataclass(frozen=True)
class HolonomyAssignment:
    """One group element per segment id."""

    elements: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", dict(self.elements))
        for s, g in self.elements.items():
            if not isinstance(g, GroupElement):
                raise InvalidNetworkError(f"holonomy for segment {s!r} is not a GroupElement")

    def __getitem__(self, segment_id) -> GroupElement:
        return self.elements[segment_id]

    def __contains__(self, segment_id) -> bool:
        return segment_id in self.elements


def _coerce_holonomies(h) -> HolonomyAssignment:
    if isinstance(h, HolonomyAssignment):
        return h
    return HolonomyAssignment(h)


def edge_holonomy(h: HolonomyAssignment, word) -> GroupElement:
    """Ordered product of segment holonomies along a word, rightmost first."""
    total = GroupElement.identity()
    for segment, rev in word:
        g = h[segment]
        if rev:
            g = inverse(g)
        total = multiply(g, total)
    return total


def evaluate(n: SpinNetwork, h) -> complex:
    """Value of the network state at a holonomy assignment.

    Each edge contributes D^j(holonomy); its row index is contracted with the
    "in" slot at the edge's target and its column index with the "out" slot
    at its source.  This is the one-sample case of the batched evaluator
    that :func:`mc_inner_product` runs on every chunk.
    """
    h = _coerce_holonomies(h)
    missing = sorted((s for s in n.graph.segments if s not in h), key=_sort_key)
    if missing:
        raise InvalidNetworkError(f"holonomy assignment missing segments {missing!r}")
    quats = {s: h[s].as_array()[None] for s in n.graph.segments}
    value, = _state_values([_prepared_state(n, 1)], quats)
    return complex(value[0])


# Distinct state shapes whose evaluation plans are kept.
_STATE_PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=_STATE_PLAN_CACHE_SIZE)
def _state_plan(legs: tuple, dims: tuple, pairs: tuple, n_edges: int, batch: int) -> _Plan:
    """The plan evaluating one state shape on ``batch`` samples at once; the
    first ``n_edges`` operands are per-sample edge matrices, the rest vertex
    tensors."""
    return _plan(legs, dims, [True] * n_edges + [False] * (len(legs) - n_edges), pairs, batch)


def _oriented(word) -> tuple[tuple, bool]:
    """The word or its inverse, whichever sorts first, and whether it is the
    inverse.  D(g^-1) = D(g)^dagger, so both share one holonomy and one
    Wigner build."""
    inv = tuple((s, not r) for s, r in reversed(word))
    flipped = [(_sort_key(s), r) for s, r in inv] < [(_sort_key(s), r) for s, r in word]
    return (inv if flipped else word), flipped


def _prepared_state(n: SpinNetwork, batch: int) -> tuple:
    """(plan, edge factors, vertex arrays) evaluating ``n`` on ``batch``
    samples at once.  Each edge is a factor whose variable is its oriented
    word; the plan is checked against the size budget here, before any
    sample exists."""
    edges, tensors, pairings = _side_tensors(n, "N", conjugate=False)
    factors = []
    for e, row, col in edges:
        word, inverted = _oriented(e.word)
        factors.append(GroupFactor(word, e.spin, conjugated=False, inverted=inverted,
                                   row_leg=row, col_leg=col))
    plan = _state_plan(
        tuple((row, col) for _, row, col in edges) + tuple(tuple(l.id for l in t.legs) for t in tensors),
        tuple((e.spin.dim,) * 2 for e, _, _ in edges) + tuple(t.data.shape for t in tensors),
        tuple(pairings), len(edges), batch)
    return plan, factors, [np.asarray(t.data, complex) for t in tensors]


def _word_holonomy(quats: Mapping, word) -> np.ndarray:
    """Batched ``edge_holonomy``: the (m, 4) quaternions of a word's holonomy
    from (m, 4) quaternions per segment, the product of the steps rightmost
    first with a reversed step conjugated."""
    if len(word) == 1 and not word[0][1]:
        return quats[word[0][0]]
    total = None
    for segment, rev in word:
        w, x, y, z = quats[segment].T
        g = (w, -x, -y, -z) if rev else (w, x, y, z)
        total = g if total is None else _quat_product(g, total)
    return np.stack(total, axis=-1)


def _state_values(states, quats: Mapping) -> list[np.ndarray]:
    """Values of prepared states on one batch of (m, 4) quaternions per
    segment, one (m,) array per state.  Each distinct word's holonomy and
    each distinct (word, spin) Wigner matrix is built once, for all states."""
    factors = [f for _, fs, _ in states for f in fs]
    leading = [k in plan.sample_first for plan, fs, _ in states for k in range(len(fs))]
    holonomies: dict = {}
    for f in factors:
        if f.variable not in holonomies:
            holonomies[f.variable] = _word_holonomy(quats, f.variable)
    arrays = _factor_arrays(factors, holonomies, leading)
    values = []
    for plan, fs, constants in states:
        values.append(_execute(plan, arrays[:len(fs)] + constants))
        arrays = arrays[len(fs):]
    return values


def _side_tensors(n: SpinNetwork, side: str, conjugate: bool):
    """Edge legs, vertex tensors, and pairings for one network.

    Returns one (edge, row leg id, column leg id) triple per edge, for the
    caller to turn into a Wigner matrix or a group factor, then the vertex
    tensors and the pairings of edge rows with "in" slots and edge columns
    with "out" slots.  ``conjugate`` marks the bra side: tensor data is
    conjugated and leg variances flip, matching conjugated group factors.
    """
    edges = []
    tensors = []
    pairings = []
    for e in n.edges:
        row = (side, "E", e.id, "r")
        col = (side, "E", e.id, "c")
        edges.append((e, row, col))
        pairings.append((row, (side, "V", e.target, e.id, "in")))
        pairings.append((col, (side, "V", e.source, e.id, "out")))
    for v, iv in n.vertices.items():
        legs = tuple(Leg((side, "V", v, eid, d), spin,
                         "ket" if (d == "out") != conjugate else "bra")
                     for eid, d, spin in n.vertex_slots(v))
        tensors.append(LabeledTensor(legs, iv.components.conj() if conjugate else iv.components))
    return edges, tensors, pairings


def _segment_spins(a: SpinNetwork, b: SpinNetwork) -> dict:
    spins: dict = {}
    for n in (a, b):
        for e in n.edges:
            for s, _ in e.word:
                spins.setdefault(s, []).append(e.spin.twice_j)
    return spins


def structural_zero(a: SpinNetwork, b: SpinNetwork) -> bool:
    """Whether the inner product vanishes identically, before any numerics.

    Integrating a segment's variable kills the product unless the spins
    crossing that segment (from either state) admit an invariant: their
    doubled sum must be even and no single spin may exceed the sum of the
    rest.  A segment traversed with nontrivial spin by only one of two
    disjointly supported networks is the basic case.
    """
    for tjs in _segment_spins(a, b).values():
        if sum(tjs) % 2 == 1 or 2 * max(tjs) > sum(tjs):
            return True
    return False


def _paired_network(a: SpinNetwork, b: SpinNetwork):
    factors, tensors, pairings = [], [], []
    for n, side, conjugate in zip(common_refinement(a, b), "AB", (True, False)):
        edges, t, p = _side_tensors(n, side, conjugate)
        for e, row, col in edges:
            (segment, rev), = e.word
            factors.append(GroupFactor(segment, e.spin, conjugated=conjugate, inverted=rev,
                                       row_leg=row, col_leg=col))
        tensors += t
        pairings += p
    return factors, tensors, pairings


def exact_inner_product(a: SpinNetwork, b: SpinNetwork) -> complex:
    """<a, b> = integral of conj(state_a) * state_b, antilinear in ``a``.

    Computed by common refinement, one factored invariant basis per segment
    (the Haar projector P = B B^dagger as two tensors), and a greedy
    contraction of those bases against vertex tensors.
    """
    if a.graph.registry != b.graph.registry:
        raise InvalidNetworkError("inner products require a shared segment registry")
    # Every segment that passes structural_zero has a nonzero invariant
    # space, which haar_factored needs for its multiplicity leg.
    if structural_zero(a, b):
        return 0j
    factors, tensors, pairings = _paired_network(a, b)
    by_segment: dict = {}
    for f in factors:
        by_segment.setdefault(f.variable, []).append(f)
    for segment in sorted(by_segment, key=_sort_key):
        basis, dual, pairing = haar_factored(by_segment[segment], ("H", segment))
        tensors += [basis, dual]
        pairings.append(pairing)
    result = contract(tensors, pairings)
    return complex(result.data)


def mc_inner_product(a: SpinNetwork, b: SpinNetwork, n_samples: int, seed: int):
    """Monte Carlo estimate of <a, b>; returns (mean, standard error).

    One Haar-uniform element is drawn per segment of the union of the two
    supports, the segments taking the stream's columns in ``_sort_key``
    order, in chunks of ``MC_CHUNK`` samples; the value is bit-stable for a
    given seed and ``MC_CHUNK``.  Each chunk evaluates each state on its own
    edges, with one Wigner build per distinct (word, spin) shared by bra and
    ket, and averages conj(state_a) * state_b; a ket equal to the bra is
    evaluated once.  Each state is planned once per call, and a plan over
    the size budget raises ValueError before any sample is drawn.
    """
    if a.graph.registry != b.graph.registry:
        raise InvalidNetworkError("inner products require a shared segment registry")
    segments = sorted(set(a.graph.segments) | set(b.graph.segments), key=_sort_key)
    batch = min(MC_CHUNK, n_samples)
    states = [_prepared_state(n, batch) for n in ((a,) if a == b else (a, b))]

    def chunk_values(quats):
        values = _state_values(states, {s: quats[:, i, :] for i, s in enumerate(segments)})
        return np.conj(values[0]) * values[-1]

    return _mc_mean(n_samples, seed, len(segments), chunk_values)
