"""State evaluation and inner products under the uniform measure.

A spin-network state is a function of one group element per registry
segment: each edge contributes the Wigner matrix of its holonomy (the
ordered product of segment elements along the edge word) and the vertex
intertwiners contract matrix rows into "in" slots and columns into "out"
slots.  Under the uniform measure the segment variables are independent and
Haar distributed, so the inner product <a, b> is the Haar integral of
conj(state_a) * state_b.  Because the intertwiners are invariant, a state
is unchanged by the gauge transformation g_e -> h_t(e) g_e h_s(e)^-1.

:func:`exact_inner_product` integrates it exactly and
:func:`mc_inner_product` estimates it by sampling; both hand each state to
the engine on its own edges, as group factors and (leg ids, array) pairs,
through one builder (``_state_operands``).
The exact path gives an edge one group factor per segment step of its word,
chained by direct pairings, and hands the pair to the engine's exact Haar
integral (``tensor_engine._exact_expectation``).  The Monte Carlo path fixes
the gauge of the measure: Haar measure is invariant too, so a spanning
forest of segments avoiding every non-invariant vertex is set to the
identity (``_gauge_forest``), only the other (chord) segments are drawn, and
each edge keeps its chord steps, freely reduced; a vertex is invariant when
the su(2) generators annihilate its tensor (``rep_core._is_invariant``).
It takes the sample mean of conj(state_a) * state_b over chunks of samples
carried as Cayley-Klein pairs (``rep_core._pair``), two complex arrays, from
the draw through the word products to the engine's one chunk evaluator; the
engine alone sets the chunk length, the sample floor and the chords' stream
columns (``tensor_engine._mc_batch``, ``_mc_mean``).  :func:`evaluate` is
the one-sample case of that evaluator, with no gauge fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .network_model import (
    InvalidNetworkError, SpinNetwork, _check_shared_registry, _sort_key,
)
from .rep_core import (
    GroupElement, _has_invariant, _is_invariant, _pair, _pair_product,
)
from .tensor_engine import (
    GroupFactor, _exact_expectation, _mc_batch, _mc_mean, _prepared, _state_values,
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


def evaluate(n: SpinNetwork, h) -> complex:
    """Value of the network state at a holonomy assignment.

    Each edge contributes D^j(holonomy); its row index is contracted with the
    "in" slot at the edge's target and its column index with the "out" slot
    at its source.  This is the one-sample case of the batched evaluator
    that :func:`mc_inner_product` runs on every chunk, with no gauge fixed:
    setting segments to the identity is valid only inside the integral, so
    each edge is one factor on its freely reduced word.  Each network is
    prepared once, from a bounded cache.
    """
    h = _coerce_holonomies(h)
    missing = sorted((s for s in n.graph.segments if s not in h), key=_sort_key)
    if missing:
        raise InvalidNetworkError(f"holonomy assignment missing segments {missing!r}")
    pairs = {s: _pair(h[s].as_array()[:, None]) for s in n.graph.segments}
    state = _prepared_state(n, frozenset(), 1)
    holonomies = {f.variable: _word_holonomy(pairs, f.variable) for f in state[1]}
    value, = _state_values([state], holonomies, 1)
    return complex(value[0])


def _reduced(word) -> tuple:
    """The freely reduced word: each step followed by its own reverse is
    cancelled, until none is."""
    out: list = []
    for s, r in word:
        if out and out[-1] == (s, not r):
            out.pop()
        else:
            out.append((s, r))
    return tuple(out)


# Distinct (bra, ket) pairs whose gauge forests are kept.
@lru_cache(maxsize=256)
def _gauge_forest(a: SpinNetwork, b: SpinNetwork) -> frozenset:
    """The segments that the Monte Carlo integral sets to the identity: a
    maximum spanning forest of the segments either state touches, kept in a
    bounded cache.

    Both states and Haar measure are unchanged by g_s -> h_q g_s h_p^-1, for
    each segment s from p to q, with an element h_p at each registry point
    that is not a vertex with a non-invariant tensor: inside a word h_p
    cancels, and an invariant vertex tensor absorbs it.  Kruskal takes the
    segments heaviest first, by the summed dimensions of the steps crossing
    them (ties by ``_sort_key``), and never one that ends at a non-invariant
    vertex of either state; a loop never joins two trees.  The vertices are
    tested by ``rep_core._is_invariant``, which builds no Wigner matrix.
    """
    non_invariant = {v for n in ((a,) if a == b else (a, b))
             for v, iv in n.vertices.items() if not _is_invariant(iv)}
    weight = {s: sum(tj + 1 for tj in tjs) for s, tjs in _segment_spins(a, b).items()}
    parent: dict = {}
    tree = set()

    def root(p):
        while p in parent:
            p = parent[p]
        return p

    for s in sorted(weight, key=lambda s: (-weight[s], _sort_key(s))):
        ends = a.graph.registry.endpoints(s)
        source, target = root(ends[0]), root(ends[1])
        if source != target and non_invariant.isdisjoint(ends):
            parent[source] = target
            tree.add(s)
    return frozenset(tree)


# Distinct (network, forest, batch) triples whose prepared states are kept.
@lru_cache(maxsize=256)
def _prepared_state(n: SpinNetwork, tree: frozenset, batch: int) -> tuple:
    """(plan, edge factors, vertex arrays) evaluating ``n`` on ``batch``
    samples at once with the segments of ``tree`` set to the identity, kept
    in a bounded cache.  Each edge is one factor whose variable is its word
    without tree steps, freely reduced; an empty word pairs the edge's out
    slot with its in slot directly.  The plan is checked against the size
    budget here, before any sample exists."""
    words = {e.id: _reduced(step for step in e.word if step[0] not in tree) for e in n.edges}
    steps = {eid: ((w, False),) if w else () for eid, w in words.items()}
    return _prepared(*_state_operands(n, "N", False, steps), batch)


def _word_holonomy(pairs: Mapping, word) -> tuple:
    """The Cayley-Klein pair (a, b) of a word's holonomy, two (m,) arrays,
    from one such pair per segment.  The steps are multiplied rightmost
    first, a reversed step as its inverse (conj(a), -b); a word of one
    unreversed step is its segment's pair."""
    total = None
    for segment, rev in word:
        a, b = pairs[segment]
        g = (a.conjugate(), -b) if rev else (a, b)
        total = g if total is None else _pair_product(g, total)
    return total


def _state_operands(n: SpinNetwork, side: str, conjugate: bool, steps: Mapping) -> tuple:
    """One state as the engine's operands (``tensor_engine._prepared``):
    group factors, each vertex tensor as its (leg ids, array) pair, and
    pairings of leg ids.

    Edge e carries one factor per entry of ``steps[e.id]``, a tuple of
    (variable, inverted) pairs taken from source to target, chained by
    direct pairings: the "in" slot at the target with the last factor's row,
    each factor's column with the next-earlier factor's row, and the first
    factor's column with the "out" slot at the source.  An edge with no step
    pairs its two vertex slots directly.  Leg ids are tagged with ``side``.
    ``conjugate`` marks the bra side: factors and tensor data are
    conjugated.
    """
    factors, pairings = [], []
    for e in n.edges:
        legs = [((side, "E", e.id, k, "r"), (side, "E", e.id, k, "c"))
                for k in range(len(steps[e.id]))]
        factors += [GroupFactor(variable, e.spin, conjugate, inverted, row, col)
                    for (variable, inverted), (row, col) in zip(steps[e.id], legs)]
        chain = ([(side, "V", e.target, e.id, "in")] + [l for rc in reversed(legs) for l in rc]
                 + [(side, "V", e.source, e.id, "out")])
        pairings += zip(chain[0::2], chain[1::2])
    tensors = [(tuple((side, "V", v, eid, d) for eid, d, _ in n.vertex_slots(v)),
                iv.components.conj() if conjugate else iv.components)
               for v, iv in n.vertices.items()]
    return factors, tensors, pairings


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
    crossing that segment (from either state) admit an invariant
    (``rep_core._has_invariant``).  A segment traversed with nontrivial spin
    by only one of two disjointly supported networks is the basic case.
    """
    return not all(_has_invariant(tjs) for tjs in _segment_spins(a, b).values())


def _paired_network(a: SpinNetwork, b: SpinNetwork) -> tuple:
    """conj(state_a) * state_b as the engine's operands (factors, tensors,
    pairings), each state on its own edges with one factor per segment step
    of its words."""
    bra, ket = (_state_operands(n, side, side == "A", {e.id: e.word for e in n.edges})
                for n, side in ((a, "A"), (b, "B")))
    return tuple(x + y for x, y in zip(bra, ket))


def exact_inner_product(a: SpinNetwork, b: SpinNetwork) -> complex:
    """<a, b> = integral of conj(state_a) * state_b, antilinear in ``a``.

    Each state keeps its own edges, an edge contributing one group factor
    per segment step of its word.  Each segment's factors, from either
    state, are integrated by one factored invariant basis (the Haar
    projector P = B B^dagger as two tensors) in the engine's exact integral,
    which contracts those bases greedily with the vertex tensors.
    """
    _check_shared_registry(a, b)
    # Every segment that passes structural_zero has a nonzero invariant
    # space, which the factored projector needs for its multiplicity leg.
    if structural_zero(a, b):
        return 0j
    return _exact_expectation(*_paired_network(a, b))


def mc_inner_product(a: SpinNetwork, b: SpinNetwork, n_samples: int, seed: int):
    """Monte Carlo estimate of <a, b>; returns (mean, standard error).

    The segments of a spanning forest of the two supports
    (``_gauge_forest``) are the identity, and one Haar-uniform element is
    drawn per other (chord) segment under the engine's seed contract
    (``tensor_engine._mc_mean``), bit-stable for a given seed whatever the
    chunk length.  Each chunk evaluates each state on its own edges, with
    one holonomy per distinct chord word and one Wigner build per distinct
    (chord word, spin), shared by bra and ket, and averages conj(state_a) *
    state_b; a ket equal to the bra is evaluated once, and a state whose
    words all reduce to nothing is a constant.  Each pair's forest is found
    once, and each state is prepared and planned once per forest, from
    bounded caches; a plan over the size budget raises ValueError before
    any sample is drawn, and so does a sample count below 2, before any
    forest is found or state prepared.
    """
    _check_shared_registry(a, b)
    batch = _mc_batch(n_samples)
    tree = _gauge_forest(a, b)
    chords = (a.graph.segments | b.graph.segments) - tree
    states = [_prepared_state(n, tree, batch) for n in ((a,) if a == b else (a, b))]
    words = {f.variable for _, fs, _ in states for f in fs}
    return _mc_mean(n_samples, seed, chords, states,
                    lambda pairs: {w: _word_holonomy(pairs, w) for w in words},
                    lambda values: np.conj(values[0]) * values[-1])
