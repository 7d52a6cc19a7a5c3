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
the engine on its own edges, through one builder (``_state_operands``).
The exact path gives an edge one group factor per segment step of its word,
chained by direct pairings, and contracts each segment's Haar projector in
factored form.  The Monte Carlo path evaluates each state batched over a
chunk of samples and takes the sample mean of conj(state_a) * state_b.  Its
evaluator first fixes the gauge on a maximal tree of the state's graph
(a vertex whose tensor is not invariant keeps its gauge): tree edges
become the identity, and only the other edges, whose words become loops at
a root, need a Wigner matrix per sample, one per distinct (word, spin) for
bra and ket together.  :func:`evaluate` is the one-sample case of that
evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .network_model import InvalidNetworkError, SpinNetwork, _sort_key
from .rep_core import GroupElement, _quat_product, inverse, multiply, transform_intertwiner
from .tensor_engine import (
    MC_CHUNK,
    FactorNetwork,
    GroupFactor,
    LabeledTensor,
    Leg,
    _factor_arrays,
    _factor_plan,
    _execute,
    _mc_mean,
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
    that :func:`mc_inner_product` runs on every chunk, so it evaluates the
    gauge-fixed state (see ``_gauge_fixed_words``), which has the same value
    up to rounding; a vertex whose tensor is not invariant is never
    gauge-transformed.  Each network is prepared once, from a bounded cache.
    """
    h = _coerce_holonomies(h)
    missing = sorted((s for s in n.graph.segments if s not in h), key=_sort_key)
    if missing:
        raise InvalidNetworkError(f"holonomy assignment missing segments {missing!r}")
    quats = {s: h[s].as_array()[None] for s in n.graph.segments}
    value, = _state_values([_prepared_state(n, 1)], quats)
    return complex(value[0])


def _inverse_word(word) -> tuple:
    return tuple((s, not r) for s, r in reversed(word))


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


# Two fixed elements generating a dense subgroup of SU(2): a tensor fixed by
# both is fixed by the whole group, to within the guard's tolerance.
_GUARD_ELEMENTS = (
    GroupElement.from_array((0.6, 0.3, -0.5, 0.55), normalize=True),
    GroupElement.from_array((-0.2, 0.7, 0.4, -0.55), normalize=True),
)


def _is_invariant(iv) -> bool:
    """Whether a vertex tensor is an intertwiner, so that the state may be
    gauge-transformed at its vertex.  Documents may carry explicit tensors
    that are not."""
    tol = 1e-12 * max(1.0, float(np.linalg.norm(iv.components)))
    return all(np.linalg.norm(transform_intertwiner(iv, g) - iv.components) <= tol
               for g in _GUARD_ELEMENTS)


def _gauge_fixed_words(n: SpinNetwork) -> dict:
    """The word of each edge after gauge-fixing on a maximal forest; an
    empty word is the identity.

    The state is unchanged by g_e -> h_t g_e h_s^-1 for any element h_v at
    each invariant vertex.  The forest is a maximum spanning forest with
    edges weighted by dimension (ties by ``_sort_key`` of the edge id),
    over the edges that are not loops and have no non-invariant end, so a
    non-invariant vertex is a tree of its own and keeps h_v = 1.  Each tree
    is rooted at its vertex with the fewest out slots (ties by
    ``_sort_key``).  h_v is the holonomy of the tree path from v to the
    root, so each tree edge becomes the identity and every other edge the
    freely reduced loop inv(h_s) + w_e + h_t.
    """
    invariant = {v: _is_invariant(iv) for v, iv in n.vertices.items()}
    component = {v: v for v in n.vertices}
    tree: dict = {v: [] for v in n.vertices}
    tree_edges = set()
    for e in sorted(n.edges, key=lambda e: (-e.spin.dim, _sort_key(e.id))):
        a, b = component[e.source], component[e.target]
        if a != b and invariant[e.source] and invariant[e.target]:
            component = {v: a if c == b else c for v, c in component.items()}
            tree[e.source].append(e)
            tree[e.target].append(e)
            tree_edges.add(e.id)
    out_slots = {v: 0 for v in n.vertices}
    for e in n.edges:
        out_slots[e.source] += 1
    gauge: dict = {}
    # the first vertex of each tree in this order is its root
    for root in sorted(n.vertices, key=lambda v: (out_slots[v], _sort_key(v))):
        if root in gauge:
            continue
        gauge[root] = ()
        stack = [root]
        while stack:
            p = stack.pop()
            for e in tree[p]:
                c = e.target if e.source == p else e.source
                if c not in gauge:
                    gauge[c] = (_inverse_word(e.word) if e.source == p else e.word) + gauge[p]
                    stack.append(c)
    return {e.id: () if e.id in tree_edges
            else _reduced(_inverse_word(gauge[e.source]) + e.word + gauge[e.target])
            for e in n.edges}


# Distinct (network, batch) pairs whose prepared states are kept.
@lru_cache(maxsize=256)
def _prepared_state(n: SpinNetwork, batch: int) -> tuple:
    """(plan, edge factors, vertex arrays) evaluating ``n`` on ``batch``
    samples at once, kept in a bounded cache.  The state is gauge-fixed
    (``_gauge_fixed_words``): an edge whose word is the identity pairs its
    out slot with its in slot directly, and every other edge is one factor
    whose variable is its gauge-fixed word.  The plan is checked against the
    size budget here, before any sample exists."""
    steps = {eid: ((w, False),) if w else () for eid, w in _gauge_fixed_words(n).items()}
    state = _state_operands(n, "N", False, steps)
    return (_factor_plan(state, batch), state.factors,
            tuple(np.asarray(t.data, complex) for t in state.tensors))


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
    each distinct (word, spin) Wigner matrix is built once, for all states;
    a state with no factor is a constant."""
    factors = [f for _, fs, _ in states for f in fs]
    holonomies = {w: _word_holonomy(quats, w) for w in {f.variable for f in factors}}
    arrays = _factor_arrays(factors, holonomies)
    m = len(next(iter(quats.values())))
    values = []
    for plan, fs, constants in states:
        value = _execute(plan, arrays[:len(fs)] + list(constants))
        values.append(value if fs else np.full(m, complex(value)))
        arrays = arrays[len(fs):]
    return values


def _state_operands(n: SpinNetwork, side: str, conjugate: bool, steps: Mapping) -> FactorNetwork:
    """One state as a factor network: group factors and vertex tensors.

    Edge e carries one factor per entry of ``steps[e.id]``, a tuple of
    (variable, inverted) pairs taken from source to target, chained by
    direct pairings: the "in" slot at the target with the last factor's row,
    each factor's column with the next-earlier factor's row, and the first
    factor's column with the "out" slot at the source.  An edge with no step
    pairs its two vertex slots directly.  Leg ids are tagged with ``side``.
    ``conjugate`` marks the bra side: factors and tensor data are
    conjugated and leg variances flip.
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
    tensors = [LabeledTensor(tuple(Leg((side, "V", v, eid, d), spin,
                                       "ket" if (d == "out") != conjugate else "bra")
                                   for eid, d, spin in n.vertex_slots(v)),
                             iv.components.conj() if conjugate else iv.components)
               for v, iv in n.vertices.items()]
    return FactorNetwork(factors, tensors, pairings)


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


def _paired_network(a: SpinNetwork, b: SpinNetwork) -> FactorNetwork:
    """conj(state_a) * state_b as one factor network, each state on its own
    edges with one factor per segment step of its words."""
    bra, ket = (_state_operands(n, side, side == "A", {e.id: e.word for e in n.edges})
                for n, side in ((a, "A"), (b, "B")))
    return FactorNetwork(bra.factors + ket.factors, bra.tensors + ket.tensors,
                         bra.pairings + ket.pairings)


def exact_inner_product(a: SpinNetwork, b: SpinNetwork) -> complex:
    """<a, b> = integral of conj(state_a) * state_b, antilinear in ``a``.

    Each state keeps its own edges, an edge contributing one group factor
    per segment step of its word.  Each segment's factors, from either
    state, are integrated by one factored invariant basis (the Haar
    projector P = B B^dagger as two tensors), and those bases are contracted
    greedily against each other and the vertex tensors.
    """
    if a.graph.registry != b.graph.registry:
        raise InvalidNetworkError("inner products require a shared segment registry")
    # Every segment that passes structural_zero has a nonzero invariant
    # space, which haar_factored needs for its multiplicity leg.
    if structural_zero(a, b):
        return 0j
    paired = _paired_network(a, b)
    tensors, pairings = list(paired.tensors), list(paired.pairings)
    by_segment: dict = {}
    for f in paired.factors:
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
    given seed and ``MC_CHUNK``.  Each state is gauge-fixed on a maximal
    tree (``_gauge_fixed_words``), so its tree edges need no Wigner matrix
    and a state left without any is a constant.  Each chunk evaluates each
    state on its own edges, with one holonomy per distinct gauge-fixed word
    and one Wigner build per distinct (gauge-fixed word, spin), shared by
    bra and ket, and averages conj(state_a) * state_b; a ket equal to the
    bra is evaluated once.  Each state is prepared and planned once, from a
    bounded cache, and a plan over the size budget raises ValueError before
    any sample is drawn; so does a sample count below 2, before any state is
    prepared.
    """
    if a.graph.registry != b.graph.registry:
        raise InvalidNetworkError("inner products require a shared segment registry")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    segments = sorted(set(a.graph.segments) | set(b.graph.segments), key=_sort_key)
    batch = min(MC_CHUNK, n_samples)
    states = [_prepared_state(n, batch) for n in ((a,) if a == b else (a, b))]

    def chunk_values(quats):
        values = _state_values(states, {s: quats[:, i, :] for i, s in enumerate(segments)})
        return np.conj(values[0]) * values[-1]

    return _mc_mean(n_samples, seed, len(segments), chunk_values)
