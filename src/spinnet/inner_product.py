"""State evaluation and inner products under the uniform measure.

A spin-network state is a function of one group element per registry
segment: each edge contributes the Wigner matrix of its holonomy (the
ordered product of segment elements along the edge word) and the vertex
intertwiners contract matrix rows into "in" slots and columns into "out"
slots.  Under the uniform measure the segment variables are independent and
Haar distributed, so inner products reduce to one Haar projector per
segment; :func:`exact_inner_product` performs that contraction exactly, with
each projector in factored form, and :func:`mc_inner_product` estimates the
same integral by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network_model import InvalidNetworkError, SpinNetwork, _sort_key, common_refinement
from .rep_core import GroupElement, Spin, inverse, multiply, wigner_matrix
from .tensor_engine import (
    FactorNetwork,
    GroupFactor,
    LabeledTensor,
    Leg,
    contract,
    haar_factored,
    mc_expectation,
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
    at its source.
    """
    h = _coerce_holonomies(h)
    missing = sorted((s for s in n.graph.segments if s not in h), key=_sort_key)
    if missing:
        raise InvalidNetworkError(f"holonomy assignment missing segments {missing!r}")
    edges, tensors, pairings = _side_tensors(n, "N", conjugate=False)
    mats = [LabeledTensor((Leg(row, e.spin, "ket"), Leg(col, e.spin, "bra")),
                          wigner_matrix(e.spin, edge_holonomy(h, e.word)).entries)
            for e, row, col in edges]
    return complex(contract(mats + tensors, pairings).data)


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
    """Monte Carlo estimate of <a, b>; returns (mean, standard error)."""
    factors, tensors, pairings = _paired_network(a, b)
    net = FactorNetwork(tuple(factors), tuple(tensors), tuple(pairings))
    return mc_expectation(net, n_samples, seed)
