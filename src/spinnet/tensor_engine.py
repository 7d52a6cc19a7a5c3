"""Labeled dense tensors and the Haar-integration kernel.

Two evaluation paths share one bookkeeping scheme:

* exact: group variables are integrated out analytically by projecting the
  tensor product of their matrix factors onto the invariant subspace
  (``haar_project``, or as basis and conjugate basis with
  ``haar_factored``), and the remaining network is contracted;
* Monte Carlo: group variables are sampled Haar-uniformly and the same
  network is contracted numerically per sample (``mc_expectation``).

Legs carry (id, spin, variance); contraction only joins a ket leg to a bra
leg of equal spin.  A ``GroupFactor`` names one matrix element
D^j(g)_{row, col} (possibly conjugated and/or inverted) of the variable it
references; its row leg is a ket (bra when conjugated) and its column leg
the opposite.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .rep_core import Spin, haar_quaternions, intertwiner_basis, wigner_entries

__all__ = [
    "Leg",
    "LabeledTensor",
    "GroupFactor",
    "FactorNetwork",
    "contract",
    "haar_project",
    "mc_expectation",
    "MC_CHUNK",
]

# Fixed Monte Carlo chunk size; accumulation in chunk order makes the mean
# bit-stable for a given seed.
MC_CHUNK = 16384


@dataclass(frozen=True)
class Leg:
    id: str
    spin: Spin
    variance: str  # "ket" or "bra"

    def __post_init__(self) -> None:
        if self.variance not in ("ket", "bra"):
            raise ValueError(f"variance must be 'ket' or 'bra', got {self.variance!r}")


@dataclass(frozen=True)
class LabeledTensor:
    legs: tuple[Leg, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "legs", tuple(self.legs))
        shape = tuple(np.shape(self.data))
        expected = tuple(l.spin.dim for l in self.legs)
        if shape != expected:
            raise ValueError(f"data shape {shape} does not match legs {expected}")
        ids = [l.id for l in self.legs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate leg ids within one tensor: {ids}")


@dataclass(frozen=True)
class GroupFactor:
    variable: str
    spin: Spin
    conjugated: bool
    inverted: bool
    row_leg: str
    col_leg: str

    def leg_variances(self) -> tuple[str, str]:
        """(row, col) variances; conjugation dualizes both."""
        return ("bra", "ket") if self.conjugated else ("ket", "bra")


@dataclass(frozen=True)
class FactorNetwork:
    """A closed network: group factors plus constant tensors, fully paired."""

    factors: tuple[GroupFactor, ...]
    tensors: tuple[LabeledTensor, ...]
    pairings: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "tensors", tuple(self.tensors))
        object.__setattr__(self, "pairings", tuple((a, b) for a, b in self.pairings))


# ---------------------------------------------------------------------------
# contraction core

# "Z" is reserved as the batch symbol in einsum subscripts.
_SYMBOLS = string.ascii_lowercase + string.ascii_uppercase[:-1]


class _Node:
    __slots__ = ("legs", "dims", "arr", "batched")

    def __init__(self, legs, dims, arr, batched):
        self.legs = list(legs)
        self.dims = list(dims)
        self.arr = arr
        self.batched = batched


def _einsum_merge(a: _Node, b: _Node | None, pairs: list[tuple[str, str]]) -> _Node:
    """Contract the given leg pairs on one node (trace) or between two nodes."""
    involved = list(a.legs) + (list(b.legs) if b is not None else [])
    sym = {}
    for leg in involved:
        if leg not in sym:
            sym[leg] = _SYMBOLS[len(sym)]
    batch = "Z" if len(sym) < len(_SYMBOLS) else None
    if batch is None:
        raise ValueError("contraction step exceeds symbol budget")
    for la, lb in pairs:
        sym[lb] = sym[la]
    paired = {l for p in pairs for l in p}
    out_legs, out_dims = [], []
    for node in (a, b) if b is not None else (a,):
        for leg, d in zip(node.legs, node.dims):
            if leg not in paired:
                out_legs.append(leg)
                out_dims.append(d)
    out_sub = "".join(sym[l] for l in out_legs)
    batched_out = a.batched or (b is not None and b.batched)
    if batched_out:
        out_sub = batch + out_sub

    def sub(node: _Node) -> str:
        s = "".join(sym[l] for l in node.legs)
        return (batch + s) if node.batched else s

    if b is None:
        arr = np.einsum(f"{sub(a)}->{out_sub}", a.arr)
    else:
        arr = np.einsum(f"{sub(a)},{sub(b)}->{out_sub}", a.arr, b.arr)
    return _Node(out_legs, out_dims, arr, batched_out)


def _contract_nodes(nodes: list[_Node], pairs: list[tuple[str, str]]) -> _Node:
    """Greedy contraction: repeatedly do the step with the smallest result."""
    nodes = list(nodes)
    pairs = list(pairs)
    while pairs:
        owner = {}
        for i, n in enumerate(nodes):
            for leg in n.legs:
                owner[leg] = i
        groups: dict[tuple[int, int], list[tuple[str, str]]] = {}
        for la, lb in pairs:
            ia, ib = owner[la], owner[lb]
            groups.setdefault((min(ia, ib), max(ia, ib)), []).append((la, lb))
        best = None
        for (ia, ib), plist in sorted(groups.items()):
            paired = {l for p in plist for l in p}
            size = 1
            seen = {ia, ib}
            for i in seen:
                for leg, d in zip(nodes[i].legs, nodes[i].dims):
                    if leg not in paired:
                        size *= d
            if best is None or size < best[0]:
                best = (size, ia, ib, plist)
        _, ia, ib, plist = best
        if ia == ib:
            merged = _einsum_merge(nodes[ia], None, plist)
            removed = {ia}
        else:
            merged = _einsum_merge(nodes[ia], nodes[ib], plist)
            removed = {ia, ib}
        nodes = [n for i, n in enumerate(nodes) if i not in removed] + [merged]
        done = set(map(tuple, plist))
        pairs = [p for p in pairs if tuple(p) not in done]
    # outer-combine disconnected remainders in order
    result = nodes[0]
    for n in nodes[1:]:
        result = _einsum_merge(result, n, [])
    return result


def contract(
    tensors: Sequence[LabeledTensor], pairings: Sequence[tuple[str, str]]
) -> LabeledTensor:
    """Contract a tensor list over the given (ket leg, bra leg) pairings.

    The result keeps the unpaired legs in input appearance order.  The
    contraction order is a greedy smallest-intermediate heuristic; any
    order gives the same values.
    """
    legs_by_id: dict[str, Leg] = {}
    for t in tensors:
        for leg in t.legs:
            if leg.id in legs_by_id:
                raise ValueError(f"leg id {leg.id!r} appears on more than one tensor")
            legs_by_id[leg.id] = leg
    seen_in_pairing: set[str] = set()
    for a, b in pairings:
        for l in (a, b):
            if l not in legs_by_id:
                raise ValueError(f"pairing references unknown leg {l!r}")
            if l in seen_in_pairing:
                raise ValueError(f"leg {l!r} appears in more than one pairing")
            seen_in_pairing.add(l)
        la, lb = legs_by_id[a], legs_by_id[b]
        if la.spin != lb.spin:
            raise ValueError(
                f"spin mismatch in pairing ({a!r}, {b!r}): "
                f"{la.spin.twice_j} vs {lb.spin.twice_j}"
            )
        if {la.variance, lb.variance} != {"ket", "bra"}:
            raise ValueError(f"pairing ({a!r}, {b!r}) must join a ket leg to a bra leg")
    nodes = [
        _Node([l.id for l in t.legs], [l.spin.dim for l in t.legs], np.asarray(t.data, complex), False)
        for t in tensors
    ]
    result = _contract_nodes(nodes, list(pairings))
    order = [l.id for t in tensors for l in t.legs if l.id not in seen_in_pairing]
    perm = [result.legs.index(l) for l in order]
    data = np.transpose(result.arr, perm) if perm else result.arr.reshape(())
    return LabeledTensor(tuple(legs_by_id[l] for l in order), np.asarray(data, dtype=complex))


# ---------------------------------------------------------------------------
# Haar projection

# Distinct factor signatures whose invariant bases are kept.
_BASIS_CACHE_SIZE = 256


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _invariant_basis(signature: tuple[tuple[int, bool], ...]) -> np.ndarray:
    """Stacked orthonormal invariant basis B, shape (r, *dims), of one variable.

    ``signature`` holds (twice_j, dualized) per factor.  A conjugated-xor-
    inverted factor transforms in the dual representation, so its axis is an
    "in" leg of the intertwiner space; the projector is P = sum_b B[b] (x)
    conj(B[b]).
    """
    legs = [(Spin(tj), "in" if dual else "out") for tj, dual in signature]
    basis = intertwiner_basis(legs)
    if basis:
        stack = np.stack([iv.components for iv in basis])
    else:
        stack = np.zeros((0,) + tuple(tj + 1 for tj, _ in signature), dtype=complex)
    stack.setflags(write=False)
    return stack


def _projector_sides(factors: Sequence[GroupFactor]):
    """Invariant basis of one variable's factors, with its row-side and
    column-side legs.  Inversion swaps which named leg sits on which side."""
    signature = tuple((f.spin.twice_j, bool(f.conjugated) != bool(f.inverted)) for f in factors)
    row_legs, col_legs = [], []
    for f in factors:
        rv, cv = f.leg_variances()
        row, col = Leg(f.row_leg, f.spin, rv), Leg(f.col_leg, f.spin, cv)
        if f.inverted:
            row, col = col, row
        row_legs.append(row)
        col_legs.append(col)
    return _invariant_basis(signature), tuple(row_legs), tuple(col_legs)


def haar_project(factors: Sequence[GroupFactor]) -> LabeledTensor:
    """Exact Haar integral of a product of matrix factors of one variable.

    Returns the tensor ``\\int \\prod_k M_k(g) dg`` on the factors' named
    legs, where M_k is D^j(g) with the factor's conjugation/inversion
    applied.  The result, viewed as a matrix from the column-side legs to
    the row-side legs, is an orthogonal projector; it is the zero tensor
    when the invariant subspace is trivial, and the scalar 1 for an empty
    factor list.
    """
    factors = list(factors)
    if not factors:
        return LabeledTensor((), np.ones((), dtype=complex))
    variables = {f.variable for f in factors}
    if len(variables) != 1:
        raise ValueError(f"haar_project factors must share one variable, got {sorted(variables)}")
    basis, row_legs, col_legs = _projector_sides(factors)
    return LabeledTensor(row_legs + col_legs, np.tensordot(basis, basis.conj(), (0, 0)))


def haar_factored(factors: Sequence[GroupFactor], key) -> tuple:
    """``haar_project`` in factored form: (B, conj(B), pairing).

    B carries the row-side legs and conj(B) the column-side legs; the pairing
    joins their multiplicity legs ``(key, "ket")`` and ``(key, "bra")``, of
    dimension r = number of invariants, which must be at least 1.
    """
    basis, row_legs, col_legs = _projector_sides(factors)
    mult = Spin(basis.shape[0] - 1)
    ket, bra = Leg((key, "ket"), mult, "ket"), Leg((key, "bra"), mult, "bra")
    return (
        LabeledTensor((ket,) + row_legs, basis),
        LabeledTensor((bra,) + col_legs, basis.conj()),
        (ket.id, bra.id),
    )


# ---------------------------------------------------------------------------
# Monte Carlo

def _factor_arrays(
    factors: Sequence[GroupFactor], quats_by_var: dict[str, np.ndarray]
) -> list[np.ndarray]:
    """Per-sample matrices for each factor, reusing one Wigner build per
    (variable, spin)."""
    base: dict[tuple[str, int], np.ndarray] = {}
    out = []
    for f in factors:
        key = (f.variable, f.spin.twice_j)
        if key not in base:
            base[key] = wigner_entries(f.spin.twice_j, quats_by_var[f.variable])
        arr = base[key]
        if f.inverted:
            arr = np.swapaxes(arr, -1, -2)
            if not f.conjugated:
                arr = np.conj(arr)
        elif f.conjugated:
            arr = np.conj(arr)
        out.append(arr)
    return out


def mc_expectation(
    network: FactorNetwork, n_samples: int, seed: int
) -> tuple[complex, float]:
    """Monte Carlo estimate of a fully contracted factor network.

    Every variable is drawn independently from Haar measure; the network is
    evaluated per sample.  Returns (mean, standard error), bit-stable for a
    fixed seed: samples are generated and reduced in fixed-size chunks from
    a counter-based stream.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    legs_by_id: dict[str, Leg] = {}
    for t in network.tensors:
        for leg in t.legs:
            legs_by_id[leg.id] = leg
    for f in network.factors:
        rv, cv = f.leg_variances()
        legs_by_id[f.row_leg] = Leg(f.row_leg, f.spin, rv)
        legs_by_id[f.col_leg] = Leg(f.col_leg, f.spin, cv)
    paired = {l for p in network.pairings for l in p}
    if paired != set(legs_by_id):
        raise ValueError("mc_expectation requires a fully paired (scalar) network")

    variables = sorted({f.variable for f in network.factors})
    rng = np.random.Generator(np.random.Philox(seed))
    total = 0.0 + 0.0j
    total_sq = 0.0
    remaining = n_samples
    const_nodes = [
        _Node([l.id for l in t.legs], [l.spin.dim for l in t.legs], np.asarray(t.data, complex), False)
        for t in network.tensors
    ]
    while remaining > 0:
        m = min(MC_CHUNK, remaining)
        quats = haar_quaternions(rng, (m, len(variables)))
        quats_by_var = {v: quats[:, i, :] for i, v in enumerate(variables)}
        arrays = _factor_arrays(network.factors, quats_by_var)
        nodes = [
            _Node([f.row_leg, f.col_leg], [f.spin.dim, f.spin.dim], arr, True)
            for f, arr in zip(network.factors, arrays)
        ] + const_nodes
        result = _contract_nodes(nodes, list(network.pairings))
        values = np.asarray(result.arr if result.batched else np.full(m, complex(result.arr)))
        total += values.sum()
        total_sq += float((np.abs(values) ** 2).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq - n_samples * abs(mean) ** 2, 0.0) / (n_samples - 1)
    return complex(mean), float(np.sqrt(var / n_samples))
