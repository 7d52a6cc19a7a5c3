"""Labeled dense tensors and the Haar-integration kernel.

Two evaluation paths share one bookkeeping scheme:

* exact: group variables are integrated out analytically by projecting the
  tensor product of their matrix factors onto the invariant subspace
  (``haar_project``, or as basis and conjugate basis with
  ``haar_factored``), and the remaining network is contracted;
* Monte Carlo: group variables are sampled Haar-uniformly and the same
  network is contracted numerically per sample (``mc_expectation``); the
  Monte Carlo inner product runs the same planner, executor and reduction
  on each state's own network.

Both contract through one engine.  A planner, which sees only leg ids, dims
and which operands carry a per-sample batch axis, fixes a greedy pairwise
order once per shape (one bounded cache serves both paths), picks a kernel
for each step and rejects a plan whose largest intermediate is over a fixed
budget before any array is allocated.  An executor then runs each step on
transposed, reshaped operands, so the number of legs in a step is not
limited.  Batched operands keep the sample axis last, and a step's kernel
follows from which operands are batched, whatever its size: a step with
both batched is a multiply-add over its inner axis across all samples at
once, because a stacked ``matmul`` pays a dispatch per sample; every other
step, which includes all the steps of an exact contraction, is one
``matmul``.  A single-operand trace is a ``diagonal`` and a ``sum``.

Legs carry (id, spin, variance); contraction only joins a ket leg to a bra
leg of equal spin.  A ``GroupFactor`` names one matrix element
D^j(g)_{row, col} (possibly conjugated and/or inverted) of the variable it
references; its row leg is a ket (bra when conjugated) and its column leg
the opposite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

from .rep_core import (
    _MAX_ELEMENTS, Spin, _sort_key, haar_quaternions, intertwiner_basis, wigner_entries,
)

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
# bit-stable for a given seed.  It also bounds every batched intermediate,
# whose size is the chunk length times the size of one sample's tensor.
MC_CHUNK = 2048


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

@dataclass(frozen=True)
class _Step:
    """One pairwise step of a plan.

    A batched operand is stored with its per-sample axis last, and every
    perm keeps it there.  ``perm_a`` transposes slot ``a`` to [free...,
    contracted...] and ``perm_b`` slot ``b`` to [contracted..., free...], so
    the step is one (rows x inner) @ (inner x cols) product per sample.
    ``kernel`` follows from the batching alone: "trace" (``b`` is None,
    ``a`` ordered [free..., first legs..., partners...]), "madd" (both
    operands batched: a multiply-add over the inner axis) or "matmul"
    (anything else: one matrix product).  ``dims`` is the unbatched shape
    of the result.
    """

    a: int
    b: int | None
    batched_a: bool
    batched_b: bool
    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    rows: int
    inner: int
    cols: int
    dims: tuple[int, ...]
    kernel: str


@dataclass(frozen=True)
class _Plan:
    """Pairwise contraction order for fixed legs, dims and batched flags.

    Slots 0..n-1 hold the n operands and step k writes slot n+k; the result
    is the last slot, with legs ``legs``.
    """

    steps: tuple[_Step, ...]
    legs: tuple


@lru_cache(maxsize=256)  # distinct (shape, batch) keys, for every caller
def _plan(
    legs: tuple[tuple, ...], dims: tuple[tuple[int, ...], ...], batched: tuple[bool, ...],
    pairs: tuple[tuple, ...], batch: int = 1,
) -> _Plan:
    """Greedy pairwise plan over operands given only by leg ids, dims and
    whether they carry a per-sample batch axis of length ``batch``.

    Each round takes the step with the smallest result, counting a batched
    result of n elements as ``batch`` * n; disconnected remainders are then
    joined by outer products, in order.  Raises ValueError, before any array
    exists, when an intermediate would exceed ``_MAX_ELEMENTS`` elements.
    Plans are kept in one bounded cache keyed on the (tuple) arguments, so
    networks that differ only in their data share one; a refusal is not
    cached and recurs on every call.
    """
    live = {i: (list(l), list(d), bool(b)) for i, (l, d, b) in enumerate(zip(legs, dims, batched))}
    pairs = [tuple(p) for p in pairs]
    steps = []

    def add_step(ia, ib, plist):
        la, da, ba = live.pop(ia)
        if ia == ib:
            lb, db, bb = [], [], False
            con_a = [la.index(x) for x, _ in plist] + [la.index(y) for _, y in plist]
            con_b = []
        else:
            lb, db, bb = live.pop(ib)
            in_a = set(la)
            con_a = [la.index(x if x in in_a else y) for x, y in plist]
            con_b = [lb.index(y if x in in_a else x) for x, y in plist]
        free_a = [k for k in range(len(la)) if k not in con_a]
        free_b = [k for k in range(len(lb)) if k not in con_b]
        out_dims = [da[k] for k in free_a] + [db[k] for k in free_b]
        rows = prod(da[k] for k in free_a)
        inner = prod(da[k] for k in con_a[: len(plist)])
        cols = prod(db[k] for k in free_b)
        size = rows * cols * (batch if ba or bb else 1)
        if size > _MAX_ELEMENTS:
            raise ValueError(
                f"contraction needs an intermediate of {size} elements, over the "
                f"limit of {_MAX_ELEMENTS} ({_MAX_ELEMENTS * 16 >> 20} MiB)"
            )
        kernel = "trace" if ia == ib else "madd" if ba and bb else "matmul"
        steps.append(_Step(
            ia, None if ia == ib else ib, ba, bb,
            tuple(free_a + con_a + [len(la)] * ba), tuple(con_b + free_b + [len(lb)] * bb),
            rows, inner, cols, tuple(out_dims), kernel,
        ))
        out_legs = [la[k] for k in free_a] + [lb[k] for k in free_b]
        live[len(legs) + len(steps) - 1] = (out_legs, out_dims, ba or bb)

    while pairs:
        owner = {leg: i for i, (ls, _, _) in live.items() for leg in ls}
        groups: dict[tuple[int, int], list[tuple]] = {}
        for la, lb in pairs:
            ia, ib = owner[la], owner[lb]
            groups.setdefault((min(ia, ib), max(ia, ib)), []).append((la, lb))
        best = None
        for (ia, ib), plist in sorted(groups.items()):
            paired = {l for p in plist for l in p}
            size = batch if live[ia][2] or live[ib][2] else 1
            for i in {ia, ib}:
                for leg, d in zip(live[i][0], live[i][1]):
                    if leg not in paired:
                        size *= d
            if best is None or size < best[0]:
                best = (size, ia, ib, plist)
        _, ia, ib, plist = best
        add_step(ia, ib, plist)
        done = set(plist)
        pairs = [p for p in pairs if p not in done]
    acc, *rest = sorted(live)
    for ib in rest:
        add_step(acc, ib, [])
        acc = len(legs) + len(steps) - 1
    (out_legs, _, _), = live.values()
    return _Plan(tuple(steps), tuple(out_legs))


def _execute(plan: _Plan, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Run a plan; batched arrays share a trailing sample axis of any length.

    Every operand and result keeps the sample axis last.  A "madd" step
    accumulates ``x[:, q, None] * y[None, q]`` over the inner index q, a
    broadcast product when nothing is contracted.  A "matmul" step is one
    matrix product: plain when neither operand is batched, ``y.T @ x``
    stacked over the rows of ``x`` when only ``a`` is, and with the samples
    folded into the columns of ``y`` when only ``b`` is.  A trace is a
    ``diagonal`` and a ``sum``.
    """
    slots = list(arrays)
    for st in plan.steps:
        a, slots[st.a] = slots[st.a], None
        m = a.shape[-1:] if st.batched_a else ()
        x = a.transpose(st.perm_a)
        if st.b is None:
            x = x.reshape((st.rows, st.inner, st.inner) + m)
            out = x.diagonal(axis1=1, axis2=2).sum(-1)
        else:
            b, slots[st.b] = slots[st.b], None
            m = m or (b.shape[-1:] if st.batched_b else ())
            y = b.transpose(st.perm_b)
            if st.kernel == "madd":
                x = x.reshape(st.rows, st.inner, -1)
                y = y.reshape(st.inner, st.cols, -1)
                out = x[:, 0, None] * y[None, 0]
                for q in range(1, st.inner):
                    out += x[:, q, None] * y[None, q]
            elif st.batched_a:
                out = y.reshape(st.inner, st.cols).T @ x.reshape(st.rows, st.inner, -1)
            else:
                out = x.reshape(st.rows, st.inner) @ y.reshape(st.inner, -1)
        slots.append(out.reshape(st.dims + m))
    return slots[-1]


def _checked_legs(
    legs: Sequence[Leg], pairings: Sequence[tuple[str, str]]
) -> tuple[dict[str, Leg], set[str]]:
    """Legs by id and the set of paired ids.  Raises ValueError unless leg ids
    are unique and each pairing joins two known, otherwise unpaired legs: a
    ket leg to a bra leg of equal spin."""
    legs_by_id: dict[str, Leg] = {}
    for leg in legs:
        if leg.id in legs_by_id:
            raise ValueError(f"leg id {leg.id!r} appears on more than one tensor")
        legs_by_id[leg.id] = leg
    paired: set[str] = set()
    for a, b in pairings:
        for l in (a, b):
            if l not in legs_by_id:
                raise ValueError(f"pairing references unknown leg {l!r}")
            if l in paired:
                raise ValueError(f"leg {l!r} appears in more than one pairing")
            paired.add(l)
        la, lb = legs_by_id[a], legs_by_id[b]
        if la.spin != lb.spin:
            raise ValueError(
                f"spin mismatch in pairing ({a!r}, {b!r}): "
                f"{la.spin.twice_j} vs {lb.spin.twice_j}"
            )
        if {la.variance, lb.variance} != {"ket", "bra"}:
            raise ValueError(f"pairing ({a!r}, {b!r}) must join a ket leg to a bra leg")
    return legs_by_id, paired


def contract(
    tensors: Sequence[LabeledTensor], pairings: Sequence[tuple[str, str]]
) -> LabeledTensor:
    """Contract a tensor list over the given (ket leg, bra leg) pairings.

    The result keeps the unpaired legs in input appearance order.  The
    network is planned once, smallest intermediate first, and every step
    runs as one matrix product; any order gives the same values up to
    rounding.  The plan comes from ``_plan``'s bounded cache, so networks
    that differ only in their data, such as the terms of one averaged
    pairing, share one; the legs are checked on every call.  Raises
    ValueError, before any work, when an intermediate would exceed
    ``_MAX_ELEMENTS`` elements.
    """
    legs_by_id, paired = _checked_legs([l for t in tensors for l in t.legs], pairings)
    plan = _plan(tuple(tuple(l.id for l in t.legs) for t in tensors),
                 tuple(tuple(l.spin.dim for l in t.legs) for t in tensors),
                 (False,) * len(tensors), tuple((a, b) for a, b in pairings))
    result = _execute(plan, [np.asarray(t.data, complex) for t in tensors])
    order = [l.id for t in tensors for l in t.legs if l.id not in paired]
    perm = [plan.legs.index(l) for l in order]
    data = np.transpose(result, perm) if perm else result.reshape(())
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
    factor list.  Raises ValueError, before the invariant basis is built,
    when the projector would have more than ``_MAX_ELEMENTS`` elements.
    """
    factors = list(factors)
    if not factors:
        return LabeledTensor((), np.ones((), dtype=complex))
    variables = {f.variable for f in factors}
    if len(variables) != 1:
        raise ValueError(f"haar_project factors must share one variable, got {sorted(variables)}")
    size = prod(f.spin.dim for f in factors) ** 2
    if size > _MAX_ELEMENTS:
        raise ValueError(
            f"the projector on spins {[f.spin.twice_j for f in factors]} has {size} "
            f"elements, over the limit of {_MAX_ELEMENTS}"
        )
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

def _factor_plan(network: FactorNetwork, batch: int) -> _Plan:
    """The plan evaluating a factor network on ``batch`` samples at once: the
    factors, per-sample matrices, come first and the constant tensors after."""
    return _plan(
        tuple((f.row_leg, f.col_leg) for f in network.factors)
        + tuple(tuple(l.id for l in t.legs) for t in network.tensors),
        tuple((f.spin.dim,) * 2 for f in network.factors)
        + tuple(tuple(l.spin.dim for l in t.legs) for t in network.tensors),
        (True,) * len(network.factors) + (False,) * len(network.tensors),
        network.pairings, batch=batch)


def _factor_arrays(factors: Sequence[GroupFactor], quats_by_var: dict) -> list[np.ndarray]:
    """Per-sample matrices for each factor, shape (row, col, sample) with
    the sample axis last, as every plan reads them; one Wigner build per
    (variable, spin)."""
    built: dict[tuple, np.ndarray] = {}
    out = []
    for f in factors:
        key = (f.variable, f.spin.twice_j)
        if key not in built:
            # wigner_entries returns a (sample, row, col) view of (row, col,
            # sample) storage; moving the axes back gives the storage
            entries = wigner_entries(f.spin.twice_j, quats_by_var[f.variable])
            built[key] = entries.transpose(1, 2, 0)
        arr = built[key]
        if f.inverted:
            arr = np.swapaxes(arr, 0, 1)
            if not f.conjugated:
                arr = np.conj(arr)
        elif f.conjugated:
            arr = np.conj(arr)
        out.append(arr)
    return out


def _mc_mean(n_samples: int, seed: int, n_variables: int, chunk_values) -> tuple[complex, float]:
    """The Monte Carlo reduction: (mean, standard error) of a per-sample value.

    Chunks of at most ``MC_CHUNK`` samples are drawn in order from a Philox
    stream seeded by ``seed``, each as an (m, n_variables, 4) array of
    Haar-uniform quaternions; ``chunk_values`` maps it to the m sample
    values, which are summed, with their squared moduli, in chunk order.
    Callers refuse ``n_samples`` below 2 before preparing anything.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    total = 0.0 + 0.0j
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(MC_CHUNK, remaining)
        values = chunk_values(haar_quaternions(rng, (m, n_variables)))
        total += values.sum()
        total_sq += float((np.abs(values) ** 2).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq - n_samples * abs(mean) ** 2, 0.0) / (n_samples - 1)
    return complex(mean), float(np.sqrt(var / n_samples))


def mc_expectation(
    network: FactorNetwork, n_samples: int, seed: int
) -> tuple[complex, float]:
    """Monte Carlo estimate of a fully contracted factor network.

    Every variable is drawn independently from Haar measure, the variables
    taking the stream's columns in ``_sort_key`` order; the network is
    evaluated per sample.  Returns (mean, standard error), bit-stable for a
    fixed seed: samples are generated and reduced in fixed-size chunks from
    a counter-based stream.  The network is planned once, for a full chunk,
    and the plan runs on every chunk with the sample axis last; a plan over
    the size budget raises ValueError before any sample is drawn, and a
    sample count below 2 before any planning.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    factor_legs = [Leg(leg, f.spin, v) for f in network.factors
                   for leg, v in zip((f.row_leg, f.col_leg), f.leg_variances())]
    legs_by_id, paired = _checked_legs(
        factor_legs + [l for t in network.tensors for l in t.legs], network.pairings)
    if paired != set(legs_by_id):
        raise ValueError("mc_expectation requires a fully paired (scalar) network")

    variables = sorted({f.variable for f in network.factors}, key=_sort_key)
    factor_count = len(network.factors)
    plan = _factor_plan(network, min(MC_CHUNK, n_samples))
    constants = [np.asarray(t.data, complex) for t in network.tensors]

    def chunk_values(quats):
        quats_by_var = {v: quats[:, i, :] for i, v in enumerate(variables)}
        result = _execute(
            plan, _factor_arrays(network.factors, quats_by_var) + constants)
        return result if factor_count else np.full(len(quats), complex(result))

    return _mc_mean(n_samples, seed, len(variables), chunk_values)
