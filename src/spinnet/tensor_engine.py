"""Labeled dense tensors and the Haar-integration kernel.

Two evaluation paths share one bookkeeping scheme:

* exact: each variable's factors are replaced by the projector onto the
  invariant subspace of their tensor product (``haar_project``) as its
  basis B on the row-side legs and conj(B) on the column-side legs
  (``_projector_sides``), and the remaining network is contracted
  (``_exact_expectation``, which the exact inner product runs);
* Monte Carlo: group variables are sampled Haar-uniformly and the same
  network is contracted numerically per sample (``mc_expectation``); the
  Monte Carlo inner product runs the same reduction on each state's own
  network.

Both, and ``contract``, enter one engine through ``_prepared``, which takes
group factors, constant tensors as (leg ids, array) pairs, and pairings of
leg ids.  A planner, which sees only leg ids, dims and which operands carry
a per-sample batch axis, fixes a greedy pairwise order once per shape (in
one bounded cache), picks a kernel for each step and rejects a plan whose
largest intermediate is over a fixed budget before any array is allocated.
An executor then runs each step on transposed, reshaped operands, so the
number of legs in a step is not limited.  Batched operands keep the sample
axis last, and a step's kernel follows from which operands are batched,
whatever its size: a step with both batched is a multiply-add over its
inner axis across all samples at once, because a stacked ``matmul`` pays a
dispatch per sample; every other step, which includes all the steps of an
exact contraction, is one ``matmul``.  A single-operand trace is a
``diagonal`` and a ``sum``.

The sampled path has one chunk evaluator, ``_state_values``: it resets
this thread's scratch (``_Scratch``), builds one Wigner matrix per
(variable, spin) there, from Cayley-Klein pairs, and runs each prepared
state's plan, whose sampled matrix products but the last reuse it too, so
a warm chunk takes no fresh page; an unbatched plan never touches it.  This
module alone fixes the Monte Carlo contract: the chunk length and the
sample floor (``_mc_batch``), the stream's column order and the reduction
(``_mc_mean``).

The tensor classes are the public boundary.  Legs carry (id, spin,
variance); ``contract`` and ``mc_expectation`` check that each pairing joins
a ket leg to a bra leg of equal spin (``_checked_legs``) and hand
``_prepared`` only leg ids and arrays (``_operands``), and ``haar_project``
returns a ``LabeledTensor``.  The inner products build their operands
straight from their networks, with no tensor object.  A ``GroupFactor``
names one matrix element D^j(g)_{row, col} (possibly conjugated and/or
inverted) of the variable it references; its row leg is a ket (bra when
conjugated) and its column leg the opposite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Mapping, Sequence

import numpy as np

from .rep_core import _MAX_ELEMENTS, Spin, _haar_pairs, _invariant_basis, _pair_wigner, _sort_key

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

# Fixed Monte Carlo chunk size.  It bounds every batched intermediate, whose
# size is the chunk length times the size of one sample's tensor.
MC_CHUNK = 2048
# Samples are summed in fixed blocks of this many, so a mean is bit-stable
# for a given seed whatever the chunk size, a multiple of it.
_MC_BLOCK = 256
# Largest per-thread chunk scratch kept between chunks and calls, in complex
# elements: 2**21 of 16 bytes is 32 MiB.  A chunk that needs more runs the
# rest of its steps on fresh arrays.
_MC_SCRATCH_CAP = 2**21


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
# Monte Carlo chunk scratch

class _Scratch(threading.local):
    """One thread's Monte Carlo scratch: a bump allocator over one flat
    complex buffer, reused from one chunk to the next and from one call to
    the next, so that a warm chunk touches no fresh page.  ``_state_values``
    resets it for each chunk, ``evaluate``'s one sample included; the
    chunk's Wigner builds (``_factor_arrays``) and its sampled matrix
    products but the last (``_execute``) take pieces of it.

    ``take`` hands out the next unused piece of the buffer, or None, for a
    fresh array, when the request does not fit.  ``reset`` starts a chunk:
    every piece is free again, and the buffer grows to the previous chunk's
    need when that is at most ``_MC_SCRATCH_CAP`` elements; a larger buffer
    is dropped, so at most that many are retained.  Pieces live until the
    next reset and are never handed to callers.
    """

    def __init__(self) -> None:
        self.buffer = np.empty(0, dtype=complex)
        self.need = 0  # elements requested since the last reset

    def reset(self) -> None:
        cap = _MC_SCRATCH_CAP
        if self.buffer.size < self.need <= cap or self.buffer.size > cap:
            self.buffer = np.empty(self.need if self.need <= cap else 0, dtype=complex)
        self.need = 0

    def take(self, shape: tuple) -> np.ndarray | None:
        start, self.need = self.need, self.need + prod(shape)
        if self.need <= self.buffer.size:
            return self.buffer[start:self.need].reshape(shape)
        return None


_SCRATCH = _Scratch()


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

    A matrix product that carries samples is written to ``_SCRATCH``,
    unless its step is the last, whose result goes to the caller; the same
    ufuncs run on the same operands in the same order, so the bits are
    those of fresh arrays.  An unbatched plan never touches the scratch.
    """
    slots = list(arrays)
    last = len(plan.steps) - 1
    for k, st in enumerate(plan.steps):
        scratch = k < last and (st.batched_a or st.batched_b)
        a, slots[st.a] = slots[st.a], None
        m = a.shape[-1:] if st.batched_a else ()
        x = a.transpose(st.perm_a)
        if st.b is None:
            out = x.reshape((st.rows, st.inner, st.inner) + m).diagonal(axis1=1, axis2=2).sum(-1)
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
                out = np.matmul(y.reshape(st.inner, st.cols).T, x.reshape(st.rows, st.inner, -1),
                                out=_SCRATCH.take((st.rows, st.cols) + m) if scratch else None)
            else:
                y = y.reshape(st.inner, -1)
                out = np.matmul(x.reshape(st.rows, st.inner), y,
                                out=_SCRATCH.take((st.rows, y.shape[1])) if scratch else None)
        slots.append(out.reshape(st.dims + m))
    return slots[-1]


def _prepared(factors: Sequence[GroupFactor], tensors: Sequence[tuple],
              pairings: Sequence[tuple], batch: int) -> tuple:
    """(plan, factors, constant arrays): operands ready for ``_execute`` on
    ``batch`` samples at once, the one way into the planner.  ``tensors``
    are constant (leg ids, array) pairs, each array's shape its legs' dims.
    The plan takes the factors, per-sample matrices, first and the constant
    tensors after; it is checked against the size budget before any work."""
    factors = tuple(factors)
    plan = _plan(
        tuple((f.row_leg, f.col_leg) for f in factors) + tuple(tuple(ids) for ids, _ in tensors),
        tuple((f.spin.dim,) * 2 for f in factors) + tuple(np.shape(data) for _, data in tensors),
        (True,) * len(factors) + (False,) * len(tensors),
        tuple((a, b) for a, b in pairings), batch=batch)
    return plan, factors, tuple(np.asarray(data, complex) for _, data in tensors)


def _operands(tensors: Sequence[LabeledTensor]) -> list:
    """Public tensors as the (leg ids, array) pairs ``_prepared`` takes."""
    return [(tuple(l.id for l in t.legs), t.data) for t in tensors]


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
    plan, _, arrays = _prepared((), _operands(tensors), pairings, 1)
    result = _execute(plan, list(arrays))
    order = [l.id for t in tensors for l in t.legs if l.id not in paired]
    perm = [plan.legs.index(l) for l in order]
    data = np.transpose(result, perm) if perm else result.reshape(())
    return LabeledTensor(tuple(legs_by_id[l] for l in order), np.asarray(data, dtype=complex))


# ---------------------------------------------------------------------------
# Haar projection: P = sum_b B[b] (x) conj(B[b]) over the rows of one
# variable's cached stack B = rep_core._invariant_basis(signature).

def _projector_sides(factors: Sequence[GroupFactor]):
    """Invariant basis of one variable's factors, with the (id, variance) of
    each row-side and column-side leg.  Inversion swaps which named leg sits
    on which side.  A conjugated-xor-inverted factor transforms in the dual
    representation: its axis is an "in" leg, dualized in
    ``rep_core._invariant_basis``."""
    signature = tuple((f.spin.twice_j, bool(f.conjugated) != bool(f.inverted)) for f in factors)
    rows, cols = [], []
    for f in factors:
        row, col = zip((f.row_leg, f.col_leg), f.leg_variances())
        if f.inverted:
            row, col = col, row
        rows.append(row)
        cols.append(col)
    return _invariant_basis(signature), rows, cols


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
    basis, rows, cols = _projector_sides(factors)
    legs = tuple(Leg(i, f.spin, v) for side in (rows, cols) for f, (i, v) in zip(factors, side))
    return LabeledTensor(legs, np.tensordot(basis, basis.conj(), (0, 0)))


def _exact_expectation(factors: Sequence[GroupFactor], tensors: Sequence[tuple],
                       pairings: Sequence[tuple]) -> complex:
    """Exact twin of ``mc_expectation``, on ``_prepared``'s operands.  Each
    variable's factors, taken in ``_sort_key`` order, become its invariant
    basis B on their row-side ids and conj(B) on their column-side ids
    (``_projector_sides``), with the multiplicity legs ``(("H", variable),
    "ket")`` and ``(("H", variable), "bra")`` paired: ``haar_project``'s
    projector in factored form, so each variable must admit an invariant.
    The constant network that results is planned and contracted once."""
    by_variable: dict = {}
    for f in factors:
        by_variable.setdefault(f.variable, []).append(f)
    tensors, pairings = list(tensors), list(pairings)
    for variable in sorted(by_variable, key=_sort_key):
        basis, rows, cols = _projector_sides(by_variable[variable])
        ket, bra = (("H", variable), "ket"), (("H", variable), "bra")
        tensors += [((ket,) + tuple(i for i, _ in rows), basis),
                    ((bra,) + tuple(i for i, _ in cols), basis.conj())]
        pairings.append((ket, bra))
    plan, _, arrays = _prepared((), tensors, pairings, 1)
    return complex(_execute(plan, list(arrays)))


# ---------------------------------------------------------------------------
# Monte Carlo

def _factor_arrays(factors: Sequence[GroupFactor], pairs_by_var: Mapping) -> list[np.ndarray]:
    """Per-sample matrices for each factor, shape (row, col, sample) with
    the sample axis last, as every plan reads them, from each variable's
    Cayley-Klein pair (a, b) of (sample,) arrays; one ``_pair_wigner``
    build per (variable, spin), written to ``_SCRATCH`` as its ``out``
    array."""
    built: dict[tuple, np.ndarray] = {}
    out = []
    for f in factors:
        key = (f.variable, f.spin.twice_j)
        if key not in built:
            a, b = pairs_by_var[f.variable]
            built[key] = _pair_wigner(f.spin.twice_j, a, b,
                                      _SCRATCH.take((f.spin.dim,) * 2 + a.shape))
        arr = built[key]
        # D(g^-1) = D(g)^dagger: inverting conjugates and swaps the axes, so
        # a conjugated inverse only swaps them
        if f.inverted != f.conjugated:
            arr = np.conj(arr)
        if f.inverted:
            arr = np.swapaxes(arr, 0, 1)
        out.append(arr)
    return out


def _state_values(states, holonomies: Mapping, m: int) -> list[np.ndarray]:
    """Values of prepared states (``_prepared``) on one batch of m samples,
    given as a Cayley-Klein pair of (m,) arrays per variable, one (m,) array
    per state.  Each distinct (variable, spin) Wigner matrix is built once,
    for all states; a state with no factor is a constant.  The batch starts
    by resetting ``_SCRATCH``, which then holds the Wigner matrices and the
    sampled matrix products of non-final steps, never the values."""
    _SCRATCH.reset()
    factors = [f for _, fs, _ in states for f in fs]
    arrays = _factor_arrays(factors, holonomies)
    values = []
    for plan, fs, constants in states:
        value = _execute(plan, arrays[:len(fs)] + list(constants))
        values.append(value if fs else np.full(m, complex(value)))
        arrays = arrays[len(fs):]
    return values


def _mc_batch(n_samples: int) -> int:
    """The chunk length, and the batch every Monte Carlo plan is made for:
    ``MC_CHUNK``, or ``n_samples`` when fewer.  Refuses fewer than 2."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    return min(MC_CHUNK, n_samples)


def _mc_mean(n_samples: int, seed: int, variables, states, holonomies,
             combine) -> tuple[complex, float]:
    """The Monte Carlo reduction: (mean, standard error) of a per-sample
    value of prepared states (``_prepared`` for ``_mc_batch(n_samples)``).

    The seed contract: chunks of ``_mc_batch(n_samples)`` samples, the last
    possibly shorter, are drawn in order from a Philox stream seeded by
    ``seed``, each an (m, len(variables)) draw of Haar-uniform Cayley-Klein
    pairs (``rep_core._haar_pairs``) whose k-th column is the k-th drawn
    variable in ``_sort_key`` order, whatever order ``variables`` has.
    ``holonomies(pairs)`` maps those to one pair per variable of the
    states, and ``combine(values)`` the states' values to the m sample
    values.  These are summed, with their squared moduli, in blocks of
    ``_MC_BLOCK`` samples (the last may be shorter), and the block sums are
    added to running totals in block order, so no chunk length moves a
    bit.  Each chunk runs in this thread's ``_Scratch``; the values never
    live in it.
    """
    batch = _mc_batch(n_samples)
    variables = sorted(variables, key=_sort_key)
    rng = np.random.Generator(np.random.Philox(seed))
    total = 0.0 + 0.0j
    total_sq = 0.0
    for start in range(0, n_samples, batch):
        m = min(batch, n_samples - start)
        draw = _haar_pairs(rng, m, len(variables))
        pairs = holonomies(dict(zip(variables, zip(*draw))))
        values = combine(_state_values(states, pairs, m))
        full = m - m % _MC_BLOCK
        for blocks in (values[:full].reshape(-1, _MC_BLOCK), values[None, full:]):
            for s, s_sq in zip(blocks.sum(1).tolist(), (np.abs(blocks) ** 2).sum(1).tolist()):
                total += s
                total_sq += s_sq
    mean = total / n_samples
    var = max(total_sq - n_samples * abs(mean) ** 2, 0.0) / (n_samples - 1)
    return complex(mean), float(np.sqrt(var / n_samples))


def mc_expectation(
    network: FactorNetwork, n_samples: int, seed: int
) -> tuple[complex, float]:
    """Monte Carlo estimate of a fully contracted factor network.

    Every variable is drawn independently from Haar measure, under the seed
    contract of ``_mc_mean``; the network is evaluated per sample.  Returns
    (mean, standard error), bit-stable for a fixed seed.  The network is
    planned once, for a full chunk (``_mc_batch``), and the plan runs on
    every chunk with the sample axis last; a plan over the size budget
    raises ValueError before any sample is drawn, and a sample count below
    2 before any planning.
    """
    batch = _mc_batch(n_samples)
    factor_legs = [Leg(leg, f.spin, v) for f in network.factors
                   for leg, v in zip((f.row_leg, f.col_leg), f.leg_variances())]
    legs_by_id, paired = _checked_legs(
        factor_legs + [l for t in network.tensors for l in t.legs], network.pairings)
    if paired != set(legs_by_id):
        raise ValueError("mc_expectation requires a fully paired (scalar) network")

    state = _prepared(network.factors, _operands(network.tensors), network.pairings, batch)
    return _mc_mean(n_samples, seed, {f.variable for f in network.factors}, [state],
                    lambda pairs: pairs, lambda values: values[0])
