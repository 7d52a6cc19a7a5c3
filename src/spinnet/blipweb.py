"""Four-curve web states threaded through a ladder of paired arcs.

The construction lives over an alphabet of 4N independent segments: for
each column index -N <= i < N there is a "plus" arc and a "minus" arc
joining junction x_i to x_{i+1}.  A curve word picks one arc per column,
and a tassel bundles four such curves, all spin 1/2, joined at the two
shared endpoints by the canonical pair couplings (curve 1 with 2, curve 3
with 4).  The reference state takes curve 1 all plus, curve 2 all minus,
and curves 3 and 4 alternating in opposite phase; rerouting two curves at
one odd column, or swapping all four at one column, produces states whose
inner products with the reference state are computed here by an exact
column-by-column transfer contraction.

Two flavors of inner product are exposed.  The truncated one is the
literal inner product of the finite-window states and agrees with the
generic network engine.  The stabilized one replaces the endpoint weights
by their component in the joint fixed space of the agreeing-column
transfer operators, which is exactly what integrating out an infinite
tail of agreeing columns leaves behind; its value is independent of the
window size and of where an admissible reroute sits.

The geometric side realizes each arc as a smooth bump of amplitude
2^(-4^|i|) over [x_i, x_{i+1}], with the junctions accumulating at 0 and
1, and emits sampled polylines for the four curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .rep_core import Spin, Intertwiner, _invariant_basis, epsilon
from .network_model import SegmentRegistry, Edge, SpinNetwork, network

__all__ = [
    "ToleranceError",
    "BlipAlphabet",
    "CurveWord",
    "TasselState",
    "BumpCurve",
    "build_tassel",
    "build_phi",
    "swap_signs",
    "truncated_inner_product",
    "stabilized_inner_product",
    "observation_one",
    "observation_two",
    "junction",
    "bump",
    "blip_amplitude",
    "emit_geometry",
    "write_curves_csv",
]

PLUS = "+"
MINUS = "-"
_FLIPPED = {PLUS: MINUS, MINUS: PLUS}
_HALF = Spin(1)


class ToleranceError(RuntimeError):
    """A computed quantity failed one of the advertised numerical guarantees."""


@dataclass(frozen=True)
class BlipAlphabet:
    """The 4N arc segments of a width-2N ladder.

    Columns are indexed by -N <= i < N; column i holds two segments,
    ``b{i}+`` and ``b{i}-``, both running from junction point ``x{i}`` to
    ``x{i+1}``.
    """

    truncation: int

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError(f"truncation must be at least 1, got {self.truncation}")

    @property
    def indices(self) -> range:
        return range(-self.truncation, self.truncation)

    def point_id(self, i: int) -> str:
        return f"x{i}"

    def segment_id(self, i: int, sign: str) -> str:
        if sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        if i not in self.indices:
            raise ValueError(f"column {i} outside [-{self.truncation}, {self.truncation})")
        return f"b{i}{sign}"

    def registry(self) -> SegmentRegistry:
        reg = SegmentRegistry()
        for i in range(-self.truncation, self.truncation + 1):
            reg.add_point(self.point_id(i))
        for i in self.indices:
            for sign in (PLUS, MINUS):
                reg.add_segment(self.segment_id(i, sign),
                                self.point_id(i), self.point_id(i + 1))
        return reg


@dataclass(frozen=True)
class CurveWord:
    """One sign per column, read in ascending column order."""

    truncation: int
    signs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signs", tuple(self.signs))
        if len(self.signs) != 2 * self.truncation:
            raise ValueError(
                f"expected {2 * self.truncation} signs, got {len(self.signs)}")
        for s in self.signs:
            if s not in (PLUS, MINUS):
                raise ValueError(f"signs must be '+' or '-', got {s!r}")

    def sign(self, i: int) -> str:
        if not -self.truncation <= i < self.truncation:
            raise ValueError(f"column {i} outside [-{self.truncation}, {self.truncation})")
        return self.signs[i + self.truncation]

    def with_sign(self, i: int, sign: str) -> "CurveWord":
        new = list(self.signs)
        new[i + self.truncation] = sign
        return CurveWord(self.truncation, tuple(new))

    def flipped_at(self, i: int) -> "CurveWord":
        return self.with_sign(i, _FLIPPED[self.sign(i)])

    def segment_ids(self, alphabet: BlipAlphabet) -> tuple[str, ...]:
        return tuple(alphabet.segment_id(i, self.sign(i)) for i in alphabet.indices)


@dataclass(frozen=True)
class TasselState:
    """Four curve words over one alphabet plus the network they generate."""

    alphabet: BlipAlphabet
    curves: tuple[CurveWord, CurveWord, CurveWord, CurveWord]
    network: SpinNetwork

    @property
    def truncation(self) -> int:
        return self.alphabet.truncation


def _cap_components() -> np.ndarray:
    # Unit-normalized pair coupling of curves (1,2) and (3,4); the same
    # component array serves both endpoints because dualizing a normalized
    # spin-1/2 pair coupling reproduces it.
    s = epsilon(_HALF) / np.sqrt(2.0)
    return np.einsum("ab,cd->abcd", s, s)


def _assemble_state(alphabet: BlipAlphabet, words) -> TasselState:
    words = tuple(words)
    if len(words) != 4:
        raise ValueError(f"a tassel carries exactly four curves, got {len(words)}")
    left = alphabet.point_id(-alphabet.truncation)
    right = alphabet.point_id(alphabet.truncation)
    edges = [Edge(f"c{k + 1}", tuple((sid, False) for sid in w.segment_ids(alphabet)),
                  left, right, _HALF)
             for k, w in enumerate(words)]
    caps = _cap_components()
    vertices = {
        left: Intertwiner(((_HALF, "out"),) * 4, caps),
        right: Intertwiner(((_HALF, "in"),) * 4, caps),
    }
    return TasselState(alphabet, words,
                       network(alphabet.registry(), edges, vertices))


def _psi_words(alphabet: BlipAlphabet):
    n = alphabet.truncation
    all_plus = CurveWord(n, (PLUS,) * (2 * n))
    all_minus = CurveWord(n, (MINUS,) * (2 * n))
    even_plus = CurveWord(n, tuple(PLUS if i % 2 == 0 else MINUS for i in alphabet.indices))
    odd_plus = CurveWord(n, tuple(PLUS if i % 2 != 0 else MINUS for i in alphabet.indices))
    return (all_plus, all_minus, even_plus, odd_plus)


def build_tassel(truncation: int) -> TasselState:
    """The reference four-curve state on a width-2*truncation ladder.

    Curve 1 takes every plus arc, curve 2 every minus arc, curve 3 the
    plus arc exactly at even columns, and curve 4 exactly at odd columns.
    """
    alphabet = BlipAlphabet(truncation)
    return _assemble_state(alphabet, _psi_words(alphabet))


def _phi_words(alphabet: BlipAlphabet, i0: int):
    truncation = alphabet.truncation
    if i0 % 2 == 0:
        raise ValueError(f"reroute column must be odd, got {i0}")
    if not -truncation <= i0 < truncation:
        raise ValueError(f"reroute column {i0} outside [-{truncation}, {truncation})")
    c1, c2, c3, c4 = _psi_words(alphabet)
    return (c1, c2.with_sign(i0, PLUS), c3.with_sign(i0, PLUS), c4)


def build_phi(truncation: int, i0: int) -> TasselState:
    """The reroute of the reference state at one odd column.

    Curves 2 and 3 take the plus rather than the minus arc at column i0,
    so the minus arc there drops out of the state's support entirely.
    """
    alphabet = BlipAlphabet(truncation)
    return _assemble_state(alphabet, _phi_words(alphabet, i0))


def swap_signs(state: TasselState, i: int) -> TasselState:
    """Exchange the plus and minus arcs of column i in all four curves.

    This is the combinatorial action of a move supported near that column
    alone; applying it twice returns the original state.
    """
    return _assemble_state(state.alphabet,
                           tuple(w.flipped_at(i) for w in state.curves))


# ---------------------------------------------------------------------------
# transfer contraction
#
# Strand order is fixed throughout: positions 0..3 are the bra curves
# (conjugated factors), 4..7 the ket curves.  A column is kept as its
# stacked invariant basis Q, shape (r, 256): the Kronecker product of one
# invariant basis per arc, each over the strands routed through that arc.
# The column's transfer operator, the product of the per-arc group-average
# projectors, is Q^T conj(Q).  The boundary weight vector pairs the eight
# strand ends against the two caps, bra side conjugated.

@lru_cache(maxsize=256)  # the whole key domain: 16 bra by 16 ket sign patterns
def _column_basis(bra_signs: tuple, ket_signs: tuple) -> np.ndarray:
    signs = bra_signs + ket_signs
    q, placed = np.ones((1, 1)), []
    for sign in (PLUS, MINUS):
        strands = [st for st in range(8) if signs[st] == sign]
        # a bra strand (st < 4) is conjugated, so dual: its axis is an "in" leg
        basis = _invariant_basis(tuple((1, st < 4) for st in strands))
        # explicit size: a -1 reshape fails when the arc has no invariants
        q = np.kron(q, basis.reshape(len(basis), 2 ** len(strands)))
        placed.extend(strands)
    # kron laid the strand axes out in 'placed' order; restore natural order
    q = q.reshape((len(q),) + (2,) * 8)
    q = np.transpose(q, [0] + [1 + placed.index(st) for st in range(8)])
    q = np.ascontiguousarray(q.reshape(len(q), 256))
    q.setflags(write=False)
    return q


@lru_cache(maxsize=2)
def _boundary_weights(stabilized: bool) -> np.ndarray:
    cap = _cap_components().reshape(16)
    w = np.multiply.outer(np.conj(cap), cap).reshape(256)
    if stabilized:
        # Joint fixed space of the agreeing-column operators: one dimension,
        # spanned by the product of per-curve bra-ket pairings.
        d = np.eye(16).reshape(256) / 4
        w = d * np.vdot(d, w)
    w.setflags(write=False)
    return w


def _forward(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One column of a forward sweep: the column operator applied to v."""
    return q.T @ (q.conj() @ v)


def _backward(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One column of a backward sweep: row vector u times the column operator."""
    return (q @ u) @ q.conj()


def _meet(q: np.ndarray, v: np.ndarray, u: np.ndarray) -> complex:
    """The value where a forward vector v and a backward row vector u meet
    at column q; bra conjugation is already inside the factors and weights."""
    return complex(np.dot(u, _forward(v, q)))


def _column_signs(curves, i: int) -> tuple:
    return tuple(w.sign(i) for w in curves)


def _transfer_value(alphabet: BlipAlphabet, bra_curves, ket_curves, stabilized: bool) -> complex:
    """The transfer contraction of two four-curve words over one alphabet;
    it reads only the curves' signs, never a network.

    A forward sweep from the left boundary and a backward sweep from the
    right one meet at the first column where bra and ket signs differ, or
    at the last column if there is none.  A pair that differs from psi.psi
    at one column alone therefore meets there on psi.psi's own sweeps,
    which ``_reference_environments`` keeps.
    """
    columns = [(_column_signs(bra_curves, i), _column_signs(ket_curves, i))
               for i in alphabet.indices]
    meet = next((k for k, (b, c) in enumerate(columns) if b != c), len(columns) - 1)
    boundary = _boundary_weights(stabilized)
    v = u = boundary
    for pair in columns[:meet]:
        v = _forward(v, _column_basis(*pair))
    for pair in reversed(columns[meet + 1:]):
        u = _backward(u, _column_basis(*pair))
    return _meet(_column_basis(*columns[meet]), v, u)


def _state_value(bra: TasselState, ket: TasselState, stabilized: bool) -> complex:
    if bra.alphabet != ket.alphabet:
        raise ValueError("states live on different alphabets")
    return _transfer_value(bra.alphabet, bra.curves, ket.curves, stabilized)


def truncated_inner_product(bra: TasselState, ket: TasselState) -> complex:
    """Inner product of the literal finite-window states.

    Agrees with the generic network engine on ``.network``; drifts
    geometrically as the window widens because the endpoint caps are not
    fixed by the column operators.
    """
    return _state_value(bra, ket, stabilized=False)


def stabilized_inner_product(bra: TasselState, ket: TasselState) -> complex:
    """Inner product of the doubly infinite extensions of the two states.

    Columns outside the window extend each curve by its parity pattern,
    and on any column where bra and ket signs agree the transfer operator
    fixes the projected boundary weights exactly, so the value does not
    depend on the window size.
    """
    return _state_value(bra, ket, stabilized=True)


# Largest truncation the observations accept.  Each cached truncation N
# holds a forward and a backward vector of 256 complex entries (4 KiB each)
# per column, 16 KiB x N, so the cache of _ENVIRONMENT_TRUNCATIONS windows of
# at most _MAX_TRUNCATION + 2 columns a side (the wide window of
# observation_one) stays under 16 x 66 x 16 KiB, about 17.3 MB.
_MAX_TRUNCATION = 64
_ENVIRONMENT_TRUNCATIONS = 16


def _check_truncation(truncation: int) -> None:
    if not 1 <= truncation <= _MAX_TRUNCATION:
        raise ValueError(
            f"truncation must be between 1 and {_MAX_TRUNCATION}, got {truncation}")


@dataclass(frozen=True)
class _Environments:
    """The reference words and, for psi.psi (stabilized), the sweep vectors
    around each column k: ``forward[k]`` has crossed the columns before k,
    ``backward[k]`` those after it."""

    words: tuple
    forward: tuple
    backward: tuple
    norm: float

    def value(self, i: int, bra_signs: tuple, ket_signs: tuple) -> complex:
        """The stabilized value of a pair that agrees with psi.psi on every
        column but i, where it has these signs: one column step."""
        k = i + self.words[0].truncation
        return _meet(_column_basis(bra_signs, ket_signs), self.forward[k], self.backward[k])


@lru_cache(maxsize=_ENVIRONMENT_TRUNCATIONS)
def _reference_environments(truncation: int) -> _Environments:
    """One forward and one backward sweep of psi.psi; entry k is what
    ``_transfer_value`` holds when it meets at column k on such a pair."""
    psi = _psi_words(BlipAlphabet(truncation))
    columns = [_column_basis(signs, signs) for signs in zip(*(w.signs for w in psi))]
    boundary = _boundary_weights(True)
    forward, backward = [boundary], [boundary]
    for q in columns[:-1]:
        forward.append(_forward(forward[-1], q))
    for q in reversed(columns[1:]):
        backward.append(_backward(backward[-1], q))
    backward.reverse()
    for vec in forward + backward:
        vec.setflags(write=False)
    # <psi, psi> meets at the last column
    norm = _meet(columns[-1], forward[-1], backward[-1]).real
    return _Environments(psi, tuple(forward), tuple(backward), norm)


def _reroute_overlap(truncation: int, i0: int) -> complex:
    """<psi, phi_i0> (stabilized) on one window: one column step."""
    phi = _phi_words(BlipAlphabet(truncation), i0)
    env = _reference_environments(truncation)
    return env.value(i0, _column_signs(env.words, i0), _column_signs(phi, i0))


def observation_one(truncation: int, i0: int) -> complex:
    """Overlap of the reference state with its reroute at odd column i0.

    The two states share no common support refinement in the classical
    sense (the reroute misses one arc entirely), yet the overlap is not
    zero.  Raises ToleranceError if the value is degenerate or fails to
    be window-independent to 1e-9 against a window wider by two.
    """
    _check_truncation(truncation)
    value, wide = (_reroute_overlap(n, i0) for n in (truncation, truncation + 2))
    if abs(value) <= 1e-6:
        raise ToleranceError(
            f"overlap {value} at truncation {truncation} is numerically degenerate")
    if abs(value - wide) > 1e-9:
        raise ToleranceError(
            f"overlap drifts with the window: {value} vs {wide} at truncation "
            f"{truncation} vs {truncation + 2}")
    return value


def observation_two(truncation: int, i: int) -> complex:
    """Overlap of the reference state with its column-i sign swap.

    The swapped state is a genuinely different state (positive squared
    distance) with nonzero overlap against the reference, for every
    column; ToleranceError if either part fails numerically.
    """
    _check_truncation(truncation)
    env = _reference_environments(truncation)
    signs = _column_signs(env.words, i)
    moved = tuple(_FLIPPED[s] for s in signs)
    value = env.value(i, signs, moved)
    norm2 = env.norm + env.value(i, moved, moved).real - 2.0 * value.real
    if abs(value) <= 1e-6:
        raise ToleranceError(f"swap overlap at column {i} is numerically degenerate")
    if norm2 <= 1e-6:
        raise ToleranceError(
            f"swapped state at column {i} is not separated from the reference "
            f"(squared distance {norm2})")
    return value


# ---------------------------------------------------------------------------
# geometry

def junction(i: int) -> float:
    """x-coordinate of junction i: 1/2 at the center, accumulating at 0 and 1."""
    if i == 0:
        return 0.5
    s = 1.0 if i > 0 else -1.0
    return 0.5 * (1.0 + s * (1.0 - 2.0 ** (-abs(i))))


def bump(t):
    """Smooth bump on (0, 1): exp(4 - 1/(t(1-t))), peak 1 at t = 1/2,
    identically 0 outside, flat to all orders at the ends."""
    t = np.asarray(t, dtype=float)
    prod = t * (1.0 - t)
    out = np.zeros_like(t)
    inside = prod > 0.0
    out[inside] = np.exp(4.0 - 1.0 / prod[inside])
    return out


def blip_amplitude(i: int) -> float:
    """Height 2^(-4^|i|) of the column-i arcs."""
    return 2.0 ** (-(4 ** abs(i)))


@dataclass(frozen=True)
class BumpCurve:
    """A sampled polyline for one curve, from (0, 0) to (1, 0)."""

    curve_id: str
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


# Interior fraction of each arc inspected by the disjointness scan; within
# it the smallest admissible sample height, 2^(-4^5) * bump(1/16), still
# clears double-precision underflow.
_JUNCTION_MARGIN = 1.0 / 16.0

# Largest number of sampled points emit_geometry returns over its four
# curves: 2^20 points, about 50 MB as CSV text.
_MAX_CURVE_POINTS = 2**20


def _check_disjoint(words, samples, truncation: int) -> None:
    """Differing-sign arcs must separate the sampled curves away from
    junctions; a failure here means amplitude underflow."""
    for k1, k2 in combinations(range(4), 2):
        for i in range(-truncation, truncation):
            if words[k1].sign(i) == words[k2].sign(i):
                continue
            t, y1 = samples[k1][i]
            _, y2 = samples[k2][i]
            away = (t >= _JUNCTION_MARGIN) & (t <= 1.0 - _JUNCTION_MARGIN)
            if np.any(np.abs(y1[away] - y2[away]) == 0.0):
                raise RuntimeError(
                    f"sampled curves {k1 + 1} and {k2 + 1} touch away from the "
                    f"junctions of column {i}")


def emit_geometry(truncation: int, resolution: int = 64) -> list[BumpCurve]:
    """Sampled polylines for the four reference curves.

    Each column contributes `resolution` points per curve (left junction
    included, right excluded); flat tails connect the ladder to (0, 0)
    and (1, 0).  Refuses more than 2^20 points in all.  Checks that curves
    taking different arcs of a column stay strictly apart away from the
    junctions.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16 samples per arc, got {resolution}")
    if truncation > 5:
        raise ValueError(
            "arc amplitudes 2^(-4^|i|) underflow double precision beyond truncation 5")
    points = 4 * (2 * truncation * resolution + 3)
    if points > _MAX_CURVE_POINTS:
        raise ValueError(
            f"{points} curve points at truncation {truncation} and resolution "
            f"{resolution}, over the limit of {_MAX_CURVE_POINTS} (2^20)")
    alphabet = BlipAlphabet(truncation)
    words = _psi_words(alphabet)
    t = np.arange(resolution) / resolution
    heights = bump(t)
    samples = [dict() for _ in range(4)]
    curves = []
    for k, w in enumerate(words):
        xs = [np.array([0.0])]
        ys = [np.array([0.0])]
        for i in alphabet.indices:
            a, b = junction(i), junction(i + 1)
            y = blip_amplitude(i) * heights
            if w.sign(i) == MINUS:
                y = -y
            samples[k][i] = (t, y)
            xs.append(a + (b - a) * t)
            ys.append(y)
        xs.append(np.array([junction(truncation), 1.0]))
        ys.append(np.array([0.0, 0.0]))
        curves.append(BumpCurve(f"c{k + 1}", np.concatenate(xs), np.concatenate(ys)))
    _check_disjoint(words, samples, truncation)
    return curves


def write_curves_csv(path, curves) -> None:
    """Write sampled curves as CSV rows curve_id,x,y (17 significant digits),
    each curve by one row template over its interleaved xs and ys.  Rows
    end in CRLF, and an id holding a comma, quote or line break is quoted,
    as ``csv.writer`` writes them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("curve_id,x,y\r\n")
        for curve in curves:
            cell = curve.curve_id
            if any(c in cell for c in ',"\r\n'):
                cell = '"' + cell.replace('"', '""') + '"'
            row = cell.replace("%", "%%") + ",%.17g,%.17g\r\n"
            values = np.stack((curve.xs, curve.ys), axis=1).ravel().tolist()
            fh.write(row * len(curve.xs) % tuple(values))
