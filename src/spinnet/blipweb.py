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

import numpy as np

from .rep_core import Spin, Intertwiner, _invariant_basis, _is_integer, epsilon
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


def _check_integer_column(i) -> None:
    """Refuse a column index that is not an integer (a bool is not one)."""
    if not _is_integer(i):
        raise ValueError(f"column must be an integer, got {i!r}")


def _check_column(i, truncation: int) -> None:
    """Refuse a column index that is not an integer in [-truncation, truncation)."""
    _check_integer_column(i)
    if not -truncation <= i < truncation:
        raise ValueError(f"column {i} outside [-{truncation}, {truncation})")


def _check_width(truncation) -> None:
    """Refuse a ladder half-width that is not an integer of at least 1."""
    if not _is_integer(truncation) or truncation < 1:
        raise ValueError(f"truncation must be an integer of at least 1, got {truncation!r}")


@dataclass(frozen=True)
class BlipAlphabet:
    """The 4N arc segments of a width-2N ladder.

    Columns are indexed by -N <= i < N; column i holds two segments,
    ``b{i}+`` and ``b{i}-``, both running from junction point ``x{i}`` to
    ``x{i+1}``.
    """

    truncation: int

    def __post_init__(self) -> None:
        _check_width(self.truncation)

    @property
    def indices(self) -> range:
        return range(-self.truncation, self.truncation)

    def point_id(self, i: int) -> str:
        return f"x{i}"

    def segment_id(self, i: int, sign: str) -> str:
        if sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        _check_column(i, self.truncation)
        return f"b{i}{sign}"

    def registry(self) -> SegmentRegistry:
        reg = SegmentRegistry()
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
        _check_width(self.truncation)
        if len(self.signs) != 2 * self.truncation:
            raise ValueError(
                f"expected {2 * self.truncation} signs, got {len(self.signs)}")
        for s in self.signs:
            if s not in (PLUS, MINUS):
                raise ValueError(f"signs must be '+' or '-', got {s!r}")

    def sign(self, i: int) -> str:
        _check_column(i, self.truncation)
        return self.signs[i + self.truncation]

    def with_sign(self, i: int, sign: str) -> "CurveWord":
        _check_column(i, self.truncation)
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


def _psi_signs(i: int) -> tuple:
    """The reference state's four signs at column i."""
    even = i % 2 == 0
    return (PLUS, MINUS, PLUS if even else MINUS, MINUS if even else PLUS)


def _psi_words(alphabet: BlipAlphabet):
    columns = [_psi_signs(i) for i in alphabet.indices]
    return tuple(CurveWord(alphabet.truncation, signs) for signs in zip(*columns))


def build_tassel(truncation: int) -> TasselState:
    """The reference four-curve state on a width-2*truncation ladder.

    Curve 1 takes every plus arc, curve 2 every minus arc, curve 3 the
    plus arc exactly at even columns, and curve 4 exactly at odd columns.
    """
    alphabet = BlipAlphabet(truncation)
    return _assemble_state(alphabet, _psi_words(alphabet))


def _phi_words(alphabet: BlipAlphabet, i0: int):
    if not _is_integer(i0) or i0 % 2 == 0:
        raise ValueError(f"reroute column must be an odd integer, got {i0!r}")
    _check_column(i0, alphabet.truncation)
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


def _column_signs(curves, i: int) -> tuple:
    return tuple(w.sign(i) for w in curves)


def _sweep(columns, stabilized: bool) -> complex:
    """The boundary weights swept forward through these (bra signs, ket
    signs) columns and closed against the boundary weights; bra conjugation
    is already inside the factors and weights."""
    boundary = _boundary_weights(stabilized)
    v = boundary
    for pair in columns:
        v = _forward(v, _column_basis(*pair))
    return complex(np.dot(boundary, v))


def _transfer_value(alphabet: BlipAlphabet, bra_curves, ket_curves, stabilized: bool) -> complex:
    """The transfer contraction of two four-curve words over one alphabet;
    it reads only the curves' signs, never a network.

    A truncated pairing sweeps every column.  A stabilized one sweeps only
    from its first to its last differing column: a column whose bra and ket
    signs agree fixes the stabilized boundary weights, so the columns
    outside that span leave them as they are.  A pair that differs nowhere
    sweeps no column.
    """
    columns = [(_column_signs(bra_curves, i), _column_signs(ket_curves, i))
               for i in alphabet.indices]
    if stabilized:
        differ = [k for k, (b, c) in enumerate(columns) if b != c]
        columns = columns[differ[0]:differ[-1] + 1] if differ else []
    return _sweep(columns, stabilized)


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

    Columns outside the window extend each curve by its parity pattern.
    The boundary weights are projected onto the joint fixed space of the
    agreeing-column transfer operators, so only the columns from the first
    to the last where bra and ket signs differ are swept, and the value
    depends neither on the window size nor on where that span sits.
    """
    return _state_value(bra, ket, stabilized=True)


# Largest truncation the observations accept: the CLI documents its
# --truncation range as 1..64.
_MAX_TRUNCATION = 64


def _check_truncation(truncation: int) -> None:
    if not _is_integer(truncation) or not 1 <= truncation <= _MAX_TRUNCATION:
        raise ValueError(
            f"truncation must be an integer between 1 and {_MAX_TRUNCATION}, got {truncation!r}")


def observation_one(truncation: int, i0: int) -> complex:
    """Overlap of the reference state with its reroute at odd column i0.

    The two states share no common support refinement in the classical
    sense (the reroute misses one arc entirely), yet the overlap is not
    zero.  They differ at column i0 alone, so the stabilized value is one
    column step, the same for every window and every odd i0.  Raises
    ToleranceError if the value is degenerate.
    """
    _check_truncation(truncation)
    phi = _phi_words(BlipAlphabet(truncation), i0)
    value = _sweep([(_psi_signs(i0), _column_signs(phi, i0))], stabilized=True)
    if abs(value) <= 1e-6:
        raise ToleranceError(
            f"overlap {value} at truncation {truncation} is numerically degenerate")
    return value


def observation_two(truncation: int, i: int) -> complex:
    """Overlap of the reference state with its column-i sign swap.

    The swapped state is a genuinely different state (positive squared
    distance) with nonzero overlap against the reference, for every
    column; ToleranceError if either part fails numerically.  The overlap
    is one column step, and both norms sweep no column.
    """
    _check_truncation(truncation)
    _check_column(i, truncation)
    signs = _psi_signs(i)
    value = _sweep([(signs, tuple(_FLIPPED[s] for s in signs))], stabilized=True)
    norm2 = 2.0 * _sweep([], stabilized=True).real - 2.0 * value.real
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
    """x-coordinate of junction i: 1/2 at the center, accumulating at 0 and 1.
    Raises ValueError unless i is an integer."""
    _check_integer_column(i)
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
    """Height 2^(-4^|i|) of the column-i arcs.  Raises ValueError unless i
    is an integer."""
    _check_integer_column(i)
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


# Interior fraction of each arc that must clear 0; within it the smallest
# admissible sample height, 2^(-4^5) * bump(1/16), still clears
# double-precision underflow.
_JUNCTION_MARGIN = 1.0 / 16.0

# Largest number of sampled points emit_geometry returns over its four
# curves: 2^20 points, about 50 MB as CSV text.
_MAX_CURVE_POINTS = 2**20


def emit_geometry(truncation: int, resolution: int = 64) -> list[BumpCurve]:
    """Sampled polylines for the four reference curves.

    Each column contributes `resolution` points per curve (left junction
    included, right excluded); flat tails connect the ladder to (0, 0)
    and (1, 0).  Refuses more than 2^20 points in all.  Every curve takes
    each column's arc heights y or their mirror -y on one shared x grid,
    so two curves on a column's two arcs are 2|y| apart: a RuntimeError
    names any column whose heights reach 0 (underflow) away from its
    junctions.
    """
    _check_width(truncation)
    if not _is_integer(resolution) or resolution < 16:
        raise ValueError(
            f"resolution must be an integer of at least 16 samples per arc, got {resolution!r}")
    if truncation > 5:
        raise ValueError(
            "arc amplitudes 2^(-4^|i|) underflow double precision beyond truncation 5")
    points = 4 * (2 * truncation * resolution + 3)
    if points > _MAX_CURVE_POINTS:
        raise ValueError(
            f"{points} curve points at truncation {truncation} and resolution "
            f"{resolution}, over the limit of {_MAX_CURVE_POINTS} (2^20)")
    t = np.arange(resolution) / resolution
    heights = bump(t)
    away = (t >= _JUNCTION_MARGIN) & (t <= 1.0 - _JUNCTION_MARGIN)
    grid, arcs = [np.array([0.0])], []
    for i in range(-truncation, truncation):
        arc = blip_amplitude(i) * heights
        if not np.all(arc[away]):
            raise RuntimeError(
                f"the arcs of column {i} reach 0 away from its junctions, so the "
                f"curves taking them touch there")
        a, b = junction(i), junction(i + 1)
        grid.append(a + (b - a) * t)
        arcs.append(arc)
    grid.append(np.array([junction(truncation), 1.0]))
    xs = np.concatenate(grid)
    curves = []
    for k, w in enumerate(_psi_words(BlipAlphabet(truncation))):
        ys = [arc if s == PLUS else -arc for s, arc in zip(w.signs, arcs)]
        curves.append(BumpCurve(f"c{k + 1}", xs.copy(), np.concatenate([[0.0], *ys, [0.0, 0.0]])))
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
