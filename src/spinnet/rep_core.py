"""SU(2) representation theory kernel.

Irreps are labeled by a nonnegative integer ``twice_j`` (dimension
``twice_j + 1``).  Group elements are unit quaternions, mapped to 2x2
matrices by

    U(w, x, y, z) = w*I + i*(x*sigma_x + y*sigma_y + z*sigma_z)
                  = [[a, b], [-conj(b), conj(a)]],  a = w + iz, b = y + ix,

The sampled paths carry each element as its Cayley-Klein pair (a, b)
(``_pair``), and a batch as two complex arrays.  Higher-spin matrices are
the orthonormalized symmetric tensor powers of U, which makes
multiplicativity and unitarity exact up to rounding; one kernel,
``_pair_wigner``, builds them from pairs.  Haar elements are drawn as
batches of pairs (``_haar_pairs``), and epsilon is a signed flip
(``_dualized``).
Invariance is defined once: which spins admit one (``_has_invariant``),
and which tensors are one, by the su(2) generators (``_is_invariant``).
Basis index ``k`` of a spin-j axis corresponds to weight m = j - k
(m descending), and all coupling coefficients use the Condon-Shortley
phase convention.  They are built a table at a time (``_cg_tensor``), each
entry Racah's sum in exact integer arithmetic, rounded once; every
invariant basis is a left comb of these tables (``invariant_vectors``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

__all__ = [
    "MAX_TWICE_J",
    "Spin",
    "GroupElement",
    "Intertwiner",
    "wigner_entries",
    "clebsch_gordan",
    "epsilon",
    "invariant_vectors",
    "intertwiner_basis",
]

# Largest twice_j of any ``Spin``, a fixed cap, so of every edge label and
# every builder argument.  It bounds the unbounded cache keyed by one spin:
# ``_wigner_terms`` holds at most MAX_TWICE_J + 1 keys.
MAX_TWICE_J = 12

# Distinct leg signatures whose invariant bases are kept.
_BASIS_CACHE_SIZE = 256
# Distinct (twice_j, twice_j, twice_j) couplings whose Clebsch-Gordan tensors
# are kept.  Intermediate couplings of a basis build go above MAX_TWICE_J, so
# the keys are not bounded by the cap; the bases of every 3- and 4-leg list
# with twice_j <= 12 need 577 of them.
_CG_CACHE_SIZE = 1024

# Largest array, in complex elements, the package builds from one input:
# 2**26 elements of 16 bytes is 1 GiB.
_MAX_ELEMENTS = 2**26


def _sort_key(value) -> str:
    """The one order on user-chosen ids (segments, points, edges) in every
    layer: by string form, so ``int`` and ``str`` ids sort together."""
    return str(value)


def _has_invariant(twice_js: Sequence[int]) -> bool:
    """Whether spins ``twice_js`` admit an invariant: an even sum, and no
    spin over the sum of the others (for three, the triangle rule)."""
    return sum(twice_js) % 2 == 0 and 2 * max(twice_js, default=0) <= sum(twice_js)


def _is_integer(value) -> bool:
    """An ``int`` or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, order=True)
class Spin:
    """Half-integer irrep label, stored doubled: j = twice_j / 2.

    The one spin rule: twice_j is an integer (not a bool) in 0..MAX_TWICE_J,
    stored as a Python int.  Every builder takes its spins through here.
    """

    twice_j: int

    def __post_init__(self) -> None:
        if not _is_integer(self.twice_j) or self.twice_j < 0:
            raise ValueError(f"twice_j must be a nonnegative integer, got {self.twice_j!r}")
        if self.twice_j > MAX_TWICE_J:
            raise ValueError(
                f"twice_j={self.twice_j} exceeds the configured cap MAX_TWICE_J={MAX_TWICE_J}")
        object.__setattr__(self, "twice_j", int(self.twice_j))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    @property
    def nontrivial(self) -> bool:
        return self.twice_j > 0


@dataclass(frozen=True)
class GroupElement:
    """SU(2) element as a unit quaternion (w, x, y, z)."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm2 = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(norm2 - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"quaternion norm^2 = {norm2!r} is not 1 within 1e-12")

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_array(q: Sequence[float], normalize: bool = False) -> "GroupElement":
        w, x, y, z = (float(v) for v in q)
        if normalize:
            n = math.sqrt(w * w + x * x + y * y + z * z)
            w, x, y, z = w / n, x / n, y / n, z / n
        return GroupElement(w, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)


def _pair(q) -> tuple:
    """Cayley-Klein pair (a, b) = (w + iz, y + ix) of quaternion components
    q = (w, x, y, z), floats or equally shaped arrays: U(q) = [[a, b],
    [-conj(b), conj(a)]].  The inverse element is (conj(a), -b)."""
    w, x, y, z = q
    return w + 1j * z, y + 1j * x


def _pair_product(g, h) -> tuple:
    """Pair of the group product g*h, with the convention matrix(g*h) =
    matrix(g) @ matrix(h): the first row of the 2x2 product.  ``g`` and
    ``h`` are pairs of complex numbers, or of equally shaped arrays for a
    batch."""
    a1, b1 = g
    a2, b2 = h
    return a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def _haar_pairs(rng: np.random.Generator, m: int, n_vars: int) -> tuple:
    """``m`` Haar-uniform draws of ``n_vars`` elements each, as Cayley-Klein
    pairs (A, B), two complex arrays of shape (n_vars, m).

    The draw is that of dividing ``rng.standard_normal((m, n_vars, 4))`` by
    its norm over the last axis, bit for bit.  The normals are normalized
    component by component on one contiguous (4, n_vars, m) copy, so each
    variable's samples are one contiguous row, and the real and imaginary
    parts of A and B are the quaternions' w, z, y and x.
    """
    q = rng.standard_normal((m, n_vars, 4)).transpose(2, 1, 0).copy()
    # Summed ((s0 + s1) + s2) + s3: np.linalg.norm's order, so the quotients
    # are those of dividing by it.
    s = q * q
    norm = np.sqrt(s[0] + s[1] + s[2] + s[3])
    pairs = np.empty((2, n_vars, m), dtype=complex)
    for k, part in ((0, pairs[0].real), (3, pairs[0].imag),
                    (2, pairs[1].real), (1, pairs[1].imag)):
        np.divide(q[k], norm, out=part)
    return pairs[0], pairs[1]


@lru_cache(maxsize=None)
def _wigner_terms(twice_j: int):
    """Monomial expansion of the symmetric-power matrix elements.

    With U = [[a, b], [c, d]], entry (kp, k) of the spin-j matrix is

        sqrt(C(n,k)/C(n,kp)) * sum_i C(n-k,i) C(k,kp-i)
                               * a^(n-k-i) c^i b^(k-kp+i) d^(kp-i)

    where n = twice_j.  The normalization makes the monomial basis
    orthonormal, hence the matrix exactly unitary for unit quaternions.
    """
    n = twice_j
    terms = []
    for kp in range(n + 1):
        for k in range(n + 1):
            norm = math.sqrt(math.comb(n, k) / math.comb(n, kp))
            tl = []
            for i in range(kp + 1):
                ea, eb, ec, ed = n - k - i, k - kp + i, i, kp - i
                if min(ea, eb, ec, ed) < 0:
                    continue
                tl.append((math.comb(n - k, i) * math.comb(k, kp - i) * norm, ea, eb, ec, ed))
            terms.append((kp, k, tuple(tl)))
    return tuple(terms)


def _pair_wigner(twice_j: int, a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Spin-j matrices of U = [[a, b], [-conj(b), conj(a)]] for equally
    shaped batches of Cayley-Klein pairs, shape (twice_j + 1, twice_j + 1) +
    a.shape: the matrix axes first, the sample axes last, so that each entry
    is written contiguously.  The result is written to ``out``, which is
    zeroed first, when one is given (numpy-style: of exactly that shape), and
    to a fresh array otherwise, with the same bits.  ``twice_j`` is a
    ``Spin``'s.

    Only the entries (kp, k) <= (n - kp, n - k) are built from the
    monomials, n = twice_j; each fills its mirror from the symmetry
    D[n - kp, n - k] = (-1)^(kp - k) conj(D[kp, k]), so the two agree bit
    for bit (up to the sign of a zero) and the mirror is within rounding of
    its own monomial sum."""
    n = twice_j
    pows = []
    for base in (a, b, -b.conjugate(), a.conjugate()):
        p = [None, base]
        for _ in range(n - 1):
            p.append(p[-1] * base)
        pows.append(p)
    if out is None:
        out = np.zeros((n + 1, n + 1) + np.shape(a), dtype=complex)
    else:
        out.fill(0)
    # A factor to the power 0 and a unit coefficient are skipped: multiplying
    # by one can flip only the sign of a zero, and the sum into the +0 of
    # ``out`` clears that sign.  A mirror is added into, or subtracted from,
    # its +0 for the same reason: a conj or a negation can make a -0, which
    # the exact ``eval`` text would print.  Every write goes through the
    # index: a local alias of a 0-d entry is a copy.
    for kp, k, tl in _wigner_terms(n):
        mirror = (n - kp, n - k)
        if (kp, k) > mirror:
            continue
        for coeff, *exps in tl:
            factors = [p[e] for p, e in zip(pows, exps) if e]
            term = reduce(operator.mul, factors) if factors else 1.0
            if coeff != 1.0:
                term = coeff * term
            out[kp, k] += term
        if (kp, k) == mirror:
            continue
        if (kp - k) % 2:
            out[mirror] -= out[kp, k].conjugate()
        else:
            out[mirror] += out[kp, k].conjugate()
    return out


def wigner_entries(twice_j: int, quats: np.ndarray) -> np.ndarray:
    """Spin-j matrices for a batch of quaternions.

    Parameters
    ----------
    twice_j : int, held to the ``Spin`` rule
    quats : array with shape (..., 4)

    Returns
    -------
    array with shape (..., twice_j + 1, twice_j + 1), complex.  It is a view
    of ``_pair_wigner``'s storage, with the matrix axes first, so that each
    entry is written contiguously; moving the axes back to (row, col, ...)
    needs no copy.
    """
    twice_j = Spin(twice_j).twice_j
    quats = np.asarray(quats, dtype=float)
    out = _pair_wigner(twice_j, *_pair(np.moveaxis(quats, -1, 0)))
    return np.moveaxis(out, (0, 1), (-2, -1))


@lru_cache(maxsize=_CG_CACHE_SIZE)
def _cg_tensor(tj1: int, tj2: int, tJ: int) -> np.ndarray:
    """Clebsch-Gordan coefficients <j1 m1; j2 m2 | J M> as a read-only
    (d1, d2, dJ) table, doubled arguments throughout.

    Racah's formula in exact integer arithmetic.  Its factor free of m,
    a / b, is taken once per table.  For each entry, the alternating sum
    over k of 1 / den_k is total / lcm, over the lcm of the den_k, and c is
    the entry's product of factorials of the m's.  The coefficient is the
    square root of a * c * total**2 / (b * lcm**2), one int division that
    Python rounds correctly (the value ``float`` gives that rational), with
    the sign of total.
    """
    def g(t: int) -> int:
        return math.factorial(t // 2)

    a = (tJ + 1) * g(tj1 + tj2 - tJ) * g(tj1 - tj2 + tJ) * g(-tj1 + tj2 + tJ)
    b = g(tj1 + tj2 + tJ + 2)
    out = np.zeros((tj1 + 1, tj2 + 1, tJ + 1))
    for k1 in range(tj1 + 1):
        tm1 = tj1 - 2 * k1
        for k2 in range(tj2 + 1):
            tm2 = tj2 - 2 * k2
            tM = tm1 + tm2
            K = (tJ - tM) // 2
            if not (0 <= K <= tJ and (tJ - tM) % 2 == 0):
                continue
            kmin = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
            kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
            ks = range(kmin, kmax + 1)
            dens = [math.factorial(k) * g(tj1 + tj2 - tJ - 2 * k) * g(tj1 - tm1 - 2 * k)
                    * g(tj2 + tm2 - 2 * k) * g(tJ - tj2 + tm1 + 2 * k)
                    * g(tJ - tj1 - tm2 + 2 * k) for k in ks]
            lcm = math.lcm(*dens)
            total = sum((-1) ** k * (lcm // den) for k, den in zip(ks, dens))
            c = (g(tJ + tM) * g(tJ - tM) * g(tj1 - tm1) * g(tj1 + tm1)
                 * g(tj2 - tm2) * g(tj2 + tm2))
            out[k1, k2, K] = math.copysign(math.sqrt(a * c * total**2 / (b * lcm**2)), total)
    out.setflags(write=False)
    return out


def clebsch_gordan(j1: Spin, j2: Spin, J: Spin) -> np.ndarray:
    """Coupling isometry j1 (x) j2 -> J as a (d1, d2, dJ) tensor.

    Flattening the first two axes gives a matrix with orthonormal columns;
    it intertwines D(j1) (x) D(j2) with D(J).

    Raises
    ------
    ValueError
        If (j1, j2, J) violates the triangle inequality or parity.
    """
    if not _has_invariant((j1.twice_j, j2.twice_j, J.twice_j)):
        raise ValueError(f"inadmissible coupling ({j1.twice_j}, {j2.twice_j}, {J.twice_j})/2")
    return _cg_tensor(j1.twice_j, j2.twice_j, J.twice_j).astype(complex)


def epsilon(spin: Spin) -> np.ndarray:
    """Dual-representation conjugator C with conj(D(g)) = C D(g) C^{-1}.

    Real signed antidiagonal; unitary; C conj(C) = (-1)^(2j) I.  For spin
    1/2 it is [[0, 1], [-1, 0]].
    """
    return _dualized(np.eye(spin.dim, dtype=complex), 0, spin.twice_j)


def invariant_vectors(twice_js: Sequence[int]) -> list[np.ndarray]:
    """Orthonormal basis of the invariant subspace of a ket tensor product.

    Built by left-comb binary coupling: legs are coupled in order through
    all admissible intermediate spins, one cached ``_cg_tensor`` table per
    coupling, keeping the branches that end at total spin zero.  Returns a
    list of arrays with one axis per leg.

    Raises
    ------
    ValueError
        If a twice_j breaks the ``Spin`` rule, or if the basis would hold
        more than ``_MAX_ELEMENTS`` elements; the vectors are counted before
        any is built.
    """
    tjs = tuple(Spin(t).twice_j for t in twice_js)
    if len(tjs) == 0:
        return [np.ones((), dtype=complex)]
    if not _has_invariant(tjs):
        return []
    # An intermediate spin that breaks ``_has_invariant`` with the legs still
    # to come (rest[k]: their total after leg k, big[k]: their largest) can
    # never close, so its branch is skipped: every kept branch ends in a
    # vector, and no partial array is larger than one vector.
    rest = [sum(tjs[k + 1:]) for k in range(len(tjs))]
    big = [max(tjs[k + 1:], default=0) for k in range(len(tjs))]

    def branches(k: int, tja: int) -> range:
        tjb, r, b = tjs[k + 1], rest[k + 1], big[k + 1]
        return range(max(abs(tja - tjb), 2 * b - r), min(tja + tjb, r) + 1, 2)

    @lru_cache(maxsize=None)
    def count(k: int, tja: int) -> int:
        if k == len(tjs) - 1:
            return int(tja == 0)
        return sum(count(k + 1, tjc) for tjc in branches(k, tja))

    size = count(0, tjs[0]) * math.prod(t + 1 for t in tjs)
    if size > _MAX_ELEMENTS:
        raise ValueError(
            f"the invariant basis of twice_js {list(tjs)} has {count(0, tjs[0])} vectors, "
            f"{size} elements in all, over the limit of {_MAX_ELEMENTS}"
        )
    vecs: list[np.ndarray] = []
    start = np.eye(tjs[0] + 1, dtype=complex)

    def couple(k: int, tja: int, partial: np.ndarray) -> None:
        if k == len(tjs) - 1:
            if tja == 0:
                vecs.append(np.ascontiguousarray(partial[..., 0]))
            return
        for tjc in branches(k, tja):
            cg = _cg_tensor(tja, tjs[k + 1], tjc)
            couple(k + 1, tjc, np.einsum("...a,abc->...bc", partial, cg))

    couple(0, tjs[0], start)
    return vecs


@dataclass(frozen=True, eq=False)
class Intertwiner:
    """Invariant element of a mixed tensor product of irreps.

    ``leg_spins`` pairs each leg with a direction: "out" legs transform in
    the representation, "in" legs in its dual.  ``components`` has one axis
    per leg, axis k of dimension leg_spins[k][0].dim.
    """

    leg_spins: tuple[tuple[Spin, str], ...]
    components: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "leg_spins", tuple((s, d) for s, d in self.leg_spins))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=complex))
        expected = tuple(s.dim for s, _ in self.leg_spins)
        if tuple(np.shape(self.components)) != expected:
            raise ValueError(
                f"component shape {np.shape(self.components)} does not match legs {expected}"
            )
        for _, d in self.leg_spins:
            if d not in ("in", "out"):
                raise ValueError(f"leg direction must be 'in' or 'out', got {d!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Intertwiner):
            return NotImplemented
        return self.leg_spins == other.leg_spins and np.array_equal(
            self.components, other.components
        )

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, so the hash agrees with np.array_equal
        return hash((self.leg_spins, (self.components + 0.0).tobytes()))


def _dualized(tensor: np.ndarray, axis: int, twice_j: int) -> np.ndarray:
    """``tensor`` with epsilon applied to its spin-``twice_j`` axis ``axis``.

    epsilon is a real signed antidiagonal, so this is the signed flip
    out[..i..] = (-1)^i tensor[..n-i..], n = twice_j.  It dualizes a leg, and
    at both ends of a reversed edge it keeps the value, as D(h^-1)[r, c] =
    (eps D(h) eps^-1)[c, r] and eps is its own inverse transpose.  The
    + 0.0 turns the -0.0 that a sign makes of a zero back into 0.0.
    """
    shape = [1] * tensor.ndim
    shape[axis] = twice_j + 1
    signs = (-1.0) ** np.arange(twice_j + 1)
    return np.flip(tensor, axis) * signs.reshape(shape) + 0.0


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _invariant_basis(signature: tuple[tuple[int, bool], ...]) -> np.ndarray:
    """Stacked orthonormal invariant basis B, shape (r, *dims), read-only.

    ``signature`` holds (twice_j, dualized) per leg: the all-ket basis of
    ``invariant_vectors``, ``_dualized`` on each "in" axis, stays orthonormal.
    """
    vecs = invariant_vectors([tj for tj, _ in signature])
    stack = np.array(vecs, dtype=complex).reshape(-1, *(tj + 1 for tj, _ in signature))
    for axis, (tj, dual) in enumerate(signature, start=1):
        if dual:
            stack = _dualized(stack, axis, tj)
    stack.setflags(write=False)
    return stack


def intertwiner_basis(legs: Sequence[tuple[Spin, str]]) -> list[Intertwiner]:
    """Orthonormal basis (Hilbert-Schmidt) of the intertwiner space.

    Empty list when the space is zero-dimensional.  The components are
    writable copies of the rows of the cached ``_invariant_basis`` stack.
    """
    legs = tuple((s, d) for s, d in legs)
    stack = _invariant_basis(tuple((s.twice_j, d == "in") for s, d in legs))
    return [Intertwiner(legs, row.copy()) for row in stack]


def _is_invariant(iv: Intertwiner) -> bool:
    """Whether the group action fixes ``iv`` for every g, D(g) on the right
    of each "out" axis and conj(D(g)) on the right of each "in" axis, tested
    exactly: SU(2) is connected and the generators about z and y span
    su(2), so whether both annihilate it.  On a spin-j axis (n = twice_j,
    index k) z acts by the weight n - 2k, negated on an "in" leg, and y on
    the right by the real antisymmetric Y[k-1, k] = sqrt(k (n - k + 1)) =
    -Y[k, k-1] on either leg.  Both sums over legs must have norm at most
    1e-12 * max(1, |components|).  No Wigner matrix is built."""
    comp = iv.components
    z_sum, y_sum = np.zeros_like(comp), np.zeros_like(comp)
    for axis, (s, d) in enumerate(iv.leg_spins):
        n, k = s.twice_j, np.arange(s.twice_j + 1)
        root = np.sqrt(k[1:] * (n - k[1:] + 1.0))
        moved = np.moveaxis(comp, axis, -1)
        z_sum += np.moveaxis(moved * ((n - 2 * k) if d == "out" else (2 * k - n)), -1, axis)
        y_sum += np.moveaxis(moved @ (np.diag(root, 1) - np.diag(root, -1)), -1, axis)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(comp)))
    return bool(np.linalg.norm(z_sum) <= tol and np.linalg.norm(y_sum) <= tol)
