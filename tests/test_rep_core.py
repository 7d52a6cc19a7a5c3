"""Representation-theory layer: group arithmetic, Wigner matrices,
coupling coefficients, dual conjugators, invariant subspaces."""

import itertools
import time

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import (
    Spin,
    GroupElement,
    wigner_entries,
    clebsch_gordan,
    epsilon,
    invariant_vectors,
    intertwiner_basis,
    Intertwiner,
)
from spinnet.rep_core import (MAX_TWICE_J, _MAX_ELEMENTS, _cg_tensor, _haar_pairs,
                              _has_invariant, _pair, _pair_product, _pair_wigner)
from helpers import (character, haar_element, inverse, multiply, reference_cg_tensor,
                     reference_haar_quaternions, reference_intertwiner_basis,
                     reference_wigner_entries, transform_intertwiner)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def wig(tj, g):
    return wigner_entries(tj, g.as_array())


# ---------------------------------------------------------------------------
# scalars and group elements

def test_spin_validation():
    assert Spin(0).dim == 1
    assert Spin(3).dim == 4
    twelve = Spin(np.int64(MAX_TWICE_J)).twice_j  # stored as a Python int
    assert type(twelve) is int and twelve == 12
    with pytest.raises(ValueError):
        Spin(-1)
    with pytest.raises(ValueError):
        Spin(1.5)


def test_spin_cap_enforced():
    # twice_j = 12 is the largest supported label
    wig(12, GroupElement.identity())
    with pytest.raises(ValueError):
        wig(13, GroupElement.identity())
    with pytest.raises(ValueError):
        epsilon(Spin(14))


@pytest.mark.parametrize("call, message", [
    (lambda: Spin(True), "twice_j must be a nonnegative integer, got True"),
    (lambda: Spin(np.int64(13)), "twice_j=13 exceeds the configured cap MAX_TWICE_J=12"),
    (lambda: invariant_vectors([1.5, 1.5]), "twice_j must be a nonnegative integer, got 1.5"),
    (lambda: wigner_entries(True, GroupElement.identity().as_array()),
     "twice_j must be a nonnegative integer, got True"),
], ids=["bool", "numpy-over-cap", "invariant-vectors-float", "wigner-bool"])
def test_spin_is_the_one_spin_rule(call, message):
    """``Spin`` refuses a bool and a label over the cap, numpy integers
    included, and the raw-integer builders take each value through it: a
    float is refused, never truncated, and a bool is no spin 1/2."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_group_element_unit_norm():
    GroupElement(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GroupElement(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GroupElement(float("nan"), 0.0, 0.0, 0.0)
    g = GroupElement.from_array([2.0, 0.0, 0.0, 0.0], normalize=True)
    assert g.w == 1.0
    npt.assert_allclose(g.as_array(), [1.0, 0.0, 0.0, 0.0])


def test_multiply_inverse_identity(rng):
    """The package's product on Cayley-Klein pairs, with the inverse
    (conj(a), -b) and the identity (1, 0)."""
    def inv(g):
        return g[0].conjugate(), -g[1]

    a, b = (_pair(haar_element(rng).as_array()) for _ in range(2))
    e = _pair(GroupElement.identity().as_array())
    npt.assert_allclose(_pair_product(a, inv(a)), e, atol=1e-12)
    npt.assert_allclose(_pair_product(e, a), a, atol=1e-12)
    npt.assert_allclose(_pair_product(inv(b), inv(a)), inv(_pair_product(a, b)), atol=1e-12)


# ---------------------------------------------------------------------------
# Wigner matrices

@pytest.mark.parametrize("tj", [1, 2, 3, 4, 6])
def test_wigner_homomorphism(tj, rng):
    """matrix(a b) = matrix(a) matrix(b), and inverses map to adjoints."""
    a, b = haar_element(rng), haar_element(rng)
    npt.assert_allclose(wig(tj, multiply(a, b)), wig(tj, a) @ wig(tj, b), atol=1e-12)
    npt.assert_allclose(wig(tj, inverse(a)), wig(tj, a).conj().T, atol=1e-12)


@pytest.mark.parametrize("tj", [1, 2, 5])
def test_wigner_unitary(tj, rng):
    d = wig(tj, haar_element(rng))
    npt.assert_allclose(d @ d.conj().T, np.eye(tj + 1), atol=1e-12)
    npt.assert_allclose(wig(tj, GroupElement.identity()), np.eye(tj + 1), atol=1e-12)


def test_wigner_center_parity():
    minus = GroupElement(-1.0, 0.0, 0.0, 0.0)
    npt.assert_allclose(wig(1, minus), -np.eye(2), atol=1e-12)
    npt.assert_allclose(wig(2, minus), np.eye(3), atol=1e-12)
    npt.assert_allclose(wig(3, minus), -np.eye(4), atol=1e-12)


@pytest.mark.parametrize("tj", [1, 2, 3, 6])
def test_wigner_character_closed_form(tj, rng):
    for _ in range(20):
        g = haar_element(rng)
        npt.assert_allclose(np.trace(wig(tj, g)), character(tj, g), atol=1e-10)


def test_wigner_entries_batch_matches_scalar(rng):
    q = np.stack([haar_element(rng).as_array() for _ in range(6)])
    batch = wigner_entries(3, q)
    assert batch.shape == (6, 4, 4)
    for k in range(6):
        npt.assert_allclose(batch[k], wig(3, GroupElement.from_array(q[k])), atol=1e-12)


def test_wigner_entries_batch_layout_keeps_bits():
    """A batch of any shape gives, bit for bit, the matrices of each
    quaternion taken as a batch of one.  (A bare (4,) quaternion runs through
    numpy's scalar arithmetic and may differ in the last bit.)"""
    q = reference_haar_quaternions(np.random.default_rng(31), (5, 7))
    for tj in range(13):
        batch = wigner_entries(tj, q)
        assert batch.shape == (5, 7, tj + 1, tj + 1)
        for i, j in itertools.product(range(5), range(7)):
            one = wigner_entries(tj, q[i, j][None])
            assert one.shape == (1, tj + 1, tj + 1)
            assert np.array_equal(batch[i, j], one[0])
        npt.assert_allclose(batch[2, 3], wigner_entries(tj, q[2, 3]), atol=1e-14)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_wigner_mirror_entries_are_conjugates_of_their_partners():
    """Each entry but the middle one equals its mirror's partner, D[n-kp,
    n-k] = (-1)^(kp-k) conj(D[kp, k]), as floats, so bit for bit up to the
    sign of a zero, and no zero entry has its sign bit set.  Every entry is
    within 1e-14 of the full monomial products, for batches and for a bare
    quaternion, also where the quaternion's zero components make zero
    products."""
    rng = np.random.default_rng(53)
    axes = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                     [-1, 0, 0, 0], [0, 0, -1, 0], [-0.0, 0, 0, -1], [0.6, -0.8, 0, 0],
                     [0, 0, 0.6, -0.8], [0.5, -0.5, 0.5, -0.5]], dtype=float)
    for tj in range(13):
        batch = reference_haar_quaternions(rng, (6, 3))
        sign = (-1.0) ** np.subtract.outer(np.arange(tj + 1), np.arange(tj + 1))
        for q in (batch, axes, batch[0, 0], *axes):
            got, want = wigner_entries(tj, q), reference_wigner_entries(tj, q)
            assert got.shape == want.shape
            mirrored = got[..., ::-1, ::-1] == sign * got.conj()
            if tj % 2 == 0:  # the middle entry is its own mirror, built once
                mirrored[..., tj // 2, tj // 2] = True
            assert mirrored.all()
            parts = _bits(np.stack([got.real, got.imag]))
            assert not np.any(parts == np.int64(-2**63))
            npt.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_haar_pairs_are_the_quaternion_draw_bit_for_bit():
    """The sampler's Cayley-Klein pairs (A, B) hold the reference draw's
    components, A = w + iz and B = y + ix, bit for bit, chunk after chunk of
    one stream, a partial chunk included."""
    for n_vars in (3, 11):
        rng, ref = (np.random.Generator(np.random.Philox(41)) for _ in range(2))
        for m in (2048, 2048, 717):
            a, b = _haar_pairs(rng, m, n_vars)
            want = reference_haar_quaternions(ref, (m, n_vars)).transpose(2, 1, 0)
            assert a.shape == b.shape == (n_vars, m)
            for got, k in ((a.real, 0), (b.imag, 1), (b.real, 2), (a.imag, 3)):
                assert np.array_equal(_bits(got), _bits(want[k]))


def test_pair_wigner_equals_wigner_entries():
    """Fed the pairs of a batch, with c = -conj(b) and d = conj(a), the one
    Wigner kernel gives ``wigner_entries``, in (row, col, sample) storage."""
    q = reference_haar_quaternions(np.random.default_rng(43), (9, 4))
    a, b = _pair(q.transpose(2, 0, 1))
    for tj in range(13):
        got = _pair_wigner(tj, a, b)
        assert got.shape == (tj + 1, tj + 1, 9, 4)
        assert np.array_equal(got.transpose(2, 3, 0, 1), wigner_entries(tj, q))


def test_spin_half_determinant(rng):
    g = haar_element(rng)
    npt.assert_allclose(np.linalg.det(wig(1, g)), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Clebsch-Gordan

@pytest.mark.parametrize("tjs", [(1, 1, 0), (1, 1, 2), (2, 2, 2), (1, 2, 3), (2, 3, 1), (4, 2, 2)])
def test_clebsch_gordan_isometry_and_intertwining(tjs, rng):
    tj1, tj2, tJ = tjs
    c = clebsch_gordan(Spin(tj1), Spin(tj2), Spin(tJ))
    assert c.shape == (tj1 + 1, tj2 + 1, tJ + 1)
    flat = c.reshape(-1, tJ + 1)
    npt.assert_allclose(flat.conj().T @ flat, np.eye(tJ + 1), atol=1e-12)
    g = haar_element(rng)
    lhs = np.einsum("ac,bd,cdJ->abJ", wig(tj1, g), wig(tj2, g), c)
    rhs = np.einsum("abK,KJ->abJ", c, wig(tJ, g))
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_clebsch_gordan_completeness():
    """Summed over admissible J the couplings resolve the identity."""
    tj1, tj2 = 2, 3
    total = np.zeros(((tj1 + 1) * (tj2 + 1),) * 2, dtype=complex)
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        c = clebsch_gordan(Spin(tj1), Spin(tj2), Spin(tJ)).reshape(-1, tJ + 1)
        total += c @ c.conj().T
    npt.assert_allclose(total, np.eye(total.shape[0]), atol=1e-12)


def test_clebsch_gordan_inadmissible():
    with pytest.raises(ValueError):
        clebsch_gordan(Spin(1), Spin(1), Spin(1))  # parity
    with pytest.raises(ValueError):
        clebsch_gordan(Spin(1), Spin(2), Spin(5))  # triangle


def test_has_invariant_is_the_one_spin_rule():
    """One rule says which spins admit an invariant: ``invariant_vectors``
    finds one exactly then (valence 1-4, twice_j up to 4), and
    ``clebsch_gordan`` refuses exactly the triples, up to the spin cap, that
    fail parity or the triangle inequality."""
    for valence in range(1, 5):
        for tjs in itertools.product(range(5), repeat=valence):
            assert _has_invariant(tjs) == bool(invariant_vectors(tjs)), tjs
    for tj1, tj2, tJ in itertools.product(range(MAX_TWICE_J + 1), repeat=3):
        admissible = (tj1 + tj2 + tJ) % 2 == 0 and abs(tj1 - tj2) <= tJ <= tj1 + tj2
        assert _has_invariant((tj1, tj2, tJ)) == admissible
        if admissible:
            clebsch_gordan(Spin(tj1), Spin(tj2), Spin(tJ))
        else:
            with pytest.raises(ValueError, match="inadmissible"):
                clebsch_gordan(Spin(tj1), Spin(tj2), Spin(tJ))


# ---------------------------------------------------------------------------
# dual conjugator

def test_epsilon_spin_half_literal():
    npt.assert_allclose(epsilon(Spin(1)), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("tj", [1, 2, 3, 4])
def test_epsilon_conjugates_representation(tj, rng):
    e = epsilon(Spin(tj))
    npt.assert_allclose(e @ e.conj().T, np.eye(tj + 1), atol=1e-12)
    npt.assert_allclose(e @ e.conj(), (-1.0) ** tj * np.eye(tj + 1), atol=1e-12)
    for _ in range(5):
        d = wig(tj, haar_element(rng))
        npt.assert_allclose(d.conj(), e @ d @ np.linalg.inv(e), atol=1e-11)


# ---------------------------------------------------------------------------
# invariant subspaces and intertwiners

KNOWN_INVARIANT_DIMS = [
    ((1, 1), 1),
    ((2, 2), 1),
    ((1, 1, 2), 1),
    ((2, 2, 2), 1),
    ((1, 2, 3), 1),
    ((1, 1, 1), 0),
    ((1,), 0),
    ((1, 1, 1, 1), 2),
    ((2, 2, 2, 2), 3),
    ((1, 1, 2, 2), 2),
]


@pytest.mark.parametrize("tjs,dim", KNOWN_INVARIANT_DIMS)
def test_invariant_dimensions(tjs, dim):
    assert len(invariant_vectors(tjs)) == dim


def test_invariant_vectors_orthonormal_and_fixed(rng):
    vecs = invariant_vectors((1, 1, 1, 1))
    flat = np.stack([v.ravel() for v in vecs])
    npt.assert_allclose(flat @ flat.conj().T, np.eye(2), atol=1e-12)
    g = haar_element(rng)
    d = wig(1, g)
    for v in vecs:
        rotated = np.einsum("ae,bf,cg,dh,efgh->abcd", d, d, d, d, v)
        npt.assert_allclose(rotated, v, atol=1e-10)


def _unpruned_invariant_vectors(tjs):
    """Left-comb coupling through every admissible intermediate spin, with no
    branch skipped: the reference for the pruned builder."""
    vecs = []

    def couple(k, tja, partial):
        if k == len(tjs) - 1:
            if tja == 0:
                vecs.append(np.ascontiguousarray(partial[..., 0]))
            return
        tjb = tjs[k + 1]
        for tjc in range(abs(tja - tjb), tja + tjb + 1, 2):
            couple(k + 1, tjc, np.einsum("...a,abc->...bc", partial, _cg_tensor(tja, tjb, tjc)))

    couple(0, tjs[0], np.eye(tjs[0] + 1, dtype=complex))
    return vecs


def test_invariant_vectors_pruning_keeps_order_and_bits():
    """Skipping intermediate spins that cannot close at zero drops only dead
    branches: every spin list of up to five legs (dimension <= 96) gives the
    same vectors, in the same order, bit for bit."""
    checked = 0
    for n in range(1, 6):
        for tjs in itertools.product(range(5), repeat=n):
            if np.prod([t + 1 for t in tjs]) > 96:
                continue
            got, want = invariant_vectors(tjs), _unpruned_invariant_vectors(tjs)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            checked += 1
    assert checked > 1000


def test_cg_tensor_cache_is_bounded_and_holds_every_theta_coupling():
    """The Clebsch-Gordan cache has a bound, and the couplings behind the
    bases of every 3- and 4-leg list of twice_j up to 8, which include every
    theta vertex up to (8, 8, 8), fit in it: building them all from an
    empty cache builds no tensor twice."""
    assert _cg_tensor.cache_info().maxsize is not None
    _cg_tensor.cache_clear()
    for n in (3, 4):
        for tjs in itertools.combinations_with_replacement(range(1, 9), n):
            invariant_vectors(list(tjs))
    info = _cg_tensor.cache_info()
    assert info.misses == info.currsize <= info.maxsize


def test_cg_tensor_is_the_rational_formula_bit_for_bit():
    """Every Clebsch-Gordan table that a basis of at most four legs of twice_j
    <= 12 can use is byte-equal to the rational form, one ``Fraction`` sum
    per entry (``helpers.reference_cg_tensor``).  In such a left comb every
    coupling (tj1, tj2, tJ) has a leg as tj2, and either legs only (the
    first) or a leg still to come to close with (the others, so tJ <= 12);
    this covers every table with tj1, tj2 <= 12, and intermediates tj1 up
    to 24."""
    keys = [(tj1, tj2, tJ) for tj1 in range(25) for tj2 in range(13)
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2) if tj1 <= 12 or tJ <= 12]
    assert len(keys) == 1022
    for key in keys:
        got, want = _cg_tensor(*key), reference_cg_tensor(*key)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), key


def test_invariant_vectors_odd_total_spin_is_empty():
    assert invariant_vectors((3,) * 7) == []
    assert invariant_vectors((1, 2, 2)) == []


def test_invariant_vectors_size_guard_fails_fast():
    """Ten spin-3/2 legs have 4269 invariants of 4**10 elements each, far
    over the budget: the count is taken before anything is built."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="4269 vectors"):
        invariant_vectors((3,) * 10)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="limit"):
        intertwiner_basis([(Spin(3), "out")] * 5 + [(Spin(3), "in")] * 5)
    # just under the budget still builds
    assert len(invariant_vectors((3,) * 6)) * 4**6 <= _MAX_ELEMENTS


def test_intertwiner_basis_gauge_fixed_points(rng):
    """Basis elements are unchanged by a simultaneous gauge rotation."""
    legs = ((Spin(1), "out"), (Spin(1), "in"), (Spin(2), "out"))
    basis = intertwiner_basis(legs)
    assert len(basis) == 1
    for b in basis:
        for _ in range(5):
            g = haar_element(rng)
            npt.assert_allclose(transform_intertwiner(b, g), b.components, atol=1e-10)


def test_intertwiner_basis_orthonormal():
    legs = ((Spin(1), "out"), (Spin(1), "out"), (Spin(1), "in"), (Spin(1), "in"))
    basis = intertwiner_basis(legs)
    assert len(basis) == 2
    flat = np.stack([b.components.ravel() for b in basis])
    npt.assert_allclose(flat @ flat.conj().T, np.eye(2), atol=1e-12)


def test_bivalent_basis_forms():
    out_in = intertwiner_basis(((Spin(2), "out"), (Spin(2), "in")))
    assert len(out_in) == 1
    npt.assert_allclose(out_in[0].components, np.eye(3) / np.sqrt(3), atol=1e-12)
    same_dir = intertwiner_basis(((Spin(1), "out"), (Spin(1), "out")))
    assert len(same_dir) == 1
    npt.assert_allclose(
        np.abs(same_dir[0].components), np.abs(epsilon(Spin(1))) / np.sqrt(2), atol=1e-12
    )


def test_intertwiner_basis_empty_cases():
    assert intertwiner_basis(((Spin(1), "out"),)) == []
    assert intertwiner_basis(((Spin(1), "out"), (Spin(2), "in"))) == []


def test_intertwiner_basis_matches_per_vector_epsilon_oracle():
    """On every leg list of at most four legs with twice_j <= 4, the basis
    equals the per-vector tensordot construction value for value.  Only the
    sign of a zero may differ: the signed flip gives 0.0 for every zero,
    where the matrix product sometimes leaves -0.0, and ``np.array_equal``
    does not tell them apart.  The components returned are the caller's to
    write."""
    choices = [(Spin(tj), d) for tj in range(5) for d in ("out", "in")]
    for n in range(5):
        for legs in itertools.product(choices, repeat=n):
            got = intertwiner_basis(legs)
            want = reference_intertwiner_basis(legs)
            assert len(got) == len(want), legs
            for iv, w in zip(got, want):
                assert np.array_equal(iv.components, w), legs
                assert iv.components.flags.writeable


def test_non_invariant_tensor_moves(rng):
    legs = ((Spin(1), "out"), (Spin(1), "in"))
    tensor = Intertwiner(legs, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    g = haar_element(rng)
    assert not np.allclose(transform_intertwiner(tensor, g), tensor.components, atol=1e-6)


def test_intertwiner_validation():
    legs = ((Spin(1), "out"), (Spin(1), "in"))
    with pytest.raises(ValueError):
        Intertwiner(legs, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Intertwiner(((Spin(1), "sideways"),), np.zeros(2))


def test_intertwiner_equality_by_value():
    legs = ((Spin(1), "out"), (Spin(1), "in"))
    a = Intertwiner(legs, np.eye(2, dtype=complex))
    b = Intertwiner(legs, np.eye(2, dtype=complex))
    c = Intertwiner(legs, 2.0 * np.eye(2, dtype=complex))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_haar_element_helper_is_unit(rng):
    g = haar_element(rng)
    npt.assert_allclose(np.dot(g.as_array(), g.as_array()), 1.0, atol=1e-12)
