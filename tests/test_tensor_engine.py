"""Labeled tensor contraction, exact Haar projection, Monte Carlo engine."""

import time

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import (
    Spin,
    invariant_vectors,
    intertwiner_basis,
    Leg,
    LabeledTensor,
    GroupFactor,
    FactorNetwork,
    contract,
    haar_project,
    mc_expectation,
    decompose,
    enumerate_correspondences,
    exact_inner_product,
    transport,
    mc_inner_product,
    build_tassel,
    build_phi,
)
import spinnet.tensor_engine as te
from spinnet.rep_core import _has_invariant, _pair, wigner_entries
from spinnet.tensor_engine import MC_CHUNK, _invariant_basis
from helpers import (cycle_network, factored_projector, haar_element, loop_network,
                     paired_factor_network, reference_haar_quaternions, theta_network)


def lt(name_prefix, arr, variances):
    arr = np.asarray(arr, dtype=complex)
    legs = tuple(
        Leg(f"{name_prefix}{k}", Spin(d - 1), v)
        for k, (d, v) in enumerate(zip(arr.shape, variances))
    )
    return LabeledTensor(legs, arr)


def factor(var, tj, row, col, conjugated=False, inverted=False):
    return GroupFactor(var, Spin(tj), conjugated, inverted, row, col)


# ---------------------------------------------------------------------------
# structures

def test_leg_variance_validation():
    Leg("a", Spin(1), "ket")
    with pytest.raises(ValueError):
        Leg("a", Spin(1), "covariant")


def test_labeled_tensor_validation():
    with pytest.raises(ValueError):
        LabeledTensor((Leg("a", Spin(1), "ket"),), np.zeros(3))
    with pytest.raises(ValueError):
        LabeledTensor(
            (Leg("a", Spin(1), "ket"), Leg("a", Spin(1), "bra")), np.zeros((2, 2))
        )


# ---------------------------------------------------------------------------
# contract

def test_contract_matrix_product():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ta = lt("a", a, ("ket", "bra"))
    tb = lt("b", b, ("ket", "bra"))
    out = contract([ta, tb], [("b0", "a1")])
    assert [l.id for l in out.legs] == ["a0", "b1"]
    npt.assert_allclose(out.data, a @ b, atol=1e-12)


def test_contract_full_trace():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4))
    ta = lt("a", a, ("ket", "bra"))
    out = contract([ta], [("a0", "a1")])
    assert out.legs == ()
    npt.assert_allclose(complex(out.data), np.trace(a), atol=1e-12)


def test_contract_three_tensor_chain():
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((2, 2)) for _ in range(3)]
    ts = [lt(f"m{k}", m, ("ket", "bra")) for k, m in enumerate(mats)]
    out = contract(ts, [("m00", "m01"), ("m10", "m11"), ("m20", "m21")])
    npt.assert_allclose(
        complex(out.data), np.trace(mats[0]) * np.trace(mats[1]) * np.trace(mats[2])
    )


def test_contract_validation_errors():
    ta = lt("a", np.zeros((2, 2)), ("ket", "bra"))
    tb = lt("b", np.zeros((3, 3)), ("ket", "bra"))
    with pytest.raises(ValueError):
        contract([ta, tb], [("a1", "nope")])
    with pytest.raises(ValueError):
        contract([ta, tb], [("a1", "b0")])  # spin mismatch 2 vs 3
    with pytest.raises(ValueError):
        contract([ta], [("a0", "a0")])
    tc = lt("a", np.zeros((2, 2)), ("ket", "bra"))
    with pytest.raises(ValueError):
        contract([ta, tc], [])  # duplicate leg ids across tensors
    tk = lt("k", np.zeros((2, 2)), ("ket", "ket"))
    with pytest.raises(ValueError):
        contract([ta, tk], [("a0", "k0")])  # ket paired with ket


def test_contract_wide_steps():
    """Steps with more legs than one einsum call has labels for."""
    rng = np.random.default_rng(8)
    dims = (2, 3) + (1,) * 25
    a = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    b = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    ta = lt("a", a, ("ket",) * 27)
    tb = lt("b", b, ("bra",) * 27)
    out = contract([ta, tb], [(f"a{k}", f"b{k}") for k in range(27)])
    npt.assert_allclose(complex(out.data), np.sum(a * b), atol=1e-12)
    # one 54-leg node whose legs k and k + 27 are traced against each other
    mat = rng.standard_normal((6, 6))
    tt = lt("t", mat.reshape(dims + dims), ("ket",) * 27 + ("bra",) * 27)
    out = contract([tt], [(f"t{k}", f"t{k + 27}") for k in range(27)])
    npt.assert_allclose(complex(out.data), np.trace(mat), atol=1e-12)


def test_contract_oversized_plan_fails_before_allocating():
    """Two unpaired 13^4 tensors would need a 13^8-element outer product."""
    shape = (13, 13, 13, 13)
    ta = lt("a", np.ones(shape), ("ket",) * 4)
    tb = lt("b", np.ones(shape), ("bra",) * 4)
    with pytest.raises(ValueError, match="intermediate"):
        contract([ta, tb], [])


def test_contract_plan_cache_is_bounded_and_keeps_checks():
    """One plan per contraction shape, from the engine's one bounded plan
    cache: the 48 transported terms of a 3-cycle self-pairing share one, and
    a cached shape is still checked and still refused when oversized."""
    maxsize = te._plan.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    cycle = cycle_network(np.random.default_rng(3), 3)
    d = decompose(cycle.graph)
    classes = enumerate_correspondences(d, d)
    assert len(classes) == 48
    te._plan.cache_clear()
    for c in classes:
        exact_inner_product(transport(cycle, c), cycle)
    assert te._plan.cache_info().misses == 1
    assert te._plan.cache_info().hits == 47

    ta = lt("a", np.eye(2)[0], ("ket",))
    contract([ta, lt("b", np.eye(2)[1], ("bra",))], [("a0", "b0")])
    with pytest.raises(ValueError, match="ket leg to a bra leg"):
        contract([ta, lt("b", np.eye(2)[1], ("ket",))], [("a0", "b0")])
    shape = (13, 13, 13, 13)
    big = [lt("a", np.ones(shape), ("ket",) * 4), lt("b", np.ones(shape), ("bra",) * 4)]
    for _ in range(2):
        with pytest.raises(ValueError, match="intermediate"):
            contract(big, [])


# ---------------------------------------------------------------------------
# haar_project

def test_haar_project_empty_is_unit_scalar():
    out = haar_project([])
    assert out.legs == ()
    assert complex(out.data) == 1.0 + 0.0j


def test_haar_project_oversized_refused_before_building(monkeypatch):
    """Fourteen spin-1/2 legs give a 2^14 x 2^14 projector, 2^28 elements:
    refused from the dims alone, before the basis is built."""
    def no_basis(*args, **kwargs):
        raise AssertionError("built the basis before the size check")

    monkeypatch.setattr(te, "_invariant_basis", no_basis)
    factors = [factor("g", 1, f"r{k}", f"c{k}") for k in range(14)]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over the limit"):
        haar_project(factors)
    assert time.perf_counter() - start < 1.0


def test_haar_project_single_factor_vanishes():
    out = haar_project([factor("g", 2, "r", "c")])
    npt.assert_allclose(out.data, 0.0, atol=0.0)


def test_haar_project_conjugate_pair_entries():
    """Integral of conj(D)_ab D_cd is delta_ac delta_bd / dim."""
    tj = 2
    out = haar_project(
        [factor("g", tj, "r1", "c1", conjugated=True), factor("g", tj, "r2", "c2")]
    )
    ids = [l.id for l in out.legs]
    assert ids == ["r1", "r2", "c1", "c2"]
    d = tj + 1
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    want = (a == c) * (b == e) / d
                    npt.assert_allclose(out.data[a, c, b, e], want, atol=1e-12)


def test_haar_project_inverted_pair_entries():
    """Inversion transposes a factor's named legs: the integral of
    D(g^-1)_ab D(g)_cd is delta_ad delta_bc / dim."""
    tj = 1
    out = haar_project(
        [factor("g", tj, "r1", "c1", inverted=True), factor("g", tj, "r2", "c2")]
    )
    pos = {l.id: k for k, l in enumerate(out.legs)}
    assert set(pos) == {"r1", "c1", "r2", "c2"}
    d = tj + 1
    idx = [0] * 4
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    idx[pos["r1"]] = a
                    idx[pos["c1"]] = b
                    idx[pos["r2"]] = c
                    idx[pos["c2"]] = e
                    want = (a == e) * (b == c) / d
                    npt.assert_allclose(out.data[tuple(idx)], want, atol=1e-12)


@pytest.mark.parametrize(
    "specs",
    [
        [(1, False, False), (1, False, False)],
        [(1, True, False), (1, False, False), (2, False, False)],
        [(2, False, True), (2, False, False), (2, True, False)],
        [(1, True, True), (1, False, False)],
    ],
)
def test_haar_project_is_invariant_projector(specs):
    rng = np.random.default_rng(11)
    factors = [
        factor("g", tj, f"r{k}", f"c{k}", conjugated=cj, inverted=iv)
        for k, (tj, cj, iv) in enumerate(specs)
    ]
    out = haar_project(factors)
    n = len(specs)
    dims = [tj + 1 for tj, _, _ in specs]
    size = int(np.prod(dims))
    mat = out.data.reshape(size, size)
    npt.assert_allclose(mat, mat.conj().T, atol=1e-12)
    npt.assert_allclose(mat @ mat, mat, atol=1e-12)
    # each data axis transforms under the plain representation, conjugated
    # when exactly one of (conjugated, inverted) is set; inversion is
    # otherwise a pure leg renaming, checked separately
    for _ in range(5):
        g = haar_element(rng)
        blocks = []
        for tj, cj, iv in specs:
            d = wigner_entries(tj, g.as_array())
            blocks.append(d.conj() if cj != iv else d)
        rep = blocks[0]
        for b in blocks[1:]:
            rep = np.kron(rep, b)
        npt.assert_allclose(rep @ mat, mat, atol=1e-10)
        # rows and columns transform the same way, so the projector is
        # invariant from the right as well
        npt.assert_allclose(mat @ rep.conj().T, mat, atol=1e-10)


def test_haar_project_trace_counts_invariants():
    specs = [(1, 1, 1, 1), (2, 2, 2), (1, 1, 2, 2)]
    for tjs in specs:
        factors = [factor("g", tj, f"r{k}", f"c{k}") for k, tj in enumerate(tjs)]
        out = haar_project(factors)
        size = int(np.prod([tj + 1 for tj in tjs]))
        tr = np.trace(out.data.reshape(size, size))
        assert round(tr.real) == len(invariant_vectors(tjs))
        npt.assert_allclose(tr.imag, 0.0, atol=1e-12)


def test_invariant_basis_cache_is_bounded():
    maxsize = _invariant_basis.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


@pytest.mark.parametrize(
    "specs",
    [
        [(1, True, False), (1, True, False), (2, False, False)],  # conjugated
        [(2, False, True), (2, False, False), (2, False, True)],  # inverted
        [(1, True, False), (1, False, True), (2, True, True), (2, False, False)],  # mixed
    ],
)
def test_haar_project_matches_intertwiner_basis_outer_product(specs):
    """P = sum_b B_b (x) conj(B_b) over the intertwiner basis whose in-legs are
    the dualized factors, with an inverted factor's named legs swapped."""
    factors = [
        factor("g", tj, f"r{k}", f"c{k}", conjugated=c, inverted=i)
        for k, (tj, c, i) in enumerate(specs)
    ]
    legs = [(Spin(tj), "in" if c != i else "out") for tj, c, i in specs]
    basis = [iv.components for iv in intertwiner_basis(legs)]
    assert basis
    want = sum(np.multiply.outer(b, b.conj()) for b in basis)
    row_ids = [f.col_leg if f.inverted else f.row_leg for f in factors]
    col_ids = [f.row_leg if f.inverted else f.col_leg for f in factors]
    out = haar_project(factors)
    pos = {l.id: k for k, l in enumerate(out.legs)}
    got = np.transpose(out.data, [pos[l] for l in row_ids + col_ids])
    npt.assert_allclose(got, want, atol=1e-14)
    # the factored pair contracts back to the same tensor
    b, bc, pairing = factored_projector(factors, "m")
    joined = contract([b, bc], [pairing])
    assert joined.legs == out.legs
    npt.assert_allclose(joined.data, out.data, atol=1e-14)


def test_haar_project_rejects_mixed_variables():
    with pytest.raises(ValueError):
        haar_project([factor("g", 1, "r1", "c1"), factor("h", 1, "r2", "c2")])


# ---------------------------------------------------------------------------
# Monte Carlo

def character_network(tj, conjugate_partner=True):
    """|chi_j(g)|^2 as a fully paired two-factor network."""
    f1 = factor("g", tj, "a", "b")
    f2 = factor("g", tj, "c", "d", conjugated=conjugate_partner)
    return FactorNetwork((f1, f2), (), (("a", "b"), ("c", "d")))


def test_mc_character_moments():
    net = character_network(1)
    mean, err = mc_expectation(net, 40000, seed=3)
    assert err > 0
    assert abs(mean - 1.0) < 4 * err

    single = FactorNetwork((factor("g", 2, "a", "b"),), (), (("a", "b"),))
    mean0, err0 = mc_expectation(single, 40000, seed=4)
    assert abs(mean0) < 4 * err0


def test_mc_two_variable_invariance():
    """The squared character of a product g h averages to 1."""
    f1 = factor("g", 1, "a", "b")
    f2 = factor("h", 1, "b2", "a2")
    f3 = factor("g", 1, "c", "d", conjugated=True)
    f4 = factor("h", 1, "d2", "c2", conjugated=True)
    net = FactorNetwork(
        (f1, f2, f3, f4),
        (),
        (("b", "b2"), ("a2", "a"), ("d", "d2"), ("c2", "c")),
    )
    mean, err = mc_expectation(net, 60000, seed=9)
    assert abs(mean - 1.0) < 4 * err


def test_mc_agrees_with_exact_projector():
    rng = np.random.default_rng(21)
    tj = 1
    d = tj + 1
    u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    tu = LabeledTensor((Leg("u0", Spin(tj), "ket"), Leg("u1", Spin(tj), "bra")), u)
    tw = LabeledTensor((Leg("w0", Spin(tj), "bra"), Leg("w1", Spin(tj), "ket")), w)
    factors = [factor("g", tj, "r1", "c1", conjugated=True), factor("g", tj, "r2", "c2")]
    pairings = [("r1", "u0"), ("r2", "u1"), ("c1", "w0"), ("c2", "w1")]
    proj = haar_project(factors)
    exact = complex(contract([proj, tu, tw], pairings).data)
    net = FactorNetwork(tuple(factors), (tu, tw), tuple(pairings))
    mean, err = mc_expectation(net, 50000, seed=12)
    assert abs(mean - exact) < 4 * err


def _random_factor_network(rng):
    """A fully paired factor network of two variables: g has one factor of
    each (conjugated, inverted) combination, h two or three factors of
    random combinations, all of spin 1/2 or 1 admitting an invariant.  Up to
    two column legs are paired directly with a row leg of equal spin and
    conjugation, possibly on the same factor (a trace); the other legs close
    on random constant tensors of at most three legs each."""
    flags = [(c, i) for c in (False, True) for i in (False, True)]
    specs = []
    for variable, n in (("g", 4), ("h", int(rng.integers(2, 4)))):
        tjs = rng.integers(1, 3, size=n)
        while not _has_invariant(tjs):
            tjs = rng.integers(1, 3, size=n)
        combos = ([flags[k] for k in rng.permutation(4)] if variable == "g"
                  else [flags[k] for k in rng.integers(0, 4, size=n)])
        specs += [(variable, int(tj), c, i) for tj, (c, i) in zip(tjs, combos)]
    factors = [factor(v, tj, f"r{k}", f"c{k}", conjugated=c, inverted=i)
               for k, (v, tj, c, i) in enumerate(specs)]
    legs = {}
    for f in factors:
        legs.update(zip((f.row_leg, f.col_leg), ((f.spin, v) for v in f.leg_variances())))
    pairings = []
    for _ in range(2):
        direct = [(a.col_leg, b.row_leg) for a in factors for b in factors
                  if a.spin == b.spin and a.conjugated == b.conjugated
                  and a.col_leg in legs and b.row_leg in legs]
        if direct:
            pair = direct[rng.integers(len(direct))]
            pairings.append(pair)
            for leg in pair:
                del legs[leg]
    free = list(legs)
    free = [free[k] for k in rng.permutation(len(free))]
    flip = {"ket": "bra", "bra": "ket"}
    tensors = []
    for t, start in enumerate(range(0, len(free), 3)):
        ids = free[start:start + 3]
        t_legs = tuple(Leg(f"t{t}_{k}", legs[l][0], flip[legs[l][1]]) for k, l in enumerate(ids))
        shape = tuple(l.spin.dim for l in t_legs)
        tensors.append(LabeledTensor(t_legs, rng.standard_normal(shape)
                                     + 1j * rng.standard_normal(shape)))
        pairings += [(l, tl.id) for l, tl in zip(ids, t_legs)]
    return FactorNetwork(tuple(factors), tuple(tensors), tuple(pairings))


def test_exact_expectation_agrees_with_sampling_and_dense_projectors():
    """On seeded random factor networks the exact integral agrees with the
    Monte Carlo estimate within 4 standard errors, which checks the
    projector's conjugation and inversion conventions (``_projector_sides``)
    against the sampled matrices' (``_factor_arrays``), and with dense
    projectors (``haar_project``) and ``contract`` to 1e-13."""
    rng = np.random.default_rng(30)
    direct = 0
    for k in range(6):
        net = _random_factor_network(rng)
        by_variable = {}
        for f in net.factors:
            by_variable.setdefault(f.variable, []).append(f)
        assert {(f.conjugated, f.inverted) for f in by_variable["g"]} == {
            (c, i) for c in (False, True) for i in (False, True)}
        factor_legs = {l for f in net.factors for l in (f.row_leg, f.col_leg)}
        direct += sum(a in factor_legs and b in factor_legs for a, b in net.pairings)

        exact = te._exact_expectation(net.factors, te._operands(net.tensors), net.pairings)
        dense = complex(contract([haar_project(fs) for fs in by_variable.values()]
                                 + list(net.tensors), net.pairings).data)
        assert abs(exact - dense) <= 1e-13 * max(1.0, abs(dense)), k
        mean, err = mc_expectation(net, 20000, seed=k)
        assert 0 < err and abs(mean - exact) < 4 * err, (k, exact, mean, err)
    assert direct >= 6


def test_mc_bit_stable_and_chunk_insensitive(monkeypatch):
    """One seed gives one (mean, stderr), bit for bit, whatever the chunk
    size: samples are summed in fixed blocks of ``_MC_BLOCK``, so chunks of
    256 to 8192 samples, with a partial last chunk and a partial last block
    at 6001 samples, reduce to the same bits, for a joint network and for
    each state on its own edges alike.  Every chunk ``_mc_chunks`` gives
    starts on the block grid, holds more than one sample and fits the
    batch of ``_mc_batch``, which is ``min(MC_CHUNK, n)`` except when
    ``MC_CHUNK`` is one block."""
    net = character_network(1)
    first = mc_expectation(net, MC_CHUNK + 7, seed=42)
    second = mc_expectation(net, MC_CHUNK + 7, seed=42)
    assert first == second
    other_seed = mc_expectation(net, MC_CHUNK + 7, seed=43)
    assert other_seed != first

    theta, big = theta_network((1, 1, 2)), theta_network((6, 6, 12))
    loop = loop_network(1)
    pairs = [(theta, theta), (big, big), (build_tassel(2).network, build_phi(2, -1).network),
             (loop, loop)]
    results = []
    for chunk in (256, 512, 2048, 8192):
        assert chunk % te._MC_BLOCK == 0
        monkeypatch.setattr(te, "MC_CHUNK", chunk)
        for n in range(2, 3 * chunk + 3):
            full, tail = te._mc_chunks(n)
            chunks, batch = [chunk] * full + tail, te._mc_batch(n, 0)
            assert sum(chunks) == n and min(chunks) > 1 and max(chunks) <= batch
            assert all(sum(chunks[:k]) % te._MC_BLOCK == 0 for k in range(len(chunks)))
            assert batch == min(chunk, n) or (chunk, batch) == (te._MC_BLOCK, te._MC_BLOCK + 1)
        results.append([f(a, b, 6001, seed=7) for a, b in pairs
                        for f in (mc_inner_product,
                                  lambda a, b, n, seed: mc_expectation(
                                      paired_factor_network(a, b), n, seed))])
    assert all(r == results[0] for r in results[1:])


def test_mc_validation():
    net = character_network(1)
    with pytest.raises(ValueError):
        mc_expectation(net, 1, seed=0)
    open_net = FactorNetwork((factor("g", 1, "a", "b"),), (), ())
    with pytest.raises(ValueError):
        mc_expectation(open_net, 100, seed=0)


@pytest.mark.parametrize("case, message", [
    ("spin", "spin mismatch"),
    ("ket_ket", "ket leg to a bra leg"),
    ("duplicate", "more than one tensor"),
])
def test_mc_rejects_pairings_contract_rejects(case, message):
    """A fully paired network with a bad pairing fails before sampling, on the
    same leg checks as ``contract``; without factors, ``contract`` itself
    rejects it the same way."""
    if case == "spin":  # a 2x3 against a 3x2 array: spin 1/2 paired with spin 1
        net = FactorNetwork((), (lt("a", np.arange(6).reshape(2, 3), ("ket", "bra")),
                                 lt("b", np.arange(6).reshape(3, 2), ("bra", "ket"))),
                            (("a0", "b0"), ("b1", "a1")))
    elif case == "ket_ket":
        net = FactorNetwork((factor("g", 1, "r", "c"),),
                            (lt("k", np.ones((2, 2)), ("ket", "ket")),),
                            (("r", "k0"), ("k1", "c")))
    else:  # a factor reusing the leg ids of a constant tensor
        net = FactorNetwork((factor("g", 1, "a0", "a1"),),
                            (lt("a", np.eye(2), ("ket", "bra")),),
                            (("a0", "a1"),))
    with pytest.raises(ValueError, match=message):
        mc_expectation(net, 100, seed=0)
    if not net.factors:
        with pytest.raises(ValueError, match=message):
            contract(list(net.tensors), net.pairings)


def _oversized_chunk_network():
    """k spin-1 factors between two random 3^k tensors, with k the fewest
    for which a full chunk of 3^k tensors is over the budget."""
    k = 1
    while MC_CHUNK * 3**k <= te._MAX_ELEMENTS:
        k += 1
    rng = np.random.default_rng(13)
    t1 = lt("s", rng.standard_normal((3,) * k), ("bra",) * k)
    t2 = lt("t", rng.standard_normal((3,) * k), ("ket",) * k)
    factors = tuple(factor(f"g{i}", 2, f"r{i}", f"c{i}") for i in range(k))
    pairings = tuple((f"r{i}", f"s{i}") for i in range(k)) + tuple(
        (f"c{i}", f"t{i}") for i in range(k)
    )
    return FactorNetwork(factors, (t1, t2), pairings)


def test_mc_oversized_chunk_fails_before_sampling(monkeypatch):
    """Every step of this network yields a 3^k tensor per sample; a full
    chunk of those is over the budget, two samples are not."""
    net = _oversized_chunk_network()
    mc_expectation(net, 2, seed=0)

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before the plan was checked")

    monkeypatch.setattr(te, "_haar_pairs", no_draws)
    with pytest.raises(ValueError, match="intermediate"):
        mc_expectation(net, MC_CHUNK, seed=0)


def test_empty_contraction_is_refused_by_name():
    """No operand at all is refused with a clear message, by ``contract``
    and by ``mc_expectation``, before any plan is made."""
    te._plan.cache_clear()
    with pytest.raises(ValueError, match="^a contraction needs at least one operand$"):
        contract([], [])
    with pytest.raises(ValueError, match="^a contraction needs at least one operand$"):
        mc_expectation(FactorNetwork((), (), ()), 10, 0)
    assert te._plan.cache_info().currsize == 0


def _oracle_network():
    """Two variables with plain, conjugated, inverted and conjugated-inverted
    factors around two random tensors, plus a disconnected loop of h."""
    rng = np.random.default_rng(17)
    specs = [("g", 1, False, False), ("g", 2, True, False), ("h", 1, False, True),
             ("h", 2, True, True), ("g", 2, False, True)]
    factors = [factor(v, tj, f"r{k}", f"c{k}", conjugated=c, inverted=i)
               for k, (v, tj, c, i) in enumerate(specs)]
    dims = tuple(tj + 1 for _, tj, _, _ in specs)

    def rand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # row legs are kets (bras when conjugated), column legs the opposite
    row_var = tuple("bra" if c else "ket" for _, _, c, _ in specs)
    col_var = tuple("ket" if c else "bra" for _, _, c, _ in specs)
    flip = {"ket": "bra", "bra": "ket"}
    ta = lt("a", rand(dims), tuple(flip[v] for v in row_var))
    tb = lt("b", rand(dims), tuple(flip[v] for v in col_var))
    loop = factor("h", 1, "lr", "lc")
    tl = lt("l", rand((2, 2)), ("bra", "ket"))
    pairings = [(f"r{k}", f"a{k}") for k in range(5)] + [(f"c{k}", f"b{k}") for k in range(5)]
    pairings += [("lr", "l0"), ("lc", "l1")]
    net = FactorNetwork(tuple(factors) + (loop,), (ta, tb, tl), tuple(pairings))
    return net, ta.data, tb.data, tl.data


def test_mc_matches_per_sample_oracle():
    """The batched executor agrees with a per-sample einsum on every sample
    of one chunk, drawn from the same stream."""
    net, a, b, l = _oracle_network()
    n, seed = min(MC_CHUNK, 300), 23
    mean, err = mc_expectation(net, n, seed)
    rng = te._mc_stream(seed)
    quats = reference_haar_quaternions(rng, (n, 2))  # variables in sorted order: g, h
    inverse = np.array([1.0, -1.0, -1.0, -1.0])
    values = []
    for q in quats:
        mats = []
        for f in net.factors:
            qv = q[0] if f.variable == "g" else q[1]
            m = wigner_entries(f.spin.twice_j, qv * inverse if f.inverted else qv)
            mats.append(m.conj() if f.conjugated else m)
        d0, d1, d2, d3, d4, dl = mats
        main = np.einsum("ab,cd,ef,gh,ij,acegi,bdfhj->", d0, d1, d2, d3, d4, a, b)
        values.append(main * np.einsum("ab,ab->", dl, l))
    values = np.array(values)
    want = values.mean()
    assert abs(mean - want) <= 1e-12 * max(1.0, abs(want))
    npt.assert_allclose(err, np.std(values, ddof=1) / np.sqrt(n), rtol=1e-9)


def test_mc_plans_once_per_call(monkeypatch):
    calls = []
    real_plan = te._plan

    def counting_plan(*args, **kwargs):
        calls.append(kwargs.get("batch"))
        return real_plan(*args, **kwargs)

    monkeypatch.setattr(te, "_plan", counting_plan)
    net, _, _, _ = _oracle_network()
    mc_expectation(net, 2 * MC_CHUNK + 5, seed=1)
    assert calls == [MC_CHUNK]


def _two_kernel_network():
    """Five factors of two variables around three constants, shaped so that
    the chunk plan mixes both kernels in every way the next test checks.
    Factor 4 is traced on its own."""
    rng = np.random.default_rng(19)
    specs = [("g", 1, False, False), ("h", 2, False, True), ("g", 1, True, False),
             ("h", 3, False, False), ("g", 2, True, True)]
    factors = [factor(v, tj, f"r{k}", f"c{k}", conjugated=c, inverted=i)
               for k, (v, tj, c, i) in enumerate(specs)]
    dim, variance = {}, {}
    for f in factors:
        for leg, v in zip((f.row_leg, f.col_leg), f.leg_variances()):
            dim[leg], variance[leg] = f.spin.dim, v
    flip = {"ket": "bra", "bra": "ket"}
    # each constant is given by the factor legs it is paired with
    attach = [("r2", "r1", "r3"), ("r0",), ("c1", "c3", "c2", "c0")]
    tensors = []
    for n, legs in enumerate(attach):
        shape = tuple(dim[l] for l in legs)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors.append(lt(f"t{n}_", data, tuple(flip[variance[l]] for l in legs)))
    pairings = [("r4", "c4")] + [(l, f"t{n}_{k}") for n, legs in enumerate(attach)
                                 for k, l in enumerate(legs)]
    return FactorNetwork(tuple(factors), tuple(tensors), tuple(pairings))


def test_mc_two_kernel_plan_matches_per_sample_oracle():
    """The chunk plan mixes multiply-adds and matmuls; every sample of it
    agrees with a per-sample einsum over the same draws."""
    net = _two_kernel_network()
    plan, _, _ = te._prepared(net.factors, te._operands(net.tensors), net.pairings, MC_CHUNK)
    n_in = len(net.factors) + len(net.tensors)
    made_by = {}
    seen = set()
    for k, st in enumerate(plan.steps):
        if st.kernel == "trace" and st.batched_a:
            seen.add("batched trace")
        if st.kernel == "madd":
            seen.add("madd")
        if st.kernel == "matmul" and st.batched_a:
            seen.add("batched a, constant b")
        if st.kernel == "matmul" and st.batched_b:
            seen.add("constant a, batched b")
        for src in (st.a, st.b):
            if made_by.get(src) == "madd" and st.kernel == "matmul":
                seen.add("madd -> matmul")
            if made_by.get(src) == "matmul" and st.kernel == "madd":
                seen.add("matmul -> madd")
        made_by[n_in + k] = st.kernel
    assert seen == {"batched trace", "madd", "batched a, constant b", "constant a, batched b",
                    "madd -> matmul", "matmul -> madd"}

    n, seed = 300, 29
    mean, err = mc_expectation(net, n, seed)
    rng = te._mc_stream(seed)
    quats = reference_haar_quaternions(rng, (n, 2))  # variables in sorted order: g, h
    label = {}
    for a, b in net.pairings:
        label[a] = label[b] = len(label) // 2
    inverse = np.array([1.0, -1.0, -1.0, -1.0])
    values = []
    for q in quats:
        operands = []
        for f in net.factors:
            qv = q[0] if f.variable == "g" else q[1]
            mat = wigner_entries(f.spin.twice_j, (qv * inverse if f.inverted else qv)[None])[0]
            operands += [mat.conj() if f.conjugated else mat, [label[f.row_leg], label[f.col_leg]]]
        for t in net.tensors:
            operands += [t.data, [label[l.id] for l in t.legs]]
        values.append(np.einsum(*operands, []))
    values = np.array(values)
    want = values.mean()
    assert abs(mean - want) <= 1e-12 * max(1.0, abs(want))
    npt.assert_allclose(err, np.std(values, ddof=1) / np.sqrt(n), rtol=1e-9)
    # and sample by sample, through the executor
    batch_plan, _, _ = te._prepared(net.factors, te._operands(net.tensors), net.pairings, n)
    pairs_by_var = {"g": _pair(quats[:, 0].T), "h": _pair(quats[:, 1].T)}
    arrays = te._factor_arrays(net.factors, pairs_by_var)
    got = te._execute(batch_plan, arrays + [t.data for t in net.tensors])
    npt.assert_allclose(got, values, rtol=0, atol=1e-12 * max(1.0, np.abs(values).max()))


def test_contract_plans_never_multiply_add(monkeypatch):
    """Exact contractions have no batched operand, so every step of their
    plans is a matmul or a trace, however small."""
    kernels = set()
    real = te._plan

    def recording(*args, **kwargs):
        plan = real(*args, **kwargs)
        kernels.update(st.kernel for st in plan.steps)
        return plan

    monkeypatch.setattr(te, "_plan", recording)
    rng = np.random.default_rng(37)
    mats = [lt(f"m{k}", rng.standard_normal((2, 2)), ("ket", "bra")) for k in range(3)]
    contract(mats, [("m01", "m10"), ("m11", "m20"), ("m21", "m00")])
    contract(mats[:1], [("m00", "m01")])
    contract(mats[:2], [])
    cycle = cycle_network(np.random.default_rng(3), 3)
    exact_inner_product(cycle, cycle)
    assert "matmul" in kernels and "trace" in kernels
    assert kernels <= {"matmul", "trace"}


@pytest.mark.parametrize("shape_a, shape_b, batched_a, batched_b, kernel, subscripts", [
    ((2, 3), (3, 4), True, True, "madd", "ik,kj"),
    ((2, 3), (3, 4), False, True, "matmul", "ik,kj"),
    ((2, 3), (3, 4), True, False, "matmul", "ik,kj"),
    ((8, 3), (3, 8), True, True, "madd", "ik,kj"),
    ((8, 3), (3, 8), False, True, "matmul", "ik,kj"),
    ((8, 3), (3, 8), True, False, "matmul", "ik,kj"),
    # nothing contracted (inner = 1): a broadcast product
    ((2,), (4,), True, True, "madd", "i,j"),
    # rows = 8 and the contracted leg moved behind the free ones
    ((3, 2, 4), (3, 5), True, False, "matmul", "kil,kj"),
])
def test_execute_one_step_per_kernel_and_batch_placement(shape_a, shape_b, batched_a,
                                                         batched_b, kernel, subscripts):
    """One pairwise step, sample axis last on each batched operand, against a
    per-sample einsum: the kernel follows from the batching alone, whatever
    the step's size."""
    rng = np.random.default_rng(41)
    m = 5

    def rand(shape, batched):
        shape = shape + (m,) * batched
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = rand(shape_a, batched_a), rand(shape_b, batched_b)
    sub_a, sub_b = subscripts.split(",")
    inner = [c for c in sub_a if c in sub_b]
    plan = te._plan((tuple(sub_a), tuple(c + "2" if c in inner else c for c in sub_b)),
                    (shape_a, shape_b), (batched_a, batched_b),
                    tuple((c, c + "2") for c in inner), batch=m)
    (st,) = plan.steps
    assert st.kernel == kernel
    got = te._execute(plan, [a, b])
    free = [c for c in sub_a + sub_b if c not in inner]
    want = np.einsum(sub_a + "s" * batched_a + "," + sub_b + "s" * batched_b
                     + "->" + "".join(free) + "s", a, b)
    assert plan.legs == tuple(free)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)
