"""Evaluation against holonomies and inner products under the uniform measure."""

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import (
    Spin,
    GroupElement,
    Intertwiner,
    InvalidNetworkError,
    SegmentRegistry,
    Edge,
    network,
    multiply,
    inverse,
    wigner_matrix,
    transform_intertwiner,
    HolonomyAssignment,
    evaluate,
    structural_zero,
    exact_inner_product,
    mc_inner_product,
    build_tassel,
    build_phi,
    swap_signs,
)
import spinnet.inner_product as ip
import spinnet.tensor_engine as te
from spinnet.inner_product import _oriented, _paired_network, _word_holonomy, edge_holonomy
from spinnet.rep_core import _quat_product
from spinnet.tensor_engine import MC_CHUNK, FactorNetwork, mc_expectation
from helpers import (
    character,
    haar_element,
    loop_network,
    theta_network,
    figure8_network,
    naive_evaluate,
    random_holonomies,
    random_network,
    reintertwine,
    brute_mc_inner_product,
    wordy_network,
    MOTIF_NAMES,
)


@pytest.fixture
def rng():
    return np.random.default_rng(404)


# ---------------------------------------------------------------------------
# holonomy composition

def test_edge_holonomy_orders_rightmost_first(rng):
    g1, g2 = haar_element(rng), haar_element(rng)
    h = {"s1": g1, "s2": g2}
    total = edge_holonomy(h, (("s1", False), ("s2", False)))
    npt.assert_allclose(total.as_array(), multiply(g2, g1).as_array(), atol=1e-12)


def test_edge_holonomy_reversal(rng):
    g = haar_element(rng)
    back = edge_holonomy({"s": g}, (("s", True),))
    npt.assert_allclose(back.as_array(), inverse(g).as_array(), atol=1e-12)


def test_holonomy_assignment_validation(rng):
    h = HolonomyAssignment({"s": haar_element(rng)})
    assert "s" in h and "t" not in h
    with pytest.raises(InvalidNetworkError):
        HolonomyAssignment({"s": np.eye(2)})


# ---------------------------------------------------------------------------
# evaluation

@pytest.mark.parametrize("tj", [1, 2, 3, 4])
def test_loop_evaluates_to_character(tj, rng):
    n = loop_network(tj)
    for _ in range(10):
        g = haar_element(rng)
        npt.assert_allclose(evaluate(n, {"s1": g}), character(tj, g), atol=1e-10)


def test_evaluate_accepts_assignment_or_mapping(rng):
    n = loop_network(2)
    g = haar_element(rng)
    plain = evaluate(n, {"s1": g})
    wrapped = evaluate(n, HolonomyAssignment({"s1": g}))
    assert plain == wrapped


def test_evaluate_matches_index_sum_oracle(rng):
    for build in (lambda: theta_network((1, 1, 2)), figure8_network):
        n = build()
        for _ in range(5):
            h = random_holonomies(rng, n)
            npt.assert_allclose(evaluate(n, h), naive_evaluate(n, h), atol=1e-12)


def test_evaluate_multistep_reversed_word(rng):
    reg = SegmentRegistry()
    reg.add_segment("p1", "A", "B")
    reg.add_segment("p2", "C", "B")  # traversed backwards inside the word
    one = Spin(2)
    marker = Intertwiner(((one, "out"), (one, "in")), np.eye(3, dtype=complex))
    n = network(
        reg,
        [Edge("e", (("p1", False), ("p2", True), ("p2", False), ("p1", True)), "A", "A", one)],
        {"A": marker},
    )
    for _ in range(5):
        h = random_holonomies(rng, n)
        npt.assert_allclose(evaluate(n, h), naive_evaluate(n, h), atol=1e-12)
        word_h = edge_holonomy(h, n.edges[0].word)
        npt.assert_allclose(
            evaluate(n, h),
            np.trace(wigner_matrix(one, word_h).entries) / np.sqrt(1),
            atol=1e-10,
        )


def test_evaluate_gauge_invariance(rng):
    """Conjugating each segment holonomy by gauge elements at its endpoints
    leaves the evaluation of an invariant-vertex network unchanged."""
    for build in (lambda: theta_network((1, 1, 2)), figure8_network):
        n = build()
        reg = n.graph.registry
        h = random_holonomies(rng, n)
        gauge = {p: haar_element(rng) for p in sorted(n.graph.points(), key=str)}
        moved = {}
        for sid in n.graph.segments:
            src, tgt = reg.endpoints(sid)
            moved[sid] = multiply(gauge[tgt], multiply(h[sid], inverse(gauge[src])))
        npt.assert_allclose(evaluate(n, moved), evaluate(n, h), atol=1e-10)


def test_evaluate_plans_once_per_shape(rng):
    """States that differ only in their intertwiners share one plan, from a
    bounded cache."""
    assert ip._state_plan.cache_info().maxsize is not None
    a = theta_network((1, 1, 2))
    h = random_holonomies(rng, a)
    ip._state_plan.cache_clear()
    for _ in range(3):
        evaluate(reintertwine(rng, a), h)
    assert ip._state_plan.cache_info().misses == 1


def test_evaluate_missing_or_bad_holonomy():
    n = loop_network(1)
    with pytest.raises(InvalidNetworkError):
        evaluate(n, {})
    with pytest.raises(InvalidNetworkError):
        evaluate(n, {"s1": 1.0})


# ---------------------------------------------------------------------------
# structural zeros

def test_structural_zero_same_circle_distinct_spins():
    reg = SegmentRegistry()
    reg.add_segment("s1", "P", "P")
    a = loop_network(1, registry=reg)
    b = loop_network(3, registry=reg)
    assert structural_zero(a, b)
    assert exact_inner_product(a, b) == 0


def test_structural_zero_disjoint_supports():
    reg = SegmentRegistry()
    reg.add_segment("s1", "P", "P")
    reg.add_segment("s2", "Q", "Q")
    a = loop_network(2, registry=reg)
    b = loop_network(2, segment="s2", point="Q", registry=reg)
    assert structural_zero(a, b)
    assert exact_inner_product(a, b) == 0


def test_structural_zero_parity_violation_on_shared_segment():
    a = theta_network((1, 1, 2))
    b = theta_network((2, 2, 2), registry=a.graph.registry)
    assert structural_zero(a, b)
    assert exact_inner_product(a, b) == 0


def test_structural_zero_negative_cases():
    a = theta_network((1, 1, 2))
    b = theta_network((1, 1, 2), coeffs={"X": [2.0], "Y": [1.0 - 1.0j]},
                      registry=a.graph.registry)
    assert not structural_zero(a, b)
    assert not structural_zero(a, a)
    lp = loop_network(1)
    assert not structural_zero(lp, lp)


# ---------------------------------------------------------------------------
# exact inner products

def test_theta_norm_frozen_value():
    th = theta_network((1, 1, 2))
    npt.assert_allclose(exact_inner_product(th, th), 1.0 / 12.0, atol=1e-12)


@pytest.mark.parametrize("tj", [1, 2, 3, 4])
def test_loop_norm_is_one(tj):
    n = loop_network(tj)
    npt.assert_allclose(exact_inner_product(n, n), 1.0, atol=1e-12)


def test_character_orthogonality_small():
    reg = SegmentRegistry()
    reg.add_segment("s1", "P", "P")
    for ta in (1, 2, 3):
        for tb in (1, 2, 3):
            a = loop_network(ta, registry=reg)
            b = loop_network(tb, registry=reg)
            want = 1.0 if ta == tb else 0.0
            npt.assert_allclose(exact_inner_product(a, b), want, atol=1e-12)


def test_exact_inner_product_hermitian(rng):
    for _ in range(5):
        a = random_network(rng)
        b = reintertwine(rng, a)
        ab = exact_inner_product(a, b)
        ba = exact_inner_product(b, a)
        npt.assert_allclose(ab, np.conj(ba), atol=1e-12)


def test_exact_inner_product_antilinear_in_bra(rng):
    a = random_network(rng)
    b = reintertwine(rng, a)
    c = 0.3 - 1.7j
    scaled_verts = {
        v: Intertwiner(iv.leg_spins, c * iv.components) if k == 0 else iv
        for k, (v, iv) in enumerate(sorted(a.vertices.items(), key=lambda kv: str(kv[0])))
    }
    scaled = network(a.graph.registry, list(a.edges), scaled_verts)
    npt.assert_allclose(
        exact_inner_product(scaled, b),
        np.conj(c) * exact_inner_product(a, b),
        atol=1e-12,
    )
    npt.assert_allclose(
        exact_inner_product(b, scaled),
        c * exact_inner_product(b, a),
        atol=1e-12,
    )


def test_exact_inner_product_positive_on_diagonal(rng):
    for _ in range(5):
        n = random_network(rng)
        v = exact_inner_product(n, n)
        assert abs(v.imag) < 1e-12
        assert v.real >= 0.0


def test_exact_inner_product_gauge_invariant(rng):
    """Transforming every intertwiner by one group element is a gauge move;
    the inner product with an untouched state is unchanged."""
    a = theta_network((1, 1, 2))
    b = theta_network((1, 1, 2), coeffs={"X": [1.5], "Y": [0.5 + 2.0j]},
                      registry=a.graph.registry)
    g = haar_element(rng)
    rotated_verts = {
        v: Intertwiner(iv.leg_spins, transform_intertwiner(iv, g))
        for v, iv in b.vertices.items()
    }
    rotated = network(b.graph.registry, list(b.edges), rotated_verts)
    npt.assert_allclose(
        exact_inner_product(a, rotated), exact_inner_product(a, b), atol=1e-10
    )


def test_inner_product_requires_shared_registry():
    a = loop_network(1)
    reg = SegmentRegistry()
    reg.add_segment("zz", "W", "W")
    b = loop_network(1, segment="zz", point="W", registry=reg)
    with pytest.raises(InvalidNetworkError):
        exact_inner_product(a, b)
    with pytest.raises(InvalidNetworkError):
        mc_inner_product(a, b, 100, seed=0)


def test_exact_matches_independent_mc_oracle(rng):
    for k in range(3):
        a = random_network(rng)
        b = reintertwine(rng, a)
        exact = exact_inner_product(a, b)
        est, err = brute_mc_inner_product(a, b, 500, seed=50 + k)
        assert abs(est - exact) < 5 * max(err, 1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo estimator

def test_mc_inner_product_matches_exact(rng):
    a = theta_network((1, 1, 2))
    b = theta_network((1, 1, 2), coeffs={"X": [1.0 + 1.0j], "Y": [2.0]},
                      registry=a.graph.registry)
    exact = exact_inner_product(a, b)
    mean, err = mc_inner_product(a, b, 20000, seed=99)
    assert err > 0
    assert abs(mean - exact) < 4 * err


def test_mc_inner_product_bit_stable():
    a = theta_network((1, 1, 2))
    first = mc_inner_product(a, a, 5000, seed=123)
    again = mc_inner_product(a, a, 5000, seed=123)
    assert first == again
    other = mc_inner_product(a, a, 5000, seed=124)
    assert other != first


def test_mc_inner_product_with_mixed_segment_id_types():
    """Segment ids 1, "u2" and 3 are ordered by their string form, as in
    every other layer, instead of being compared with each other."""
    theta = theta_network((1, 1, 2))
    reg = SegmentRegistry()
    for sid in (1, "u2", 3):
        reg.add_segment(sid, "X", "Y")
    edges = [Edge(e.id, ((sid, False),), "X", "Y", e.spin)
             for e, sid in zip(theta.edges, (1, "u2", 3))]
    a = network(reg, edges, theta.vertices)
    exact = exact_inner_product(a, a)
    npt.assert_allclose(exact, 1 / 12, atol=1e-12)
    mean, err = mc_inner_product(a, a, 20000, seed=99)
    assert err > 0
    assert abs(mean - exact) < 4 * err


def _joint_estimate(a, b, n_samples, seed):
    """The same estimate from one joint network over the common refinement,
    bra factors conjugated: the same stream, one factor per segment piece."""
    return mc_expectation(FactorNetwork(*_paired_network(a, b)), n_samples, seed)


def _oracle_pairs():
    rng = np.random.default_rng(808)
    pairs = []
    for motif in MOTIF_NAMES:
        a = random_network(rng, motif)
        pairs += [(a, a, True), (a, reintertwine(rng, a), False)]
    wordy = wordy_network(rng)
    pairs += [(wordy, wordy, False), (wordy, reintertwine(rng, wordy), False)]
    for n in (2, 3):
        pairs.append((build_tassel(n).network, build_phi(n, -1).network, False))
    pairs.append((build_tassel(2).network, swap_signs(build_tassel(2), 0).network, False))
    return pairs


def test_mc_inner_product_matches_joint_network_estimate():
    """Evaluating each state on its own edges gives the joint network's
    estimate, sample for sample: within 1e-13 in mean and standard error,
    and bit for bit on self-pairings of single-segment edges, whose
    per-state plans are the joint plan's two halves."""
    for a, b, exact_bits in _oracle_pairs():
        for n_samples, seed in ((MC_CHUNK + 37, 61), (300, 62)):
            got = mc_inner_product(a, b, n_samples, seed)
            want = _joint_estimate(a, b, n_samples, seed)
            if exact_bits:
                assert got == want
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (got, want)


def test_word_holonomy_batches_edge_holonomy(rng):
    """The batched holonomy of every word of the wordy network, and of its
    inverse, matches the per-element product."""
    n = wordy_network(rng)
    holonomies = [random_holonomies(rng, n) for _ in range(4)]
    quats = {s: np.stack([h[s].as_array() for h in holonomies]) for s in n.graph.segments}
    for e in n.edges:
        inverse_word = tuple((s, not r) for s, r in reversed(e.word))
        for word in (e.word, inverse_word):
            batch = _word_holonomy(quats, word)
            for k, h in enumerate(holonomies):
                npt.assert_allclose(batch[k], edge_holonomy(h, word).as_array(), atol=1e-15)
        word, inverted = _oriented(e.word)
        assert (word == inverse_word) == inverted


def test_quaternion_product_is_one_formula(rng):
    """``multiply`` and the batched holonomy share one product: on floats
    and on arrays it gives the same bits, and ``multiply`` only normalizes."""
    qa, qb = rng.standard_normal((2, 5, 4))
    batch = _quat_product(qa.T, qb.T)
    for k in range(5):
        assert _quat_product(tuple(qa[k]), tuple(qb[k])) == tuple(c[k] for c in batch)
    g, h = haar_element(rng), haar_element(rng)
    product = _quat_product(g.as_array(), h.as_array())
    npt.assert_allclose(multiply(g, h).as_array(), product, atol=1e-15)


def test_mc_self_pairing_evaluates_once_per_chunk(monkeypatch):
    calls = []
    real = ip._execute

    def counting(plan, arrays):
        calls.append(plan)
        return real(plan, arrays)

    monkeypatch.setattr(ip, "_execute", counting)
    a = theta_network((1, 1, 2))
    mc_inner_product(a, a, 2 * MC_CHUNK + 5, seed=3)
    assert len(calls) == 3
    calls.clear()
    b = theta_network((1, 1, 2), coeffs={"X": [2.0], "Y": [1.0j]}, registry=a.graph.registry)
    mc_inner_product(a, b, 2 * MC_CHUNK + 5, seed=3)
    assert len(calls) == 6


def test_mc_web_builds_one_wigner_matrix_per_word_and_spin(monkeypatch):
    """psi and phi share two of their four curves; each chunk builds one
    Wigner matrix per distinct (word, spin), for bra and ket together."""
    psi, phi = build_tassel(2).network, build_phi(2, -1).network
    distinct = {(_oriented(e.word)[0], e.spin.twice_j) for e in psi.edges + phi.edges}
    assert len(distinct) < len(psi.edges) + len(phi.edges)
    built = []
    real = te.wigner_entries

    def counting(twice_j, quats):
        built.append(twice_j)
        return real(twice_j, quats)

    monkeypatch.setattr(te, "wigner_entries", counting)
    mc_inner_product(psi, phi, MC_CHUNK + 5, seed=4)
    assert len(built) == 2 * len(distinct)


def test_mc_oversized_state_fails_before_sampling(monkeypatch):
    """Two vertices joined by k spin-1 edges: each step leaves a 3^j tensor
    per sample, and a full chunk of the largest is over the budget."""
    k = 1
    while MC_CHUNK * 3 ** (k - 1) <= te._MAX_INTERMEDIATE:
        k += 1
    reg = SegmentRegistry()
    for i in range(k):
        reg.add_segment(f"u{i}", "X", "Y")
    one = Spin(2)
    edges = [Edge(f"e{i}", ((f"u{i}", False),), "X", "Y", one) for i in range(k)]
    comps = np.random.default_rng(5).standard_normal((3,) * k)
    verts = {"X": Intertwiner(((one, "out"),) * k, comps),
             "Y": Intertwiner(((one, "in"),) * k, comps)}
    big = network(reg, edges, verts)
    mc_inner_product(big, big, 2, seed=0)

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before the plan was checked")

    monkeypatch.setattr(te, "haar_quaternions", no_draws)
    with pytest.raises(ValueError, match="intermediate"):
        mc_inner_product(big, big, MC_CHUNK, seed=0)


def test_mc_inner_product_needs_two_samples():
    a = theta_network((1, 1, 2))
    with pytest.raises(ValueError, match="at least 2"):
        mc_inner_product(a, a, 1, seed=0)
