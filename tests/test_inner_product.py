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
    canonicalize,
)
import spinnet.inner_product as ip
import spinnet.network_model as nm
import spinnet.tensor_engine as te
from spinnet.inner_product import _paired_network, _word_holonomy, edge_holonomy
from spinnet.rep_core import _quat_product
from spinnet.tensor_engine import MC_CHUNK, mc_expectation
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
    refinement_inner_product,
    brute_mc_inner_product,
    wordy_network,
    random_intertwiner,
    _slot_legs,
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


def _gauged_networks(rng):
    """Networks whose gauge-fixed edges are the identity or longer words: a
    theta, a two-gon, a dumbbell (a loop moved to the root) and the wordy
    network (multi-segment and reversed words, a circle with a non-unit
    marker), its spins kept small for the index sums."""
    return [theta_network((1, 1, 2)), figure8_network()] + [
        random_network(rng, motif) for motif in ("theta", "twogon", "dumbbell")
    ] + [wordy_network(rng, (1, 1, 2), 1)]


def test_evaluate_matches_index_sum_oracle(rng):
    for n in _gauged_networks(rng):
        for _ in range(5):
            h = random_holonomies(rng, n)
            npt.assert_allclose(evaluate(n, h), naive_evaluate(n, h), atol=1e-12)


def _explicit(rng, net, vertices):
    """``net`` with random tensors, not intertwiners, at ``vertices``."""
    verts = dict(net.vertices)
    for v in vertices:
        shape = verts[v].components.shape
        comps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        verts[v] = Intertwiner(verts[v].leg_spins, comps)
    return network(net.graph.registry, list(net.edges), verts)


def test_evaluate_keeps_non_invariant_vertices_ungauged(rng):
    """A vertex carrying an explicit tensor is never gauge-transformed: no
    edge at it is a tree edge, so with one or two of them the value still
    matches the index sums."""
    for n in _gauged_networks(rng):
        vertices = sorted(n.vertices, key=str)
        for chosen in [[v] for v in vertices] + [vertices[:2], vertices[-2:]]:
            m = _explicit(rng, n, chosen)
            assert not any(ip._is_invariant(m.vertices[v]) for v in chosen)
            for _ in range(3):
                h = random_holonomies(rng, m)
                npt.assert_allclose(evaluate(m, h), naive_evaluate(m, h), atol=1e-12)


def test_guard_accepts_intertwiners_only(rng):
    n = wordy_network(rng)
    for iv in n.vertices.values():
        assert ip._is_invariant(iv)
        assert ip._is_invariant(Intertwiner(iv.leg_spins, 1e6 * iv.components))
        assert not ip._is_invariant(Intertwiner(iv.leg_spins, iv.components + 1e-9))


def test_gauge_fixing_drops_tree_edges_and_reduces_words(rng):
    """Tree edges are the identity; the other edges become loops at the
    root, and a word that reduces to nothing is the identity too."""
    theta = theta_network((1, 1, 2))
    assert ip._gauge_fixed_words(theta) == {
        "e0": (("u3", True), ("u1", False)), "e1": (("u3", True), ("u2", False)), "e2": ()}
    dumbbell = random_network(rng, "dumbbell")
    words = ip._gauge_fixed_words(dumbbell)
    assert words["m"] == () and words["r"] == (("dr", False),)
    assert words["l"] == (("dm", True), ("dl", False), ("dm", False))
    assert ip._reduced((("p1", False), ("p2", True), ("p2", False), ("p1", True))) == ()
    assert ip._reduced((("a", False), ("b", True), ("c", False))) == (
        ("a", False), ("b", True), ("c", False))


def _backtracking_loop():
    """A spin-1 loop whose word p1 p2^-1 p2 p1^-1 reduces to nothing."""
    reg = SegmentRegistry()
    reg.add_segment("p1", "A", "B")
    reg.add_segment("p2", "C", "B")  # traversed backwards inside the word
    one = Spin(2)
    marker = Intertwiner(((one, "out"), (one, "in")), np.eye(3, dtype=complex))
    return network(
        reg,
        [Edge("e", (("p1", False), ("p2", True), ("p2", False), ("p1", True)), "A", "A", one)],
        {"A": marker},
    )


def test_evaluate_multistep_reversed_word(rng):
    n = _backtracking_loop()
    one = n.edges[0].spin
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
    """States that differ only in their intertwiners share one plan, from the
    engine's one bounded plan cache."""
    assert te._plan.cache_info().maxsize is not None
    a = theta_network((1, 1, 2))
    h = random_holonomies(rng, a)
    te._plan.cache_clear()
    for _ in range(3):
        evaluate(reintertwine(rng, a), h)
    assert te._plan.cache_info().misses == 1
    assert te._plan.cache_info().hits == 2


def test_evaluate_prepares_each_network_once(rng, monkeypatch):
    """A second evaluation of one network reuses its prepared state, from a
    bounded cache."""
    assert ip._prepared_state.cache_info().maxsize is not None
    calls = []
    real = ip._gauge_fixed_words

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(ip, "_gauge_fixed_words", counting)
    ip._prepared_state.cache_clear()
    n = wordy_network(rng)
    for _ in range(2):
        evaluate(n, random_holonomies(rng, n))
    evaluate(network(n.graph.registry, list(n.edges), n.vertices), random_holonomies(rng, n))
    assert len(calls) == 1


def test_mc_paths_share_one_plan_cache():
    """A prepared state and ``mc_expectation`` on the same operands and batch
    take one plan from the engine's one cache."""
    a = theta_network((1, 1, 2))
    steps = {eid: ((w, False),) if w else () for eid, w in ip._gauge_fixed_words(a).items()}
    ip._prepared_state.cache_clear()
    te._plan.cache_clear()
    mc_inner_product(a, a, 300, seed=1)
    assert te._plan.cache_info().misses == 1
    mc_expectation(ip._state_operands(a, "N", False, steps), 300, seed=1)
    assert te._plan.cache_info().misses == 1
    assert te._plan.cache_info().hits == 1


def _zero_chain():
    """Spin-1/2 edges X -> M -> Y: the ends admit only the zero intertwiner,
    and both edges are tree edges."""
    reg = SegmentRegistry()
    reg.add_segment("z1", "X", "M")
    reg.add_segment("z2", "M", "Y")
    half = Spin(1)
    edges = [Edge("a", (("z1", False),), "X", "M", half),
             Edge("b", (("z2", False),), "M", "Y", half)]
    verts = {"X": Intertwiner(((half, "out"),), np.zeros(2)),
             "M": Intertwiner(((half, "in"), (half, "out")), np.eye(2)),
             "Y": Intertwiner(((half, "in"),), np.zeros(2))}
    return network(reg, edges, verts)


def test_state_without_factors_is_a_constant(rng, monkeypatch):
    """Tree edges and words that reduce to nothing need no Wigner matrix:
    the zero chain is 0 and the backtracking loop is the trace 3 of its
    marker, at every sample."""
    zero, loop = _zero_chain(), _backtracking_loop()
    assert ip._gauge_fixed_words(zero) == {"a": (), "b": ()}
    assert ip._gauge_fixed_words(loop) == {"e": ()}
    monkeypatch.setattr(te, "wigner_entries", None)
    for n, value in ((zero, 0), (loop, 3)):
        assert evaluate(n, random_holonomies(rng, n)) == value
        assert mc_inner_product(n, n, MC_CHUNK + 5, seed=1) == (value ** 2, 0)


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


def _exact_oracle_pairs():
    """Pairs whose states differ in how their edges cut the shared segments:
    random motifs, wordy networks (multi-segment, reversed words, circles)
    against themselves and against canonical forms, a backtracking loop,
    web states, and two structural zeros."""
    rng = np.random.default_rng(606)
    pairs = []
    for motif in MOTIF_NAMES:
        for _ in range(2):
            a = random_network(rng, motif)
            pairs += [(a, a), (a, reintertwine(rng, a))]
    for twice_js, circle in (((1, 3, 2), 3), ((2, 2, 2), 2), ((1, 1, 2), 1)):
        a = wordy_network(rng, twice_js, circle)
        b = wordy_network(rng, twice_js, circle, registry=a.graph.registry)
        pairs += [(a, a), (a, b), (b, canonicalize(a)), (canonicalize(b), a)]
    loop = _backtracking_loop()
    pairs.append((loop, loop))
    for n in (1, 2, 3):
        psi = build_tassel(n)
        pairs += [(psi.network, build_phi(n, -1).network),
                  (psi.network, swap_signs(psi, 0).network),
                  (swap_signs(psi, -n).network, psi.network)]
    half = loop_network(1)
    pairs += [(half, loop_network(2, registry=half.graph.registry)),
              (half, loop_network(1, segment="s2", registry=half.graph.registry))]
    return pairs


def test_state_operands_evaluate_the_state(rng):
    """A state's operand network, one factor per segment step, contracted at
    one holonomy assignment gives the index-sum value, conjugated on the bra
    side."""
    for n in (wordy_network(rng, (1, 1, 2), 1), _backtracking_loop(),
              random_network(rng, "dumbbell")):
        h = random_holonomies(rng, n)
        quats = {s: h[s].as_array()[None] for s in n.graph.segments}
        want = naive_evaluate(n, h)
        for side, conjugate in (("A", True), ("B", False)):
            state = ip._state_operands(n, side, conjugate, {e.id: e.word for e in n.edges})
            plan = te._factor_plan(state, 1)
            arrays = te._factor_arrays(state.factors, quats)
            value, = te._execute(plan, arrays + [t.data for t in state.tensors])
            npt.assert_allclose(value, np.conj(want) if conjugate else want, atol=1e-12)


def test_exact_matches_refinement_oracle():
    """Each state on its own edges, one factor per segment step, gives the
    value of the contraction over the common refinement."""
    zeros = 0
    for a, b in _exact_oracle_pairs():
        got, want = exact_inner_product(a, b), refinement_inner_product(a, b)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)
        zeros += structural_zero(a, b)
    assert zeros == 2


def test_exact_path_never_refines(monkeypatch):
    """The exact path gives the same values with the common refinement out
    of reach."""
    pairs = _exact_oracle_pairs()
    before = [exact_inner_product(a, b) for a, b in pairs]

    def refused(*args):
        raise AssertionError("the exact path refined a network")

    monkeypatch.setattr(nm, "common_refinement", refused)
    monkeypatch.setattr(nm, "_split_working", refused)
    monkeypatch.setattr(ip, "common_refinement", refused, raising=False)
    assert [exact_inner_product(a, b) for a, b in pairs] == before


def test_web_pairing_keeps_each_state_on_its_own_edges():
    """Web psi.phi at N=2: four 4-segment curves per state make 32 factors,
    and the only vertex tensors are the two caps of each state, 64 elements
    in all."""
    paired = _paired_network(build_tassel(2).network, build_phi(2, -1).network)
    assert len(paired.factors) == 32
    assert len(paired.tensors) == 4
    assert sum(t.data.size for t in paired.tensors) == 64


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
    return mc_expectation(_paired_network(a, b), n_samples, seed)


def _reversed_edge(rng, net, edge_id):
    """``net`` with one edge reversed (inverse word, ends swapped) and fresh
    random invariant intertwiners on the new slots."""
    edges = [Edge(e.id, ip._inverse_word(e.word), e.target, e.source, e.spin)
             if e.id == edge_id else e for e in net.edges]
    verts = {v: random_intertwiner(rng, tuple(legs)) for v, legs in _slot_legs(edges).items()}
    return network(net.graph.registry, edges, verts)


def _oracle_pairs():
    rng = np.random.default_rng(808)
    pairs = []
    for motif in MOTIF_NAMES:
        a = random_network(rng, motif)
        pairs += [(a, a, motif in ("figure8", "bouquet3")), (a, reintertwine(rng, a), False)]
    wordy = wordy_network(rng)
    pairs += [(wordy, wordy, False), (wordy, reintertwine(rng, wordy), False)]
    for n in (2, 3):
        pairs.append((build_tassel(n).network, build_phi(n, -1).network, False))
    pairs.append((build_tassel(2).network, swap_signs(build_tassel(2), 0).network, False))
    # e3 reversed: the ket's gauge-fixed e3 is the inverse of the bra's
    reversed_e3 = _reversed_edge(rng, wordy, "e3")
    bra_words = {f.variable for f in ip._prepared_state(wordy, 7)[1]}
    assert any(ip._inverse_word(f.variable) in bra_words
               for f in ip._prepared_state(reversed_e3, 7)[1])
    pairs.append((wordy, reversed_e3, False))
    return pairs


def test_mc_inner_product_matches_joint_network_estimate():
    """Evaluating each gauge-fixed state on its own edges gives the joint
    network's estimate, sample for sample: within 1e-13 in mean and
    standard error, and bit for bit on self-pairings of single-vertex
    motifs, which have no gauged edge and whose per-state plans are the
    joint plan's two halves."""
    for a, b, exact_bits in _oracle_pairs():
        for n_samples, seed in ((MC_CHUNK + 37, 61), (300, 62)):
            got = mc_inner_product(a, b, n_samples, seed)
            want = _joint_estimate(a, b, n_samples, seed)
            if exact_bits:
                assert got == want
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (got, want)


def test_mc_ungauged_states_match_joint_estimate_bit_for_bit():
    """With an explicit tensor at every vertex nothing is gauge-fixed, and
    self-pairings of single-segment edges keep the joint network's bits."""
    rng = np.random.default_rng(809)
    for motif in ("theta", "twogon", "dumbbell"):
        a = random_network(rng, motif)
        a = _explicit(rng, a, a.vertices)
        words = ip._gauge_fixed_words(a)
        assert all(words[e.id] == e.word for e in a.edges)
        for n_samples, seed in ((MC_CHUNK + 37, 61), (300, 62)):
            assert mc_inner_product(a, a, n_samples, seed) == _joint_estimate(a, a, n_samples, seed)


def test_mc_theta_builds_only_the_small_spins(monkeypatch):
    """theta(6,6,12): the spin-6 edge is the tree edge, so each chunk builds
    two spin-3 matrices and no spin-6 one."""
    built = []
    real = te.wigner_entries

    def counting(twice_j, quats):
        built.append(twice_j)
        return real(twice_j, quats)

    monkeypatch.setattr(te, "wigner_entries", counting)
    a = theta_network((6, 6, 12))
    mc_inner_product(a, a, 2 * MC_CHUNK, seed=5)
    assert built == [6, 6, 6, 6]


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
    Wigner matrix per distinct (gauge-fixed word, spin), for bra and ket
    together."""
    psi, phi = build_tassel(2).network, build_phi(2, -1).network
    distinct = {(f.variable, f.spin.twice_j)
                for n in (psi, phi) for f in ip._prepared_state(n, MC_CHUNK)[1]}
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
    while MC_CHUNK * 3 ** (k - 1) <= te._MAX_ELEMENTS:
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
    for _ in range(2):
        with pytest.raises(ValueError, match="intermediate"):
            mc_inner_product(big, big, MC_CHUNK, seed=0)


def test_mc_inner_product_needs_two_samples():
    a = theta_network((1, 1, 2))
    with pytest.raises(ValueError, match="at least 2"):
        mc_inner_product(a, a, 1, seed=0)
