"""Evaluation against holonomies and inner products under the uniform measure."""

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import (
    Spin,
    contract,
    Intertwiner,
    InvalidNetworkError,
    SegmentRegistry,
    Edge,
    network,
    intertwiner_basis,
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
import spinnet.rep_core as rep_core
import spinnet.network_model as nm
import spinnet.tensor_engine as te
from spinnet.inner_product import _paired_network, _word_holonomy
from spinnet.rep_core import _pair, _pair_product, wigner_entries
from spinnet.tensor_engine import MC_CHUNK, mc_expectation
from helpers import (
    character,
    haar_element,
    inverse,
    loop_network,
    theta_network,
    figure8_network,
    multiply,
    naive_evaluate,
    quat_product,
    quaternion_word_holonomy,
    random_holonomies,
    random_network,
    reintertwine,
    refinement_inner_product,
    brute_mc_inner_product,
    cycle_network,
    factor_network_plan,
    paired_factor_network,
    plan_or_refusal,
    recorded_plan_calls,
    reference_plan,
    piece_network,
    state_factor_network,
    wordy_network,
    random_intertwiner,
    fixed_by_guard_elements,
    transform_intertwiner,
    _slot_legs,
    MOTIF_NAMES,
)
from test_mc_scratch import _bits
from test_diffeo_average import _zoo_graphs
from test_tensor_engine import _oversized_chunk_network, lt


@pytest.fixture
def rng():
    return np.random.default_rng(404)


# ---------------------------------------------------------------------------
# holonomy composition

def _one_pair(g):
    return _pair(g.as_array()[:, None])


def test_edge_holonomy_orders_rightmost_first(rng):
    """A word's holonomy multiplies its steps rightmost first."""
    g1, g2 = haar_element(rng), haar_element(rng)
    total = _word_holonomy({"s1": _one_pair(g1), "s2": _one_pair(g2)},
                           (("s1", False), ("s2", False)))
    want = _pair(quat_product(g2.as_array(), g1.as_array()))
    npt.assert_allclose(np.ravel(total), want, atol=1e-12)


def test_edge_holonomy_reversal(rng):
    """A reversed step contributes its segment's inverse."""
    g = haar_element(rng)
    back = _word_holonomy({"s": _one_pair(g)}, (("s", True),))
    npt.assert_allclose(np.ravel(back), _pair(inverse(g).as_array()), atol=1e-12)


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
    """Networks whose gauge forests are nonempty, empty (loops only) or cut
    longer words: a theta, a figure-8, a two-gon, a dumbbell and the wordy
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
    """``evaluate`` fixes no gauge, so with explicit tensors at one or two
    vertices the value still matches the index sums."""
    for n in _gauged_networks(rng):
        vertices = sorted(n.vertices, key=str)
        for chosen in [[v] for v in vertices] + [vertices[:2], vertices[-2:]]:
            m = _explicit(rng, n, chosen)
            assert not any(ip._is_invariant(m.vertices[v]) for v in chosen)
            for _ in range(3):
                h = random_holonomies(rng, m)
                npt.assert_allclose(evaluate(m, h), naive_evaluate(m, h), atol=1e-12)


# Leg signatures (twice_j, direction) for the invariance test: bivalent
# same-direction (epsilon) and mixed, valence up to 5, twice_j up to 12.
_SIGNATURES = (
    ((1, "out"), (1, "out")),
    ((12, "in"), (12, "in")),
    ((12, "out"), (12, "in")),
    ((6, "out"), (6, "out"), (12, "in")),
    ((12, "out"), (12, "out"), (12, "out")),
    ((3, "out"), (5, "in"), (4, "out"), (2, "in")),
    ((12, "in"), (6, "out"), (6, "out"), (12, "out")),
    ((1, "out"), (2, "in"), (3, "out"), (2, "in"), (2, "out")),
    ((4, "in"), (4, "out"), (4, "in"), (4, "out"), (4, "in")),
    ((12, "out"), (2, "out"), (4, "in"), (6, "in"), (2, "out")),
)


def test_guard_accepts_intertwiners_only(rng):
    """The generator test accepts random combinations of basis vectors, also
    scaled by 1e6, and rejects them plus noise of norm 1e-9 |c|, and random
    tensors; the group action at the two guard elements of ``helpers``
    agrees on each.  Every vertex of the wordy network is accepted."""
    for signature in _SIGNATURES:
        legs = tuple((Spin(tj), d) for tj, d in signature)
        basis = intertwiner_basis(legs)
        shape = tuple(tj + 1 for tj, _ in signature)
        assert basis, signature

        def noise():
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for _ in range(2):
            c = sum(complex(*rng.standard_normal(2)) * b.components for b in basis)
            off = noise()
            off *= 1e-9 * np.linalg.norm(c) / np.linalg.norm(off)
            for comps, invariant in ((c, True), (1e6 * c, True), (c + off, False),
                                     (noise(), False)):
                iv = Intertwiner(legs, comps)
                assert ip._is_invariant(iv) is invariant, signature
                assert fixed_by_guard_elements(iv) is invariant, signature
    for iv in wordy_network(rng).vertices.values():
        assert ip._is_invariant(iv)
        assert ip._is_invariant(Intertwiner(iv.leg_spins, 1e6 * iv.components))
        assert not ip._is_invariant(Intertwiner(iv.leg_spins, iv.components + 1e-9))


def test_classifying_vertices_builds_no_wigner_matrix_or_basis(monkeypatch):
    """The forest's invariance test builds nothing: with every cache of
    ``inner_product`` cleared, classifying the invariant vertices of theta
    (6,6,12) and the explicit 11-leg spin-1 vertex of the oversized-state
    test builds no Wigner matrix and does not touch the basis cache."""
    builds = []
    real = rep_core._pair_wigner

    def counting(twice_j, *args, **kwargs):
        builds.append(twice_j)
        return real(twice_j, *args, **kwargs)

    theta, big = theta_network((6, 6, 12)), _spin_one_bundle()
    monkeypatch.setattr(rep_core, "_pair_wigner", counting)
    for n, tree in ((theta, {"u3"}), (big, frozenset())):
        for cached in vars(ip).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        before = rep_core._invariant_basis.cache_info()
        assert ip._gauge_forest(n, n) == tree
        assert rep_core._invariant_basis.cache_info() == before
    assert builds == []


def _chord_words(n, tree):
    """The variable of each edge factor of a prepared state: its chord word."""
    return [f.variable for f in ip._prepared_state(n, tree, 7)[1]]


def _schur_chord(a, b):
    """The chord that Monte Carlo integrates exactly for the pair, on its
    gauge forest, or None."""
    tree = ip._gauge_forest(a, b)
    return ip._schur_chord(a, b, tree, (a.graph.segments | b.graph.segments) - tree)


def test_gauge_fixing_drops_tree_edges_and_reduces_words(rng):
    """The forest takes the heaviest segments, never a loop: theta's spin-1
    segment, one arc per column of the web pair at N=2, the dumbbell's
    middle bar, and nothing of a bouquet.  Tree segments drop out of each
    word, and a word that reduces to nothing is the identity."""
    theta = theta_network((1, 1, 2))
    assert ip._gauge_forest(theta, theta) == {"u3"}
    assert _chord_words(theta, frozenset({"u3"})) == [(("u1", False),), (("u2", False),)]
    psi, phi = build_tassel(2).network, build_phi(2, -1).network
    assert ip._gauge_forest(psi, phi) == {"b-2+", "b-1+", "b0+", "b1+"}
    dumbbell = random_network(rng, "dumbbell")
    assert ip._gauge_forest(dumbbell, dumbbell) == {"dm"}
    bouquet = random_network(rng, "bouquet3")
    assert ip._gauge_forest(bouquet, bouquet) == frozenset()
    assert ip._reduced((("p1", False), ("p2", True), ("p2", False), ("p1", True))) == ()
    assert ip._reduced((("a", False), ("b", True), ("c", False))) == (
        ("a", False), ("b", True), ("c", False))


def test_gauge_forest_is_found_once_per_pair(monkeypatch):
    """A second Monte Carlo call on equal but freshly built networks takes
    the pair's forest from a bounded cache: no vertex is checked again, and
    the bits are those of the first call."""
    assert ip._gauge_forest.cache_info().maxsize is not None
    calls = []
    real = ip._is_invariant

    def counting(iv):
        calls.append(iv)
        return real(iv)

    monkeypatch.setattr(ip, "_is_invariant", counting)
    ip._gauge_forest.cache_clear()
    builds = (lambda: (theta_network((1, 1, 2)),) * 2,
              lambda: (build_tassel(2).network, build_phi(2, -1).network))
    for build in builds:
        first = mc_inner_product(*build(), 300, seed=4)
        assert calls
        calls.clear()
        again = mc_inner_product(*build(), 300, seed=4)
        assert calls == []
        assert _bits(again) == _bits(first)


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
        quats = {s: h[s].as_array()[None] for s in n.graph.segments}
        word_h = quaternion_word_holonomy(quats, n.edges[0].word)
        npt.assert_allclose(
            evaluate(n, h),
            np.trace(wigner_entries(one.twice_j, word_h)[0]) / np.sqrt(1),
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
    real = ip._state_operands

    def counting(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(ip, "_state_operands", counting)
    ip._prepared_state.cache_clear()
    n = wordy_network(rng)
    for _ in range(2):
        evaluate(n, random_holonomies(rng, n))
    evaluate(network(n.graph.registry, list(n.edges), n.vertices), random_holonomies(rng, n))
    assert len(calls) == 1


def test_mc_paths_share_one_plan_cache():
    """A prepared state and ``mc_expectation`` on the same operands and batch
    take one plan from the engine's one cache."""
    a = theta_network((8, 8, 8))  # spin-4 chords: none is integrated
    tree = ip._gauge_forest(a, a)
    steps = {e.id: () if e.word[0][0] in tree else ((e.word, False),) for e in a.edges}
    ip._prepared_state.cache_clear()
    te._plan.cache_clear()
    mc_inner_product(a, a, 300, seed=1)
    assert te._plan.cache_info().misses == 1
    mc_expectation(state_factor_network(a, "N", False, steps), 300, seed=1)
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
    """Tree segments and words that reduce to nothing need no Wigner
    matrix: the zero chain's two segments are its forest, so its Monte
    Carlo value is 0, and the backtracking loop is the trace 3 of its
    marker, at every sample, with or without a gauge."""
    zero, loop = _zero_chain(), _backtracking_loop()
    assert ip._gauge_forest(zero, zero) == {"z1", "z2"}
    assert _chord_words(zero, frozenset({"z1", "z2"})) == []
    assert _chord_words(loop, frozenset()) == []
    assert evaluate(zero, random_holonomies(rng, zero)) == 0
    monkeypatch.setattr(te, "_pair_wigner", None)
    assert evaluate(loop, random_holonomies(rng, loop)) == 3
    for n, value in ((zero, 0), (loop, 3)):
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


def test_theta_norms_meet_the_closed_form():
    """Schur orthogonality: with the normalized intertwiner at both vertices,
    <theta, theta> = 1/(d1 d2 d3), for each of the 127 admissible sorted
    triples with twice_j 1-12."""
    triples = [t for t in itertools.combinations_with_replacement(range(1, 13), 3)
               if sum(t) % 2 == 0 and t[2] <= t[0] + t[1]]
    assert len(triples) == 127
    for tjs in triples:
        th = theta_network(tjs)
        want = 1.0 / math.prod(tj + 1 for tj in tjs)
        assert abs(exact_inner_product(th, th) - want) <= 1e-14 * want, tjs


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
        pairs = {s: _pair(h[s].as_array()[:, None]) for s in n.graph.segments}
        want = naive_evaluate(n, h)
        for side, conjugate in (("A", True), ("B", False)):
            state = ip._state_operands(n, side, conjugate, {e.id: e.word for e in n.edges})
            plan, factors, constants = te._prepared(*state, 1)
            arrays = te._factor_arrays(factors, pairs)
            value, = te._execute(plan, arrays + list(constants))
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
    factors, tensors, _ = _paired_network(build_tassel(2).network, build_phi(2, -1).network)
    assert len(factors) == 32
    assert len(tensors) == 4
    assert sum(data.size for _, data in tensors) == 64


def _plan_key_pairs():
    """Seeded pairs for the plan-key checks: one network per zoo graph with
    an edge along each piece, the motifs, wordy networks, k-cycles with a
    loop at every point, and web pairs up to N = 4, each paired with itself
    and with another state on its registry."""
    rng = np.random.default_rng(3131)
    nets = [piece_network(rng, graph) for _, graph in _zoo_graphs()]
    nets += [random_network(rng, motif) for motif in MOTIF_NAMES]
    nets += [wordy_network(rng), wordy_network(rng, (1, 1, 2), 1)]
    nets += [cycle_network(rng, k) for k in (3, 4)]
    pairs = [p for n in nets for p in ((n, n), (n, reintertwine(rng, n)))]
    for n in range(1, 5):
        psi = build_tassel(n)
        pairs += [(psi.network, psi.network), (psi.network, build_phi(n, -1).network),
                  (swap_signs(psi, 0).network, psi.network)]
    return pairs


def _recorded(monkeypatch, run):
    """``run()``'s result, with the ``_plan`` arguments and batch of each
    call, and the constant arrays of each executed unbatched plan."""
    plans, constants = [], []
    real_plan, real_execute = te._plan, te._execute

    def plan(*args, batch):
        plans.append((args, batch))
        return real_plan(*args, batch=batch)

    def execute(plan, arrays):
        constants.append(arrays)
        return real_execute(plan, arrays)

    with monkeypatch.context() as m:
        m.setattr(te, "_plan", plan)
        m.setattr(te, "_execute", execute)
        return run(), plans, constants


def _same_arrays(got, want):
    return len(got) == len(want) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want))


def test_operands_give_the_factor_network_route_plan_keys(monkeypatch):
    """The inner products build the engine's operands straight from the
    networks, and hand ``_plan`` the arguments the public factor-network
    route gives (``helpers.factor_network_plan``): the same leg ids, dims,
    batched flags, pairings and batch, and the same constant arrays, bit for
    bit.  Exact pairs are checked through ``exact_inner_product``, and each
    state's Monte Carlo preparation for a full chunk on the pair's gauge
    forest, with the integrated chord's edge left open, and for
    ``evaluate``'s one sample with neither."""
    exact = opened = 0
    for a, b in _plan_key_pairs():
        value, plans, constants = _recorded(monkeypatch, lambda: exact_inner_product(a, b))
        if structural_zero(a, b):
            assert (value, plans) == (0j, [])
        else:
            args, arrays = factor_network_plan(paired_factor_network(a, b), exact=True)
            assert plans == [(args, 1)]
            assert len(constants) == 1 and _same_arrays(constants[0], arrays)
            exact += 1
        chord = _schur_chord(a, b)
        opened += chord is not None
        for tree, batch, chord in ((ip._gauge_forest(a, b), MC_CHUNK, chord), (frozenset(), 1, None)):
            for n in (a, b):
                steps = {}
                for e in n.edges:
                    word = ip._reduced(t for t in e.word if t[0] not in tree)
                    if chord is None or [s for s, _ in word] != [chord]:
                        steps[e.id] = ((word, False),) if word else ()
                net = state_factor_network(n, "N", False, steps)
                (_, factors, arrays), plans, _ = _recorded(
                    monkeypatch, lambda: ip._prepared_state.__wrapped__(n, tree, batch, chord))
                args, arrays_want = factor_network_plan(net)
                assert plans == [(args, batch)]
                assert factors == net.factors
                assert _same_arrays(list(arrays), arrays_want)
    assert exact >= 40 and opened >= 10


def _planner_corpus():
    """The plan-key pairs, with the 5- and 6-cycles, each paired with
    itself and with another state on its registry, and the web pairs ψ·ψ
    and ψ·φ at N = 8, 16 and 32 added."""
    rng = np.random.default_rng(3133)
    pairs = _plan_key_pairs()
    for n in (cycle_network(rng, k) for k in (5, 6)):
        pairs += [(n, n), (n, reintertwine(rng, n))]
    for n in (8, 16, 32):
        psi = build_tassel(n).network
        pairs += [(psi, psi), (psi, build_phi(n, -1).network)]
    return pairs


def test_incremental_planner_gives_the_reference_plans():
    """``tensor_engine._plan`` regroups only the groups of the slots each
    step consumes, and gives the plans of the planner that regroups every
    pairing at every step (``helpers.reference_plan``), ``==`` as
    ``_Plan``s, on every distinct plan of the corpus: each pair's exact
    plan, and each state's Monte Carlo plan for a full chunk on the pair's
    gauge forest, with the integrated chord's edge open and without, and
    for ``evaluate``'s one sample."""
    calls, opened = {}, 0
    for a, b in _planner_corpus():
        tree, chord = ip._gauge_forest(a, b), _schur_chord(a, b)
        opened += chord is not None
        with recorded_plan_calls() as made:
            exact_inner_product(a, b)
            for n in (a, b):
                for key in ((tree, MC_CHUNK, chord), (tree, MC_CHUNK, None), (frozenset(), 1, None)):
                    ip._prepared_state.__wrapped__(n, *key)
        calls.update(((args, tuple(kwargs.items())), None) for args, kwargs in made)
    assert opened >= 10 and len(calls) >= 90
    for args, kwargs in calls:
        assert te._plan.__wrapped__(*args, **dict(kwargs)) == reference_plan(*args, **dict(kwargs))


def test_inner_products_build_no_tensor_object(monkeypatch):
    """Tensor objects are the public boundary only: with ``Leg``,
    ``LabeledTensor`` and ``FactorNetwork`` refusing to be built, the exact
    and Monte Carlo inner products and ``evaluate`` give the same values
    from cold caches."""
    rng = np.random.default_rng(3132)
    wordy = wordy_network(rng)
    pairs = [(wordy, reintertwine(rng, wordy)), (theta_network((2, 2, 2)),) * 2,
             (build_tassel(2).network, build_phi(2, -1).network)]
    h = random_holonomies(rng, wordy)

    def values():
        for cache in (ip._gauge_forest, ip._prepared_state, te._plan, rep_core._invariant_basis):
            cache.cache_clear()
        return ([exact_inner_product(a, b) for a, b in pairs]
                + [mc_inner_product(a, b, 300, seed=5) for a, b in pairs] + [evaluate(wordy, h)])

    before = values()

    def refused(self):
        raise AssertionError(f"{type(self).__name__} built on an internal path")

    for cls in (te.Leg, te.LabeledTensor, te.FactorNetwork):
        monkeypatch.setattr(cls, "__post_init__", refused)
    with pytest.raises(AssertionError, match="Leg built"):
        te.Leg("a", Spin(1), "ket")
    assert values() == before


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
    """The same estimate from one joint network on the same gauge forest,
    bra factors conjugated: tree steps dropped, one factor per chord step,
    and the Schur pairing of ``helpers.paired_factor_network`` in place of
    the integrated chord's two factors, so the drawn chords take the same
    columns of the same stream."""
    tree = ip._gauge_forest(a, b)
    return mc_expectation(paired_factor_network(a, b, tree, _schur_chord(a, b)), n_samples, seed)


def _assert_self_pairing_bits(got, joint):
    """A self pairing keeps the joint estimate's real part and standard
    error bit for bit, and reads an imaginary part of exactly 0.0 where the
    joint estimate keeps the rounding of conj(psi) * psi."""
    (mean, err), (joint_mean, joint_err) = got, joint
    assert (mean.real, mean.imag, err) == (joint_mean.real, 0.0, joint_err), (got, joint)


def _reversed_edge(rng, net, edge_id):
    """``net`` with one edge reversed (inverse word, ends swapped) and fresh
    random invariant intertwiners on the new slots."""
    edges = [Edge(e.id, nm._inverse_word(e.word), e.target, e.source, e.spin)
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
    # e3 reversed: the ket's chord word on e3 is the inverse of the bra's
    reversed_e3 = _reversed_edge(rng, wordy, "e3")
    tree = ip._gauge_forest(wordy, reversed_e3)
    bra_words = set(_chord_words(wordy, tree))
    assert any(nm._inverse_word(w) in bra_words for w in _chord_words(reversed_e3, tree))
    pairs.append((wordy, reversed_e3, False))
    return pairs


def test_mc_inner_product_matches_joint_network_estimate(monkeypatch):
    """Evaluating each state on its own edges, with the forest's segments
    set to the identity and the chord ``_schur_chord`` picks left open for
    the Schur pairing, gives the estimate of the joint network on the same
    forest with the same pairing, sample for sample: within 1e-13 in mean
    and standard error.  With no chord integrated, self-pairings of
    single-vertex motifs, whose segments are all loops, so that nothing is
    in the forest and the per-state plans are the joint plan's two halves,
    give its bits, its imaginary rounding aside
    (``_assert_self_pairing_bits``)."""
    integrated = 0
    for a, b, exact_bits in _oracle_pairs():
        integrated += _schur_chord(a, b) is not None
        for n_samples, seed in ((MC_CHUNK + 37, 61), (300, 62)):
            got = mc_inner_product(a, b, n_samples, seed)
            want = _joint_estimate(a, b, n_samples, seed)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (got, want)
            if exact_bits:
                assert a == b
                with monkeypatch.context() as m:
                    m.setattr(ip, "_schur_chord", lambda *args: None)
                    _assert_self_pairing_bits(mc_inner_product(a, b, n_samples, seed),
                                              _joint_estimate(a, b, n_samples, seed))
    assert integrated >= 10


def test_mc_ungauged_states_match_joint_estimate_bit_for_bit(monkeypatch):
    """With an explicit tensor at every vertex the forest is empty, and
    self-pairings of single-segment edges keep the joint network's bits
    (``_assert_self_pairing_bits``) when no chord is integrated; with the
    one chord each integrates, they match its Schur-paired estimate to
    1e-13."""
    rng = np.random.default_rng(809)
    for motif in ("theta", "twogon", "dumbbell"):
        a = random_network(rng, motif)
        a = _explicit(rng, a, a.vertices)
        assert ip._gauge_forest(a, a) == frozenset()
        assert _chord_words(a, frozenset()) == [e.word for e in a.edges]
        assert _schur_chord(a, a) is not None
        for n_samples, seed in ((MC_CHUNK + 37, 61), (300, 62)):
            got, want = mc_inner_product(a, a, n_samples, seed), _joint_estimate(a, a, n_samples, seed)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (got, want)
            with monkeypatch.context() as m:
                m.setattr(ip, "_schur_chord", lambda *args: None)
                _assert_self_pairing_bits(mc_inner_product(a, a, n_samples, seed),
                                          _joint_estimate(a, a, n_samples, seed))


def test_mc_theta_builds_only_the_small_spins(monkeypatch):
    """theta(6,6,12): the spin-6 segment is the forest and one spin-3 chord
    is integrated, so each chunk builds one spin-3 matrix and no spin-6
    one."""
    built = []
    real = te._pair_wigner

    def counting(twice_j, a, b, *args):
        built.append(twice_j)
        return real(twice_j, a, b, *args)

    monkeypatch.setattr(te, "_pair_wigner", counting)
    a = theta_network((6, 6, 12))
    mc_inner_product(a, a, 2 * MC_CHUNK, seed=5)
    assert built == [6, 6]


def test_mc_draws_only_chord_segments(monkeypatch):
    """One element is drawn per segment outside the forest but the
    integrated chord: 1 of theta's 3 segments, and 4 of the 8 that the web
    pair psi.phi at N=2 touches, which integrates none."""
    drawn = []
    real = te._haar_pairs

    def counting(rng, m, n_vars):
        drawn.append(n_vars)
        return real(rng, m, n_vars)

    monkeypatch.setattr(te, "_haar_pairs", counting)
    theta = theta_network((1, 1, 2))
    mc_inner_product(theta, theta, 300, seed=1)
    mc_inner_product(build_tassel(2).network, build_phi(2, -1).network, 300, seed=1)
    assert drawn == [1, 4]


def _twice_crossed_pair():
    """A figure-eight of two spin-1 loops, f1 and f2, and a ket on the same
    loops with a third spin-1 edge along the word f1 f2: each loop is the
    whole word of one edge in both states, but crossed twice in the ket."""
    bra = figure8_network(2, 2)
    one = Spin(2)
    edges = [Edge("a", (("f1", False),), "O", "O", one), Edge("b", (("f2", False),), "O", "O", one),
             Edge("c", (("f1", False), ("f2", False)), "O", "O", one)]
    rng = np.random.default_rng(4)
    verts = {v: random_intertwiner(rng, tuple(legs)) for v, legs in _slot_legs(edges).items()}
    return bra, network(bra.graph.registry, edges, verts)


def test_mc_integrates_at_most_one_chord_by_its_rule(monkeypatch):
    """The drawn columns are the chords but the integrated one.  theta
    (1,1,2) integrates u1, the first of its two spin-1/2 chords, theta
    (6,6,12) a spin-3 chord, and the wordy self-pair its largest candidate,
    the spin-3/2 circle chord k3.  Nothing is integrated, so every chord is
    drawn, when the chord edges run in opposite directions in the two
    states (theta(1,1,2) against itself with both chord edges reversed), when
    each chord is crossed twice in one state, when d^2 > 64 (theta(8,8,8))
    or when one chord is all there is (the loop)."""
    drawn = []
    real = te._haar_pairs

    def counting(rng, m, n_vars):
        drawn.append(n_vars)
        return real(rng, m, n_vars)

    monkeypatch.setattr(te, "_haar_pairs", counting)
    rng = np.random.default_rng(812)
    theta, wordy = theta_network((1, 1, 2)), wordy_network(rng)
    reversed_pair = _reversed_edge(rng, _reversed_edge(rng, theta, "e0"), "e1")
    for a, b, chord in [(theta, theta, "u1"), (theta_network((6, 6, 12)),) * 2 + ("u1",),
                        (wordy, wordy, "k3"), (theta, reversed_pair, None),
                        _twice_crossed_pair() + (None,), (theta_network((8, 8, 8)),) * 2 + (None,),
                        (loop_network(2),) * 2 + (None,)]:
        tree = ip._gauge_forest(a, b)
        chords = (a.graph.segments | b.graph.segments) - tree
        assert ip._schur_chord(a, b, tree, chords) == chord
        drawn.clear()
        mc_inner_product(a, b, 300, seed=1)
        assert drawn == [len(chords) - (chord is not None)]


def test_mc_standard_errors_are_calibrated():
    """300 seeds x 2000 samples on theta(6,6,12), theta(1,1,2), the web
    pair at N=2 and the twice-crossed pair: for each, at most 3 readings lie
    beyond 3 standard errors of the exact pairing and none beyond 4.  The
    bound was fixed before the integrated chord was measured.  Drawing both
    theta(6,6,12) chords gives 5 readings beyond 3; integrating a chord
    that the ket also crosses inside another word puts all 300 beyond 4."""
    pairs = [(theta_network((6, 6, 12)),) * 2, (theta_network((1, 1, 2)),) * 2,
             (build_tassel(2).network, build_phi(2, -1).network), _twice_crossed_pair()]
    for a, b in pairs:
        exact = exact_inner_product(a, b)
        z = []
        for seed in range(300):
            mean, err = mc_inner_product(a, b, 2000, seed)
            z.append(abs(mean - exact) / err)
        assert sum(x > 3 for x in z) <= 3 and max(z) <= 4, (a, sorted(z)[-4:])


def test_mc_self_pairings_are_real_and_nonnegative():
    """The self pairings of the calibration set, theta(6,6,12) and
    theta(1,1,2), each with an integrated chord, and a loop with none:
    every sample is real, so every seed reads an imaginary part of exactly
    0.0 and a nonnegative real part."""
    for net in (theta_network((6, 6, 12)), theta_network((1, 1, 2)), loop_network(2)):
        for seed in range(20):
            mean, _ = mc_inner_product(net, net, 2000, seed)
            assert mean.imag == 0.0 and mean.real >= 0, (net, seed, mean)


def _non_invariant_pairs(rng):
    """Motif, wordy and web pairs with explicit tensors, which are not
    intertwiners, at one or two vertices of each state; each pair with the
    vertices that were made explicit."""
    pairs = []
    bases = [(a, reintertwine(rng, a)) for a in (random_network(rng, m) for m in MOTIF_NAMES)]
    bases += [(w, reintertwine(rng, w)) for w in (wordy_network(rng, (1, 1, 2), 1),)]
    bases += [(build_tassel(2).network, build_phi(2, -1).network)]
    for a, b in bases:
        vertices = sorted(a.vertices, key=str)
        for chosen in [vertices[:1], vertices[-1:], vertices[:2]]:
            pairs.append((_explicit(rng, a, chosen), b, set(chosen)))
            pairs.append((a, _explicit(rng, b, chosen), set(chosen)))
    return pairs


def test_mc_forest_avoids_non_invariant_vertices():
    """No forest segment ends at a vertex with an explicit tensor, and the
    estimate stays within 4 standard errors of the exact pairing.  Where the
    integrated chord leaves the sample value constant, so that the
    standard error reads 0, the mean is the exact pairing to 1e-12."""
    rng = np.random.default_rng(811)
    for k, (a, b, explicit) in enumerate(_non_invariant_pairs(rng)):
        registry = a.graph.registry
        assert not any(explicit & set(registry.endpoints(s)) for s in ip._gauge_forest(a, b))
        exact = exact_inner_product(a, b)
        mean, err = mc_inner_product(a, b, 4000, seed=70 + k)
        bound = 4 * err if err else 1e-12 * max(1.0, abs(exact))
        assert abs(mean - exact) <= bound, (k, mean, exact, err)


def test_word_holonomy_batches_edge_holonomy(rng):
    """The batched pair holonomy of every word of the wordy network, and of
    its inverse, matches the quaternion fold, on the batch and on each
    element alone."""
    n = wordy_network(rng)
    holonomies = [random_holonomies(rng, n) for _ in range(4)]
    quats = {s: np.stack([h[s].as_array() for h in holonomies]) for s in n.graph.segments}
    pairs = {s: _pair(q.T) for s, q in quats.items()}
    for e in n.edges:
        inverse_word = tuple((s, not r) for s, r in reversed(e.word))
        for word in (e.word, inverse_word):
            a, b = _word_holonomy(pairs, word)
            want_a, want_b = _pair(quaternion_word_holonomy(quats, word).T)
            npt.assert_allclose(a, want_a, rtol=0, atol=1e-15)
            npt.assert_allclose(b, want_b, rtol=0, atol=1e-15)
            for k in range(len(holonomies)):
                one = {s: q[k:k + 1] for s, q in quats.items()}
                a_k, b_k = _pair(quaternion_word_holonomy(one, word)[0])
                npt.assert_allclose([a[k], b[k]], [a_k, b_k], rtol=0, atol=1e-15)


def test_quaternion_product_is_one_formula(rng):
    """The package multiplies group elements by one product, on pairs.
    On a batch and on each of its elements taken as a batch of one it gives
    the same bits (numpy's complex loops may fuse a multiply-add, so a
    product of Python complex numbers may differ in the last bit); it is
    the quaternion product, on batches and on scalar elements."""
    qa, qb = rng.standard_normal((2, 5, 4))
    batch = _pair_product(_pair(qa.T), _pair(qb.T))
    for k in range(5):
        one = _pair_product(_pair(qa[k:k + 1].T), _pair(qb[k:k + 1].T))
        for c, o in zip(batch, one):
            assert c[k:k + 1].view(np.int64).tolist() == o.view(np.int64).tolist()
    for c, w in zip(batch, _pair(quat_product(qa.T, qb.T))):
        npt.assert_allclose(c, w, rtol=0, atol=1e-14)
    g, h = haar_element(rng), haar_element(rng)
    a, b = _pair_product(_pair(g.as_array()), _pair(h.as_array()))
    npt.assert_allclose((a.real, b.imag, b.real, a.imag),
                        quat_product(g.as_array(), h.as_array()), atol=1e-15)


def test_mc_self_pairing_evaluates_once_per_chunk(monkeypatch):
    calls = []
    real = te._execute

    def counting(plan, arrays, *args):
        calls.append(plan)
        return real(plan, arrays, *args)

    monkeypatch.setattr(te, "_execute", counting)
    a = theta_network((1, 1, 2))
    mc_inner_product(a, a, 2 * MC_CHUNK + 5, seed=3)
    assert len(calls) == 3
    calls.clear()
    b = theta_network((1, 1, 2), coeffs={"X": [2.0], "Y": [1.0j]}, registry=a.graph.registry)
    mc_inner_product(a, b, 2 * MC_CHUNK + 5, seed=3)
    assert len(calls) == 6


def test_mc_web_builds_one_wigner_matrix_per_word_and_spin(monkeypatch):
    """psi and phi share two of their four curves; each chunk builds one
    Wigner matrix per distinct (chord word, spin), for bra and ket
    together."""
    psi, phi = build_tassel(2).network, build_phi(2, -1).network
    tree = ip._gauge_forest(psi, phi)
    distinct = {(f.variable, f.spin.twice_j)
                for n in (psi, phi) for f in ip._prepared_state(n, tree, MC_CHUNK)[1]}
    assert len(distinct) < len(psi.edges) + len(phi.edges)
    built = []
    real = te._pair_wigner

    def counting(twice_j, a, b, *args):
        built.append(twice_j)
        return real(twice_j, a, b, *args)

    monkeypatch.setattr(te, "_pair_wigner", counting)
    mc_inner_product(psi, phi, MC_CHUNK + 5, seed=4)
    assert len(built) == 2 * len(distinct)


def test_tensor_engine_alone_sets_the_chunk(monkeypatch):
    """The chunk length belongs to ``tensor_engine``: patching its
    ``MC_CHUNK`` alone makes ``mc_inner_product`` prepare each state for
    that chunk, and the estimate keeps the default chunk's bits.  A lone
    last sample would make a one-sample chunk, whose products BLAS rounds
    in another order: with chunks of 512 it takes the last block of the
    chunk before it (513 samples run as 256 + 257, 1025 as 512 + 256 +
    257) and the plans stay at 512; with chunks of one block, 256, it
    joins the chunk before it, which the plans then cover (257).  The
    self-pairs of theta(6,6,12) and of the spin-1 figure-eight move their
    bits at every seed without this."""
    theta, eight = theta_network((6, 6, 12)), figure8_network(2, 2)
    cases = [(build_tassel(2).network, build_phi(2, -1).network, MC_CHUNK + 5, (12,), 256, 256)]
    cases += [(n, n, n_samples, range(5), chunk, planned) for n in (theta, eight)
              for n_samples, chunk, planned in ((257, 256, 257), (513, 256, 257),
                                                (513, 512, 512), (1025, 512, 512))]
    real = ip._prepared_state
    for a, b, n_samples, seeds, chunk, planned in cases:
        want = [mc_inner_product(a, b, n_samples, seed=seed) for seed in seeds]
        batches = []

        def spy(n, tree, batch, chord):
            batches.append(batch)
            return real(n, tree, batch, chord)

        with monkeypatch.context() as m:
            m.setattr(ip, "_prepared_state", spy)
            m.setattr(te, "MC_CHUNK", chunk)
            got = [mc_inner_product(a, b, n_samples, seed=seed) for seed in seeds]
        assert batches == [planned] * len(seeds) * (1 if a is b else 2)
        assert [_bits(g) for g in got] == [_bits(w) for w in want], (n_samples, chunk)


def _spin_one_bundle():
    """Two vertices joined by the fewest k spin-1 edges with a full chunk of
    3^(k-1) tensors over the budget, with one random explicit tensor, not
    an intertwiner, at both."""
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
    return network(reg, edges, verts)


def test_mc_oversized_state_fails_before_sampling(monkeypatch):
    """Two vertices joined by k spin-1 edges: each step leaves a 3^j tensor
    per sample, and a full chunk of the largest is over the budget."""
    big = _spin_one_bundle()
    mc_inner_product(big, big, 2, seed=0)

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before the plan was checked")

    monkeypatch.setattr(te, "_haar_pairs", no_draws)
    for _ in range(2):
        with pytest.raises(ValueError, match="intermediate"):
            mc_inner_product(big, big, MC_CHUNK, seed=0)


@pytest.mark.parametrize("case", ["state", "network", "contract"])
def test_refusal_matches_the_reference_planner(case, monkeypatch):
    """An oversized Monte Carlo chunk (of ``mc_inner_product`` on the spin-1
    bundle and of ``mc_expectation``) and an oversized ``contract`` are
    refused with the message of the planner that regroups every pairing at
    every step (``helpers.reference_plan``), before any sample is drawn or
    any plan runs, and the refusal is not cached: planning the same
    arguments again is a new miss that is refused again."""
    if case == "state":
        big = _spin_one_bundle()
        run = lambda: mc_inner_product(big, big, MC_CHUNK, seed=0)
    elif case == "network":
        net = _oversized_chunk_network()
        run = lambda: mc_expectation(net, MC_CHUNK, seed=0)
    else:
        shape = (13, 13, 13, 13)
        big = [lt("a", np.ones(shape), ("ket",) * 4), lt("b", np.ones(shape), ("bra",) * 4)]
        run = lambda: contract(big, [])

    def refused(*args, **kwargs):
        raise AssertionError("sampled or contracted after a refusal")

    monkeypatch.setattr(te, "_haar_pairs", refused)
    monkeypatch.setattr(te, "_execute", refused)
    with recorded_plan_calls() as calls, pytest.raises(ValueError, match="intermediate") as exc:
        run()
    args, kwargs = calls[-1]
    assert plan_or_refusal(reference_plan, args, kwargs) == f"ValueError: {exc.value}"
    before = te._plan.cache_info()
    assert plan_or_refusal(te._plan, args, kwargs) == f"ValueError: {exc.value}"
    after = te._plan.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)


def test_mc_inner_product_needs_two_samples():
    a = theta_network((1, 1, 2))
    with pytest.raises(ValueError, match="at least 2"):
        mc_inner_product(a, a, 1, seed=0)
