"""Correspondence enumeration, state transport, and the group-averaged
inner product obtained by summing once over each correspondence class."""

import itertools
import math
import sys
import time

import numpy as np
import numpy.testing as npt
import pytest

import spinnet.diffeo_average as diffeo_average
import spinnet.network_model as network_model
from spinnet import (
    Edge,
    Intertwiner,
    Spin,
    InvalidNetworkError,
    structural_zero,
    SegmentRegistry,
    decompose,
    canonicalize,
    evaluate,
    exact_inner_product,
    enumerate_correspondences,
    transport,
    averaged_inner_product,
    averaged_gram,
    intertwiner_basis,
    network,
)
from helpers import (
    loop_network,
    theta_network,
    figure8_network,
    dumbbell_registry,
    inverse,
    brute_correspondences,
    brute_correspondence_count,
    cycle_network,
    piece_network,
    random_holonomies,
    random_network,
    reintertwine,
    respun_network,
    wordy_network,
    MOTIF_NAMES,
)


@pytest.fixture
def rng():
    return np.random.default_rng(606)


def two_circle_registry():
    reg = SegmentRegistry()
    reg.add_segment("s1", "P", "P")
    reg.add_segment("s2", "Q", "Q")
    return reg


# ---------------------------------------------------------------------------
# enumeration

def test_loop_self_correspondences():
    d = decompose(loop_network(1).graph)
    both = enumerate_correspondences(d, d)
    assert len(both) == 2
    assert sorted(c.circle_map for c in both) == [((0, False),), ((0, True),)]
    op = enumerate_correspondences(d, d, orientation_preserving_only=True)
    assert len(op) == 1
    assert op[0].circle_map == ((0, False),)


def test_theta_self_correspondences():
    d = decompose(theta_network((1, 1, 2)).graph)
    cs = enumerate_correspondences(d, d)
    # 3! interval pairings, times a global end swap
    assert len(cs) == 12
    assert len(enumerate_correspondences(d, d, orientation_preserving_only=True)) == 6
    # every correspondence either fixes both vertices or swaps them, and the
    # interval flips follow the point map
    for c in cs:
        pm = dict(c.point_map)
        assert pm in ({"X": "X", "Y": "Y"}, {"X": "Y", "Y": "X"})
        flips = {f for _, f in c.interval_map}
        assert flips == ({False} if pm["X"] == "X" else {True})


def test_non_diffeomorphic_graphs_have_no_correspondences():
    d_loop = decompose(loop_network(1).graph)
    d_theta = decompose(theta_network((1, 1, 2)).graph)
    assert enumerate_correspondences(d_loop, d_theta) == []
    assert enumerate_correspondences(d_theta, d_loop) == []


ZOO_GRAPHS = []


def _zoo_graphs():
    if ZOO_GRAPHS:
        return ZOO_GRAPHS
    reg2 = two_circle_registry()
    reg3 = SegmentRegistry()
    for sid in ("a1", "a2", "a3"):
        reg3.add_segment(sid, f"V{sid}", f"V{sid}")
    regd = dumbbell_registry()
    regmix = SegmentRegistry()
    for sid in ("u1", "u2", "u3"):
        regmix.add_segment(sid, "X", "Y")
    regmix.add_segment("far", "W", "W")
    regchain = SegmentRegistry()
    regchain.add_segment("c1", "A", "B")
    regchain.add_segment("c2", "B", "C")
    regchain.add_segment("hk", "A", "A")
    regchain.add_segment("hk2", "C", "C")
    ZOO_GRAPHS.extend(
        [
            ("loop", reg2.graph(["s1"])),
            ("two circles", reg2.graph(["s1", "s2"])),
            ("three circles", reg3.graph(["a1", "a2", "a3"])),
            ("theta", regmix.graph(["u1", "u2", "u3"])),
            ("theta + circle", regmix.graph(["u1", "u2", "u3", "far"])),
            ("figure eight", figure8_network().graph),
            ("dumbbell", regd.graph(["dl", "dm", "dr"])),
            ("barbell chain", regchain.graph(["c1", "c2", "hk", "hk2"])),
        ]
    )
    return ZOO_GRAPHS


def _zoo():
    return [(name, decompose(g)) for name, g in _zoo_graphs()]


def test_enumeration_matches_brute_oracle_on_zoo():
    """Library counts equal the filtered product-space enumeration, for every
    pair of zoo decompositions and both orientation settings."""
    zoo = _zoo()
    for name1, d1 in zoo:
        for name2, d2 in zoo:
            for op_only in (False, True):
                got = len(enumerate_correspondences(d1, d2, op_only))
                want = brute_correspondence_count(d1, d2, op_only)
                assert got == want, (name1, name2, op_only, got, want)


def _listed(cs):
    return [(c.point_map, c.interval_map, c.circle_map) for c in cs]


def _cycle_decomposition(k):
    return decompose(cycle_network(np.random.default_rng(k), k).graph)


def test_enumeration_order_matches_product_space_oracle():
    """The full ordered lists, not only their lengths, equal the product-space
    filter on every zoo pair, on k-cycles with a loop at every point, and on a
    lollipop, a loop at D with a stem from B to D.  The loop is assigned
    first, so the flipped stem would send B onto the already used D and is
    pruned there; 2 classes remain, 1 orientation-preserving."""
    zoo = _zoo()
    cases = [(n1, d1, n2, d2, op_only) for n1, d1 in zoo for n2, d2 in zoo
             for op_only in (False, True)]
    c3, c4 = _cycle_decomposition(3), _cycle_decomposition(4)
    cases += [("3-cycle", c3, "3-cycle", c3, False), ("3-cycle", c3, "3-cycle", c3, True),
              ("4-cycle", c4, "4-cycle", c4, True)]
    reg = SegmentRegistry()
    reg.add_segment("s0", "D", "D")
    reg.add_segment("s1", "B", "D")
    lolli = decompose(reg.graph(["s0", "s1"]))
    assert len(enumerate_correspondences(lolli, lolli)) == 2
    assert len(enumerate_correspondences(lolli, lolli, True)) == 1
    cases += [("lollipop", lolli, "lollipop", lolli, op_only) for op_only in (False, True)]
    for name1, d1, name2, d2, op_only in cases:
        got = _listed(enumerate_correspondences(d1, d2, op_only))
        assert got == brute_correspondences(d1, d2, op_only), (name1, name2, op_only)


def test_cycle_counts_beyond_the_product_space():
    """Dihedral maps of the cycle times a flip per loop: 8 * 2^4 on the
    4-cycle and 10 * 2^5 on the 5-cycle."""
    assert len(enumerate_correspondences(*[_cycle_decomposition(4)] * 2)) == 128
    assert len(enumerate_correspondences(*[_cycle_decomposition(5)] * 2)) == 320


def test_known_zoo_counts():
    zoo = dict(_zoo())
    counts = {
        "two circles": 8,
        "three circles": 48,
        "theta": 12,
        "figure eight": 8,
        "dumbbell": 8,
        "theta + circle": 24,
    }
    for name, want in counts.items():
        d = zoo[name]
        assert len(enumerate_correspondences(d, d)) == want, name


def disjoint_loops(k):
    """k spin-1/2 loops at k distinct points: k circles, k!·2^k classes."""
    reg = SegmentRegistry()
    edges = []
    for i in range(k):
        reg.add_segment(f"s{i}", f"P{i}", f"P{i}")
        edges.append(Edge(f"l{i}", ((f"s{i}", False),), f"P{i}", f"P{i}", Spin(1)))
    marker = Intertwiner(((Spin(1), "out"), (Spin(1), "in")), np.eye(2))
    return network(reg, edges, {f"P{i}": marker for i in range(k)})


def test_class_budget_refuses_before_building_a_class(monkeypatch):
    """Eight disjoint loops have 8!·2^8 = 10 321 920 classes, over the budget
    of 2^20: enumeration and the averaged pairing refuse at the first
    interval assignment, fast, with no Correspondence built."""
    built = []

    class Counting(diffeo_average.Correspondence):
        def __post_init__(self):
            built.append(self)

    monkeypatch.setattr(diffeo_average, "Correspondence", Counting)
    assert diffeo_average._MAX_CLASSES == 2**20
    loops = disjoint_loops(8)
    d = decompose(loops.graph)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="correspondence classes"):
        enumerate_correspondences(d, d)
    with pytest.raises(ValueError, match="correspondence classes"):
        averaged_inner_product(loops, loops)
    assert time.perf_counter() - start < 1.0
    assert built == []
    # 7!·2^7 = 645 120 classes orientation-free, 8! = 40 320 orientation-preserving
    assert len(enumerate_correspondences(d, d, True)) == math.factorial(8)


@pytest.mark.parametrize("graph, classes", [("3-cycle", 48), ("two circles", 8)])
def test_class_budget_is_inclusive(monkeypatch, graph, classes):
    """The budget counts interval assignments (the 3-cycle's loops) and
    circle maps (two circles) alike: a graph with exactly the budget's
    classes is listed in full, one more class is refused."""
    d = _cycle_decomposition(3) if graph == "3-cycle" else dict(_zoo())[graph]
    monkeypatch.setattr(diffeo_average, "_MAX_CLASSES", classes)
    assert len(enumerate_correspondences(d, d)) == classes
    monkeypatch.setattr(diffeo_average, "_MAX_CLASSES", classes - 1)
    with pytest.raises(ValueError, match="correspondence classes"):
        enumerate_correspondences(d, d)


def test_averaged_pairing_decomposes_each_distinct_network_once(monkeypatch):
    """The canonical pass hands its decomposition to the pairing, and a
    network paired with itself is prepared once: one ``decompose`` per
    distinct network."""
    calls = []
    real = network_model.decompose

    def counting(graph):
        calls.append(graph)
        return real(graph)

    for name, mod in list(sys.modules.items()):
        if name.startswith("spinnet") and getattr(mod, "decompose", None) is real:
            monkeypatch.setattr(mod, "decompose", counting)
    theta = theta_network((1, 1, 2))
    other = theta_network((2, 2, 2), registry=theta.graph.registry)
    for a, b, want in ((theta, theta, 1), (theta, other, 2)):
        calls.clear()
        diffeo_average._averaged_pairing(a, b, False)
        assert len(calls) == want


# ---------------------------------------------------------------------------
# transport

def test_transport_identity_is_canonical_form():
    th = theta_network((1, 1, 2))
    d = decompose(th.graph)
    ident = [
        c
        for c in enumerate_correspondences(d, d)
        if all(p == q for p, q in c.point_map)
        and all(t == k and not f for k, (t, f) in enumerate(c.interval_map))
    ]
    assert len(ident) == 1
    assert transport(th, ident[0]) == canonicalize(th)


def test_transport_flip_pulls_back_holonomies(rng):
    """The all-flip self-correspondence inverts every segment traversal, so
    the transported state evaluates like the original at inverted holonomies."""
    th = theta_network((1, 1, 2))
    d = decompose(th.graph)
    allflip = [
        c
        for c in enumerate_correspondences(d, d)
        if all(t == k and f for k, (t, f) in enumerate(c.interval_map))
    ]
    assert len(allflip) == 1
    t = transport(th, allflip[0])
    base = canonicalize(th)
    for _ in range(5):
        h = random_holonomies(rng, th)
        hinv = {s: inverse(g) for s, g in h.items()}
        npt.assert_allclose(evaluate(t, h), evaluate(base, hinv), atol=1e-12)


def test_transport_moves_support_across_circles(rng):
    reg = two_circle_registry()
    a = loop_network(2, registry=reg)
    d1 = decompose(a.graph)
    d2 = decompose(reg.graph(["s2"]))
    cs = enumerate_correspondences(d1, d2)
    assert len(cs) == 2
    t = transport(a, cs[0])
    assert t.graph.segments == frozenset({"s2"})
    g = random_holonomies(rng, t)
    # a loop state only sees its own circle's holonomy
    npt.assert_allclose(evaluate(t, {"s1": g["s2"], "s2": g["s2"]}),
                        evaluate(a, {"s1": g["s2"], "s2": g["s2"]}), atol=1e-12)


def test_transport_preserves_norm_over_all_classes():
    th = theta_network((1, 1, 2))
    d = decompose(th.graph)
    norm = exact_inner_product(th, th)
    for c in enumerate_correspondences(d, d):
        t = transport(th, c)
        npt.assert_allclose(exact_inner_product(t, t), norm, atol=1e-12)


# ---------------------------------------------------------------------------
# averaged inner product

def test_averaged_loop_values():
    lp = loop_network(1)
    npt.assert_allclose(averaged_inner_product(lp, lp), 2.0, atol=1e-12)
    npt.assert_allclose(
        averaged_inner_product(lp, lp, orientation_preserving_only=True),
        1.0,
        atol=1e-12,
    )


def test_averaged_theta_frozen_value():
    th = theta_network((1, 1, 2))
    npt.assert_allclose(averaged_inner_product(th, th), 1.0 / 3.0, atol=1e-12)


def test_averaged_across_disjoint_circles():
    reg = two_circle_registry()
    a = loop_network(2, registry=reg)
    b = loop_network(2, segment="s2", point="Q", registry=reg)
    npt.assert_allclose(averaged_inner_product(a, b), 2.0, atol=1e-12)


def test_averaged_zero_between_distinct_graphs():
    reg = SegmentRegistry()
    for sid in ("u1", "u2", "u3"):
        reg.add_segment(sid, "X", "Y")
    reg.add_segment("far", "W", "W")
    th = theta_network((1, 1, 2), registry=reg)
    lp = loop_network(1, segment="far", point="W", registry=reg)
    assert averaged_inner_product(th, lp) == 0
    d1, d2 = decompose(th.graph), decompose(lp.graph)
    assert enumerate_correspondences(d1, d2) == []


def test_averaged_invariant_under_transport(rng):
    """Averaging makes every correspondence class act trivially."""
    th = theta_network((1, 1, 2))
    other = theta_network(
        (1, 1, 2), coeffs={"X": [1.0 - 0.5j], "Y": [2.0]}, registry=th.graph.registry
    )
    base = averaged_inner_product(th, other)
    d = decompose(other.graph)
    cs = enumerate_correspondences(d, d)
    for k in (1, 5, 9):
        moved = transport(other, cs[k])
        npt.assert_allclose(averaged_inner_product(th, moved), base, atol=1e-10)


def test_averaged_hermitian(rng):
    a = theta_network((1, 1, 2))
    b = theta_network(
        (1, 1, 2), coeffs={"X": [1.0 + 2.0j], "Y": [0.5]}, registry=a.graph.registry
    )
    npt.assert_allclose(
        averaged_inner_product(a, b),
        np.conj(averaged_inner_product(b, a)),
        atol=1e-12,
    )


def test_group_sum_identity_on_theta():
    """Summing plain inner products over all pairs of transported copies
    equals the class count times the averaged inner product."""
    th = theta_network((1, 1, 2))
    d = decompose(th.graph)
    cs = enumerate_correspondences(d, d)
    moved = [transport(th, c) for c in cs]
    total = sum(exact_inner_product(x, y) for x in moved for y in moved)
    npt.assert_allclose(total, len(cs) * averaged_inner_product(th, th), atol=1e-9)


def _plain_sum(a, b, orientation_preserving_only=False):
    """The group average term by term through the public functions only,
    against the canonical form of ``b``."""
    b = canonicalize(b)
    total = 0j
    zeros = 0
    for c in enumerate_correspondences(decompose(canonicalize(a).graph),
                                       decompose(b.graph), orientation_preserving_only):
        moved = transport(a, c)
        zeros += structural_zero(moved, b)
        total += exact_inner_product(moved, b)
    return total, zeros


def _close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))


def test_averaged_equals_plain_sum():
    """Skipping spin-mismatched classes, preparing each network once and
    summing vertex overlaps give the sum over all transported terms up to
    rounding."""
    rng = np.random.default_rng(4242)
    pairs = []
    for k in range(10):
        a = random_network(rng, motif=MOTIF_NAMES[k % 5], registry=SegmentRegistry())
        pairs.append((a, respun_network(rng, a)))
    cycle = cycle_network(rng, 3, loop_twice_js=(1, 1, 2))
    pairs.append((cycle, reintertwine(rng, cycle)))
    skipped = 0
    for a, b in pairs:
        for op_only in (False, True):
            want, zeros = _plain_sum(a, b, op_only)
            assert _close(averaged_inner_product(a, b, op_only), want, 1e-13)
            skipped += zeros
    assert skipped > 0


def _oracle_pairs(rng):
    pairs = []
    for _, graph in _zoo_graphs():
        a = piece_network(rng, graph, max_twice_j=3)
        pairs += [(a, reintertwine(rng, a)), (a, respun_network(rng, a, max_twice_j=3))]
    for twice_js in ((1, 3, 2), (3, 3, 2), (1, 1, 2)):
        a = wordy_network(rng, twice_js)
        pairs.append((a, reintertwine(rng, a)))
    return pairs


def test_each_class_term_equals_transported_inner_product(monkeypatch):
    """Restricted to one class, the pairing's product of vertex overlaps is
    the plain inner product of the transported network, on every zoo graph
    and on networks with multi-segment words, reversed segments, a circle
    marker that is not the identity and half-integer spins."""
    rng = np.random.default_rng(515)
    terms = nonzero = 0
    for a, b in _oracle_pairs(rng):
        classes = enumerate_correspondences(decompose(a.graph), decompose(b.graph))
        for c in classes:
            monkeypatch.setattr(diffeo_average, "enumerate_correspondences",
                                lambda *args, c=c: [c])
            want = exact_inner_product(transport(a, c), b)
            assert _close(averaged_inner_product(a, b), want, 1e-14)
            terms += 1
            nonzero += abs(want) > 1e-9
    assert terms > 300 and nonzero > 50


def test_cycles_beyond_the_transport_path():
    """The 6-cycle's 768 classes agree with the transported sum, and the
    8-cycle's 4096 classes give a real, non-negative self-pairing."""
    rng = np.random.default_rng(66)
    six = cycle_network(rng, 6)
    other = reintertwine(rng, six)
    assert len(enumerate_correspondences(*[decompose(six.graph)] * 2)) == 768
    want, _ = _plain_sum(six, other)
    assert _close(averaged_inner_product(six, other), want, 1e-13)

    eight = cycle_network(rng, 8)
    d = decompose(eight.graph)
    assert len(enumerate_correspondences(d, d)) == 4096
    value = averaged_inner_product(eight, eight)
    assert value.real >= 0.0 and abs(value.imag) <= 1e-12


def test_averaged_requires_shared_registry_even_when_every_term_vanishes():
    """Spin-1/2 and spin-1 loops on two registries: every class would be
    skipped, and the pairing still refuses the registries."""
    a = loop_network(1)
    regb = SegmentRegistry()
    regb.add_segment("zz", "W", "W")
    b = loop_network(2, segment="zz", point="W", registry=regb)
    with pytest.raises(InvalidNetworkError):
        averaged_inner_product(a, b)
    with pytest.raises(InvalidNetworkError):
        averaged_gram([[(1.0, a)], [(1.0, b)]])


def test_averaged_pairs_to_zero_across_registries_without_correspondences():
    """A theta and a figure-eight on two registries admit no correspondence,
    so they pair to 0 with no class, and their Gram entries are 0; the
    exact pairing still refuses them."""
    a = theta_network((1, 1, 2))
    b = figure8_network()
    assert a.graph.registry is not b.graph.registry
    assert averaged_inner_product(a, b) == 0j
    assert diffeo_average._averaged_pairing(a, b, False) == (0j, 0)
    gm = averaged_gram([[(1.0, a)], [(1.0, b)]])
    assert gm[0, 1] == 0j and gm[1, 0] == 0j
    assert gm[0, 0] != 0 and gm[1, 1] != 0
    with pytest.raises(InvalidNetworkError):
        exact_inner_product(a, b)


def test_averaged_requires_shared_registry():
    a = loop_network(1)
    regb = SegmentRegistry()
    regb.add_segment("zz", "W", "W")
    b = loop_network(1, segment="zz", point="W", registry=regb)
    with pytest.raises(InvalidNetworkError):
        averaged_inner_product(a, b)


# ---------------------------------------------------------------------------
# Gram matrices

def test_gram_matches_pairwise_entries():
    reg = two_circle_registry()
    a = loop_network(2, registry=reg)
    b = loop_network(2, segment="s2", point="Q", registry=reg)
    gm = averaged_gram([[(1.0, a)], [(1.0, b)]])
    npt.assert_allclose(gm[0, 0], averaged_inner_product(a, a), atol=1e-12)
    npt.assert_allclose(gm[0, 1], averaged_inner_product(a, b), atol=1e-12)
    npt.assert_allclose(gm[1, 0], averaged_inner_product(b, a), atol=1e-12)
    npt.assert_allclose(gm, gm.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(gm).min() >= -1e-12


def test_gram_weights_are_sesquilinear():
    lp = loop_network(2)
    gm = averaged_gram([[(2.0 + 1.0j, lp)]])
    npt.assert_allclose(
        gm[0, 0], abs(2.0 + 1.0j) ** 2 * averaged_inner_product(lp, lp), atol=1e-12
    )


def test_gram_null_combination():
    th = theta_network((1, 1, 2))
    gm = averaged_gram([[(1.0, th), (-1.0, th)]])
    npt.assert_allclose(gm, 0.0, atol=1e-12)


def test_gram_of_transported_difference_vanishes(rng):
    """A state minus any transported copy of itself is null for the
    averaged product."""
    n = random_network(rng, motif="theta")
    d = decompose(n.graph)
    cs = enumerate_correspondences(d, d)
    c = cs[int(rng.integers(len(cs)))]
    moved = transport(n, c)
    gm = averaged_gram([[(1.0, n), (-1.0, moved)]])
    npt.assert_allclose(gm[0, 0], 0.0, atol=1e-9)


def test_gram_diagonal_is_the_averaged_pairing_bit_for_bit():
    rng = np.random.default_rng(909)
    families = {}
    for _, graph in _zoo_graphs():
        families.setdefault(id(graph.registry), []).append(piece_network(rng, graph, 3))
    wordy = wordy_network(rng)
    families["wordy"] = [wordy, reintertwine(rng, wordy),
                         wordy_network(rng, (3, 3, 2), registry=wordy.graph.registry)]
    for nets in families.values():
        gm = averaged_gram([[(1.0, n)] for n in nets])
        assert list(np.diag(gm)) == [averaged_inner_product(n, n) for n in nets]


def test_gram_prepares_each_distinct_network_once(rng, monkeypatch):
    """A network that appears in several entries is prepared once per call,
    and the Gram keeps the bits of the Gram without the repeat."""
    a = random_network(rng, motif="theta")
    b = reintertwine(rng, a)
    want = averaged_gram([[(1.0, a)], [(1.0, b)]])
    calls = []
    real = diffeo_average._prepare

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(diffeo_average, "_prepare", counting)
    gm = averaged_gram([[(1.0, a)], [(1.0, b)], [(1.0, a)]])
    assert calls == [a, b]
    assert np.array_equal(gm[:2, :2], want)
    assert np.array_equal(gm[2], gm[0]) and np.array_equal(gm[:, 2], gm[:, 0])
    assert gm[0, 1] != 0


def test_gram_psd_on_random_family(rng):
    nets = []
    base = random_network(rng, motif="theta")
    nets.append(base)
    nets.append(reintertwine(rng, base))
    lp = loop_network(1, registry=base.graph.registry, segment="extra", point="Z")
    nets.append(lp)
    gm = averaged_gram([[(1.0, n)] for n in nets])
    npt.assert_allclose(gm, gm.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(gm).min() >= -1e-9


def _labellings(template):
    """Every network on ``template``'s edges whose vertices carry one element
    each of their orthonormal intertwiner basis: an orthonormal basis, up to
    the factor prod_e 1/d_e, of the states with these spins."""
    bases = {v: intertwiner_basis(iv.leg_spins) for v, iv in template.vertices.items()}
    return [network(template.graph.registry, list(template.edges), dict(zip(bases, choice)))
            for choice in itertools.product(*bases.values())]


def _spin_keeping_classes(n):
    """The correspondence classes of ``n``'s graph onto itself, and those
    among them that carry every piece onto a piece of equal spin."""
    prepared = diffeo_average._prepare(n)
    spins = [e.spin.twice_j for e in prepared.piece_edges]
    n_int = len(prepared.pieces.intervals)
    classes = enumerate_correspondences(prepared.pieces, prepared.pieces)
    kept = [c for c in classes
            if all(spins[k] == spins[j] for k, (j, _) in
                   enumerate(list(c.interval_map) + [(n_int + j, f) for j, f in c.circle_map]))]
    return classes, kept


@pytest.mark.parametrize("template, n_labellings, n_kept, n_classes", [
    (theta_network((1, 1, 2)), 1, 4, 12),
    (theta_network((2, 2, 2)), 1, 12, 12),
    (figure8_network(1, 1), 2, 8, 8),
    (figure8_network(2, 2), 3, 8, 8),
    (figure8_network(1, 3), 2, 4, 8),
    (cycle_network(np.random.default_rng(0), 3), 8, 48, 48),
], ids=["theta112", "theta222", "figure8_11", "figure8_22", "figure8_13", "cycle3_loops"])
def test_averaged_gram_over_a_labelling_basis_is_a_projector(
        template, n_labellings, n_kept, n_classes):
    """On the orthonormal labellings of one graph with fixed spins, the
    averaged Gram times prod_e d_e is P = sum over H of the transport
    matrices, where H is the group of classes that keep every piece's spin.
    So P / |H| is a Hermitian idempotent, the projector onto the invariant
    states, and tr P is the summed diagonal overlaps of the transported
    labellings.  Dividing by the count of all classes instead fails when H
    is smaller."""
    states = _labellings(template)
    classes, kept = _spin_keeping_classes(states[0])
    assert (len(states), len(kept), len(classes)) == (n_labellings, n_kept, n_classes)
    dims = math.prod(e.spin.dim for e in template.edges)
    p = dims * averaged_gram([[(1.0, s)] for s in states])
    proj = p / len(kept)
    npt.assert_allclose(proj, proj.conj().T, rtol=0, atol=1e-12)
    npt.assert_allclose(proj @ proj, proj, rtol=0, atol=1e-12)
    trace = sum(dims * exact_inner_product(s, transport(s, c)) for c in kept for s in states)
    npt.assert_allclose(np.trace(p), trace, rtol=0, atol=1e-12)
    if len(kept) < len(classes):
        wrong = p / len(classes)
        assert np.abs(wrong @ wrong - wrong).max() > 0.1
