"""End-to-end acceptance battery.

Twelve numbered checks cover the load-bearing claims: character
orthogonality, Haar projector laws, vanishing across distinct graphs,
positivity and null structure of the averaged pairing, correspondence
enumeration against a brute-force oracle, the web overlap observables,
Monte Carlo agreement, and canonicalization.

Each check prints ``CRITERION n: PASS`` or ``CRITERION n: FAIL``; run
``pytest -s tests/test_acceptance.py`` to see the twelve-line scoreboard
(without ``-s`` the verdicts still appear as ordinary test results).
"""

import functools
import itertools

import numpy as np

from spinnet import (
    SegmentRegistry,
    Spin,
    averaged_gram,
    averaged_inner_product,
    canonicalize,
    decompose,
    enumerate_correspondences,
    evaluate,
    exact_inner_product,
    haar_project,
    mc_inner_product,
    structural_zero,
    transport,
    wigner_entries,
)
from spinnet.blipweb import (
    build_phi,
    build_tassel,
    observation_one,
    observation_two,
    stabilized_inner_product,
    swap_signs,
    truncated_inner_product,
)
from spinnet.tensor_engine import GroupFactor

from helpers import (
    MOTIF_NAMES,
    brute_correspondence_count,
    figure8_network,
    haar_element,
    loop_network,
    mc_character_product,
    random_holonomies,
    random_network,
    reintertwine,
)


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {n}: FAIL")
                raise
            print(f"CRITERION {n}: PASS")
        return wrapper
    return deco


def spin_lists_up_to_dim(max_dim):
    """Sorted multisets of nontrivial doubled spins with product dim <= max_dim."""
    lists = []

    def rec(prefix, min_tj, dim):
        for tj in range(min_tj, 13):
            d = dim * (tj + 1)
            if d > max_dim:
                break
            lists.append(tuple(prefix + [tj]))
            rec(prefix + [tj], tj, d)

    rec([], 1, 1)
    return lists


# ---------------------------------------------------------------------------
# 1. character orthogonality, exact and Monte Carlo


@criterion(1)
def test_criterion_01_loop_orthogonality():
    reg = SegmentRegistry()
    reg.add_segment("s1", "P", "P")
    loops = {tj: loop_network(twice_j=tj, segment="s1", registry=reg)
             for tj in range(1, 7)}
    for tja, tjb in itertools.combinations_with_replacement(range(1, 7), 2):
        expect = 1.0 if tja == tjb else 0.0
        ex = exact_inner_product(loops[tja], loops[tjb])
        assert abs(ex - expect) <= 1e-10, (tja, tjb, ex)
        mean, se = mc_inner_product(loops[tja], loops[tjb], 1_000_000,
                                    seed=100 * tja + tjb)
        assert abs(mean - expect) <= 3 * se, (tja, tjb, mean, se)


# ---------------------------------------------------------------------------
# 2. Haar projector laws on every spin list of total dimension <= 64


def _projector(tjs):
    factors = tuple(
        GroupFactor(variable="g", spin=Spin(tj), conjugated=False,
                    inverted=False, row_leg=f"r{k}", col_leg=f"c{k}")
        for k, tj in enumerate(tjs)
    )
    return haar_project(factors).data


@criterion(2)
def test_criterion_02_haar_projector_suite():
    lists = spin_lists_up_to_dim(64)
    assert len(lists) == 113
    rng = np.random.default_rng(2024)
    for tjs in lists:
        d = int(np.prod([tj + 1 for tj in tjs]))
        mat = _projector(tjs).reshape(d, d)
        assert np.allclose(mat @ mat, mat, atol=1e-9), tjs
        for _ in range(20):
            g = haar_element(rng)
            rep = np.eye(1)
            for tj in tjs:
                rep = np.kron(rep, wigner_entries(tj, g.as_array()))
            assert np.allclose(rep @ mat, mat, atol=1e-9), tjs
        trace = np.trace(mat)
        rank = int(round(trace.real))
        assert abs(trace - rank) < 1e-6, tjs
        est, se = mc_character_product(tjs, 40_000, seed=sum(tjs) * 1000 + len(tjs))
        if se > 0:
            assert abs(est - rank) <= 3 * se, (tjs, est, rank, se)
        else:
            assert abs(est - rank) < 1e-12, (tjs, est, rank)
    # the sorted multisets above cover ordered lists: permuting the factors
    # permutes the projector axes
    for tjs, perm in (((1, 2), (1, 0)), ((1, 1, 2), (2, 0, 1)), ((1, 2, 3), (1, 2, 0))):
        p = _projector(tjs)
        q = _projector(tuple(tjs[i] for i in perm))
        axes = list(perm) + [len(tjs) + i for i in perm]
        assert np.allclose(q, p.transpose(axes), atol=1e-12), (tjs, perm)


# ---------------------------------------------------------------------------
# 3. states on distinct graphs are orthogonal, structurally and numerically


@criterion(3)
def test_criterion_03_distinct_graphs_vanish():
    rng = np.random.default_rng(20240311)
    pairs = list(itertools.combinations(MOTIF_NAMES, 2))
    for k in range(100):
        ma, mb = pairs[k % len(pairs)]
        reg = SegmentRegistry()
        a = random_network(rng, motif=ma, registry=reg)
        b = random_network(rng, motif=mb, registry=reg)
        assert structural_zero(a, b), (ma, mb)
        assert exact_inner_product(a, b) == 0, (ma, mb)
        mean, se = mc_inner_product(a, b, 5000, seed=3000 + k)
        assert abs(mean) <= 3 * se, (ma, mb, mean, se)


# ---------------------------------------------------------------------------
# 4. averaged Gram matrices are Hermitian and positive semidefinite


@criterion(4)
def test_criterion_04_averaged_gram_psd():
    rng = np.random.default_rng(512)
    for k in range(50):
        reg = SegmentRegistry()
        base = random_network(rng, motif=MOTIF_NAMES[k % 5], registry=reg)
        family = [base, reintertwine(rng, base),
                  random_network(rng, motif=MOTIF_NAMES[(k + 1) % 5], registry=reg)]
        g = averaged_gram([[(1.0, s)] for s in family])
        assert np.allclose(g, g.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(g).min() >= -1e-9


# ---------------------------------------------------------------------------
# 5. transported states are null directions of the averaged pairing


@criterion(5)
def test_criterion_05_null_differences():
    rng = np.random.default_rng(901)
    for k in range(20):
        reg = SegmentRegistry()
        phi = random_network(rng, motif=MOTIF_NAMES[k % 5], registry=reg)
        dec = decompose(phi.graph)
        cors = enumerate_correspondences(dec, dec)
        moved = transport(phi, cors[rng.integers(len(cors))])
        g = averaged_gram([[(1.0, phi), (-1.0, moved)]])
        assert abs(g[0, 0]) <= 1e-9, (k, g[0, 0])


# ---------------------------------------------------------------------------
# 6. group sum identity: sum_ij <g_i phi, g_j phi> = n * <<phi, phi>>


@criterion(6)
def test_criterion_06_group_sum_identity():
    rng = np.random.default_rng(333)
    motifs = ("theta", "figure8", "twogon", "dumbbell")
    for k in range(20):
        reg = SegmentRegistry()
        phi = random_network(rng, motif=motifs[k % 4], registry=reg)
        dec = decompose(phi.graph)
        moved = [transport(phi, c) for c in enumerate_correspondences(dec, dec)]
        total = sum(exact_inner_product(x, y) for x in moved for y in moved)
        avg = averaged_inner_product(phi, phi)
        assert abs(total - len(moved) * avg) <= 1e-9, (k, total, avg)


# ---------------------------------------------------------------------------
# 7. correspondence enumeration against a brute-force oracle


@criterion(7)
def test_criterion_07_enumeration_matches_brute_force():
    reg2 = SegmentRegistry()
    reg2.add_segment("s1", "P", "P")
    reg2.add_segment("s2", "Q", "Q")
    reg3 = SegmentRegistry()
    for sid in ("a1", "a2", "a3"):
        reg3.add_segment(sid, f"V{sid}", f"V{sid}")
    regd = SegmentRegistry()
    regd.add_segment("dl", "P", "P")
    regd.add_segment("dm", "P", "Q")
    regd.add_segment("dr", "Q", "Q")
    regmix = SegmentRegistry()
    for sid in ("u1", "u2", "u3"):
        regmix.add_segment(sid, "X", "Y")
    regmix.add_segment("far", "W", "W")
    regchain = SegmentRegistry()
    regchain.add_segment("c1", "A", "B")
    regchain.add_segment("c2", "B", "C")
    regchain.add_segment("hk", "A", "A")
    regchain.add_segment("hk2", "C", "C")
    zoo = [
        decompose(reg2.graph(["s1"])),
        decompose(reg2.graph(["s1", "s2"])),
        decompose(reg3.graph(["a1", "a2", "a3"])),
        decompose(regmix.graph(["u1", "u2", "u3"])),
        decompose(regmix.graph(["u1", "u2", "u3", "far"])),
        decompose(figure8_network().graph),
        decompose(regd.graph(["dl", "dm", "dr"])),
        decompose(regchain.graph(["c1", "c2", "hk", "hk2"])),
    ]
    for d1 in zoo:
        for d2 in zoo:
            for op_only in (False, True):
                got = len(enumerate_correspondences(d1, d2, op_only))
                want = brute_correspondence_count(d1, d2, op_only)
                assert got == want, (d1, d2, op_only, got, want)


# ---------------------------------------------------------------------------
# 8. first web observable: the cross overlap is nonzero and stable


@criterion(8)
def test_criterion_08_web_cross_overlap():
    for i0 in (-1, 1):
        v2 = observation_one(2, i0)
        assert abs(v2) > 1e-6, (i0, v2)
        assert abs(v2 - 1.0 / 64.0) <= 1e-12, (i0, v2)
        v4 = observation_one(4, i0)
        assert abs(v4 - v2) <= 1e-9, (i0, v2, v4)
    psi = build_tassel(2).network
    phi = build_phi(2, -1).network
    ex = exact_inner_product(psi, phi)
    assert abs(ex - 1.0 / 48.0) <= 1e-12, ex
    mean, se = mc_inner_product(psi, phi, 1_000_000, seed=42)
    assert abs(mean - ex) <= 4 * se, (ex, mean, se)


# ---------------------------------------------------------------------------
# 9. second web observable: overlaps with translates are nonzero but not unity


@criterion(9)
def test_criterion_09_web_translate_overlaps():
    psi = build_tassel(2)
    for i in (-1, 0, 1):
        overlap = observation_two(2, i)
        assert abs(overlap) > 1e-6, (i, overlap)
        assert abs(overlap - 1.0 / 128.0) <= 1e-12, (i, overlap)
        moved = swap_signs(psi, i)
        norm2 = (stabilized_inner_product(psi, psi)
                 - 2 * stabilized_inner_product(psi, moved).real
                 + stabilized_inner_product(moved, moved))
        assert abs(norm2 - 7.0 / 64.0) <= 1e-12, (i, norm2)
        assert norm2.real > 1e-6
        bare = (truncated_inner_product(psi, psi)
                - 2 * truncated_inner_product(psi, moved).real
                + truncated_inner_product(moved, moved))
        assert bare.real > 1e-6, (i, bare)


# ---------------------------------------------------------------------------
# 10. exact and Monte Carlo inner products agree on random same-graph pairs


@criterion(10)
def test_criterion_10_exact_vs_mc():
    rng = np.random.default_rng(77)
    for k in range(50):
        reg = SegmentRegistry()
        a = random_network(rng, motif=MOTIF_NAMES[k % 5], registry=reg)
        b = reintertwine(rng, a)
        ex = exact_inner_product(a, b)
        mean, se = mc_inner_product(a, b, 20_000, seed=500 + k)
        assert abs(mean - ex) <= 4 * max(se, 1e-12), (k, ex, mean, se)


# ---------------------------------------------------------------------------
# 11. canonicalization preserves evaluation


@criterion(11)
def test_criterion_11_canonicalization_preserves_value():
    rng = np.random.default_rng(4242)
    for k in range(50):
        net = random_network(rng, motif=MOTIF_NAMES[k % 5])
        canon = canonicalize(net)
        for _ in range(50):
            h = random_holonomies(rng, net)
            assert abs(evaluate(net, h) - evaluate(canon, h)) <= 1e-10


# ---------------------------------------------------------------------------
# 12. averaged loop norm and its two-class enumeration


@criterion(12)
def test_criterion_12_averaged_loop_norm():
    loop = loop_network(twice_j=1)
    both = averaged_inner_product(loop, loop)
    assert abs(both - 2.0) <= 1e-10, both
    preserving = averaged_inner_product(loop, loop, orientation_preserving_only=True)
    assert abs(preserving - 1.0) <= 1e-10, preserving
    dec = decompose(loop.graph)
    assert len(enumerate_correspondences(dec, dec)) == 2
    assert len(enumerate_correspondences(dec, dec, True)) == 1
