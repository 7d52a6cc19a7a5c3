"""Registries, embedded graphs, decomposition into points/intervals/circles,
refinement, and the canonical form rewrite."""

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import (
    Spin,
    Intertwiner,
    InvalidNetworkError,
    SegmentRegistry,
    EmbeddedGraph,
    Edge,
    SpinNetwork,
    network,
    decompose,
    common_refinement,
    canonicalize,
    intertwiner_basis,
    evaluate,
    epsilon,
)
from spinnet.rep_core import MAX_TWICE_J, _dualized
from helpers import (
    loop_network,
    theta_network,
    figure8_network,
    dumbbell_registry,
    random_holonomies,
    random_network,
    naive_evaluate,
    reintertwine,
)


HALF = Spin(1)
ONE = Spin(2)


def identity_marker(spin):
    return Intertwiner(((spin, "out"), (spin, "in")), np.eye(spin.dim, dtype=complex))


# ---------------------------------------------------------------------------
# registry and graph

def test_registry_basics():
    reg = SegmentRegistry()
    reg.add_point("P")
    reg.add_point("P")  # idempotent
    reg.add_segment("s", "P", "Q")
    assert "s" in reg and "t" not in reg
    assert reg.endpoints("s") == ("P", "Q")
    assert reg.points >= {"P", "Q"}
    with pytest.raises(InvalidNetworkError):
        reg.add_segment("s", "P", "Q")
    with pytest.raises(InvalidNetworkError):
        reg.endpoints("missing")


def test_registry_equality_by_content():
    a, b = SegmentRegistry(), SegmentRegistry()
    for reg in (a, b):
        reg.add_segment("s", "P", "Q")
    assert a == b
    b.add_segment("t", "Q", "Q")
    assert a != b


def test_graph_membership_and_degree():
    reg = SegmentRegistry()
    reg.add_segment("loop", "P", "P")
    reg.add_segment("stick", "P", "Q")
    g = reg.graph(["loop", "stick"])
    assert g.degree("P") == 3  # the loop contributes both of its ends
    assert g.degree("Q") == 1
    assert g.points() == frozenset({"P", "Q"})
    with pytest.raises(InvalidNetworkError):
        EmbeddedGraph(reg, frozenset({"ghost"}))


# ---------------------------------------------------------------------------
# network validation

def test_edge_validation():
    with pytest.raises(InvalidNetworkError):
        Edge("e", (), "P", "P", HALF)
    with pytest.raises(InvalidNetworkError):
        Edge("e", (("s", False),), "P", "P", 1)


def test_network_rejects_trivial_spin():
    reg = SegmentRegistry()
    reg.add_segment("s", "P", "P")
    marker = Intertwiner(((Spin(0), "out"), (Spin(0), "in")), np.ones((1, 1)))
    with pytest.raises(InvalidNetworkError):
        network(reg, [Edge("e", (("s", False),), "P", "P", Spin(0))], {"P": marker})


def test_network_rejects_duplicate_edge_ids():
    reg = SegmentRegistry()
    reg.add_segment("a", "P", "P")
    reg.add_segment("b", "P", "P")
    edges = [
        Edge("e", (("a", False),), "P", "P", HALF),
        Edge("e", (("b", False),), "P", "P", HALF),
    ]
    legs = ((HALF, "out"), (HALF, "in")) * 2
    with pytest.raises(InvalidNetworkError):
        network(reg, edges, {"P": Intertwiner(legs, np.zeros((2, 2, 2, 2)))})


def test_network_rejects_disconnected_word():
    reg = SegmentRegistry()
    reg.add_segment("a", "P", "Q")
    reg.add_segment("b", "R", "S")
    with pytest.raises(InvalidNetworkError):
        network(
            reg,
            [Edge("e", (("a", False), ("b", False)), "P", "S", HALF)],
            {},
        )


def test_network_rejects_word_target_mismatch():
    reg = SegmentRegistry()
    reg.add_segment("a", "P", "Q")
    with pytest.raises(InvalidNetworkError):
        network(reg, [Edge("e", (("a", False),), "P", "P", HALF)], {})


def test_network_rejects_wrong_intertwiner_legs():
    reg = SegmentRegistry()
    reg.add_segment("s", "P", "P")
    bad = Intertwiner(((ONE, "out"), (ONE, "in")), np.eye(3))
    with pytest.raises(InvalidNetworkError):
        network(reg, [Edge("e", (("s", False),), "P", "P", HALF)], {"P": bad})


def test_network_rejects_stray_vertex_label():
    reg = SegmentRegistry()
    reg.add_segment("s", "P", "P")
    reg.add_point("Z")
    vertices = {"P": identity_marker(HALF), "Z": identity_marker(HALF)}
    with pytest.raises(InvalidNetworkError):
        network(reg, [Edge("e", (("s", False),), "P", "P", HALF)], vertices)


def test_network_rejects_non_intertwiner_label():
    reg = SegmentRegistry()
    reg.add_segment("s", "P", "P")
    with pytest.raises(InvalidNetworkError):
        network(reg, [Edge("e", (("s", False),), "P", "P", HALF)], {"P": np.eye(2)})


def test_vertex_slot_order_scans_edges():
    """Slots appear edge by edge: out at the source, then in at the target."""
    reg = dumbbell_registry()
    edges = [
        Edge("l", (("dl", False),), "P", "P", HALF),
        Edge("m", (("dm", False),), "P", "Q", ONE),
        Edge("r", (("dr", False),), "Q", "Q", HALF),
    ]
    vp = intertwiner_basis(((HALF, "out"), (HALF, "in"), (ONE, "out")))[0]
    vq = intertwiner_basis(((ONE, "in"), (HALF, "out"), (HALF, "in")))[0]
    n = network(reg, edges, {"P": vp, "Q": vq})
    assert n.vertex_slots("P") == (
        ("l", "out", HALF),
        ("l", "in", HALF),
        ("m", "out", ONE),
    )
    assert n.vertex_slots("Q") == (
        ("m", "in", ONE),
        ("r", "out", HALF),
        ("r", "in", HALF),
    )


def test_segment_multiplicity_and_embeddedness():
    n = loop_network(1)
    assert n.is_embedded
    assert n.segment_multiplicity()["s1"] == 1

    reg = SegmentRegistry()
    reg.add_segment("s", "P", "P")
    legs = ((HALF, "out"), (HALF, "in")) * 2
    basis = intertwiner_basis(legs)
    shared = network(
        reg,
        [
            Edge("e1", (("s", False),), "P", "P", HALF),
            Edge("e2", (("s", False),), "P", "P", HALF),
        ],
        {"P": basis[0]},
    )
    assert not shared.is_embedded
    assert shared.segment_multiplicity()["s"] == 2


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_lone_circle():
    n = loop_network(1)
    d = decompose(n.graph)
    assert d.points == ()
    assert d.intervals == ()
    assert len(d.circles) == 1
    assert d.circles[0].steps == (("s1", False),)
    assert d.circles[0].basepoint == "P"


def test_decompose_theta():
    n = theta_network((1, 1, 2))
    d = decompose(n.graph)
    assert set(d.points) == {"X", "Y"}
    assert len(d.intervals) == 3 and not d.circles
    for iv in d.intervals:
        assert len(iv.steps) == 1 and iv.steps[0][1] is False
        assert (iv.start, iv.end) == ("X", "Y")


def test_decompose_chain_merges_bivalent_points():
    reg = SegmentRegistry()
    reg.add_segment("c1", "A", "B")
    reg.add_segment("c2", "B", "C")
    reg.add_segment("hook", "A", "A")
    reg.add_segment("hook2", "C", "C")
    d = decompose(reg.graph(["c1", "c2", "hook", "hook2"]))
    chains = [iv for iv in d.intervals if len(iv.steps) == 2]
    assert len(chains) == 1
    iv = chains[0]
    assert iv.steps == (("c1", False), ("c2", False))
    assert (iv.start, iv.end) == ("A", "C")


def test_decompose_orients_along_least_segment():
    """The chain is oriented so that its least segment id runs forward:
    here C -> B -> A, where za (B -> A) is traversed forward."""
    reg = SegmentRegistry()
    reg.add_segment("zb", "C", "B")
    reg.add_segment("za", "B", "A")
    reg.add_segment("hook", "A", "A")
    reg.add_segment("hook2", "C", "C")
    d = decompose(reg.graph(["za", "zb", "hook", "hook2"]))
    iv = [p for p in d.intervals if len(p.steps) == 2][0]
    assert iv.steps == (("zb", False), ("za", False))
    assert (iv.start, iv.end) == ("C", "A")


def test_decompose_two_step_circle():
    reg = SegmentRegistry()
    reg.add_segment("r1", "P", "Q")
    reg.add_segment("r2", "Q", "P")
    d = decompose(reg.graph(["r1", "r2"]))
    assert not d.points and not d.intervals
    (c,) = d.circles
    assert c.steps == (("r1", False), ("r2", False))
    assert c.basepoint == "P"


def test_decompose_figure8_gives_two_loop_intervals():
    n = figure8_network()
    d = decompose(n.graph)
    assert set(d.points) == {"O"}
    assert len(d.intervals) == 2 and not d.circles
    for iv in d.intervals:
        assert (iv.start, iv.end) == ("O", "O")


def test_decompose_disjoint_union():
    reg = SegmentRegistry()
    for sid in ("u1", "u2", "u3"):
        reg.add_segment(sid, "X", "Y")
    reg.add_segment("far", "W", "W")
    d = decompose(reg.graph(["u1", "u2", "u3", "far"]))
    assert set(d.points) == {"X", "Y"}
    assert len(d.intervals) == 3
    assert len(d.circles) == 1


def _random_registry(rng):
    """Random loops, chains through fresh bivalent points and free circles on
    up to five shared points; segment and point ids mix ``int`` and ``str``."""
    def name(k, prefix):
        return k if rng.random() < 0.4 else f"{prefix}{k}"

    reg = SegmentRegistry()
    hubs = [name(k, "P") for k in range(int(rng.integers(1, 6)))]
    count = 0
    for piece in range(int(rng.integers(1, 7))):
        kind = rng.random()
        if kind < 0.4:
            path = [hubs[rng.integers(len(hubs))], hubs[rng.integers(len(hubs))]]
        elif kind < 0.8:
            mids = [f"m{piece}.{i}" for i in range(int(rng.integers(1, 4)))]
            path = [hubs[rng.integers(len(hubs))], *mids, hubs[rng.integers(len(hubs))]]
        else:
            ring = [f"c{piece}.{i}" for i in range(int(rng.integers(1, 4)))]
            path = ring + ring[:1]
        for a, b in zip(path, path[1:]):
            if rng.random() < 0.5:
                a, b = b, a
            reg.add_segment(name(count, "s"), a, b)
            count += 1
    return reg


def test_decompose_presentation_on_random_registries():
    key = str  # the documented order of ids: 10 before 2 before "s1"
    rng = np.random.default_rng(8)
    for _ in range(300):
        reg = _random_registry(rng)
        g = reg.graph(reg.segment_ids)
        d = decompose(g)
        assert list(d.points) == sorted((p for p in g.points() if g.degree(p) != 2), key=key)
        pieces = d.intervals + d.circles
        seen = [s for piece in pieces for s, _ in piece.steps]
        assert sorted(seen, key=key) == sorted(g.segments, key=key)
        for piece in pieces:
            ends = [reg.endpoints(s)[::-1] if r else reg.endpoints(s) for s, r in piece.steps]
            for (_, b), (a, _) in zip(ends, ends[1:]):
                assert a == b and g.degree(a) == 2
            least = min((s for s, _ in piece.steps), key=key)
            assert dict(piece.steps)[least] is False
            if piece in d.intervals:
                assert (ends[0][0], ends[-1][1]) == (piece.start, piece.end)
                assert g.degree(piece.start) != 2 and g.degree(piece.end) != 2
            else:
                assert piece.steps[0][0] == least
                assert ends[0][0] == ends[-1][1] == piece.basepoint
                assert piece.basepoint == reg.endpoints(least)[0]
        for group in (d.intervals, d.circles):
            leasts = [key(min((s for s, _ in p.steps), key=key)) for p in group]
            assert leasts == sorted(leasts)


def test_network_hash_covers_intertwiners():
    """Networks differing only in their intertwiners hash apart, and equal
    networks hash equal, also when their components differ only in the sign
    of zeros."""
    rng = np.random.default_rng(51)
    theta = theta_network((2, 2, 2))
    variants = [reintertwine(rng, theta) for _ in range(50)]
    assert len(set(variants)) == 50
    assert len({hash(n) for n in variants}) == 50

    negative_zero = complex(-0.0, -0.0)
    flipped = network(theta.graph.registry, list(theta.edges), {
        v: Intertwiner(iv.leg_spins, np.where(iv.components == 0, negative_zero, iv.components))
        for v, iv in theta.vertices.items()})
    before, after = theta.vertices["X"].components, flipped.vertices["X"].components
    assert (np.signbit(before.real) != np.signbit(after.real)).any()
    assert flipped == theta and hash(flipped) == hash(theta)


# ---------------------------------------------------------------------------
# refinement

def test_common_refinement_requires_shared_registry():
    a = loop_network(1)
    b = loop_network(1)
    # registries compare by content, so two identical builds are compatible
    common_refinement(a, b)
    regc = SegmentRegistry()
    regc.add_segment("other", "P", "P")
    c = loop_network(1, segment="other", registry=regc)
    with pytest.raises(InvalidNetworkError):
        common_refinement(a, c)


def test_common_refinement_preserves_value():
    """Pieces of a split edge are named ``<id>#<k>``, with a ``#`` prefixed
    until the name is free: beside edges ``e#0`` and ``#e#0``, the pieces of
    ``e`` are ``##e#0`` and ``e#1``."""
    rng = np.random.default_rng(31)
    reg = SegmentRegistry()
    reg.add_segment("c1", "A", "B")
    reg.add_segment("c2", "B", "A")
    reg.add_segment("d1", "C", "C")
    reg.add_segment("d2", "E", "E")
    marker = identity_marker(ONE)
    n = network(
        reg,
        [Edge("e", (("c1", False), ("c2", False)), "A", "A", ONE),
         Edge("e#0", (("d1", False),), "C", "C", ONE),
         Edge("#e#0", (("d2", False),), "E", "E", ONE)],
        {"A": marker, "C": marker, "E": marker},
    )
    ref, _ = common_refinement(n, n)
    assert all(len(e.word) == 1 for e in ref.edges)
    ids = [e.id for e in ref.edges]
    assert sorted(ids) == sorted(["##e#0", "e#1", "e#0", "#e#0"])
    for _ in range(5):
        h = random_holonomies(rng, n)
        npt.assert_allclose(evaluate(ref, h), evaluate(n, h), atol=1e-12)


# ---------------------------------------------------------------------------
# canonical form

def subdivided_loop(lam1=1.0, lam2=1.0):
    """A circle cut into three segments with two non-trivial bivalent scalars."""
    reg = SegmentRegistry()
    reg.add_segment("t1", "P", "Q")
    reg.add_segment("t2", "Q", "R")
    reg.add_segment("t3", "R", "P")
    edges = [
        Edge("e1", (("t1", False),), "P", "Q", ONE),
        Edge("e2", (("t2", False),), "Q", "R", ONE),
        Edge("e3", (("t3", False),), "R", "P", ONE),
    ]
    eye = np.eye(ONE.dim, dtype=complex)
    vertices = {
        "P": Intertwiner(((ONE, "out"), (ONE, "in")), eye),
        "Q": Intertwiner(((ONE, "in"), (ONE, "out")), lam1 * eye),
        "R": Intertwiner(((ONE, "in"), (ONE, "out")), lam2 * eye),
    }
    return network(reg, edges, vertices)


def test_canonicalize_merges_subdivided_loop():
    rng = np.random.default_rng(77)
    n = subdivided_loop(2.0, 0.5 + 0.5j)
    c = canonicalize(n)
    assert len(c.edges) == 1
    assert c.edges[0].word == (("t1", False), ("t2", False), ("t3", False))
    assert len(c.vertices) == 1
    for _ in range(5):
        h = random_holonomies(rng, n)
        npt.assert_allclose(evaluate(c, h), evaluate(n, h), atol=1e-12)
        npt.assert_allclose(evaluate(c, h), naive_evaluate(c, h), atol=1e-12)


def test_canonicalize_idempotent_bitwise():
    n = subdivided_loop(1.5, 1.0)
    once = canonicalize(n)
    twice = canonicalize(once)
    assert once == twice
    for e1, e2 in zip(once.edges, twice.edges):
        assert e1 == e2
    for v in once.vertices:
        assert np.array_equal(once.vertices[v].components, twice.vertices[v].components)


def test_canonicalize_orients_interval_edges():
    """A chain built against the canonical direction is reversed and merged."""
    reg = SegmentRegistry()
    reg.add_segment("zb", "C", "B")
    reg.add_segment("za", "B", "A")
    reg.add_segment("hook", "A", "A")
    reg.add_segment("hook2", "C", "C")
    one_eye = np.eye(ONE.dim, dtype=complex)
    edges = [
        Edge("k1", (("za", True),), "A", "B", ONE),
        Edge("k2", (("zb", True),), "B", "C", ONE),
        Edge("hk", (("hook", False),), "A", "A", HALF),
        Edge("hk2", (("hook2", False),), "C", "C", HALF),
    ]
    basis_a = intertwiner_basis(((ONE, "out"), (HALF, "out"), (HALF, "in")))
    basis_c = intertwiner_basis(((ONE, "in"), (HALF, "out"), (HALF, "in")))
    vertices = {
        "A": basis_a[0],
        "B": Intertwiner(((ONE, "in"), (ONE, "out")), one_eye),
        "C": basis_c[0],
    }
    n = network(reg, edges, vertices)
    rng = np.random.default_rng(13)
    c = canonicalize(n)
    merged = [e for e in c.edges if len(e.word) == 2]
    assert len(merged) == 1
    assert merged[0].word == (("zb", False), ("za", False))
    assert (merged[0].source, merged[0].target) == ("C", "A")
    for _ in range(5):
        h = random_holonomies(rng, n)
        npt.assert_allclose(evaluate(c, h), evaluate(n, h), atol=1e-11)


def test_canonicalize_with_edge_ids_colliding_with_segment_ids():
    """Canonical ids are segment ids, here also the ids of other edges: edge
    u2 runs on the chain u1.u1b, edge u1 on segment u3 and edge u3 on u2
    against its registry direction.  The chain's slots come first, so its
    canonical id u1 lands ahead of edge u1's own slots at X and Y."""
    reg = SegmentRegistry()
    reg.add_segment("u1", "X", "M")
    reg.add_segment("u1b", "M", "Y")
    reg.add_segment("u2", "X", "Y")
    reg.add_segment("u3", "X", "Y")
    edges = [
        Edge("u2", (("u1", False), ("u1b", False)), "X", "Y", ONE),
        Edge("u1", (("u3", False),), "X", "Y", HALF),
        Edge("u3", (("u2", True),), "Y", "X", HALF),
    ]
    vertices = {
        "X": intertwiner_basis(((ONE, "out"), (HALF, "out"), (HALF, "in")))[0],
        "Y": intertwiner_basis(((ONE, "in"), (HALF, "in"), (HALF, "out")))[0],
    }
    n = network(reg, edges, vertices)
    c = canonicalize(n)
    assert [(e.id, e.word, e.source, e.target, e.spin) for e in c.edges] == [
        ("u1", (("u1", False), ("u1b", False)), "X", "Y", ONE),
        ("u2", (("u2", False),), "X", "Y", HALF),
        ("u3", (("u3", False),), "X", "Y", HALF),
    ]
    rng = np.random.default_rng(29)
    for _ in range(5):
        h = random_holonomies(rng, n)
        npt.assert_allclose(evaluate(c, h), evaluate(n, h), atol=1e-12)
        npt.assert_allclose(evaluate(c, h), naive_evaluate(n, h), atol=1e-12)
    assert canonicalize(c) == c


def test_canonicalize_random_networks_preserve_value():
    rng = np.random.default_rng(101)
    for _ in range(6):
        n = random_network(rng)
        c = canonicalize(n)
        for _ in range(3):
            h = random_holonomies(rng, n)
            npt.assert_allclose(evaluate(c, h), evaluate(n, h), atol=1e-11)


def test_canonicalize_rejects_segment_reuse():
    reg = SegmentRegistry()
    reg.add_segment("s", "P", "P")
    legs = ((HALF, "out"), (HALF, "in")) * 2
    basis = intertwiner_basis(legs)
    shared = network(
        reg,
        [
            Edge("e1", (("s", False),), "P", "P", HALF),
            Edge("e2", (("s", False),), "P", "P", HALF),
        ],
        {"P": basis[0]},
    )
    with pytest.raises(InvalidNetworkError):
        canonicalize(shared)


def test_canonicalize_rejects_non_scalar_bivalent():
    n = subdivided_loop()
    bad = dict(n.vertices)
    bad["Q"] = Intertwiner(
        ((ONE, "in"), (ONE, "out")), np.diag([1.0, 0.0, 0.0]).astype(complex)
    )
    m = network(n.graph.registry, list(n.edges), bad)
    with pytest.raises(InvalidNetworkError):
        canonicalize(m)


def test_reversed_slot_absorbs_epsilon_on_either_direction():
    """Reversal rewrites an old "out" slot with eps and an old "in" slot with
    (eps^-1)^T; eps is a real signed permutation, so the two are equal for
    every spin the package builds, and one rewrite serves both directions."""
    rng = np.random.default_rng(14)
    for twice_j in range(MAX_TWICE_J + 1):
        eps = epsilon(Spin(twice_j))
        npt.assert_array_equal(np.linalg.inv(eps).T, eps)
        d = twice_j + 1
        comps = rng.standard_normal((2, d, 3)) + 1j * rng.standard_normal((2, d, 3))
        npt.assert_array_equal(_dualized(comps, 1, twice_j),
                               np.einsum("ab,xby->xay", eps, comps))
