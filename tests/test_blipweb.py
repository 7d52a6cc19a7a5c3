"""Four-curve web states on the blip ladder: combinatorics, transfer
contraction values, window stabilization, and the embedded geometry."""

import csv
import itertools
import sys

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import (
    GroupElement,
    evaluate,
    exact_inner_product,
    mc_inner_product,
    ToleranceError,
    BlipAlphabet,
    CurveWord,
    build_tassel,
    build_phi,
    swap_signs,
    truncated_inner_product,
    stabilized_inner_product,
    observation_one,
    observation_two,
    emit_geometry,
    write_curves_csv,
)
from spinnet import blipweb, tensor_engine
from spinnet.blipweb import (junction, bump, blip_amplitude, BumpCurve, PLUS, MINUS,
                             _HALF, _boundary_weights, _column_basis)
from spinnet.tensor_engine import GroupFactor, haar_project

from helpers import csv_writer_curves, reference_transfer_value


# ---------------------------------------------------------------------------
# combinatorial layer

def test_alphabet_layout():
    a = BlipAlphabet(2)
    assert list(a.indices) == [-2, -1, 0, 1]
    assert a.point_id(0) == "x0"
    assert a.segment_id(-2, "+") == "b-2+"
    reg = a.registry()
    assert "b1-" in reg and "b-2+" in reg
    assert reg.endpoints("b0+") == ("x0", "x1")
    with pytest.raises(ValueError):
        a.segment_id(2, "+")
    with pytest.raises(ValueError):
        a.segment_id(0, "0")
    with pytest.raises(ValueError):
        BlipAlphabet(0)


def test_curve_word_validation_and_edits():
    w = CurveWord(2, ("+", "+", "-", "+"))
    assert w.sign(-2) == "+" and w.sign(0) == "-"
    flipped = w.flipped_at(0)
    assert flipped.sign(0) == "+" and flipped.sign(1) == "+"
    replaced = w.with_sign(1, "-")
    assert replaced.sign(1) == "-"
    with pytest.raises(ValueError):
        CurveWord(2, ("+", "+"))
    with pytest.raises(ValueError):
        CurveWord(1, ("+", "x"))
    with pytest.raises(ValueError):
        w.sign(2)


def test_reference_state_words():
    psi = build_tassel(2)
    c1, c2, c3, c4 = psi.curves
    assert c1.signs == ("+",) * 4
    assert c2.signs == ("-",) * 4
    # sign alternates with column parity: even columns plus on curve 3
    assert c3.signs == ("+", "-", "+", "-")
    assert c4.signs == ("-", "+", "-", "+")
    assert psi.truncation == 2


def test_reroute_moves_two_curves():
    phi = build_phi(2, 1)
    c1, c2, c3, c4 = phi.curves
    assert c2.sign(1) == "+" and c3.sign(1) == "+"
    # all other columns match the reference state
    psi = build_tassel(2)
    for i in (-2, -1, 0):
        assert c2.sign(i) == psi.curves[1].sign(i)
        assert c3.sign(i) == psi.curves[2].sign(i)
    assert c1.signs == psi.curves[0].signs
    assert c4.signs == psi.curves[3].signs


def test_reroute_leaves_one_arc_unused():
    phi = build_phi(2, 1)
    used = {s for w in phi.curves for s in w.segment_ids(phi.alphabet)}
    assert "b1-" not in used
    psi = build_tassel(2)
    used_psi = {s for w in psi.curves for s in w.segment_ids(psi.alphabet)}
    assert "b1-" in used_psi
    # so the two supports differ as embedded graphs
    assert phi.network.graph.segments != psi.network.graph.segments


def test_build_phi_validation():
    with pytest.raises(ValueError):
        build_phi(2, 0)
    with pytest.raises(ValueError):
        build_phi(2, 3)
    build_phi(2, -1)


def test_swap_signs_is_an_involution():
    psi = build_tassel(2)
    g = swap_signs(psi, 0)
    assert g.curves[0].sign(0) == "-"
    assert g.curves[1].sign(0) == "+"
    back = swap_signs(g, 0)
    assert [w.signs for w in back.curves] == [w.signs for w in psi.curves]


def test_web_network_is_not_embedded():
    psi = build_tassel(1)
    assert not psi.network.is_embedded
    # curves 1 and 3 share the plus arc at column 0
    assert psi.network.segment_multiplicity()["b0+"] == 2


def test_curve_words_pairwise_distinct():
    for n in range(1, 6):
        assert len({w.signs for w in build_tassel(n).curves}) == 4, n
    for n in range(2, 6):
        for i0 in range(-n, n):
            if i0 % 2 == 0:
                continue
            assert len({w.signs for w in build_phi(n, i0).curves}) == 4, (n, i0)
    # at the narrowest window the reroute fills every column, so the four
    # rerouted words collapse onto two; they differ only outside the window
    assert len({w.signs for w in build_phi(1, -1).curves}) == 2


# ---------------------------------------------------------------------------
# frozen transfer values

def frac(num, den):
    return num / den


def test_truncated_norm_sequence():
    values = {1: frac(1, 12), 2: frac(7, 108), 3: frac(61, 972)}
    for n, want in values.items():
        psi = build_tassel(n)
        npt.assert_allclose(truncated_inner_product(psi, psi), want, atol=1e-13)


def test_truncated_cross_values():
    cases = [
        (2, -1, frac(1, 48)),
        (2, 1, frac(1, 72)),
        (3, -1, frac(7, 432)),
        (3, 1, frac(7, 432)),
        (4, -1, frac(61, 3888)),
    ]
    for n, i0, want in cases:
        got = truncated_inner_product(build_tassel(n), build_phi(n, i0))
        npt.assert_allclose(got, want, atol=1e-13)


def test_truncated_swap_values():
    psi = build_tassel(2)
    for i in (-2, -1, 0, 1):
        g = swap_signs(psi, i)
        npt.assert_allclose(truncated_inner_product(psi, g), frac(1, 27), atol=1e-13)
        dist2 = (
            truncated_inner_product(psi, psi).real
            + truncated_inner_product(g, g).real
            - 2 * truncated_inner_product(psi, g).real
        )
        npt.assert_allclose(dist2, frac(1, 18), atol=1e-13)


def test_stabilized_values_window_independent():
    for n in (1, 2, 3):
        psi = build_tassel(n)
        npt.assert_allclose(stabilized_inner_product(psi, psi), frac(1, 16), atol=1e-12)
    for n, i0 in ((2, -1), (2, 1), (3, -1), (4, 3)):
        got = stabilized_inner_product(build_tassel(n), build_phi(n, i0))
        npt.assert_allclose(got, frac(1, 64), atol=1e-12)
    phi = build_phi(2, 1)
    npt.assert_allclose(stabilized_inner_product(phi, phi), frac(1, 16), atol=1e-12)


def test_stabilized_swap_values():
    psi = build_tassel(2)
    for i in (-2, 0, 1):
        g = swap_signs(psi, i)
        npt.assert_allclose(stabilized_inner_product(psi, g), frac(1, 128), atol=1e-12)
        npt.assert_allclose(stabilized_inner_product(g, g), frac(1, 16), atol=1e-12)
        dist2 = (
            stabilized_inner_product(psi, psi).real
            + stabilized_inner_product(g, g).real
            - 2 * stabilized_inner_product(psi, g).real
        )
        npt.assert_allclose(dist2, frac(7, 64), atol=1e-12)


def test_stabilized_distance_to_reroute():
    psi = build_tassel(2)
    phi = build_phi(2, 1)
    dist2 = (
        stabilized_inner_product(psi, psi).real
        + stabilized_inner_product(phi, phi).real
        - 2 * stabilized_inner_product(psi, phi).real
    )
    npt.assert_allclose(dist2, frac(3, 32), atol=1e-12)


def _dense_column_operator(bra_signs, ket_signs):
    """Oracle: the column operator as a dense 256 x 256 matrix, the Kronecker
    product of each arc's dense Haar projector, transposed back into natural
    strand order (bra strands 0..3, ket strands 4..7)."""
    blocks, placed = [], []
    for sign in (PLUS, MINUS):
        strands = [k for k in range(4) if bra_signs[k] == sign]
        strands += [4 + k for k in range(4) if ket_signs[k] == sign]
        if not strands:
            continue
        factors = [GroupFactor("h", _HALF, conjugated=st < 4, inverted=False,
                               row_leg=f"r{st}", col_leg=f"c{st}")
                   for st in strands]
        m = len(strands)
        blocks.append(haar_project(factors).data.reshape(2 ** m, 2 ** m))
        placed.extend(strands)
    op = blocks[0]
    for b in blocks[1:]:
        op = np.kron(op, b)
    perm = [placed.index(st) for st in range(8)]
    op = np.transpose(op.reshape((2,) * 16), perm + [8 + p for p in perm])
    return op.reshape(256, 256)


def _column_operator(bra_signs, ket_signs):
    q = _column_basis(bra_signs, ket_signs)
    return q.T @ q.conj()


SIGN_PATTERNS = list(itertools.product((PLUS, MINUS), repeat=4))


def test_column_basis_matches_dense_operator():
    zero_columns = 0
    for bra_signs in SIGN_PATTERNS:
        for ket_signs in SIGN_PATTERNS:
            q = _column_basis(bra_signs, ket_signs)
            assert q.shape[1] == 256
            op = _column_operator(bra_signs, ket_signs)
            npt.assert_allclose(op, _dense_column_operator(bra_signs, ket_signs),
                                rtol=0, atol=1e-14)
            # an odd number of spin-1/2 strands on an arc has no invariant
            if (bra_signs + ket_signs).count(PLUS) % 2:
                zero_columns += 1
                assert q.shape[0] == 0
                assert not np.any(op)
            else:
                assert q.shape[0] > 0
    assert zero_columns == 128


def test_stabilized_boundary_spans_joint_fixed_space():
    """The agreeing-column operators of the reference state alternate between
    two patterns.  Each fixes a 4-dimensional space; jointly they fix one
    direction, and the stabilized boundary vector spans it."""
    patterns = ((PLUS, MINUS, PLUS, MINUS), (PLUS, MINUS, MINUS, PLUS))
    ops = [_column_operator(s, s) for s in patterns]
    eye = np.eye(256)

    def fixed_dim(mat):
        return int(np.sum(np.linalg.svd(mat, compute_uv=False) < 1e-9))

    assert [fixed_dim(op - eye) for op in ops] == [4, 4]
    assert fixed_dim(np.vstack([op - eye for op in ops])) == 1
    v = _boundary_weights(True)
    assert np.linalg.norm(v) > 0.1
    for op in ops:
        npt.assert_allclose(op @ v, v, atol=1e-12)


def test_observations_use_no_dense_projector(monkeypatch):
    """The transfer columns come from the shared invariant basis alone: the
    observations hold with every dense ``haar_project`` disabled."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense Haar projector built")

    for name, module in list(sys.modules.items()):
        if name.startswith("spinnet") and hasattr(module, "haar_project"):
            monkeypatch.setattr(module, "haar_project", refuse)
    with pytest.raises(AssertionError):
        tensor_engine.haar_project([])
    _column_basis.cache_clear()
    npt.assert_allclose(observation_one(2, -1), frac(1, 64), atol=1e-12)
    npt.assert_allclose(observation_two(2, 0), frac(1, 128), atol=1e-12)
    info = _column_basis.cache_info()
    assert info.maxsize is not None
    assert 0 < info.currsize <= info.maxsize


def test_window_widening_extrapolates_to_stabilized_value():
    """On chains with a single geometric drift mode, Richardson
    extrapolation of the truncated values lands on the stabilized one."""
    bare = {
        n: truncated_inner_product(build_tassel(n), build_tassel(n)).real
        for n in (1, 2, 3)
    }
    for n in (1, 2):
        extrapolated = (9.0 * bare[n + 1] - bare[n]) / 8.0
        npt.assert_allclose(extrapolated, frac(1, 16), atol=1e-12)
    cross = {
        n: truncated_inner_product(build_tassel(n), build_phi(n, -1)).real
        for n in (2, 3, 4)
    }
    for n in (2, 3):
        extrapolated = (9.0 * cross[n + 1] - cross[n]) / 8.0
        npt.assert_allclose(extrapolated, frac(1, 64), atol=1e-12)


def test_transfer_agrees_with_generic_engine():
    for n in (1, 2):
        psi = build_tassel(n)
        phi = build_phi(n, -1)
        npt.assert_allclose(
            exact_inner_product(psi.network, psi.network),
            truncated_inner_product(psi, psi),
            atol=1e-12,
        )
        npt.assert_allclose(
            exact_inner_product(psi.network, phi.network),
            truncated_inner_product(psi, phi),
            atol=1e-12,
        )


def test_transfer_rejects_mismatched_windows():
    with pytest.raises(ValueError):
        truncated_inner_product(build_tassel(1), build_tassel(2))


def _random_words(rng, n):
    return tuple(CurveWord(n, tuple(rng.choice([PLUS, MINUS], size=2 * n)))
                 for _ in range(4))


def test_transfer_value_matches_the_forward_sweep():
    """The sweeps that meet at the first differing column agree with one
    forward sweep over the whole window to 1e-15, and equal it exactly when
    bra and ket agree on every column (they then meet at the last one)."""
    rng = np.random.default_rng(15)
    nonzero = 0
    for n in (1, 2, 3, 4):
        alphabet = BlipAlphabet(n)
        for _ in range(12):
            bra = _random_words(rng, n)
            # flip an even number of curves per column, so every column pairs
            flips = [rng.permutation([True, True, False, False] if rng.random() < 0.5
                                     else [False] * 4) for _ in range(2 * n)]
            paired = tuple(CurveWord(n, tuple(
                blipweb._FLIPPED[s] if flips[k][c] else s
                for k, s in enumerate(w.signs))) for c, w in enumerate(bra))
            for stabilized in (False, True):
                for ket in (bra, paired, _random_words(rng, n)):
                    got = blipweb._transfer_value(alphabet, bra, ket, stabilized)
                    want = reference_transfer_value(alphabet, bra, ket, stabilized)
                    if ket is bra:
                        assert got == want
                    assert abs(got - want) <= 1e-15, (n, stabilized, got, want)
                    nonzero += abs(want) > 1e-6
    assert nonzero >= 100


def test_web_evaluates_to_one_at_identity():
    psi = build_tassel(2)
    h = {sid: GroupElement.identity() for sid in psi.network.graph.segments}
    npt.assert_allclose(evaluate(psi.network, h), 1.0, atol=1e-12)


def test_truncated_value_confirmed_by_sampling():
    psi = build_tassel(1)
    mean, err = mc_inner_product(psi.network, psi.network, 100000, seed=5)
    assert abs(mean - frac(1, 12)) < 4 * err


def test_transfer_values_confirmed_by_sampling_at_scale():
    # one slow full-scale run per inner product kind (norm, reroute
    # overlap, swap overlap); several minutes of sampling
    cases = [
        (build_tassel(1), build_tassel(1), 31),
        (build_tassel(3), build_phi(3, -1), 32),
        (build_tassel(2), swap_signs(build_tassel(2), 0), 33),
    ]
    for bra, ket, seed in cases:
        exact = truncated_inner_product(bra, ket)
        mean, err = mc_inner_product(bra.network, ket.network, 1_000_000, seed=seed)
        assert abs(mean - exact) < 4 * err, (seed, exact, mean, err)


# ---------------------------------------------------------------------------
# the two observations

def test_observation_one_values():
    for i0 in (-1, 1):
        v = observation_one(2, i0)
        npt.assert_allclose(v, frac(1, 64), atol=1e-12)
        assert abs(v) > 1e-6


def test_observation_one_wider_window():
    npt.assert_allclose(observation_one(3, 1), frac(1, 64), atol=1e-12)


def test_observation_one_validation():
    with pytest.raises(ValueError):
        observation_one(2, 0)


def test_observation_two_values():
    for i in (-2, -1, 0, 1):
        v = observation_two(2, i)
        npt.assert_allclose(v, frac(1, 128), atol=1e-12)


def test_observations_equal_the_built_states_bit_for_bit():
    """Each observation is one column step on psi.psi's cached sweeps, which
    are the very vectors the general transfer builds for the same pair."""
    for n in range(1, 11):
        psi = build_tassel(n)
        for i0 in range(-n + 1 - n % 2, n, 2):
            want = stabilized_inner_product(psi, build_phi(n, i0))
            # observation_one reads the windows n and n + 2
            assert blipweb._reroute_overlap(n, i0) == want, (n, i0)
            if n <= 8:
                assert observation_one(n, i0) == want, (n, i0)
        if n <= 8:
            for i in range(-n, n):
                want = stabilized_inner_product(psi, swap_signs(psi, i))
                assert observation_two(n, i) == want, (n, i)
        assert blipweb._reference_environments(n).norm == \
            stabilized_inner_product(psi, psi).real


def test_observation_two_takes_linearly_many_column_steps(monkeypatch):
    """All 2N columns of observation_two cost one sweep each way over
    psi.psi, one step for its norm and two steps a column: 8N - 1 steps."""
    steps = []
    for name in ("_forward", "_backward"):
        step = getattr(blipweb, name)
        monkeypatch.setattr(blipweb, name, lambda *a, _step=step: steps.append(1) or _step(*a))
    counts = {}
    for n in (8, 16, 32):
        blipweb._reference_environments.cache_clear()
        steps.clear()
        for i in range(-n, n):
            observation_two(n, i)
        counts[n] = len(steps)
    assert counts == {8: 63, 16: 127, 32: 255}
    # a warm cache leaves two steps a column
    steps.clear()
    for i in range(-32, 32):
        observation_two(32, i)
    assert len(steps) == 128


def test_observations_refuse_a_truncation_over_the_limit():
    limit = blipweb._MAX_TRUNCATION
    for bad in (0, limit + 1):
        with pytest.raises(ValueError, match=f"between 1 and {limit}"):
            observation_one(bad, 1)
        with pytest.raises(ValueError, match=f"between 1 and {limit}"):
            observation_two(bad, 0)
    npt.assert_allclose(observation_one(limit, limit - 1), frac(1, 64), atol=1e-12)
    npt.assert_allclose(observation_two(limit, -limit), frac(1, 128), atol=1e-12)


def test_environment_cache_is_bounded():
    """16 KiB per unit of truncation; the bounded cache of the widest windows
    (observation_one reads N + 2) stays under 17.5 MB."""
    env = blipweb._reference_environments(3)
    assert sum(v.nbytes for v in env.forward + env.backward) == 3 * 16 * 1024
    assert not any(v.flags.writeable for v in env.forward + env.backward)
    maxsize = blipweb._reference_environments.cache_info().maxsize
    assert maxsize is not None
    assert maxsize * (blipweb._MAX_TRUNCATION + 2) * 16 * 1024 < 17.5e6


def test_observations_read_only_the_words(monkeypatch):
    """The observations build no network: with network construction refused
    they return, bit for bit, the stabilized products of the built states."""
    want_one = {(n, i0): stabilized_inner_product(build_tassel(n), build_phi(n, i0))
                for n in (1, 2, 3) for i0 in range(-n, n) if i0 % 2}
    want_two = {}
    for n in (1, 2, 3):
        psi = build_tassel(n)
        for i in range(-n, n):
            want_two[n, i] = stabilized_inner_product(psi, swap_signs(psi, i))

    def refused(*args, **kwargs):
        raise AssertionError("an observation built a network")

    monkeypatch.setattr(blipweb, "network", refused)
    with pytest.raises(AssertionError):
        build_tassel(2)
    assert {k: observation_one(*k) for k in want_one} == want_one
    assert {k: observation_two(*k) for k in want_two} == want_two
    with pytest.raises(ValueError, match="odd"):
        observation_one(2, 0)
    with pytest.raises(ValueError, match="outside"):
        observation_two(2, 2)


# ---------------------------------------------------------------------------
# geometry

def test_junction_positions():
    assert junction(0) == 0.5
    assert junction(1) == 0.75
    assert junction(-1) == 0.25
    assert junction(2) == 0.875
    assert junction(-2) == 0.125
    # accumulation towards the ends
    assert junction(-8) < 0.01 and junction(8) > 0.99


def test_bump_profile():
    assert bump(0.0) == 0.0 and bump(1.0) == 0.0
    npt.assert_allclose(bump(0.5), 1.0, atol=1e-15)
    assert bump(-0.2) == 0.0 and bump(1.3) == 0.0
    ts = np.linspace(0.05, 0.95, 19)
    vals = bump(ts)
    assert np.all(vals > 0)
    npt.assert_allclose(vals, vals[::-1], atol=1e-12)  # symmetric about 1/2


def test_blip_amplitudes():
    npt.assert_allclose(blip_amplitude(1), 1.0 / 16.0)
    npt.assert_allclose(blip_amplitude(-1), 1.0 / 16.0)
    npt.assert_allclose(blip_amplitude(2), 2.0 ** -16)
    assert blip_amplitude(5) > 0.0


def test_emit_geometry_shapes():
    curves = emit_geometry(2)
    assert [c.curve_id for c in curves] == ["c1", "c2", "c3", "c4"]
    for c in curves:
        # one sample row per arc point plus closing points at both ends
        assert len(c.xs) == 1 + 4 * 64 + 2
        assert (c.xs[0], c.ys[0]) == (0.0, 0.0)
        assert (c.xs[-1], c.ys[-1]) == (1.0, 0.0)
        assert np.all(np.diff(c.xs) >= 0)
    plus, minus = curves[0], curves[1]
    assert np.all(plus.ys >= 0) and plus.ys.max() > 0
    assert np.all(minus.ys <= 0) and minus.ys.min() < 0
    # the alternating curves take both signs
    assert curves[2].ys.min() < 0 < curves[2].ys.max()


def test_emit_geometry_pins_junction_heights():
    curves = emit_geometry(1, resolution=16)
    c1 = curves[0]
    for i in (-1, 0, 1):
        at = np.isclose(c1.xs, junction(i))
        assert np.all(np.abs(c1.ys[at]) < 1e-300)


def test_emit_geometry_guards():
    with pytest.raises(ValueError):
        emit_geometry(6)
    with pytest.raises(ValueError):
        emit_geometry(2, resolution=8)
    emit_geometry(5, resolution=16)  # largest supported window


def test_emit_geometry_point_budget(monkeypatch):
    with pytest.raises(ValueError, match="over the limit of 1048576"):
        emit_geometry(5, resolution=26215)  # 4 * (10 * 26215 + 3) points
    monkeypatch.setattr(blipweb, "_MAX_CURVE_POINTS", 4 * (2 * 16 + 3))
    assert sum(len(c.xs) for c in emit_geometry(1, resolution=16)) == 140
    with pytest.raises(ValueError, match="over the limit of 140"):
        emit_geometry(1, resolution=17)


def test_bump_curve_validation():
    with pytest.raises(ValueError):
        BumpCurve("c1", np.zeros(3), np.zeros(4))


def test_write_curves_csv(tmp_path):
    curves = emit_geometry(1, resolution=16)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, curves)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["curve_id", "x", "y"]
    assert len(rows) == 1 + sum(len(c.xs) for c in curves)
    ids = {r[0] for r in rows[1:]}
    assert ids == {"c1", "c2", "c3", "c4"}
    # numbers round-trip through the text format
    c1_rows = [r for r in rows[1:] if r[0] == "c1"]
    xs = np.array([float(r[1]) for r in c1_rows])
    npt.assert_array_equal(xs, curves[0].xs)


def test_write_curves_csv_matches_csv_writer(tmp_path):
    """The row-template writer gives ``csv.writer``'s bytes, on the emitted
    curves and on ids and values that need care: a comma, quote, percent
    sign or line break in the id, signed zeros, subnormals, infinities and
    an empty curve."""
    odd = [1.0, -0.0, 5e-324, -1e300, np.inf, -np.inf, 0.1, 2.0 / 3.0]
    curves = emit_geometry(2, resolution=16) + [
        BumpCurve(curve_id, np.array(odd), np.array(odd[::-1]))
        for curve_id in ("a,b", 'say "hi"', "50%", "%s%%", "line\nbreak", "cr\r", "")]
    curves.append(BumpCurve("empty", np.zeros(0), np.zeros(0)))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_curves_csv(got, curves)
    csv_writer_curves(want, curves)
    assert got.read_bytes() == want.read_bytes()
