"""The per-thread Monte Carlo chunk scratch changes where arrays live, never
a value: every run gets the same bits in a fresh process, after other runs
of other shapes, with the scratch capped at zero and from two threads at
once, and nothing handed to a caller lives in it."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import spinnet
import spinnet.inner_product as ip
import spinnet.tensor_engine as te
from spinnet import (evaluate, exact_inner_product, mc_expectation, mc_inner_product,
                     wigner_entries)
from spinnet.blipweb import build_phi, build_tassel
from spinnet.tensor_engine import MC_CHUNK, _Scratch
from helpers import random_holonomies, theta_network
from test_tensor_engine import _oracle_network


def _theta():
    """theta(6,6,12), 5000 samples: two full chunks and a partial one,
    each holding two spin-3 Wigner builds of 1.6 MB and the products, 4.63
    MiB in all."""
    a = theta_network((6, 6, 12))
    return mc_inner_product(a, a, 5000, seed=11)


def _web():
    return mc_inner_product(build_tassel(2).network, build_phi(2, -1).network,
                            MC_CHUNK + 5, seed=12)


def _oracle():
    return mc_expectation(_oracle_network()[0], 2 * MC_CHUNK + 7, seed=13)


RUNS = {"theta": _theta, "web": _web, "oracle": _oracle}


def _bits(result):
    mean, stderr = result
    return (mean.real.hex(), mean.imag.hex(), stderr.hex())


@pytest.fixture(scope="module")
def fresh_bits():
    """Each run's bits, each in a fresh interpreter."""
    src = Path(spinnet.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(src), str(here), os.environ.get("PYTHONPATH", "")])
    bits = {}
    for name in RUNS:
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import test_mc_scratch as t; print(t._bits(t.RUNS[{name!r}]()))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        bits[name] = proc.stdout.strip()
    return bits


@pytest.mark.parametrize("blocks_per_chunk", [None, 1])
def test_runs_keep_their_bits_after_other_shapes(fresh_bits, monkeypatch, blocks_per_chunk):
    """Every run after every other one, so the scratch holds another
    shape's pieces, or more than this run needs; also with chunks of one
    summing block, so each run resets the scratch many more times on pieces
    of another chunk length, and still gives the bits of the default chunk."""
    if blocks_per_chunk is not None:
        chunk = blocks_per_chunk * te._MC_BLOCK
        monkeypatch.setattr(te, "MC_CHUNK", chunk)
    for name in RUNS:
        for other in RUNS:
            RUNS[other]()
        assert str(_bits(RUNS[name]())) == fresh_bits[name], name


def test_runs_keep_their_bits_without_a_scratch(fresh_bits, monkeypatch):
    monkeypatch.setattr(te, "_MC_SCRATCH_CAP", 0)
    for name, run in RUNS.items():
        assert str(_bits(run())) == fresh_bits[name], name
        assert te._SCRATCH.buffer.size == 0


def test_chunk_over_the_cap_runs_on_fresh_arrays(fresh_bits, monkeypatch):
    """theta(6,6,12) needs 4.63 MiB a chunk; under a 4 MiB cap the pieces
    that do not fit are fresh, and what is kept stays under the cap."""
    assert te._MC_SCRATCH_CAP * np.dtype(complex).itemsize == 32 * 2**20  # as the README says
    _web()
    assert 0 < te._SCRATCH.buffer.size <= te._MC_SCRATCH_CAP
    cap = 2**18
    monkeypatch.setattr(te, "_MC_SCRATCH_CAP", cap)
    assert str(_bits(_theta())) == fresh_bits["theta"]
    assert te._SCRATCH.buffer.size <= cap
    _theta()
    assert te._SCRATCH.buffer.size <= cap


def test_threads_give_the_serial_bits(fresh_bits):
    """Four threads run every run at once, each in its own order, switching
    often; every result has the serial bits, so no thread writes into
    another's scratch."""
    names = list(RUNS)
    barrier = threading.Barrier(4)
    got = []

    def work(k):
        barrier.wait()
        for name in names[k % 3:] + names[:k % 3]:
            got.append((name, str(_bits(RUNS[name]()))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(name for name, _ in got) == sorted(names * 4)
    for name, bits in got:
        assert bits == fresh_bits[name], name


def test_values_handed_over_never_live_in_the_scratch(monkeypatch):
    """Chunk values reach the reduction, scalar state values ``evaluate``
    and the combine, and ``wigner_entries`` its caller, each outside the
    scratch; the means are Python numbers.  Only the open-leg values of a
    state with an integrated chord may live there, until the combine has
    reduced them."""
    real_mean, real_values = te._mc_mean, te._state_values
    seen = []

    def checked_mean(n_samples, seed, variables, states, holonomies, combine):
        def values(state_values):
            out = combine(state_values)
            seen.append(np.shares_memory(out, te._SCRATCH.buffer))
            return out
        return real_mean(n_samples, seed, variables, states, holonomies, values)

    def checked_values(*args):
        out = real_values(*args)
        seen.extend(np.shares_memory(v, te._SCRATCH.buffer) for v in out if v.ndim == 1)
        return out

    monkeypatch.setattr(ip, "_mc_mean", checked_mean)
    monkeypatch.setattr(te, "_mc_mean", checked_mean)
    monkeypatch.setattr(ip, "_state_values", checked_values)
    monkeypatch.setattr(te, "_state_values", checked_values)
    for run in RUNS.values():
        mean, stderr = run()
        assert type(mean) is complex and type(stderr) is float
    assert te._SCRATCH.buffer.size > 0
    rng = np.random.default_rng(21)
    a = theta_network((6, 6, 12))
    assert type(evaluate(a, random_holonomies(rng, a))) is complex
    quats = rng.standard_normal((MC_CHUNK, 4))
    seen.append(np.shares_memory(wigner_entries(6, quats), te._SCRATCH.buffer))
    assert len(seen) > 10 and not any(seen)


def test_evaluate_is_a_one_sample_chunk_in_the_warm_scratch(monkeypatch):
    """``evaluate`` runs on the scratch like any chunk, its Wigner builds
    in pieces of the buffer, but a one-sample chunk never grows it: after a
    warm run, 1000 calls leave its size as it was, and the values handed
    over live outside it."""
    _theta()
    size = te._SCRATCH.buffer.size
    real_values, real_wigner = te._state_values, te._pair_wigner
    inside, built = [], []

    def checked_values(*args):
        out = real_values(*args)
        inside.extend(np.shares_memory(v, te._SCRATCH.buffer) for v in out)
        return out

    def checked_wigner(twice_j, a, b, out):
        built.append(out is not None and np.shares_memory(out, te._SCRATCH.buffer))
        return real_wigner(twice_j, a, b, out)

    monkeypatch.setattr(ip, "_state_values", checked_values)
    monkeypatch.setattr(te, "_pair_wigner", checked_wigner)
    rng = np.random.default_rng(23)
    a = theta_network((1, 1, 2))
    for _ in range(1000):
        evaluate(a, random_holonomies(rng, a))
    assert te._SCRATCH.buffer.size == size > 0
    assert len(inside) == 1000 and not any(inside)
    assert len(built) == 3000 and all(built)  # one per edge and call


def test_exact_path_never_touches_the_scratch():
    te._SCRATCH.reset()
    a = theta_network((10, 10, 10))
    exact_inner_product(a, a)
    assert te._SCRATCH.need == 0


def test_scratch_pieces_are_disjoint_until_reset(monkeypatch):
    s, size = _Scratch(), 1000
    monkeypatch.setattr(te, "_MC_SCRATCH_CAP", 4 * size)
    assert [s.take((size,)) for _ in range(2)] == [None, None]  # nothing kept yet
    s.reset()  # grows to the last chunk's need
    assert s.buffer.size == 2 * size
    pieces = [s.take((size,)) for _ in range(3)]
    assert all(np.shares_memory(p, s.buffer) for p in pieces[:2])
    assert not np.shares_memory(pieces[0], pieces[1])
    assert pieces[2] is None  # did not fit: fresh
    s.reset()
    assert s.buffer.size == 3 * size
    piece = s.take((size,))
    s.reset()  # reused: a piece is free again
    assert s.buffer.size == 3 * size
    assert np.shares_memory(s.take((size,)), piece)
    for _ in range(5):
        s.take((size,))
    s.reset()  # a need over the cap keeps the buffer
    assert s.buffer.size == 3 * size
    monkeypatch.setattr(te, "_MC_SCRATCH_CAP", size)
    s.reset()  # a buffer over the cap is dropped
    assert s.buffer.size == 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts")
def test_warm_chunks_take_no_fresh_pages():
    """A warm theta(6,6,12) run reuses its scratch: without it, each chunk
    faults in its 1.6 MB Wigner, product and copy arrays, about 6000 minor
    faults a call."""
    resource = pytest.importorskip("resource")
    _theta()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _theta()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_warm_theta_keeps_only_wigner_builds_and_products(monkeypatch):
    """The scratch holds a chunk's Wigner builds and the products of all
    plan steps but the last, 4.63 MiB for theta(6,6,12); no reshaped,
    conjugated or multiply-add copy takes a piece."""
    monkeypatch.setattr(te, "_MC_SCRATCH_CAP", 0)
    te._SCRATCH.reset()  # drops what other runs left
    monkeypatch.undo()
    _theta()
    _theta()
    assert te._SCRATCH.buffer.size * np.dtype(complex).itemsize < 5 * 2**20
