"""Command-line interface: reports, exit codes, seeds, file outputs."""

import csv
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from spinnet import cli, documents, inner_product, tensor_engine
from spinnet.cli import _build_parser, main
from spinnet import (ToleranceError, averaged_inner_product, canonicalize, decompose,
                     dumps_document, enumerate_correspondences, mc_expectation, read_network)
from helpers import paired_factor_network


LOOP_DOC = {
    "segments": [{"id": "s1", "source": "P", "target": "P"},
                 {"id": "s2", "source": "Q", "target": "Q"}],
    "edges": [{"id": "loop", "word": ["s1"], "source": "P", "target": "P",
               "twice_j": 1}],
    "intertwiners": {"P": {"kind": "epsilon"}},
}

LOOP2_DOC = {
    "segments": LOOP_DOC["segments"],
    "edges": [{"id": "loop", "word": ["s2"], "source": "Q", "target": "Q",
               "twice_j": 1}],
    "intertwiners": {"Q": {"kind": "epsilon"}},
}

LOOP_SPIN1_DOC = {
    "segments": LOOP_DOC["segments"],
    "edges": [{"id": "loop", "word": ["s1"], "source": "P", "target": "P",
               "twice_j": 2}],
    "intertwiners": {"P": {"kind": "epsilon"}},
}

THETA_DOC = {
    "segments": [
        {"id": "u1", "source": "X", "target": "Y"},
        {"id": "u2", "source": "X", "target": "Y"},
        {"id": "u3", "source": "X", "target": "Y"},
    ],
    "edges": [
        {"id": "e0", "word": ["u1"], "source": "X", "target": "Y", "twice_j": 1},
        {"id": "e1", "word": ["u2"], "source": "X", "target": "Y", "twice_j": 1},
        {"id": "e2", "word": ["u3"], "source": "X", "target": "Y", "twice_j": 2},
    ],
    "intertwiners": {
        "X": {"kind": "basis", "index": 0},
        "Y": {"kind": "basis", "index": 0},
    },
}

ZZ_SPIN1_DOC = {
    "segments": [{"id": "zz", "source": "W", "target": "W"}],
    "edges": [{"id": "loop", "word": ["zz"], "source": "W", "target": "W",
               "twice_j": 2}],
    "intertwiners": {"W": {"kind": "epsilon"}},
}

IDENTITY_H = {"s1": [1.0, 0.0, 0.0, 0.0], "s2": [1.0, 0.0, 0.0, 0.0]}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in (
        ("loop", LOOP_DOC),
        ("loop2", LOOP2_DOC),
        ("loop_spin1", LOOP_SPIN1_DOC),
        ("theta", THETA_DOC),
        ("zz_spin1", ZZ_SPIN1_DOC),
        ("ident", IDENTITY_H),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(dumps_document(doc))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if code == 0 else None
    return code, report, captured


# ---------------------------------------------------------------------------
# eval / ip

def test_eval_loop_at_identity(docs, capsys):
    code, report, cap = run(capsys, ["eval", docs["loop"], docs["ident"]])
    assert code == 0
    assert report == {"re": 2.0, "im": 0.0}
    assert cap.err == ""


def test_eval_missing_file_is_exit_2(docs, capsys, tmp_path):
    code, _, cap = run(capsys, ["eval", str(tmp_path / "nope.json"), docs["ident"]])
    assert code == 2
    assert "error:" in cap.err
    assert cap.out == ""


def test_oversized_basis_vertex_is_exit_2(tmp_path, capsys):
    """Five spin-3/2 loops at one point give a ten-leg vertex whose invariant
    basis is far over the size budget; reading the document fails fast."""
    doc = {
        "segments": [{"id": f"s{k}", "source": "P", "target": "P"} for k in range(5)],
        "edges": [{"id": f"e{k}", "word": [f"s{k}"], "source": "P", "target": "P",
                   "twice_j": 3} for k in range(5)],
        "intertwiners": {"P": {"kind": "basis", "index": 0}},
    }
    path = tmp_path / "bouquet.json"
    path.write_text(dumps_document(doc))
    code, _, cap = run(capsys, ["ip", str(path), str(path)])
    assert code == 2
    assert "limit" in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_document_entries_are_exit_2(tmp_path, capsys, literal):
    """Python's json reads NaN and Infinity; each subcommand that reads a
    document refuses one in a holonomy quaternion or in an explicit
    intertwiner with exit 2 and the entry's location."""
    value = repr(json.loads(literal))
    holonomies = tmp_path / "h.json"
    holonomies.write_text(json.dumps(dict(IDENTITY_H, s1="X")).replace(
        '"X"', f"[1.0, {literal}, 0.0, 0.0]"))
    explicit = dict(LOOP_DOC, intertwiners={"P": {"kind": "explicit", "components": [
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], "X"]]}})
    network = tmp_path / "n.json"
    network.write_text(json.dumps(explicit).replace('"X"', f"[1.0, {literal}]"))
    good_network, good_holonomies = tmp_path / "loop.json", tmp_path / "ident.json"
    good_network.write_text(dumps_document(LOOP_DOC))
    good_holonomies.write_text(dumps_document(IDENTITY_H))
    net_error = (f"intertwiners['P'].components[1][1]: "
                 f"expected a [re, im] pair, got [1.0, {value}]")
    hol_error = f"['s1']: expected [w, x, y, z], got [1.0, {value}, 0.0, 0.0]"
    cases = [
        (["eval", str(good_network), str(holonomies)], hol_error),
        (["eval", str(network), str(good_holonomies)], net_error),
        (["ip", str(network), str(good_network)], net_error),
        (["ip", str(good_network), str(network), "--mc", "100"], net_error),
        (["dip", str(network), str(network)], net_error),
        (["gram", str(good_network), str(network)], net_error),
    ]
    for argv, message in cases:
        code, _, cap = run(capsys, argv)
        assert code == 2, argv
        assert cap.err == f"error: {message}\n", argv
        assert cap.out == ""


@pytest.mark.parametrize("argv", [
    ["ip", "huge", "huge"],
    ["ip", "huge", "huge", "--mc", "100"],
    ["dip", "huge", "huge"],
    ["gram", "huge", "huge"],
])
def test_non_finite_result_is_exit_2(tmp_path, capsys, argv):
    """A spin-1/2 loop whose marker is 1e300 times the identity overflows
    every pairing.  The report is refused when it is rendered, inside the
    same error handling as the computation: exit 2, an error line, and
    nothing on stdout."""
    huge = dict(LOOP_DOC, intertwiners={"P": {"kind": "explicit", "components": [
        [[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e300, 0.0]]]}})
    path = tmp_path / "huge.json"
    path.write_text(dumps_document(huge))
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, cap = run(capsys, [str(path) if a == "huge" else a for a in argv])
    assert code == 2
    assert cap.err.startswith("error: non-finite number")
    assert cap.out == ""


def test_dip_over_the_class_budget_is_exit_2(tmp_path, capsys):
    """Eight disjoint loops have 8!·2^8 correspondence classes, over the
    2^20 that group averaging enumerates: dip and gram refuse at once."""
    doc = {
        "segments": [{"id": f"s{k}", "source": f"P{k}", "target": f"P{k}"} for k in range(8)],
        "edges": [{"id": f"l{k}", "word": [f"s{k}"], "source": f"P{k}", "target": f"P{k}",
                   "twice_j": 1} for k in range(8)],
        "intertwiners": {f"P{k}": {"kind": "epsilon"} for k in range(8)},
    }
    path = tmp_path / "loops.json"
    path.write_text(dumps_document(doc))
    for argv in (["dip", str(path), str(path)], ["gram", str(path)]):
        start = time.perf_counter()
        code, _, cap = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "correspondence classes" in cap.err
        assert cap.out == ""


def test_ip_exact_theta(docs, capsys):
    code, report, _ = run(capsys, ["ip", docs["theta"], docs["theta"]])
    assert code == 0
    assert report["structural_zero"] is False
    np.testing.assert_allclose(report["re"], 1.0 / 12.0, atol=1e-12)
    np.testing.assert_allclose(report["im"], 0.0, atol=1e-12)


def test_ip_structural_zero(docs, capsys):
    code, report, _ = run(capsys, ["ip", docs["loop"], docs["loop_spin1"]])
    assert code == 0
    assert report["structural_zero"] is True
    assert report["re"] == 0.0 and report["im"] == 0.0


def test_ip_mc_report_and_seed(docs, capsys):
    code, report, _ = run(capsys, ["ip", docs["loop"], docs["loop"],
                                   "--mc", "4000", "--seed", "7"])
    assert code == 0
    assert report["samples"] == 4000 and report["seed"] == 7
    assert report["stderr"] > 0
    assert abs(report["re"] - 1.0) < 4 * report["stderr"]


def test_ip_mc_env_seed_matches_flag(docs, capsys, monkeypatch):
    _, by_flag, _ = run(capsys, ["ip", docs["loop"], docs["loop"],
                                 "--mc", "3000", "--seed", "11"])
    monkeypatch.setenv("SPINNET_SEED", "11")
    _, by_env, _ = run(capsys, ["ip", docs["loop"], docs["loop"], "--mc", "3000"])
    assert by_env == by_flag
    # explicit flag wins over the environment
    monkeypatch.setenv("SPINNET_SEED", "999")
    _, flag_wins, _ = run(capsys, ["ip", docs["loop"], docs["loop"],
                                   "--mc", "3000", "--seed", "11"])
    assert flag_wins == by_flag
    assert flag_wins["seed"] == 11


def test_ip_mc_default_seed_zero(docs, capsys, monkeypatch):
    monkeypatch.delenv("SPINNET_SEED", raising=False)
    _, report, _ = run(capsys, ["ip", docs["loop"], docs["loop"], "--mc", "2000"])
    assert report["seed"] == 0


def test_ip_mc_bad_env_seed(docs, capsys, monkeypatch):
    monkeypatch.setenv("SPINNET_SEED", "eleven")
    code, _, cap = run(capsys, ["ip", docs["loop"], docs["loop"], "--mc", "2000"])
    assert code == 2
    assert "SPINNET_SEED" in cap.err


def test_ip_mc_bad_sample_count_prepares_nothing(docs, capsys):
    """A sample count below 2 exits 2 before any forest is found or state
    prepared or planned: no bounded cache gains an entry."""
    caches = (inner_product._gauge_forest, inner_product._prepared_state, tensor_engine._plan)
    for cache in caches:
        cache.cache_clear()
    for count in ("0", "-5", "1"):
        code, _, cap = run(capsys, ["ip", docs["theta"], docs["theta"], "--mc", count])
        assert code == 2, count
        assert cap.err == "error: n_samples must be at least 2\n"
        assert cap.out == ""
    theta = read_network(docs["theta"])
    with pytest.raises(ValueError, match="at least 2"):
        mc_expectation(paired_factor_network(theta, theta), 1, seed=0)
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


# ---------------------------------------------------------------------------
# dip / gram

def test_dip_loop(docs, capsys):
    code, report, _ = run(capsys, ["dip", docs["loop"], docs["loop"]])
    assert code == 0
    assert report["correspondence_count"] == 2
    np.testing.assert_allclose(report["re"], 2.0, atol=1e-12)


def test_dip_orientation_preserving(docs, capsys):
    code, report, _ = run(capsys, ["dip", docs["loop"], docs["loop"],
                                   "--orientation-preserving-only"])
    assert code == 0
    assert report["correspondence_count"] == 1
    np.testing.assert_allclose(report["re"], 1.0, atol=1e-12)


def test_dip_across_circles(docs, capsys):
    code, report, _ = run(capsys, ["dip", docs["loop"], docs["loop2"]])
    assert code == 0
    assert report["correspondence_count"] == 2
    np.testing.assert_allclose(report["re"], 2.0, atol=1e-12)


def test_dip_reports_the_library_pairing(docs, capsys):
    """The report carries averaged_inner_product's value bit for bit, and the
    number of correspondence classes it summed."""
    code, report, _ = run(capsys, ["dip", docs["theta"], docs["theta"]])
    assert code == 0
    theta = canonicalize(read_network(docs["theta"]))
    value = averaged_inner_product(theta, theta)
    assert (report["re"], report["im"]) == (value.real, value.imag)
    classes = enumerate_correspondences(decompose(theta.graph), decompose(theta.graph))
    assert report["correspondence_count"] == len(classes) == 12


def test_dip_refuses_different_registries(docs, capsys):
    """Loops of different spins on different registries: every term would
    vanish, and the pairing is still refused with exit 2."""
    code, _, cap = run(capsys, ["dip", docs["loop"], docs["zz_spin1"]])
    assert code == 2
    assert "registry" in cap.err
    assert cap.out == ""


def test_gram_two_loops(docs, capsys):
    code, report, _ = run(capsys, ["gram", docs["loop"], docs["loop2"]])
    assert code == 0
    assert report["size"] == 2
    matrix = report["matrix"]
    np.testing.assert_allclose(matrix[0][0], [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(matrix[0][1], [2.0, 0.0], atol=1e-12)
    assert report["min_eigenvalue"] >= -1e-9


@pytest.mark.parametrize("argv,reads", [
    (["ip", "loop", "loop"], 1),
    (["ip", "loop", "loop", "--mc", "64"], 1),
    (["dip", "loop", "loop"], 1),
    (["gram", "loop", "loop2", "loop"], 2),
])
def test_a_path_given_twice_is_read_once(docs, capsys, monkeypatch, tmp_path, argv, reads):
    copy = tmp_path / "loop_copy.json"
    copy.write_text(dumps_document(LOOP_DOC))
    first = argv.index("loop")
    copies = [str(copy) if a == "loop" and k > first else docs.get(a, a)
              for k, a in enumerate(argv)]
    code, expected, _ = run(capsys, copies)
    assert code == 0

    calls = []
    original = documents.read_document
    monkeypatch.setattr(documents, "read_document", lambda p: calls.append(p) or original(p))
    code, report, _ = run(capsys, [docs.get(a, a) for a in argv])
    assert code == 0
    assert len(calls) == reads
    assert report == expected


# ---------------------------------------------------------------------------
# section4

def test_section4_obs1(capsys):
    code, report, _ = run(capsys, ["section4", "--which", "obs1",
                                   "--truncation", "2", "--i0", "-1"])
    assert code == 0
    assert report["which"] == "obs1" and report["truncation"] == 2
    assert report["i0"] == -1 and report["stable"] is True
    np.testing.assert_allclose(report["re"], 1.0 / 64.0, atol=1e-12)


def test_section4_obs1_requires_i0(capsys):
    code, _, cap = run(capsys, ["section4", "--which", "obs1", "--truncation", "2"])
    assert code == 2
    assert "--i0" in cap.err


def test_section4_obs1_even_i0(capsys):
    code, _, cap = run(capsys, ["section4", "--which", "obs1",
                                "--truncation", "2", "--i0", "0"])
    assert code == 2
    assert "odd" in cap.err


def test_section4_obs2(capsys):
    code, report, _ = run(capsys, ["section4", "--which", "obs2", "--truncation", "1"])
    assert code == 0
    assert [entry["i"] for entry in report["values"]] == [-1, 0]
    for entry in report["values"]:
        np.testing.assert_allclose(entry["re"], 1.0 / 128.0, atol=1e-12)


def test_section4_emit_curves(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code, report, _ = run(capsys, ["section4", "--which", "obs2",
                                   "--truncation", "1", "--emit-curves", str(out),
                                   "--resolution", "16"])
    assert code == 0
    assert report["curves_csv"] == str(out)
    assert report["curve_ids"] == ["c1", "c2", "c3", "c4"]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["curve_id", "x", "y"]
    assert len(rows) == 1 + 4 * (1 + 2 * 16 + 2)


def test_section4_unwritable_curves_path_is_exit_2(tmp_path, capsys):
    """A curves file that cannot be opened is an error line and exit 2, with
    no traceback and nothing on stdout."""
    out = tmp_path / "missing" / "c.csv"
    code, _, cap = run(capsys, ["section4", "--which", "obs2", "--truncation", "2",
                                "--emit-curves", str(out)])
    assert code == 2
    assert cap.out == ""
    assert cap.err.startswith("error: ") and str(out) in cap.err
    assert cap.err.count("\n") == 1


def test_section4_curve_guards(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    code, _, cap = run(capsys, ["section4", "--which", "obs2", "--truncation", "1",
                                "--emit-curves", out, "--resolution", "8"])
    assert code == 2
    code, _, cap = run(capsys, ["section4", "--which", "obs1", "--truncation", "6",
                                "--i0", "1", "--emit-curves", out])
    assert code == 2
    assert "truncation" in cap.err


def test_section4_limits_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the observables were computed")

    monkeypatch.setattr(cli, "observation_one", no_work)
    monkeypatch.setattr(cli, "observation_two", no_work)
    out = tmp_path / "c.csv"
    cases = [
        (["--which", "obs2", "--truncation", "65"], "between 1 and 64, got 65"),
        (["--which", "obs1", "--truncation", str(10**12), "--i0", "1"], "between 1 and 64"),
        (["--which", "obs2", "--truncation", "0"], "between 1 and 64, got 0"),
        (["--which", "obs2", "--truncation", "5", "--emit-curves", str(out),
          "--resolution", "26215"], "over the limit of 1048576 (2^20)"),
        (["--which", "obs2", "--truncation", "5", "--emit-curves", str(out),
          "--resolution", str(10**12)], "over the limit of 1048576 (2^20)"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, _, cap = run(capsys, ["section4"] + argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and message in cap.err, argv
    assert not out.exists()


def test_section4_truncation_limit_is_inclusive(capsys):
    code, report, _ = run(capsys, ["section4", "--which", "obs2", "--truncation", "64"])
    assert code == 0
    assert [entry["i"] for entry in report["values"]] == list(range(-64, 64))
    for entry in report["values"]:
        np.testing.assert_allclose(entry["re"], 1.0 / 128.0, atol=1e-12)


def test_tolerance_failures_exit_3(capsys, monkeypatch):
    import spinnet.cli as cli_module

    def failing(truncation, i0):
        raise ToleranceError("window drift detected")

    monkeypatch.setattr(cli_module, "observation_one", failing)
    code = main(["section4", "--which", "obs1", "--truncation", "2", "--i0", "1"])
    cap = capsys.readouterr()
    assert code == 3
    assert "tolerance failure" in cap.err


# ---------------------------------------------------------------------------
# haar-projector

def test_haar_projector_singlet(capsys):
    code, report, _ = run(capsys, ["haar-projector", "--spins", "1", "1"])
    assert code == 0
    assert report["twice_j"] == [1, 1]
    assert report["dimension"] == 4 and report["rank"] == 1
    proj = report["projector"]
    np.testing.assert_allclose(proj[0][1][0][1], [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(proj[0][1][1][0], [-0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(proj[0][0][0][0], [0.0, 0.0], atol=1e-12)


def test_haar_projector_trivial_rank(capsys):
    code, report, _ = run(capsys, ["haar-projector", "--spins", "1"])
    assert code == 0
    assert report["rank"] == 0


def test_haar_projector_spin_cap(capsys):
    code, _, cap = run(capsys, ["haar-projector", "--spins", "13"])
    assert code == 2
    assert "twice_j" in cap.err


def test_haar_projector_oversized_exits_2(capsys):
    code, _, cap = run(capsys, ["haar-projector", "--spins"] + ["1"] * 14)
    assert code == 2
    assert "over the limit" in cap.err


def test_haar_projector_report_limit_refuses_before_building(capsys, monkeypatch):
    def no_build(factors):
        raise AssertionError("the projector was built")

    monkeypatch.setattr(cli, "haar_project", no_build)
    start = time.perf_counter()
    code, _, cap = run(capsys, ["haar-projector", "--spins"] + ["1"] * 11)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "4194304 entries, over the limit of 1048576 (2^20)" in cap.err


def test_haar_projector_report_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_REPORT_ENTRIES", 16)
    code, report, _ = run(capsys, ["haar-projector", "--spins", "1", "1"])
    assert code == 0 and report["dimension"] == 4
    code, _, cap = run(capsys, ["haar-projector", "--spins", "1", "1", "1"])
    assert code == 2
    assert "64 entries, over the limit of 16" in cap.err


# ---------------------------------------------------------------------------
# process-level entry points

def test_module_entry_point(docs):
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet.cli", "eval", docs["loop"], docs["ident"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"re": 2.0, "im": 0.0}


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Documents are read and curve files written as UTF-8, the encoding
    of JSON (RFC 8259, section 8.1), not the locale's: a segment id "\u03b1"
    reads under the C locale with UTF-8 mode off, and no command here opens
    a file with the default encoding."""
    doc = {"segments": [{"id": "\u03b1", "source": "P", "target": "P"}],
           "edges": [{"id": "loop", "word": ["\u03b1"], "source": "P", "target": "P",
                      "twice_j": 1}],
           "intertwiners": {"P": {"kind": "epsilon"}}}
    path = tmp_path / "alpha.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    ip = ["ip", str(path), str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet.cli", *ip], capture_output=True,
        env=dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["re"] == pytest.approx(1.0, abs=1e-12)
    curves = ["section4", "--truncation", "2", "--which", "obs2",
              "--emit-curves", str(tmp_path / "curves.csv")]
    for argv in (ip, curves):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "spinnet.cli", *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr


def test_reports_independent_of_hash_seed(docs, tmp_path):
    """Reports are byte-identical across processes with different hash seeds."""
    theta444 = dict(THETA_DOC, edges=[dict(e, twice_j=4) for e in THETA_DOC["edges"]])
    path = tmp_path / "theta444.json"
    path.write_text(dumps_document(theta444))
    commands = (
        ["ip", str(path), str(path)],
        ["ip", docs["theta"], docs["theta"], "--mc", "3000", "--seed", "5"],
    )
    for argv in commands:
        outputs = set()
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "spinnet.cli", *argv],
                capture_output=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


def test_mc_report_independent_of_blas_threads(tmp_path):
    """An MC report is byte-identical with one and with two BLAS threads:
    the 4-4-4 theta's chunk plan runs matrix products through BLAS."""
    theta444 = dict(THETA_DOC, edges=[dict(e, twice_j=4) for e in THETA_DOC["edges"]])
    path = tmp_path / "theta444.json"
    path.write_text(dumps_document(theta444))
    outputs = set()
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "spinnet.cli", "ip", str(path), str(path),
             "--mc", "5000", "--seed", "5"],
            capture_output=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_argparse_usage_error_is_systemexit():
    with pytest.raises(SystemExit):
        main(["section4", "--which", "obs3", "--truncation", "1"])


def test_parser_is_built_once_and_keeps_no_state(docs, capsys):
    """One process reuses one parser: a flag given to one call does not
    leak into the next, and each report matches a fresh process byte for
    byte."""
    commands = (
        ["dip", docs["loop"], docs["loop"], "--orientation-preserving-only"],
        ["dip", docs["loop"], docs["loop"]],
    )
    outputs = []
    for argv in commands:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert [json.loads(out)["correspondence_count"] for out in outputs] == [1, 2]
    for argv, out in zip(commands, outputs):
        proc = subprocess.run([sys.executable, "-m", "spinnet.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out, argv
    assert _build_parser() is _build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["dip", docs["loop"]])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
