"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

spinnet = run.load_spinnet()


def _bench(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "spinnet" or name.startswith("spinnet.")
            for attr, value in vars(mod).items() if callable(value)}


def test_smoke_runs_every_operation_list_once():
    out = _bench("--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    for name in workloads.WORKLOADS:
        assert f"{name}: " in out.stdout
    assert "FAILED" not in out.stdout


def test_same_seed_writes_same_inputs(tmp_path):
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        workloads.write_inputs("mc", seed, tmp_path / sub)
    files = {sub: {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}
             for sub in "abc"}
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]


def test_wrong_reference_and_failed_exit_count_as_failures(tmp_path):
    workloads.write_inputs("exact", 0, tmp_path)
    manifest = json.loads((tmp_path / "ops.json").read_text())
    manifest[0]["check"]["re"] *= 1.01
    manifest.append({"label": "missing document", "argv": ["ip", "absent.json", "absent.json"],
                     "check": {"kind": "scalar", "re": 0.0, "im": 0.0,
                               "structural_zero": True}})
    (tmp_path / "ops.json").write_text(json.dumps(manifest))
    ops = workloads.load_ops(tmp_path)
    ops = ops[:2] + ops[-1:]
    result = run.run_pass(ops)
    assert len(result["failures"]) == 2, result["failures"]
    assert result["failures"][0].startswith(manifest[0]["label"])
    assert "exit 2" in result["failures"][1]
    assert len(result["failures"]) / len(ops) > 0


def test_reports_differing_from_first_pass_are_failures(tmp_path):
    workloads.write_inputs("exact", 0, tmp_path)
    ops = workloads.load_ops(tmp_path)[:2]
    first = run.run_pass(ops)
    tampered = [first["texts"][0].replace("}", ' }'), first["texts"][1]]
    result = run.run_pass(ops, tampered)
    assert result["failures"] == [f"{ops[0].label}: report differs from the first pass"]


def test_traced_pass_restores_every_binding(tmp_path):
    workloads.write_inputs("exact", 0, tmp_path)
    ops = [op for op in workloads.load_ops(tmp_path) if op.label == "dip theta(1,1,2)"]
    before = _bindings()
    with tracer.Tracer() as tr:
        for qualname in tracer.FUNCTIONS:
            modname, fname = qualname.split(".")
            assert getattr(sys.modules[f"spinnet.{modname}"], fname) is not \
                before[(f"spinnet.{modname}", fname)]
        result = run.run_pass(ops, tracer=tr)
        layers = tr.take()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not result["failures"]
    assert layers["cli.main.calls"] == 1
    assert layers["diffeo_average.transport.calls"] == 12
    assert layers["diffeo_average.enumerate_correspondences.found"] > 0
    assert 0 < layers["self_sum_s"] <= result["s"]


def test_result_line_has_the_declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = _bench("--workload", "mc", "--seed", "5", "--seconds", "1", "--trace", str(trace))
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "mc", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
