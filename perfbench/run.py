#!/usr/bin/env python3
"""Benchmark of the spinnet command line, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke

A run is a closed loop with one client.  Fresh set-up processes import
``spinnet`` from ``src/`` and write the workload's documents; ``setup_s`` is
the median of their start-to-ready times.  Two fresh measuring processes
each run one cold pass over the operation list, then warm passes for half
of ``--seconds``; two more run the cold pass only.  ``first_pass_s`` is the
median cold pass, ``pass_s`` the median of all warm passes, ``peak_rss_mb``
the largest ``ru_maxrss``.  Every operation is one in-process
``spinnet.cli.main(argv)`` call whose JSON report is checked against an
independent reference, against the process's cold-pass report byte for
byte, and against the other processes' reports to 1e-12.  With
``--trace 1`` a single measuring process alternates untraced and traced
warm passes, and the per-layer metrics come from the traced ones.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  Lines before it record the environment and the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh set-up processes: at least SETUPS, more (up to MAX_SETUPS) while
# they took under SETUP_BUDGET_S in all.  setup_s is their median.
SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 3, 3.0, 16
# Fresh measuring processes each run a cold pass, then warm passes for their
# share of --seconds; COLD_ONLY more run the cold pass alone.
MEASURE_PROCS, COLD_ONLY = 2, 2
RUN_BUDGET_S = 170  # every child must finish within this many seconds of the start
COLD_LAYERS = ("rep_core.invariant_vectors.", "tensor_engine.haar_project.")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, load_ops, write_inputs  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def load_spinnet():
    """Import spinnet from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "spinnet" / "__init__.py").is_file():
        raise BenchError(f"no spinnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinnet
    if Path(spinnet.__file__).resolve().parent != (SRC / "spinnet").resolve():
        raise BenchError(f"imported spinnet from {spinnet.__file__}, not from {SRC}")
    return spinnet


# ---------------------------------------------------------------------------
# one pass over the operation list

def run_op(op):
    """Run one CLI operation in-process; returns (exit code, seconds, stdout, stderr)."""
    from spinnet import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashing operation is a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def run_pass(ops, reference_texts=None, tracer=None) -> dict:
    """Run every operation once and check its report.

    A failure is a nonzero exit, a report that is not JSON or misses its
    reference, or (given ``reference_texts``) a report that differs from
    the reference pass's.  ``s`` is the summed wall time of the calls.
    """
    times, texts, failures = [], [], []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        rc, dt, text, err = run_op(op)
        times.append(dt)
        texts.append(text)
        if rc != 0:
            reason = f"exit {rc}: {err.strip()[-300:]}"
        else:
            try:
                reason = op.check(json.loads(text))
            except json.JSONDecodeError as exc:
                reason = f"stdout is not JSON: {exc}"
        if reason is None and reference_texts is not None and text != reference_texts[k]:
            reason = "report differs from the first pass"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return {"s": sum(times), "times": times, "texts": texts, "failures": failures}


def same_report(a, b, tol=1e-12) -> bool:
    """Equal JSON reports, numbers within ``tol`` times max(1, |number|).

    Report values are at most of order one, so rounding noise near zero
    (imaginary parts, eigenvalues) is held to the same absolute scale.
    """
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= tol * max(1.0, abs(a), abs(b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_report(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_report(x, y, tol) for x, y in zip(a, b))
    return a == b


# ---------------------------------------------------------------------------
# environment record

def _blas_threads():
    """Thread count of the loaded OpenBLAS, read through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# child processes

def child(args) -> None:
    load_spinnet()
    if args.child == "setup":
        write_inputs(args.workload, args.seed, args.dir)
        print("ready", flush=True)
        return
    ops = load_ops(args.dir)
    result = _measure_traced(ops, args.seconds) if args.trace else _measure_plain(ops, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))


def _measure_plain(ops, seconds) -> dict:
    cold = run_pass(ops)
    passes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (seconds > 0 and not passes):
        passes.append(run_pass(ops, cold["texts"]))
    return {
        "first_pass_s": cold["s"],
        "pass_s": [p["s"] for p in passes],
        "op_s": [[p["times"][k] for p in passes] for k in range(len(ops))],
        "labels": [op.label for op in ops],
        "attempted": len(ops) * (1 + len(passes)),
        "failures": cold["failures"] + [f for p in passes for f in p["failures"]],
        "texts": cold["texts"],
    }


def _measure_traced(ops, seconds) -> dict:
    from tracer import Tracer
    with Tracer() as tr:
        cold = run_pass(ops, tracer=tr)
        cold["layers"] = tr.take()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(run_pass(ops, cold["texts"]))
        with Tracer() as tr:
            p = run_pass(ops, cold["texts"], tracer=tr)
            p["layers"] = tr.take()
        traced.append(p)
    failures = cold["failures"] + [f for p in plain + traced for f in p["failures"]]
    for p in [cold] + traced:
        if p["layers"]["self_sum_s"] > p["s"]:
            failures.append(f"summed self time {p['layers']['self_sum_s']} s exceeds "
                            f"the pass wall time {p['s']} s")
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    # The invariant basis and projector builds are cached, so warm passes
    # never repeat them: those layers are measured on the cold pass.
    for k in layers:
        if k.startswith(COLD_LAYERS):
            layers[k] = cold["layers"][k]
    layers["trace.overhead"] = (statistics.median(p["s"] for p in traced)
                                / statistics.median(p["s"] for p in plain))
    layers["trace.self_coverage"] = statistics.median(
        p["layers"]["self_sum_s"] / p["s"] for p in traced)
    del layers["self_sum_s"]
    return {
        "first_pass_s": cold["s"],
        "pass_s": [p["s"] for p in plain],
        "attempted": len(ops) * (1 + len(plain) + len(traced)),
        "failures": failures,
        "texts": cold["texts"],
        "layers": layers,
    }


def _child_cmd(role, args, directory, seconds) -> list:
    return [sys.executable, str(HERE / "run.py"), "--child", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace), "--dir", str(directory)]


def _child_env(k: int) -> dict:
    # Set iteration order follows the interpreter's hash seed, and with it
    # the leg order of contraction intermediates and so their speed.  Each
    # measuring process gets its own fixed seed: runs sample the same
    # orders, and reports are still compared across different orders.
    return dict(os.environ, PYTHONHASHSEED=str(k + 1))


def _timed_setup(args, directory, deadline) -> float:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(_child_cmd("setup", args, directory, 0), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        finally:
            watchdog.cancel()
    if rc != 0 or line.strip() != "ready":
        raise BenchError(f"set-up process failed with exit code {rc}")
    return elapsed


def _run_measure(args, k, directory, seconds, deadline) -> dict:
    try:
        out = subprocess.run(_child_cmd("measure", args, directory, seconds), cwd=ROOT,
                             env=_child_env(k), stdout=subprocess.PIPE, text=True,
                             timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("a measuring process did not finish in time") from None
    if out.returncode != 0:
        raise BenchError(f"a measuring process failed with exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _tree(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# the measured run

def measure(args) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not (SRC / "spinnet" / "__init__.py").is_file():
        raise BenchError(f"no spinnet sources under {SRC}")
    load_avg = os.getloadavg()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    procs = 1 if args.trace else MEASURE_PROCS
    try:
        docs = work / "setup0"
        setup_s = []
        while len(setup_s) < (1 if args.trace else SETUPS) or (
                not args.trace and sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < MAX_SETUPS):
            k = len(setup_s)
            setup_s.append(_timed_setup(args, work / f"setup{k}", deadline))
            if k:
                if _tree(work / f"setup{k}") != _tree(docs):
                    raise BenchError("set-up wrote different inputs for the same seed")
                shutil.rmtree(work / f"setup{k}")
        runs = [_run_measure(args, k, docs, args.seconds / procs if k < procs else 0.0,
                             deadline)
                for k in range(procs + (0 if args.trace else COLD_ONLY))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    byte_diffs = set()
    for r in runs[1:]:
        for k, (a, b) in enumerate(zip(r["texts"], runs[0]["texts"])):
            if a != b:
                byte_diffs.add(k)
                if not same_report(json.loads(a), json.loads(b)):
                    failures.append(f"operation {k}: report differs between processes")
    firsts = [r["first_pass_s"] for r in runs]
    runs_warm = runs[:procs]
    passes = [s for r in runs_warm for s in r["pass_s"]]
    med = statistics.median(passes)

    print("env " + json.dumps(dict(runs[0]["env"], load_avg_at_start=load_avg)))
    print(f"setup_s samples {[round(s, 4) for s in setup_s]}")
    print(f"first_pass_s samples {[round(s, 4) for s in firsts]}")
    for k, r in enumerate(runs_warm):
        print(f"pass_s process {k} n={len(r['pass_s'])} median={statistics.median(r['pass_s']):.4f} "
              f"min={min(r['pass_s']):.4f} max={max(r['pass_s']):.4f}")
    print(f"pass_s all n={len(passes)} median={med:.4f} "
          f"stalls(>2x median)={sum(p > 2 * med for p in passes)}")
    if not args.trace:
        for k, label in enumerate(runs[0]["labels"]):
            op_med = statistics.median(t for r in runs_warm for t in r["op_s"][k])
            print(f"  op {op_med * 1e3:9.2f} ms  {label}")
    if byte_diffs:
        print(f"report bytes differ between processes on operations {sorted(byte_diffs)} "
              f"(values agree to 1e-12)")
    for f in failures[:20]:
        print(f"FAILED {f}")

    if args.trace:
        metrics = dict(runs[0]["layers"], failed_frac=len(failures) / attempted)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "first_pass_s": {"value": statistics.median(firsts), "unit": "s"},
            "pass_s": {"value": med, "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs), "unit": "MB"},
            "ok_frac": {"value": 1 - len(failures) / attempted, "unit": "fraction"},
        }
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("trace.overhead", "trace.self_coverage"):
        return "ratio"
    if name == "failed_frac":
        return "fraction"
    return "count"


# ---------------------------------------------------------------------------
# smoke mode

def smoke(workloads) -> int:
    """Run each workload's operation list once, in this process."""
    load_spinnet()
    work = WORK / f"smoke-{os.getpid()}"
    bad = 0
    try:
        for name in workloads:
            write_inputs(name, 0, work / name)
            ops = load_ops(work / name)
            result = run_pass(ops)
            bad += len(result["failures"])
            print(f"{name}: {len(ops)} operations, {len(result['failures'])} failed, "
                  f"{result['s']:.3f} s")
            for f in result["failures"]:
                print(f"  FAILED {f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run each workload's operations once and report failures")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return smoke([args.workload] if args.workload else WORKLOADS)
        if args.workload is None:
            p.error("--workload is required")
        if args.child:
            child(args)
            return 0
        result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
