"""Golden report bytes: the stdout of ``spinnet.cli.main`` for a fixed set
of commands, kept in ``tests/golden/`` beside the documents they read
(``tests/golden/inputs/``: a spin-1/2 loop, a two-step loop word, theta and
non-invariant theta, theta(6, 6, 12), a figure-eight, and the web pair
ψ = ``build_tassel(2)``, φ = ``build_phi(2, -1)``).  ``CASES`` is the one
list of report fixtures: a new case is added there and nowhere else.

``tests/test_golden.py`` compares every report with its file, and the
reports of fresh processes under other hash seeds and one BLAS thread
with each other.  A change that moves report bytes on purpose rewrites
the files, commits them and names them in CHANGES.md:

    PYTHONPATH=src python tests/golden_reports.py --update

``HEADER.json`` records the numpy, BLAS and CPU that wrote the files.
Where the running ones match it, every report must match byte for byte.
Elsewhere a report's last bits may differ, so each number must agree to
1e-12 x max(1, |v|) and everything else exactly.  Run without
``--update``, the script compares and prints which comparison ran.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
HEADER = GOLDEN / "HEADER.json"
TOLERANCE = 1e-12

# report name -> argv; "<name>.json" arguments are read from INPUTS
CASES = {
    "eval_loop_identity": ["eval", "loop.json", "identity.json"],
    "eval_theta": ["eval", "theta.json", "theta_holonomy.json"],
    "ip_theta": ["ip", "theta.json", "theta.json"],
    "ip_web": ["ip", "psi.json", "phi.json"],
    "mc_loop": ["ip", "loop.json", "loop.json", "--mc", "4096", "--seed", "3"],
    "mc_theta": ["ip", "theta.json", "theta.json", "--mc", "4096", "--seed", "3"],
    "mc_theta_6_6_12": ["ip", "theta_6_6_12.json", "theta_6_6_12.json",
                        "--mc", "5000", "--seed", "3"],
    "mc_word": ["ip", "word.json", "word.json", "--mc", "4096", "--seed", "3"],
    "mc_xtheta": ["ip", "xtheta.json", "xtheta.json", "--mc", "4096", "--seed", "3"],
    "mc_web": ["ip", "psi.json", "phi.json", "--mc", "5000", "--seed", "3"],
    "dip_loop": ["dip", "loop.json", "loop.json"],
    "dip_theta": ["dip", "theta.json", "theta.json"],
    "gram_loop": ["gram", "loop.json", "loop.json"],
    "gram_theta_figure8": ["gram", "theta.json", "figure8.json"],
    "section4_obs1": ["section4", "--which", "obs1", "--truncation", "2", "--i0", "-1"],
    "section4_obs2": ["section4", "--which", "obs2", "--truncation", "2"],
    "haar_projector": ["haar-projector", "--spins", "1", "1"],
}


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return f"{platform.machine()} {line.split(':', 1)[1].strip()}"
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}".strip()


def environment() -> dict:
    """The numpy, BLAS and CPU that a report's last bits may depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "cpu": _cpu()}


def report(name: str) -> str:
    """The stdout of one case, run in-process; a nonzero exit raises."""
    from spinnet import cli
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: exit {code}")
    return out.getvalue()


def _close(a, b) -> bool:
    """Equal JSON values, numbers to TOLERANCE x max(1, |v|)."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def compare() -> tuple[str, list[str]]:
    """(which comparison ran, names of the reports that differ)."""
    recorded = json.loads(HEADER.read_text())
    exact = recorded == environment()
    differ = []
    for name in CASES:
        got, want = report(name), (GOLDEN / f"{name}.json").read_text()
        if not (got == want if exact else _close(json.loads(got), json.loads(want))):
            differ.append(name)
    if exact:
        return "bytes (numpy, BLAS and CPU match HEADER.json)", differ
    return (f"values to {TOLERANCE:g} x max(1, |v|) (HEADER.json records "
            f"{recorded}, this machine {environment()})"), differ


def update() -> None:
    """Rewrite every report and the header."""
    for name in CASES:
        (GOLDEN / f"{name}.json").write_text(report(name))
    HEADER.write_text(json.dumps(environment(), indent=2) + "\n")


def main(argv) -> int:
    if argv == ["--update"]:
        update()
        print(f"wrote {len(CASES)} reports and {HEADER.name} under {GOLDEN}")
        return 0
    if argv:
        print(f"usage: {Path(__file__).name} [--update]", file=sys.stderr)
        return 2
    mode, differ = compare()
    print(f"compared {len(CASES)} reports by {mode}")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
