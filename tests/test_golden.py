"""Every golden report (``tests/golden/``) is printed again as recorded:
byte for byte on the numpy, BLAS and CPU of its header, else to 1e-12 x
max(1, |v|), and byte for byte across processes with other hash seeds or
BLAS thread counts.  ``golden_reports.py --update`` rewrites them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import spinnet
import spinnet.inner_product as ip
import spinnet.tensor_engine as te

import golden_reports
from helpers import recorded_plan_calls, reference_plan


def test_reports_match_the_golden_files():
    mode, differ = golden_reports.compare()
    print(f"golden reports compared by {mode}")
    assert not differ, f"reports differ from tests/golden/ ({mode}): {differ}"


def test_reports_are_identical_across_hash_seeds_and_blas_threads():
    """The README's seed promise, for every case: three fresh processes
    print the same bytes, with hash seeds 1 and 2, and with one BLAS
    thread.  Each imports this process's spinnet and golden_reports."""
    src = Path(spinnet.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(src), str(here), os.environ.get("PYTHONPATH", "")])
    script = ("import golden_reports as g\n"
              "for name in g.CASES:\n"
              "    print(name)\n"
              "    print(g.report(name), end='')\n")
    outputs = {}
    for extra in ({"PYTHONHASHSEED": "1"}, {"PYTHONHASHSEED": "2"},
                  {"PYTHONHASHSEED": "1", "OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path, **extra))
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[str(extra)] = proc.stdout
    first = next(iter(outputs.values()))
    differ = [env for env, out in outputs.items() if out != first]
    assert not differ, f"golden reports differ from the first process under {differ}"


def test_golden_commands_plan_as_the_reference_planner():
    """Every ``tensor_engine._plan`` call that the golden commands make
    gets the plan of the planner that regroups every pairing at every step
    (``helpers.reference_plan``), ``==`` as ``_Plan``s.  The cache of
    prepared states is cleared first, so that the commands' states are
    planned here, not found warm from an earlier test."""
    ip._prepared_state.cache_clear()
    with recorded_plan_calls() as calls:
        for name in golden_reports.CASES:
            golden_reports.report(name)
    assert len(calls) >= 10
    for args, kwargs in calls:
        assert te._plan.__wrapped__(*args, **kwargs) == reference_plan(*args, **kwargs)


def test_every_golden_file_and_input_belongs_to_a_case():
    """Each report file has a case, each case reads only files under
    inputs/, and each file under inputs/ is read by some case."""
    cases = golden_reports.CASES
    reports = {p.stem for p in golden_reports.GOLDEN.glob("*.json")} - {"HEADER"}
    assert reports == set(cases), reports ^ set(cases)
    read = {a for argv in cases.values() for a in argv if a.endswith(".json")}
    inputs = {p.name for p in golden_reports.INPUTS.iterdir()}
    assert read == inputs, read ^ inputs


def test_monte_carlo_self_pairings_are_real_and_nonnegative():
    """Every sample of a Monte Carlo self pairing is real, |psi|^2 or a
    Schur pairing of the open values with themselves, so each golden
    ``ip a a --mc`` report reads an imaginary part of exactly 0.0 and a
    nonnegative real part."""
    selves = [name for name, argv in golden_reports.CASES.items()
              if argv[0] == "ip" and "--mc" in argv and argv[1] == argv[2]]
    assert len(selves) == 5
    for name in selves:
        report = json.loads((golden_reports.GOLDEN / f"{name}.json").read_text())
        assert report["im"] == 0.0 and report["re"] >= 0, (name, report)
