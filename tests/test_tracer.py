"""The benchmark tracer wraps every magnls function it names, and a traced run counts right.

A rename or inlining of a traced function (``local_mass_sup``,
``make_shift``, ``energy_EA``, ...) makes ``tracer.install`` raise, which
would otherwise only show when the benchmark runs with ``--trace 1``.  A
change in how ``minres`` receives its operators would break the traced
counts the same way, so the README 2-D ``solve`` runs traced here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import magnls.cli
import tracer

tracer.install(tracer.Recorder())
print(magnls.cli.__file__)
"""

TRACED_SOLVE = """
import json
import sys

import magnls.cli
import tracer

rec = tracer.Recorder()
tracer.install(rec)
code = magnls.cli.run(sys.argv[1:] + ["--out", "out"])
rec.save("spans")
metrics = {name: value for name, (value, _) in tracer.layer_metrics("spans").items()}
print(json.dumps({"code": code, "metrics": metrics}))
"""

README_SOLVE = "solve --field landau:b=0.5 --dim 2 --p 4 --lambda 1 --R 2 --T 3".split()


def _run(script, cwd, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env, capture_output=True, text=True)


def test_tracer_install_finds_every_function(tmp_path):
    proc = _run(SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve().is_relative_to(ROOT / "src")


def test_traced_readme_solve_counts(tmp_path):
    proc = _run(TRACED_SOLVE, tmp_path, *README_SOLVE)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["code"] == 0
    m = doc["metrics"]
    assert m["solver.newton_iters"] == 4
    assert m["solver.minres_calls"] == 4
    assert m["solver.minres_matvecs"] == 56
    assert m["solver.precond_applies"] == 60
    assert m["solver.minres_unconverged"] == 0
    assert m["solver.minres_s"] > 0 and m["solver.precond_s"] > 0
