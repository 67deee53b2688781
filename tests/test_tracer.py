"""The benchmark tracer wraps every magnls function it names.

A rename or inlining of a traced function (``local_mass_sup``,
``make_shift``, ``energy_EA``, ...) makes ``tracer.install`` raise, which
would otherwise only show when the benchmark runs with ``--trace 1``.
"""

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


def test_tracer_install_finds_every_function(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve().is_relative_to(ROOT / "src")
