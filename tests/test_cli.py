import filecmp
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from magnls import cli, solver
from magnls.cli import run


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_gauge_subcommand_matches_closed_form(tmp_path):
    out = tmp_path / "g"
    code = run([
        "gauge", "--field", "landau:b=1", "--y", "1,2", "--dim", "2",
        "--L", "8", "--n", "129", "--out", str(out),
    ])
    assert code == 0
    assert sorted(os.listdir(out)) == ["ay.csv", "manifest.json", "phi.csv", "report.json"]
    rep = read_json(out / "report.json")
    assert rep["max_bound_violation"]["value"] <= 1e-8
    assert rep["slab_error"]["value"] <= 1e-8
    assert rep["curl_error"]["value"] <= 1e-8

    # phi.csv must match -y1 (x2 - y2)
    data = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1)
    x2 = data[:, 1]
    phi = data[:, 2]
    assert np.max(np.abs(phi - (-1.0 * (x2 - 2.0)))) <= 1e-8


def test_groundstate_subcommand(tmp_path):
    out = tmp_path / "gs"
    code = run(["groundstate", "--dim", "3", "--p", "4", "--lambda", "1", "--out", str(out)])
    assert code == 0
    doc = read_json(out / "gs.json")
    assert doc["nehari_residual"]["value"] <= doc["nehari_residual"]["tol"]
    assert doc["u0"] == pytest.approx(4.3373876799, rel=1e-6)
    w = np.loadtxt(out / "w.csv", delimiter=",", skiprows=1)
    assert w.shape[1] == 3  # r, w, dw
    assert os.path.exists(out / "manifest.json")


# N = 2, p = 2.01: a valid input whose profile fails its own Nehari check
# (residual 4.0e-5 against 1e-6), at every lambda since the scaling keeps it
NEHARI_FAILURE = ["--dim", "2", "--p", "2.01", "--lambda", "1"]


@pytest.mark.parametrize("p", ["2.01", "2.001"])
def test_groundstate_failed_nehari_check_exits_2(tmp_path, capsys, p):
    # a numerical failure, not a success: residual 4.0e-5 at p = 2.01 and
    # 2.3e-4 at p = 2.001
    out = tmp_path / "gs"
    code = run(["groundstate", "--dim", "2", "--p", p, "--lambda", "1", "--out", str(out)])
    assert code == 2
    doc = read_json(out / "diagnostic.json")
    assert doc["type"] == "RuntimeError"
    found = re.fullmatch(r"nehari_residual (\S+) exceeds its tol 1e-06", doc["failure"])
    assert found and float(found.group(1)) > 1e-6, doc["failure"]
    assert sorted(os.listdir(out)) == ["diagnostic.json", "manifest.json"]


@pytest.mark.parametrize("command", [["conditions"], ["landscape", "--R", "0"], ["solve", "--R", "0"]])
def test_failed_nehari_check_exits_2_wherever_the_ground_state_is_shot(tmp_path, capsys, command):
    # no command may take c_inf from a profile that fails its Nehari check
    out = tmp_path / "run"
    code = run(command + [*NEHARI_FAILURE, "--out", str(out)])
    assert code == 2
    doc = read_json(out / "diagnostic.json")
    assert doc["type"] == "RuntimeError"
    found = re.fullmatch(r"nehari_residual (\S+) exceeds its tol 1e-06", doc["failure"])
    assert found and float(found.group(1)) > 1e-6, doc["failure"]
    assert sorted(os.listdir(out)) == ["diagnostic.json", "manifest.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["conditions", "--dim", "2", "--p", "4", "--lambda", "0.01"],
        ["groundstate", "--dim", "3", "--p", "4", "--lambda", "0.001"],
        ["groundstate", "--dim", "3", "--p", "4", "--lambda", "1e30"],
    ],
)
def test_small_and_large_lambda_exit_0(tmp_path, argv):
    # the unit shot scaled to lambda: these failed their Nehari check (0.0033
    # and 0.42) or lost the shooting bracket when each lambda was shot
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0


def test_landscape_near_critical_exponent_exits_0(tmp_path, capsys):
    # N = 3, p = 5.9, lambda = 4: the core spans under one uniform spacing,
    # and the graded final mesh brings the residual under its tol (it read
    # 1.42 on the uniform mesh, and the command exited 2)
    out = tmp_path / "land"
    code = run(["landscape", "--dim", "3", "--p", "5.9", "--lambda", "4", "--R", "0", "--out", str(out)])
    assert code == 0
    assert os.path.exists(out / "landscape.json")


def test_groundstate_same_sign_bracket_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_shot_sign", lambda *args: 1.0)
    out = tmp_path / "gs"
    assert run(["groundstate", "--dim", "2", "--out", str(out)]) == 2
    assert "no undershoot bracket" in read_json(out / "diagnostic.json")["failure"]


def test_conditions_subcommand(tmp_path):
    out = tmp_path / "c"
    code = run([
        "conditions", "--field", "gauss:b0=0.3,s=1", "--dim", "2",
        "--p", "4", "--lambda", "1", "--L", "8", "--n", "65", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "conditions.json")
    assert doc["holds_A"] is True
    assert doc["holds_B"] is True
    assert doc["lambda0_estimate"] is not None
    assert doc["lambda0_converged"] is True


def test_landscape_subcommand(tmp_path):
    out = tmp_path / "l"
    code = run([
        "landscape", "--field", "landau:b=0.5", "--dim", "2", "--p", "4",
        "--lambda", "1", "--R", "2", "--T", "3", "--y-step", "1", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "landscape.json")
    assert doc["bracket"]["lower_ok"] and doc["bracket"]["upper_ok"]
    assert doc["boundary_mass"]["tol"] == 1e-6
    surface = np.loadtxt(out / "surface.csv", delimiter=",", skiprows=1)
    assert surface.shape[1] == 4  # y1, y2, t_max, I_value
    with open(out / "surface.csv") as fh:
        assert fh.readline().strip() == "y1,y2,t_max,I_value"


def test_solve_subcommand(tmp_path):
    out = tmp_path / "s"
    code = run([
        "solve", "--field", "landau:b=0.5", "--dim", "2", "--p", "4", "--lambda", "1",
        "--R", "1", "--T", "3", "--y-step", "1", "--tol", "1e-5", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "solve.json")
    assert doc["converged"] is True
    assert doc["residual_norm"]["value"] <= 1e-5
    assert doc["bracket"]["inside"] is True
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert trace.shape[1] == 2


def test_profiles_subcommand(tmp_path):
    spec = {
        "grid": {"L": [24.0, 8.0], "n": [385, 129]},
        "K": 8,
        "field": "gauss:b0=0.4,s=1",
        "profiles": [
            {"amplitude": 1.0, "width": 0.8},
            {"amplitude": 0.8, "width": 0.7, "trajectory": [2.5, 0.0], "wave": [0.4, 0.0]},
            {"amplitude": 0.6, "width": 0.9, "trajectory": [-2.5, 0.0]},
        ],
        "noise": {"amplitude": 0.003, "decay": 0.1, "seed": 3},
        "extract": {"eps_mass": 0.001, "tail_window": 3, "window_radius": 5.0, "rho": 0.5},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "p"
    code = run(["profiles", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    doc = read_json(out / "decomposition.json")
    assert doc["n_terms"] == 3
    assert doc["success"] is True
    assert doc["verification"]["mass_defect"] <= 0.02
    bm = doc["verification"]["boundary_mass"]
    assert bm["value"] <= bm["tol"] == 1e-6
    for idx in range(3):
        assert os.path.exists(out / f"profile_{idx}.csv")


def test_readme_configs_record_boundary_mass(tmp_path):
    # README conditions case: the lambda0 iterate spreads to the window edge
    # (fraction 1.8e-5), and the report says so
    out = tmp_path / "c"
    code = run([
        "conditions", "--field", "gauss:b0=0.3,s=1", "--dim", "2", "--p", "4", "--lambda", "1",
        "--out", str(out),
    ])
    assert code == 0
    bm = read_json(out / "conditions.json")["boundary_mass"]
    assert bm["value"] > bm["tol"] == 1e-6
    # README solve case: the critical point sits well inside the window (5.0e-13)
    out = tmp_path / "s"
    code = run([
        "solve", "--field", "landau:b=0.5", "--dim", "2", "--p", "4", "--lambda", "1",
        "--R", "2", "--T", "3", "--out", str(out),
    ])
    assert code == 0
    bm = read_json(out / "solve.json")["boundary_mass"]
    assert 0.0 <= bm["value"] < bm["tol"] == 1e-6


def test_readme_solve_minres_matvecs(tmp_path, monkeypatch):
    # README solve case: with each Newton system solved to the forcing cap
    # 1e-3 the search takes 56 MINRES matvecs over 4 Newton steps; the cap
    # 0.1 took 77 over 12
    matvecs = []
    minres = solver.minres

    def counted(A, b, *args, **kwargs):
        A = aslinearoperator(A)

        def matvec(x):
            matvecs.append(1)
            return A.matvec(x)

        return minres(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b, *args, **kwargs)

    monkeypatch.setattr(solver, "minres", counted)
    out = tmp_path / "s"
    code = run([
        "solve", "--field", "landau:b=0.5", "--dim", "2", "--p", "4", "--lambda", "1",
        "--R", "2", "--T", "3", "--out", str(out),
    ])
    assert code == 0
    assert 0 < len(matvecs) <= 60
    doc = read_json(out / "solve.json")
    assert doc["iterations"] <= 5
    assert doc["minres_unconverged"] == 0


def test_readme_solve_minres_entry_memory_flat(tmp_path, monkeypatch):
    # README solve case: what is allocated when MINRES starts stays flat over
    # the Newton steps; the previous step's MINRES solution and direction,
    # two complex arrays, must not outlive their step
    entries = []
    minres = solver.minres

    def recorded(A, b, *args, **kwargs):
        entries.append(tracemalloc.get_traced_memory()[0])
        return minres(A, b, *args, **kwargs)

    monkeypatch.setattr(solver, "minres", recorded)
    tracemalloc.start()
    try:
        code = run([
            "solve", "--field", "landau:b=0.5", "--dim", "2", "--p", "4", "--lambda", "1",
            "--R", "2", "--T", "3", "--out", str(tmp_path / "s"),
        ])
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(entries) == 4
    one_field = 129**2 * np.dtype(complex).itemsize
    assert all(abs(e - entries[0]) <= one_field for e in entries[1:]), entries


def test_solve_hands_search_a_lean_grid(tmp_path, monkeypatch):
    # no mesh and no phase table outlives the landscape into the search: only
    # make_shift reads the tables, and nothing in the search reads the mesh
    seen = []
    search = cli.critical_point_search

    def recorded(A, params, seed, **kwargs):
        seen.append(set(getattr(seed.grid, "_cache", {})))
        return search(A, params, seed, **kwargs)

    monkeypatch.setattr(cli, "critical_point_search", recorded)
    run([
        "solve", "--field", "landau:b=0.5", "--dim", "2", "--p", "4", "--lambda", "1",
        "--R", "1", "--T", "3", "--max-iters", "0", "--out", str(tmp_path / "s"),
    ])
    (keys,) = seen
    assert "nodes" not in keys
    assert not [k for k in keys if isinstance(k, tuple) and k[0] == "phase_tables"]


def test_readme_solve_artifacts_independent_of_blas_threads(tmp_path):
    # MINRES takes its inner products in one thread, so the README solve
    # case writes the same bytes under one OpenBLAS thread and under the
    # default; with scipy's minres all three files differed.  At 129^2
    # MINRES's vectors (33k entries) are above OpenBLAS's threading threshold
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"s{len(outs)}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "magnls.cli", "solve", "--field", "landau:b=0.5", "--dim", "2",
                "--p", "4", "--lambda", "1", "--R", "2", "--T", "3", "--out", str(out),
            ],
            env=dict(env, **extra),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("solve.json", "u.csv", "trace.csv"):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


@pytest.mark.parametrize("spec", ["periodic:b=0.5,L=2", "landau:b=1"])
def test_readme_family_solve_converges(tmp_path, spec):
    # with the forcing cap 0.1 both ran all 60 Newton steps and exited 2
    # (residual 1.8e-3 and 6.2e-2)
    out = tmp_path / "s"
    code = run([
        "solve", "--field", spec, "--dim", "2", "--p", "4", "--lambda", "1",
        "--R", "2", "--T", "3", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "solve.json")
    assert doc["converged"]
    assert doc["residual_norm"]["value"] <= doc["residual_norm"]["tol"]
    c_inf = doc["bracket"]["c_inf"]
    assert c_inf < doc["level"] < 2.0 * c_inf
    assert 0.0 <= doc["boundary_mass"]["value"] < doc["boundary_mass"]["tol"]


def test_reproducibility_byte_identical(tmp_path):
    args = ["groundstate", "--dim", "2", "--p", "4", "--lambda", "1"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("w.csv", "gs.json"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_unknown_flag_exits_1(capsys):
    assert run(["groundstate", "--nope"]) == 1
    assert run(["wat"]) == 1


def test_validation_error_exits_1(tmp_path):
    code = run(["gauge", "--field", "nope:b=1", "--y", "1,1", "--dim", "2", "--out", str(tmp_path / "y")])
    assert code == 1


def test_numerical_failure_exits_2_with_diagnostic(tmp_path):
    out = tmp_path / "f"
    # T far too small: the ray is still rising at t = T
    code = run([
        "landscape", "--field", "zero", "--dim", "2", "--p", "4", "--lambda", "1",
        "--R", "1", "--T", "0.4", "--y-step", "1", "--out", str(out),
    ])
    assert code == 2
    doc = read_json(out / "diagnostic.json")
    assert "increase T" in doc["failure"]
    assert os.path.exists(out / "manifest.json")


def test_mass_loss_exits_2_with_diagnostic(tmp_path, capsys):
    # R = 9 reaches lattice shifts that push most of w out of the 129^2 window
    out = tmp_path / "m"
    code = run(["landscape", "--field", "zero", "--R", "9", "--y-step", "3", "--out", str(out)])
    assert code == 2
    assert sorted(os.listdir(out)) == ["diagnostic.json", "manifest.json"]
    doc = read_json(out / "diagnostic.json")
    assert doc["type"] == "MassLossError"
    assert "boundary-mass fraction" in doc["failure"]
    assert "numerical failure" in capsys.readouterr().err


def test_memory_error_exits_2_with_diagnostic(tmp_path, capsys, monkeypatch):
    # a grid too large for memory is a numerical failure, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(cli, "radial_ground_state", exhausted)
    out = tmp_path / "oom"
    code = run(["conditions", "--field", "gauss:b0=0.3,s=1", "--dim", "2", "--out", str(out)])
    assert code == 2
    assert sorted(os.listdir(out)) == ["diagnostic.json", "manifest.json"]
    doc = read_json(out / "diagnostic.json")
    assert doc["type"] == "MemoryError"
    assert "Unable to allocate" in doc["failure"]
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [("landscape", "--R", v) for v in ("-1", "inf", "nan")]
    + [("landscape", "--T", v) for v in ("0", "-1", "inf")]
    + [("solve", "--R", "-1"), ("solve", "--T", "0")],
)
def test_bad_ray_box_exits_1(tmp_path, capsys, monkeypatch, command, flag, value):
    # an empty lattice (R < 0), an unbounded one (R = inf) or an empty ray
    # (T <= 0) is a validation error, not a traceback or a numerical failure,
    # and it is reported before any ground-state shooting
    shots = []
    monkeypatch.setattr(cli, "radial_ground_state", lambda *a, **k: shots.append(a))
    out = tmp_path / "bad"
    args = {"--R": "1", "--T": "3"}
    args[flag] = value
    code = run([
        command, "--field", "zero", "--dim", "2", "--R", args["--R"], "--T", args["--T"],
        "--y-step", "1", "--out", str(out),
    ])
    assert code == 1
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not os.path.exists(out / "diagnostic.json")
    assert shots == []


def _cli(argv, tmp_path):
    """Run ``magnls`` in a fresh interpreter, which shows what an uncaught
    exception or warning would print; a run that stalls fails the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "magnls.cli", *argv, "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [["landscape", "--field", "landau:b=0.5", "--R", "1", "--y-step", v] for v in ("inf", "nan")]
    + [["gauge", "--field", "landau:b=1", "--y", f"{v},0"] for v in ("inf", "nan")]
    + [
        ["conditions", "--L", "inf"],
        ["conditions", "--L", "nan"],
        ["conditions", "--field", "landau:b=inf"],
        ["conditions", "--V", "gauss:s=0"],
        ["groundstate", "--lambda", "inf"],
        ["conditions", "--lambda", "inf"],
        ["landscape", "--R", "1", "--lambda", "inf"],
        ["solve", "--R", "1", "--lambda", "inf"],
    ],
)
def test_non_finite_lattice_input_exits_1(tmp_path, argv):
    # a non-finite lattice step or shift, and any non-finite or degenerate
    # number (extent, field or V parameter, lambda), is a validation error:
    # one error line, with no traceback or RuntimeWarning before it.  An
    # infinite lambda once shot a NaN state whose step size never fell below
    # its floor, so the run never returned
    proc = _cli(argv, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["--p", "2.001", "--lambda", "1000"], ["--p", "3", "--lambda", "1e200"]])
def test_overflowing_ground_state_is_a_numerical_failure(tmp_path, argv):
    # the mapping to lambda overflows a Python float power (OverflowError):
    # exit 2 with the diagnostic and manifest, not a traceback
    proc = _cli(["groundstate", "--dim", "2", *argv], tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr
    assert sorted(os.listdir(tmp_path / "out")) == ["diagnostic.json", "manifest.json"]
    assert read_json(tmp_path / "out" / "diagnostic.json")["type"] == "RuntimeError"


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1"), ("--max-iters", "-3")])
def test_solve_bad_search_limits_exit_1_before_shooting(tmp_path, capsys, monkeypatch, flag, value):
    # a validation error, reported before any shooting, not a numerical failure
    def no_shots(*args, **kwargs):
        raise AssertionError("radial_ground_state ran")

    monkeypatch.setattr(cli, "radial_ground_state", no_shots)
    code = run(["solve", "--field", "landau:b=0.5", "--R", "1", flag, value, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not os.path.exists(tmp_path / "out")


def test_solve_converged_seed_writes_bracket(tmp_path):
    # the landscape seed is already within this tol: no Newton step, and
    # solve.json still brackets the level
    out = tmp_path / "s"
    code = run([
        "solve", "--field", "landau:b=0.5", "--dim", "2", "--L", "6", "--n", "49", "--R", "1",
        "--tol", "10", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "solve.json")
    assert doc["iterations"] == 0 and doc["converged"] is True
    assert doc["bracket"]["level"] == doc["level"]
    assert doc["bracket"]["inside"] is True


@pytest.mark.parametrize("command", ["landscape", "solve"])
def test_bad_y_step_exits_1_before_shooting(tmp_path, capsys, monkeypatch, command):
    # the y-step lattice is checked with R and T, before the ground state is shot
    def no_shots(*args, **kwargs):
        raise AssertionError("radial_ground_state ran")

    monkeypatch.setattr(cli, "radial_ground_state", no_shots)
    code = run([
        command, "--field", "landau:b=0.5", "--R", "1", "--y-step", "0.3", "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "multiple" in err[0]


CONDITIONS_V = ["conditions", "--field", "gauss:b0=0.3,s=1", "--L", "4", "--n", "33"]


def test_v_spec_reaches_conditions(tmp_path):
    # V = 2 lifts the Bprime sum past its bound; V >= lambda holds
    out = tmp_path / "v"
    assert run(CONDITIONS_V + ["--V", "const:v=2", "--out", str(out)]) == 0
    doc = read_json(out / "conditions.json")
    assert doc["holds_Bprime"] is False
    assert doc["holds_V"] is True
    assert read_json(out / "manifest.json")["V"] == "const:v=2"


@pytest.mark.parametrize("spec", ["const:V=2", "gauss:bas=5"])
def test_v_spec_unknown_key_exits_1(tmp_path, capsys, spec):
    assert run(CONDITIONS_V + ["--V", spec, "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize(
    "section, value",
    [
        ("grid", {"L": 8.0, "n": 65}),
        ("noise", 0.01),
        ("extract", {"eps_mas": 0.5}),
        ("profiles", [{"width": 0.8, "trajectory": 4.0}]),
        ("field", 5),
        ("extract", {"tail_window": 0}),
        ("extract", {"max_profiles": -1}),
        ("extract", {"p": 1.5}),
        ("grid", {"L": [12.0, 6.0], "n": [97.6, 49]}),
        ("grid", {"L": 6.0, "n": 49, "dim": 2.5}),
        ("K", 6.7),
        ("extract", {"max_profiles": 1.9}),
        ("extract", {"tail_window": 3.5}),
        ("noise", {"seed": 0.5}),
        ("extract", {"window_radius": 0}),
        ("extract", {"window_radius": float("inf")}),
        ("extract", {"eps_mass": -1}),
        ("K", 4),
        ("extract", {"tail_window": 4}),
        ("profiles", [{"width": -1}]),
        ("profiles", [{"width": 0}]),
        ("profiles", [{"width": float("inf")}]),
        ("profiles", [{"center": [1]}]),
        ("profiles", [{"wave": [1]}]),
        ("profiles", [{"trajectory": [1.0]}]),
        ("profiles", [{"center": [1, 0, 0]}]),
        ("profiles", [{"phase": float("inf")}]),
        ("profiles", [{"wave": [float("inf"), 0]}]),
        ("profiles", [{"amplitude": float("inf")}]),
        ("spreading", {"width": 0}),
        ("noise", {"amplitude": float("inf")}),
        ("extract", {"rho": float("inf")}),
        ("extract", {"rho": 0}),
    ],
    ids=[
        "scalar-L", "noise-number", "extract-typo", "trajectory-number", "field-number", "tail-window-0",
        "max-profiles-negative", "p-1.5", "n-fraction", "dim-fraction", "K-fraction", "max-profiles-fraction",
        "tail-window-fraction", "seed-fraction", "window-radius-0", "window-radius-inf", "eps-mass-negative",
        "K-below-two-tail-windows", "tail-window-above-half-K", "width-negative", "width-0", "width-inf",
        "center-short", "wave-short", "trajectory-short", "center-long", "phase-inf", "wave-inf",
        "amplitude-inf", "spreading-width-0", "noise-amplitude-inf", "rho-inf", "rho-0",
    ],
)
def test_malformed_profiles_spec_exits_1(tmp_path, capsys, monkeypatch, section, value):
    # every option is checked before the sequence is synthesized
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesize_sequence ran")

    monkeypatch.setattr(cli, "synthesize_sequence", no_synthesis)
    spec = {
        "grid": {"L": [12.0, 6.0], "n": [97, 49]},
        "K": 6,
        "profiles": [{"amplitude": 1.0, "width": 0.8}],
        section: value,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["profiles", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "rho" not in str(value) or "rho" in err[0], err


def test_profiles_scalar_L_with_dim(tmp_path):
    spec = {"grid": {"L": 6.0, "n": 49, "dim": 2}, "K": 6, "profiles": [{"width": 0.8}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["profiles", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
    grid = read_json(tmp_path / "out" / "decomposition.json")["grid"]
    assert grid["n"] == [49, 49] and grid["extents"] == [6.0, 6.0]


@pytest.mark.parametrize("case", ["spec-directory", "out-existing-file", "out-below-a-file"])
def test_os_error_exits_1(tmp_path, capsys, case):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"grid": {"L": 6.0, "n": 49, "dim": 2}, "K": 6}))
    taken = tmp_path / "taken"
    taken.write_text("")
    spec_arg, out_arg = {
        "spec-directory": (tmp_path, tmp_path / "out"),
        "out-existing-file": (spec, taken),
        "out-below-a-file": (spec, taken / "sub"),
    }[case]
    assert run(["profiles", "--spec", str(spec_arg), "--out", str(out_arg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize(
    "argv",
    [
        ["conditions", "--tol", "1e-3"],
        ["landscape", "--R", "1", "--seed", "1"],
        ["groundstate", "--L", "4"],
        ["groundstate", "--n", "33"],
        ["groundstate", "--V", "const:v=2"],
        ["gauge", "--y", "1,2", "--tol", "1e-8"],
        ["groundstate", "--rmax", "35"],
        ["groundstate", "--tol", "1e-10"],
    ],
)
def test_unread_flags_rejected(tmp_path, capsys, argv):
    # each flag exists only where a command reads it; the other flags are
    # complete, so the error names the unread one
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert not os.path.exists(tmp_path / "out")
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["landscape", "solve"])
def test_missing_R_exits_1_before_shooting(tmp_path, capsys, monkeypatch, command):
    def no_shots(*args, **kwargs):
        raise AssertionError("radial_ground_state ran")

    monkeypatch.setattr(cli, "radial_ground_state", no_shots)
    assert run([command, "--field", "landau:b=0.5", "--out", str(tmp_path / "out")]) == 1
    assert "--R" in capsys.readouterr().err


def test_profiles_seed_zero_overrides_spec(tmp_path):
    spec = {
        "grid": {"L": [12.0, 6.0], "n": [97, 49]},
        "K": 4,
        "field": "gauss:b0=0.4,s=1",
        "profiles": [
            {"amplitude": 1.0, "width": 0.8},
            {"amplitude": 0.8, "width": 0.7, "trajectory": [2.0, 0.0]},
        ],
        "noise": {"amplitude": 0.05, "decay": 0.1, "seed": 3},
        "extract": {"eps_mass": 0.001, "tail_window": 2, "window_radius": 4.0, "rho": 0.5},
    }
    docs = {}
    for spec_seed, flag in ((3, []), (3, ["--seed", "0"]), (0, [])):
        spec["noise"]["seed"] = spec_seed
        path = tmp_path / f"spec{spec_seed}.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / f"out{spec_seed}{''.join(flag)}"
        assert run(["profiles", "--spec", str(path), "--out", str(out)] + flag) == 0
        docs[(spec_seed, tuple(flag))] = (out / "decomposition.json").read_bytes()
    assert docs[(3, ())] != docs[(0, ())]  # the noise seed reaches the artifact
    assert docs[(3, ("--seed", "0"))] == docs[(0, ())]
