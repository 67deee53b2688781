import filecmp
import json
import os

import numpy as np
import pytest

from magnls import cli
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


@pytest.mark.parametrize("argv", [["conditions", "--tol", "1e-3"], ["landscape", "--seed", "1"]])
def test_unread_flags_rejected(argv):
    # --tol and --seed exist only where a command reads them
    assert run(argv) == 1


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
