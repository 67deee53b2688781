"""The four benchmark workloads: their CLI inputs and the checks on their artifacts.

Each workload is one ``magnls`` command.  Only ``profiles`` has random input:
the benchmark seed becomes the noise seed of its generated spec.  The other
three commands are deterministic and ignore the seed.

The checks compare artifacts with values recorded at the commit that added
the benchmark, to the stated tolerances, or with the planted truth.  They use
tolerances because the solve level differs at 1e-15 between OpenBLAS thread
counts.
"""

import json
import os

_SOLVE_2D = "solve --field landau:b=0.5 --dim 2 --p 4 --lambda 1 --R 2 --T 3"
_SOLVE_3D = "solve --field landau:b=0.5 --dim 3 --L 6 --n 65 --p 4 --lambda 1 --R 0.75 --y-step 0.75 --T 3"
_CONDITIONS = "conditions --field gauss:b0=0.3,s=1 --dim 2 --p 4 --lambda 1"

# field-free level c_inf of the 2-D (p=4, lambda=1) ground state, from radial shooting
C_INF_2D = 5.850448220691399
C_INF_REL_TOL = 1e-8
# 3-D grid level at h=0.1875; it sits below c_inf (18.8973), so no bracket check
LEVEL_3D = 18.7272599827031
LEVEL_3D_REL_TOL = 1e-6
# bottom of the magnetic quadratic form; the minimizer stops at a projected
# gradient of 1e-6, far tighter than this tolerance
LAMBDA0 = 0.07562770340594425
LAMBDA0_REL_TOL = 1e-4

# the acceptance suite's criterion-11 sequence: 577x129 window, K=8
PROFILES_K = 8
PROFILES_MOVES = [None, (4.0, 0.0), (-4.0, 0.0)]
PROFILES_RHO = 1.0


def profiles_spec(seed):
    return {
        "grid": {"L": [36.0, 8.0], "n": [577, 129]},
        "K": PROFILES_K,
        "field": "gauss:b0=0.5,s=1",
        "profiles": [
            {"amplitude": 1.0, "width": 0.8},
            {"amplitude": 0.9, "width": 0.7, "trajectory": [4.0, 0.0], "wave": [0.5, 0.0]},
            {"amplitude": 0.7, "width": 0.9, "trajectory": [-4.0, 0.0]},
        ],
        "noise": {"amplitude": 5e-3, "decay": 0.1, "seed": seed},
        "extract": {"eps_mass": 1e-3, "tail_window": 4, "window_radius": 5.0, "rho": PROFILES_RHO},
    }


def build_inputs(name, seed, workdir):
    """Write the workload's input files under ``workdir`` and return its CLI argv."""
    out = ["--out", os.path.join(workdir, "out")]
    if name == "surface-2d":
        return _SOLVE_2D.split() + out
    if name == "solve-3d":
        return _SOLVE_3D.split() + out
    if name == "conditions":
        return _CONDITIONS.split() + out
    if name == "profiles":
        path = os.path.join(workdir, "spec.json")
        with open(path, "w") as fh:
            json.dump(profiles_spec(seed), fh)
        return ["profiles", "--spec", path] + out
    raise ValueError(f"unknown workload {name!r}")


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _rel_close(value, ref, tol):
    return abs(value - ref) <= tol * abs(ref)


def _check_solve(doc):
    res = doc["residual_norm"]
    return [
        ("converged", doc["converged"] is True and doc["trivial"] is False, f"converged={doc['converged']}"),
        ("residual<=tol", res["value"] <= res["tol"], f"{res['value']:.3e} <= {res['tol']:.0e}"),
    ]


def _check_surface_2d(out):
    doc = _load(out, "solve.json")
    c_inf, level = doc["bracket"]["c_inf"], doc["level"]
    return _check_solve(doc) + [
        ("c_inf", _rel_close(c_inf, C_INF_2D, C_INF_REL_TOL), f"{c_inf:.12g} vs {C_INF_2D:.12g} (rel {C_INF_REL_TOL:.0e})"),
        ("c_inf<level<2c_inf", c_inf < level < 2.0 * c_inf, f"{c_inf:.6f} < {level:.6f} < {2 * c_inf:.6f}"),
    ]


def _check_solve_3d(out):
    doc = _load(out, "solve.json")
    level = doc["level"]
    return _check_solve(doc) + [
        ("level", _rel_close(level, LEVEL_3D, LEVEL_3D_REL_TOL), f"{level:.12g} vs {LEVEL_3D:.12g} (rel {LEVEL_3D_REL_TOL:.0e})"),
    ]


def _check_conditions(out):
    doc = _load(out, "conditions.json")
    lam0 = doc["lambda0_estimate"]
    return [
        ("holds_A", doc["holds_A"] is True, f"holds_A={doc['holds_A']}"),
        ("holds_B", doc["holds_B"] is True, f"holds_B={doc['holds_B']}"),
        (
            "lambda0",
            lam0 is not None and _rel_close(lam0, LAMBDA0, LAMBDA0_REL_TOL),
            f"{lam0} vs {LAMBDA0:.12g} (rel {LAMBDA0_REL_TOL:.0e})",
        ),
    ]


def _check_profiles(out):
    doc = _load(out, "decomposition.json")
    recovered = [term["trajectory"] for term in doc["terms"]]

    def near(traj, move):
        # every step within rho (max norm) of the planted position k * move
        step = move or (0.0, 0.0)
        return len(traj) == PROFILES_K and all(
            max(abs(traj[k][0] - k * step[0]), abs(traj[k][1] - k * step[1])) <= PROFILES_RHO for k in range(PROFILES_K)
        )

    checks = [
        ("n_terms==3", doc["n_terms"] == 3, f"n_terms={doc['n_terms']}"),
        ("success", doc["success"] is True, f"success={doc['success']}"),
    ]
    for move in PROFILES_MOVES:
        label = f"trajectory {move or 'stationary'}"
        checks.append((label, any(near(t, move) for t in recovered), f"within rho={PROFILES_RHO} at every step"))
    return checks


CHECKS = {
    "surface-2d": _check_surface_2d,
    "solve-3d": _check_solve_3d,
    "conditions": _check_conditions,
    "profiles": _check_profiles,
}


def check(name, out):
    """List of (check, passed, detail); a missing or malformed artifact is one failed check."""
    try:
        return [(label, bool(ok), detail) for label, ok, detail in CHECKS[name](out)]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [("artifacts readable", False, f"{type(exc).__name__}: {exc}")]
