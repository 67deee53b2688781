"""Command-line orchestration: parse a run config, dispatch, write artifacts.

Every run writes a manifest echoing the resolved configuration next to its
CSV/JSON outputs, and identical configurations produce byte-identical files.
Exit codes: 0 success, 1 validation error or an operating-system error on
an input or output path (one ``error:`` line on stderr), 2 numerical failure:
any ``RuntimeError``, mass loss of a shift included, or a ``MemoryError`` from
a grid too large for memory (with a diagnostic report still written).
"""

import argparse
import json as _json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import io as mio
from .calculus import (
    BOUNDARY_MASS_TOL,
    FunctionalParams,
    Grid,
    RealField,
    _whole,
    default_grid,
)
from .field import _read_spec, curl, curl_of_samples, parse_field_spec
from .gauge import (
    QUAD_TOL,
    VANISHING_TOL,
    _drop_tables,
    corrected_potential,
    corrected_potential_samples,
    linear_bound_check,
    rephase_field,
)
from .profiles import (
    Discretization,
    ExtractOpts,
    ProfileSpec,
    SyntheticSpec,
    extract_profiles,
    synthesize_sequence,
    verify_decomposition,
)
from .solver import (
    NEHARI_TOL,
    check_ray_box,
    condition_report,
    critical_point_search,
    landscape_eval,
    landscape_seed,
    lattice_steps,
    radial_ground_state,
    _SHOT_TOL,
    _check_search_limits,
)

__all__ = ["main", "run"]


def _parse_point(text: str, dim: int) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != dim:
        raise ValueError(f"point '{text}' has {len(parts)} coordinates, expected {dim}")
    return np.array(parts)


_V_SPECS = {"const": ("v",), "gauss": ("base", "amp", "s")}


def _parse_v_spec(text: str, grid: Grid) -> RealField:
    """Electric potential grammar: const:v=<f> | gauss:base=<f>,amp=<f>,s=<f>."""
    name, params = _read_spec(text, _V_SPECS, "V spec")
    if name == "const":
        return RealField(grid, np.full(grid.shape, params.get("v", 1.0)))
    base = params.get("base", 1.0)
    amp = params.get("amp", 1.0)
    s = params.get("s", 1.0)
    if not s > 0:
        raise ValueError(f"V spec 'gauss' needs s > 0, got {s}")
    r2 = np.sum(grid.nodes() ** 2, axis=-1)
    return RealField(grid, base + amp * np.exp(-r2 / s**2))


def _make_grid(args) -> Grid:
    g = default_grid(args.dim)
    L = args.L if args.L is not None else g.extents[0]
    n = args.n if args.n is not None else g.n[0]
    return Grid(L, n, dim=args.dim)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnls",
        description="Magnetic gauge calculus, ground states, minimax levels, and profile extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, window=True, functional=True):
        sp.add_argument("--dim", type=int, default=2)
        if window:
            sp.add_argument("--field", default="zero", help="zero | landau:b=<f> | symmetric:b=<f> | gauss:b0=<f>,s=<f> | periodic:b=<f>,L=<f>")
            sp.add_argument("--L", type=float, default=None, help="window half-width")
            sp.add_argument("--n", type=int, default=None, help="nodes per axis (odd)")
        if functional:
            sp.add_argument("--p", type=float, default=4.0)
            sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
        if window and functional:  # V is sampled on the window
            sp.add_argument("--V", default=None, help="const:v=<f> | gauss:base=<f>,amp=<f>,s=<f>")
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("gauge", help="re-phasing field and corrected potential")
    common(sp, functional=False)
    sp.add_argument("--y", required=True, help="base point, comma-separated")
    sp.add_argument("--normalization", choices=("at_base", "at_half"), default="at_base")

    sp = sub.add_parser("groundstate", help="radial profile of the field-free limit problem")
    common(sp, window=False)

    sp = sub.add_parser("conditions", help="field smallness and vanishing-at-infinity report")
    common(sp)

    sp = sub.add_parser("landscape", help="pass surface over shifted, scaled profiles")
    common(sp)
    sp.add_argument("--R", type=float, required=True, help="radius of the ball of shifts y")
    sp.add_argument("--T", type=float, default=3.0)
    sp.add_argument("--y-step", dest="y_step", type=float, default=None)

    sp = sub.add_parser("solve", help="critical-point search from the landscape seed")
    common(sp)
    sp.add_argument("--R", type=float, required=True, help="radius of the ball of shifts y")
    sp.add_argument("--T", type=float, default=3.0)
    sp.add_argument("--y-step", dest="y_step", type=float, default=None)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=60)
    sp.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")

    sp = sub.add_parser("profiles", help="synthesize a planted sequence and extract its profiles")
    sp.add_argument("--spec", required=True, help="JSON document describing the synthetic sequence")
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=None, help="noise seed, overriding the spec's")

    return parser


def _outdir(args) -> str:
    out = args.out or os.path.join("magnls_out", args.command)
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(args, out: str, extra=None) -> None:
    doc = {k: v for k, v in vars(args).items() if k != "func"}
    doc["version"] = 1
    if extra:
        doc.update(extra)
    mio.write_json(doc, os.path.join(out, "manifest.json"))


def _run_gauge(args) -> int:
    out = _outdir(args)
    grid = _make_grid(args)
    A = parse_field_spec(args.field, dim=args.dim)
    y = _parse_point(args.y, args.dim)
    phase = rephase_field(A, y, grid, normalization=args.normalization)
    cp = corrected_potential(A, phase, grid)
    B = curl(A, tuple((-L, L) for L in grid.extents), min(grid.n))
    bound = linear_bound_check(cp, B)

    # curl of the corrected samples against the analytic curl of A at the nodes
    jac = A.jacobian(grid.nodes())
    sampled = curl_of_samples(cp.samples, grid.h)
    curl_err = 0.0
    for (m, n), bc in sampled.items():
        exact = jac[..., m - 1, n - 1] - jac[..., n - 1, m - 1]
        curl_err = max(curl_err, float(np.max(np.abs(bc - exact))))

    # slab vanishing: component n on the slab x_1=y_1..x_{n-1}=y_{n-1}
    slab_err = 0.0
    for n in range(1, grid.dim + 1):
        axes = [np.array([y[m]]) for m in range(n - 1)] + [grid.axes[m] for m in range(n - 1, grid.dim)]
        samples = corrected_potential_samples(A, y, axes)
        slab_err = max(slab_err, float(np.max(np.abs(samples[n - 1]))))

    mio.field_to_csv(phase.samples, os.path.join(out, "phi.csv"))
    mio.covector_to_csv(grid, cp.samples, os.path.join(out, "ay.csv"))
    report = {
        "base_point": y.tolist(),
        "normalization": args.normalization,
        "quad_tol": QUAD_TOL,
        "max_bound_violation": {"value": bound["max_violation"], "tol": bound["tol"]},
        "curl_error": {"value": curl_err, "note": "finite-difference curl of A_y vs analytic curl of A"},
        "slab_error": {"value": slab_err, "tol": 1e-8},
        "grid": mio.grid_header(grid),
    }
    mio.write_json(report, os.path.join(out, "report.json"))
    _manifest(args, out)
    return 0


def _run_groundstate(args) -> int:
    out = _outdir(args)
    gs = radial_ground_state(args.dim, args.p, args.lam)
    mio.radial_to_csv(gs.r, {"w": gs.w, "dw": gs.dw}, os.path.join(out, "w.csv"))
    doc = {
        "N": gs.N,
        "p": gs.p,
        "lambda": gs.lam,
        "u0": gs.u0,
        "norm2": gs.norm2,
        "normp": gs.normp,
        "energy": gs.energy,
        "c_inf": gs.c_inf,
        "nehari_residual": {"value": gs.nehari_residual(), "tol": NEHARI_TOL},
        "ode_tol": _SHOT_TOL,
    }
    mio.write_json(doc, os.path.join(out, "gs.json"))
    _manifest(args, out)
    return 0


def _functional_params(args, grid) -> FunctionalParams:
    V = _parse_v_spec(args.V, grid) if args.V else None
    return FunctionalParams(p=args.p, lam=args.lam, V=V, dim=args.dim)


def _run_conditions(args) -> int:
    out = _outdir(args)
    grid = _make_grid(args)
    A = parse_field_spec(args.field, dim=args.dim)
    params = _functional_params(args, grid)
    gs = radial_ground_state(args.dim, args.p, args.lam)
    rep = condition_report(A, gs, params, window=max(grid.extents), grid=grid, lambda0=True)
    doc = asdict(rep)
    doc["tolerances"] = {"vanishing_at_infinity": VANISHING_TOL}
    mio.write_json(doc, os.path.join(out, "conditions.json"))
    _manifest(args, out)
    return 0


def _surface(args):
    """Grid, field, params, ground state and pass surface of ``landscape`` and ``solve``.

    R, T and the y-step lattice are checked before the ground state is shot.
    """
    grid = _make_grid(args)
    A = parse_field_spec(args.field, dim=args.dim)
    params = _functional_params(args, grid)
    check_ray_box(args.R, args.T)
    lattice_steps(grid, args.y_step)
    gs = radial_ground_state(args.dim, args.p, args.lam)
    land = landscape_eval(A, gs, params, grid, R=args.R, T=args.T, y_step=args.y_step)
    return grid, A, params, gs, land


def _run_landscape(args) -> int:
    out = _outdir(args)
    grid, _, _, _, land = _surface(args)
    mio.surface_to_csv(land.y_points, land.t_max, land.values, os.path.join(out, "surface.csv"))
    doc = {
        "max": land.max_value,
        "max_point": land.max_point.tolist(),
        "seed_point": land.seed_point.tolist(),
        "sigma": land.sigma,
        "bracket": land.bracket,
        "eta_matches": land.eta_matches,
        "R": land.R,
        "T": land.T,
        "boundary_mass": land.boundary_mass,
        "grid": mio.grid_header(grid),
    }
    mio.write_json(doc, os.path.join(out, "landscape.json"))
    _manifest(args, out)
    return 0


def _seed(land, gs, A, grid):
    """The landscape's seed, with A's phase tables dropped: no shift is made after it.

    ``_run_solve`` passes the result straight to the search and keeps no name
    for it, so the search's own copy is the only one left.
    """
    seed = landscape_seed(land, gs, A, grid)
    _drop_tables(A, grid)
    return seed


def _run_solve(args) -> int:
    _check_search_limits(args.tol, args.max_iters)
    out = _outdir(args)
    grid, A, params, gs, land = _surface(args)
    res = critical_point_search(A, params, _seed(land, gs, A, grid), tol=args.tol, max_iters=args.max_iters, gs=gs)
    mio.field_to_csv(res.u, os.path.join(out, "u.csv"))
    mio.trace_to_csv(res.trace, os.path.join(out, "trace.csv"))
    doc = {
        "level": res.level,
        "residual_norm": {"value": res.residual_norm, "tol": args.tol},
        "boundary_mass": {"value": res.u.boundary_mass_fraction(), "tol": BOUNDARY_MASS_TOL},
        "iterations": res.iterations,
        "converged": res.converged,
        "minres_unconverged": sum(1 for info in res.minres_info if info != 0),
        "stalled": res.stalled,
        "trivial": res.trivial,
        "bracket": res.bracket,
        "seed_point": land.seed_point.tolist(),
        "landscape_max": land.max_value,
        "grid": mio.grid_header(grid),
    }
    mio.write_json(doc, os.path.join(out, "solve.json"))
    _manifest(args, out)
    return 0 if (res.converged and not res.trivial) else 2


_EXTRACT_KEYS = ("eps_mass", "max_profiles", "tail_window", "agree_tol", "window_radius", "p")


def _spec_section(value, name: str, keys) -> dict:
    """A section of the ``profiles`` spec: a JSON object holding only ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"spec {name} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"spec {name} has unknown keys {unknown}; known: {list(keys)}")
    return value


def _read_profiles_spec(text: str):
    """Grid, K, synthetic spec, extraction options and scan rho of a ``profiles`` spec document."""
    top = ("grid", "K", "field", "profiles", "noise", "spreading", "extract")
    doc = _spec_section(_json.loads(text), "document", top)
    gspec = _spec_section(doc.get("grid", {}), "grid", ("L", "n", "dim"))
    if "dim" not in gspec and not isinstance(gspec.get("L", [1, 1]), list):
        raise ValueError("spec grid: a scalar L needs dim")
    dim = _whole(gspec["dim"]) if "dim" in gspec else len(gspec.get("L", [1, 1]))
    grid = Grid(gspec.get("L", 8.0), gspec.get("n", 129), dim=dim)

    def finite(value, name, positive=False):
        if not np.all(np.isfinite(value)) or (positive and not value > 0):
            raise ValueError(f"spec {name} must be finite{' and > 0' if positive else ''}, got {value}")
        return value

    def point(q, key):
        entries = finite(tuple(float(c) for c in q[key]), f"profile {key}")
        if len(entries) != dim:
            raise ValueError(f"spec profile {key} has {len(entries)} entries, expected {dim}")
        return entries

    shapes = []
    for q in doc.get("profiles", []):
        q = _spec_section(q, "profile", ("amplitude", "phase", "width", "wave", "center", "trajectory"))
        shapes.append(
            ProfileSpec(
                amplitude=finite(complex(q.get("amplitude", 1.0)), "profile amplitude")
                * np.exp(1j * finite(float(q.get("phase", 0.0)), "profile phase")),
                width=finite(float(q.get("width", 1.0)), "profile width", positive=True),
                wave=point(q, "wave") if "wave" in q else None,
                center=point(q, "center") if "center" in q else (),
                direction=point(q, "trajectory") if "trajectory" in q else (),
            )
        )
    noise = _spec_section(doc.get("noise", {}), "noise", ("amplitude", "decay", "seed"))
    spreading = _spec_section(doc.get("spreading", {}), "spreading", ("amplitude", "width"))
    if not isinstance(doc.get("field", ""), str):
        raise ValueError("spec field must be a field specification string")
    spec = SyntheticSpec(
        profiles=shapes,
        field=parse_field_spec(doc["field"], dim=dim) if "field" in doc else None,
        noise_amplitude=finite(float(noise.get("amplitude", 0.0)), "noise amplitude"),
        noise_decay=finite(float(noise.get("decay", 0.1)), "noise decay"),
        noise_seed=_whole(noise.get("seed", 0)),
        spreading_amplitude=finite(float(spreading.get("amplitude", 0.0)), "spreading amplitude"),
        spreading_width=finite(float(spreading.get("width", 1.0)), "spreading width", positive=True),
    )
    ex = _spec_section(doc.get("extract", {}), "extract", _EXTRACT_KEYS + ("rho",))
    opts = ExtractOpts(**{key: float(ex[key]) for key in _EXTRACT_KEYS if key in ex})
    K = _whole(doc.get("K", 8))
    if K < 2 * opts.tail_window:
        raise ValueError(f"K must be at least 2 * tail_window = {2 * opts.tail_window}, got {K}")
    return grid, K, spec, opts, finite(float(ex.get("rho", 1.0)), "extract rho", positive=True)


def _run_profiles(args) -> int:
    out = _outdir(args)
    with open(args.spec) as fh:
        text = fh.read()
    try:
        grid, K, spec, opts, rho = _read_profiles_spec(text)
    except TypeError as exc:  # a value of the wrong JSON type, e.g. a number where a list belongs
        raise ValueError(f"malformed spec value: {exc}") from None
    if args.seed is not None:
        spec.noise_seed = args.seed
    params = FunctionalParams(p=opts.p, lam=1.0, dim=grid.dim)
    xi = Discretization.cubic(grid, rho=rho)
    seq, truth = synthesize_sequence(spec, grid, K)
    dec = extract_profiles(seq, spec.field, xi, opts)
    report = verify_decomposition(dec, seq, spec.field, params)
    for term in dec.terms:
        mio.field_to_csv(term.profile, os.path.join(out, f"profile_{term.index}.csv"))
    docout = {
        "n_terms": len(dec.terms),
        "success": dec.success,
        "warnings": dec.warnings,
        "terms": [
            {
                "index": t.index,
                "trajectory": [np.asarray(yy).tolist() for yy in t.trajectory],
                "tail_agreement": {"value": t.tail_agreement, "tol": opts.agree_tol},
                "a_inf_converged": t.a_inf_converged,
            }
            for t in dec.terms
        ],
        "verification": report,
        "grid": mio.grid_header(grid),
        "extract_opts": asdict(opts),
    }
    mio.write_json(docout, os.path.join(out, "decomposition.json"))
    _manifest(args, out)
    return 0


_RUNNERS = {
    "gauge": _run_gauge,
    "groundstate": _run_groundstate,
    "conditions": _run_conditions,
    "landscape": _run_landscape,
    "solve": _run_solve,
    "profiles": _run_profiles,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _RUNNERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        out = _outdir(args)
        mio.write_json({"failure": str(exc), "type": type(exc).__name__}, os.path.join(out, "diagnostic.json"))
        _manifest(args, out)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
