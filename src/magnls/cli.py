"""Command-line orchestration: parse a run config, dispatch, write artifacts.

Every run writes a manifest echoing the resolved configuration next to its
CSV/JSON outputs, and identical configurations produce byte-identical files.
Exit codes: 0 success, 1 validation error, 2 numerical failure (with a
diagnostic report still written).
"""

import argparse
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
    default_grid,
)
from .field import curl, parse_field_spec
from .gauge import (
    MassLossError,
    QuadratureError,
    corrected_potential,
    corrected_potential_samples,
    linear_bound_check,
    rephase_field,
)
from .profiles import Discretization, ExtractOpts, SyntheticSpec, extract_profiles, synthesize_sequence, verify_decomposition
from .solver import (
    DivergenceError,
    check_ray_box,
    condition_report,
    critical_point_search,
    landscape_eval,
    landscape_seed,
    radial_ground_state,
)

__all__ = ["main", "run"]


def _parse_point(text: str, dim: int) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != dim:
        raise ValueError(f"point '{text}' has {len(parts)} coordinates, expected {dim}")
    return np.array(parts)


def _parse_v_spec(text: str, grid: Grid) -> RealField:
    """Electric potential grammar: const:v=<f> | gauss:base=<f>,amp=<f>,s=<f>."""
    name, _, rest = text.partition(":")
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        params[key.strip()] = float(val)
    if name == "const":
        return RealField(grid, np.full(grid.shape, params.get("v", 1.0)))
    if name == "gauss":
        base = params.get("base", 1.0)
        amp = params.get("amp", 1.0)
        s = params.get("s", 1.0)
        r2 = np.sum(grid.nodes() ** 2, axis=-1)
        return RealField(grid, base + amp * np.exp(-r2 / s**2))
    raise ValueError(f"unknown V spec '{name}' (known: const, gauss)")


def _make_grid(args) -> Grid:
    if args.L is None and args.n is None:
        return default_grid(args.dim)
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

    def common(sp, field=True, functional=True):
        if field:
            sp.add_argument("--field", default="zero", help="zero | landau:b=<f> | symmetric:b=<f> | gauss:b0=<f>,s=<f> | periodic:b=<f>,L=<f>")
        sp.add_argument("--dim", type=int, default=2)
        sp.add_argument("--L", type=float, default=None, help="window half-width")
        sp.add_argument("--n", type=int, default=None, help="nodes per axis (odd)")
        if functional:
            sp.add_argument("--p", type=float, default=4.0)
            sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
            sp.add_argument("--V", default=None, help="const:v=<f> | gauss:base=<f>,amp=<f>,s=<f>")
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("gauge", help="re-phasing field and corrected potential")
    common(sp, functional=False)
    sp.add_argument("--y", required=True, help="base point, comma-separated")
    sp.add_argument("--normalization", choices=("at_base", "at_half"), default="at_base")
    sp.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")

    sp = sub.add_parser("groundstate", help="radial profile of the field-free limit problem")
    common(sp, field=False)
    sp.add_argument("--rmax", type=float, default=35.0)
    sp.add_argument("--tol", type=float, default=1e-10, help="shooting tolerance")

    sp = sub.add_parser("conditions", help="field smallness and vanishing-at-infinity report")
    common(sp)

    sp = sub.add_parser("landscape", help="pass surface over shifted, scaled profiles")
    common(sp)
    sp.add_argument("--R", type=float, default=None)
    sp.add_argument("--T", type=float, default=3.0)
    sp.add_argument("--y-step", dest="y_step", type=float, default=None)

    sp = sub.add_parser("solve", help="critical-point search from the landscape seed")
    common(sp)
    sp.add_argument("--R", type=float, default=None)
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
    phase = rephase_field(A, y, grid, quad_tol=args.tol, normalization=args.normalization)
    cp = corrected_potential(A, phase, grid)
    B = curl(A, tuple((-L, L) for L in grid.extents), min(grid.n))
    bound = linear_bound_check(cp, B)

    # curl of the corrected samples against the analytic curl of A at the nodes
    from .field import curl_of_samples

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
        samples = corrected_potential_samples(A, y, axes, args.tol)
        slab_err = max(slab_err, float(np.max(np.abs(samples[n - 1]))))

    mio.field_to_csv(phase.samples, os.path.join(out, "phi.csv"))
    mio.covector_to_csv(grid, cp.samples, os.path.join(out, "ay.csv"))
    report = {
        "base_point": y.tolist(),
        "normalization": args.normalization,
        "quad_tol": args.tol,
        "max_bound_violation": {"value": bound["max_violation"], "tol": 1e-8},
        "curl_error": {"value": curl_err, "note": "finite-difference curl of A_y vs analytic curl of A"},
        "slab_error": {"value": slab_err, "tol": 1e-8},
        "grid": mio.grid_header(grid),
    }
    mio.write_json(report, os.path.join(out, "report.json"))
    _manifest(args, out)
    return 0


def _run_groundstate(args) -> int:
    out = _outdir(args)
    gs = radial_ground_state(args.dim, args.p, args.lam, r_max=args.rmax, tol=args.tol)
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
        "nehari_residual": {"value": gs.nehari_residual(), "tol": 1e-6},
        "ode_tol": args.tol,
    }
    mio.write_json(doc, os.path.join(out, "gs.json"))
    _manifest(args, out)
    return 0


def _functional_params(args, grid) -> FunctionalParams:
    V = _parse_v_spec(args.V, grid) if getattr(args, "V", None) else None
    return FunctionalParams(p=args.p, lam=args.lam, V=V, dim=args.dim)


def _run_conditions(args) -> int:
    out = _outdir(args)
    grid = _make_grid(args)
    A = parse_field_spec(args.field, dim=args.dim)
    params = _functional_params(args, grid)
    gs = radial_ground_state(args.dim, args.p, args.lam)
    rep = condition_report(A, gs, params, window=max(grid.extents), grid=grid, lambda0=True)
    doc = asdict(rep)
    doc["tolerances"] = {"vanishing_at_infinity": 1e-6}
    mio.write_json(doc, os.path.join(out, "conditions.json"))
    _manifest(args, out)
    return 0


def _run_landscape(args) -> int:
    out = _outdir(args)
    grid = _make_grid(args)
    A = parse_field_spec(args.field, dim=args.dim)
    params = _functional_params(args, grid)
    check_ray_box(args.R, args.T)
    gs = radial_ground_state(args.dim, args.p, args.lam)
    land = landscape_eval(A, gs, params, grid, R=args.R, T=args.T, y_step=args.y_step)
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


def _run_solve(args) -> int:
    out = _outdir(args)
    grid = _make_grid(args)
    A = parse_field_spec(args.field, dim=args.dim)
    params = _functional_params(args, grid)
    check_ray_box(args.R, args.T)
    gs = radial_ground_state(args.dim, args.p, args.lam)
    land = landscape_eval(A, gs, params, grid, R=args.R, T=args.T, y_step=args.y_step)
    seed = landscape_seed(land, gs, A, grid)
    res = critical_point_search(A, params, seed, tol=args.tol, max_iters=args.max_iters, gs=gs)
    mio.field_to_csv(res.u, os.path.join(out, "u.csv"))
    mio.trace_to_csv(res.trace, os.path.join(out, "trace.csv"))
    doc = {
        "level": res.level,
        "residual_norm": {"value": res.residual_norm, "tol": args.tol},
        "boundary_mass": {"value": res.u.boundary_mass_fraction(), "tol": BOUNDARY_MASS_TOL},
        "iterations": res.iterations,
        "converged": res.converged,
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


def _run_profiles(args) -> int:
    out = _outdir(args)
    with open(args.spec) as fh:
        text = fh.read()
    import json as _json

    doc = _json.loads(text)
    gspec = doc.get("grid", {})
    dim = int(gspec.get("dim", len(gspec.get("L", [1, 1]))))
    grid = Grid(gspec.get("L", 8.0), gspec.get("n", 129), dim=dim)
    K = int(doc.get("K", 8))
    spec = SyntheticSpec.from_json(text, dim=dim)
    if args.seed is not None:
        spec.noise_seed = args.seed
    seq, truth = synthesize_sequence(spec, grid, K)
    ex = doc.get("extract", {})
    opts = ExtractOpts(
        eps_mass=float(ex.get("eps_mass", 1e-3)),
        max_profiles=int(ex.get("max_profiles", 6)),
        tail_window=int(ex.get("tail_window", 3)),
        agree_tol=float(ex.get("agree_tol", 5e-2)),
        window_radius=float(ex.get("window_radius", 6.0)),
        p=float(ex.get("p", 4.0)),
    )
    xi = Discretization.cubic(grid, rho=float(ex.get("rho", 1.0)))
    dec = extract_profiles(seq, spec.field, xi, opts)
    params = FunctionalParams(p=opts.p, lam=1.0, dim=dim)
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
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, MassLossError, DivergenceError, RuntimeError) as exc:
        out = _outdir(args)
        mio.write_json({"failure": str(exc), "type": type(exc).__name__}, os.path.join(out, "diagnostic.json"))
        _manifest(args, out)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
