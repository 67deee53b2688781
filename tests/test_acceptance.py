"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured values next to their tolerances.
"""

import filecmp
import json

import numpy as np
import pytest

from magnls.calculus import (
    ComplexField,
    FunctionalParams,
    Grid,
    bump,
    covariant_gradient,
    diamagnetic_check,
    energy_EA,
    inner,
    lp_norm,
    magnetic_laplacian,
    prepare_potential,
)
from magnls.field import curl, curl_of_samples, field_library
from magnls.gauge import (
    ShiftedCorrectedField,
    composition_constant,
    corrected_potential,
    corrected_potential_samples,
    linear_bound_check,
    make_shift,
    rephase_field,
    shift_apply,
    shift_invert,
)
from magnls.profiles import (
    Discretization,
    ExtractOpts,
    ProfileSpec,
    SyntheticSpec,
    extract_profiles,
    synthesize_sequence,
    verify_decomposition,
)
from magnls.solver import (
    critical_point_search,
    landscape_eval,
    landscape_seed,
    minimize_constrained,
)

PARAMS2 = FunctionalParams(p=4.0, lam=1.0, dim=2)
GRID2 = Grid(8.0, 129, dim=2)


def report(num, desc, ok, detail=""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} — {detail}"


def test_criterion_01_gauge_closed_form():
    A = field_library("landau", b=1.0)
    y = (1.0, 2.0)
    phase = rephase_field(A, y, GRID2)
    X = GRID2.nodes()
    phi_err = float(np.max(np.abs(phase.samples.values - (-1.0 * (X[..., 1] - 2.0)))))
    cp = corrected_potential(A, phase, GRID2)
    ay_err = float(
        max(np.max(np.abs(cp.samples[0])), np.max(np.abs(cp.samples[1] - (X[..., 0] - 1.0))))
    )
    report(1, "re-phasing and corrected potential match the closed form",
           phi_err <= 1e-8 and ay_err <= 1e-8,
           f"phi sup err {phi_err:.2e}, A_y sup err {ay_err:.2e}, tol 1e-8")


def test_criterion_02_gauge_identities():
    fields = [
        field_library("landau", b=1.0),
        field_library("symmetric", b=1.0),
        field_library("gaussian_decay", b0=0.5, s=1.0),
    ]
    base_points = [(0.0, 0.0), (1.0, 2.0), (-2.0, 0.5), (0.25, -0.25), (-1.5, -1.5)]

    base_err = 0.0
    slab_err = 0.0
    violations = 0
    for A in fields:
        B = curl(A, 8.0, 129)
        for y in base_points:
            yv = np.asarray(y, dtype=float)
            at_y = corrected_potential_samples(A, yv, [np.array([c]) for c in yv])
            base_err = max(base_err, float(np.max(np.abs(at_y))))
            for n in (1, 2):
                axes = [np.array([yv[m]]) for m in range(n - 1)] + [GRID2.axes[m] for m in range(n - 1, 2)]
                slab = corrected_potential_samples(A, yv, axes)
                slab_err = max(slab_err, float(np.max(np.abs(slab[n - 1]))))
            cp = corrected_potential(A, rephase_field(A, yv, GRID2), GRID2)
            rep = linear_bound_check(cp, B)
            violations += rep["violating_nodes"]

    # gauge invariance of the curl, with the factor-4 error reduction
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    errs = []
    for n in (65, 129):
        grid = Grid(4.0, n, dim=2)
        cp = corrected_potential(A, rephase_field(A, (0.5, 0.25), grid), grid)
        sampled = curl_of_samples(cp.samples, grid.h)
        jac = A.jacobian(grid.nodes())
        exact = jac[..., 0, 1] - jac[..., 1, 0]
        errs.append(float(np.max(np.abs(sampled[(1, 2)] - exact))))
    h2 = (8.0 / 128) ** 2
    ratio = errs[0] / errs[1]
    ok = (
        base_err <= 1e-8
        and slab_err <= 1e-8
        and violations == 0
        and errs[1] <= 2.0 * h2
        and 3.4 <= ratio <= 4.6
    )
    report(2, "corrected-potential identities (base point, slabs, curl, linear bound)",
           ok,
           f"A_y(y) {base_err:.1e}, slab {slab_err:.1e}, bound violations {violations}, "
           f"curl err {errs[1]:.2e} <= {2.0 * h2:.2e}, halving ratio {ratio:.2f}")


def test_criterion_03_energy_transport():
    u = bump(GRID2, center=(-3.0, 0.0), width=0.7, wave=(0.5, 0.2))
    worst = 0.0
    for A, y in [
        (field_library("landau", b=1.0), (0.0, 2.0)),
        (field_library("gaussian_decay", b0=0.5, s=1.0), (6.0, 0.0)),
        (field_library("lattice_periodic", b=0.5, period=2.0), (2.0, 0.5)),
    ]:
        g = make_shift(A, y, GRID2, max_loss=1e-4)
        lhs = energy_EA(shift_apply(g, u), A)
        rhs = energy_EA(u, prepare_potential(ShiftedCorrectedField(A, y), GRID2))
        worst = max(worst, abs(lhs - rhs) / lhs)

    # periodic isometry under period shifts
    Aper = field_library("lattice_periodic", b=0.5, period=2.0)
    u0 = bump(GRID2, width=0.8, wave=(0.3, -0.2))
    iso = 0.0
    for y in [(2.0, 0.0), (4.0, 2.0)]:
        g = make_shift(Aper, y, GRID2, max_loss=1e-6)
        iso = max(iso, abs(energy_EA(shift_apply(g, u0), Aper) - energy_EA(u0, Aper)) / energy_EA(u0, Aper))
    ok = worst <= 1e-8 and iso <= 1e-8
    report(3, "energy transport under magnetic shifts, periodic isometry",
           ok, f"transport rel err {worst:.2e}, isometry rel err {iso:.2e}, tol 1e-8")


def test_criterion_04_group_law():
    b = 1.0
    A = field_library("landau", b=b)
    rep = composition_constant(A, (1.0, 0.0), (0.0, 1.0), GRID2)
    gamma_expected = (b / 2.0) * (0.0 * 0.0 - 1.0 * 1.0)  # (b/2)(v1 u2 - u1 v2) = -1/2
    pair = composition_constant(A, (1.5, -1.0), (-1.5, 1.0), GRID2)

    # round trip of the extended shift on untruncated nodes
    theta = 0.4
    y = np.array([1.0, 1.0])
    g = make_shift(A, y, GRID2, theta=theta, normalization="at_half")
    u = bump(GRID2, width=0.8)
    back = shift_invert(g, shift_apply(g, u))
    steps = g.steps
    sel = (slice(0, GRID2.n[0] - steps[0]), slice(0, GRID2.n[1] - steps[1]))
    rt = float(np.max(np.abs(back.values[sel] - u.values[sel])))

    ok = (
        rep["spread"] <= 1e-8
        and abs(rep["gamma"] - gamma_expected) <= 1e-8
        and abs(pair["gamma"]) <= 1e-8
        and rep["roundtrip_error"] <= 1e-12
        and rt <= 1e-12
    )
    report(4, "composition constant and inverse law under the at-half convention",
           ok,
           f"gamma {rep['gamma']:.9f} vs {gamma_expected}, spread {rep['spread']:.1e}, "
           f"gamma(y,-y) {pair['gamma']:.1e}, round trips {rep['roundtrip_error']:.1e}/{rt:.1e}")


def test_criterion_05_pointwise_inequalities():
    rng = np.random.default_rng(42)
    grid = Grid(6.0, 65, dim=2)
    h2 = grid.h[0] ** 2
    worst_dia = 0.0
    worst_l = 0.0
    worst_u = 0.0
    for i in range(50):
        tag = ("landau", "symmetric", "gaussian_decay", "lattice_periodic")[i % 4]
        if tag in ("landau", "symmetric"):
            A = field_library(tag, b=rng.uniform(0.05, 1.0))
        elif tag == "gaussian_decay":
            A = field_library(tag, b0=rng.uniform(0.1, 0.8), s=rng.uniform(0.7, 1.5))
        else:
            A = field_library(tag, b=rng.uniform(0.1, 0.8), period=rng.uniform(1.0, 3.0))
        vals = np.zeros(grid.shape, dtype=complex)
        for _ in range(rng.integers(1, 4)):
            vals += bump(
                grid,
                center=rng.uniform(-2, 2, 2),
                width=rng.uniform(0.5, 1.5),
                amplitude=rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                wave=rng.uniform(-1.5, 1.5, 2),
            ).values
        u = ComplexField(grid, vals)
        worst_dia = min(worst_dia, diamagnetic_check(u, A)["min_margin"])
        prep = prepare_potential(A, grid)
        G = covariant_gradient(u, prep)
        G0 = covariant_gradient(u, np.zeros((2,) + grid.shape))
        A2 = np.sum(prep.node**2, axis=0)
        u2 = np.abs(u.values) ** 2
        gA2 = np.sum(np.abs(G) ** 2, axis=0)
        g02 = np.sum(np.abs(G0) ** 2, axis=0)
        worst_l = min(worst_l, float(np.min(gA2 - 0.5 * g02 + 7.0 * A2 * u2)))
        worst_u = min(worst_u, float(np.min(2.0 * gA2 + 14.0 * A2 * u2 - g02)))
    ok = worst_dia >= -1.0 * h2 and worst_l >= -1e-12 and worst_u >= -1e-12
    report(5, "diamagnetic and sandwich inequalities on a 50-field randomized suite",
           ok,
           f"diamagnetic slack {worst_dia:.2e} >= -h^2 = {-h2:.2e}; "
           f"sandwich slacks {worst_l:.1e}, {worst_u:.1e} >= -1e-12")


def test_criterion_06_variational_exactness():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        grid = Grid(4.0, 41 + 8 * seed, dim=2)
        A = field_library("gaussian_decay", b0=0.6, s=1.0)
        u = ComplexField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        E = energy_EA(u, A)
        lhs = inner(grid, magnetic_laplacian(u, A), u.values).real
        worst = max(worst, abs(lhs - E) / E)
    report(6, "discrete integration by parts <S*S u, u> = E_A(u)", worst <= 1e-12,
           f"worst rel defect {worst:.2e}, tol 1e-12")


def test_criterion_07_ground_state_oracle(gs1, gs2, gs3):
    sech_err = float(np.max(np.abs(gs1.w - np.sqrt(2.0) / np.cosh(gs1.r))))
    nehari = gs3.nehari_residual()
    c_formula = abs(gs3.c_inf - (gs3.p - 2.0) / (2.0 * gs3.p) * gs3.normp**gs3.p) / gs3.c_inf

    C_cont = (gs2.energy + gs2.norm2**2) / gs2.normp**2
    res = minimize_constrained(field_library("zero"), PARAMS2, GRID2, max_iters=3000)
    c_min_err = abs(res.value - C_cont) / C_cont
    ok = sech_err <= 1e-6 and nehari <= 1e-6 and c_formula <= 1e-6 and c_min_err <= 0.01
    report(7, "shooting oracle (sech profile, Nehari identity) and grid minimization",
           ok,
           f"sech sup err {sech_err:.1e}, Nehari {nehari:.1e}, level formula {c_formula:.1e}, "
           f"grid minimum off by {c_min_err:.2%} (tol 1%)")


def test_criterion_08_level_bracket(gs2):
    # admissible constant field: two-sided bracket around the surface maximum
    b = 0.5
    land = landscape_eval(field_library("landau", b=b), gs2, PARAMS2, GRID2, R=3.0, T=3.0, y_step=0.5)
    sigma = land.sigma
    upper = gs2.c_inf * (1.0 + sigma) ** 2.0
    slack = 1e-6
    bracket_ok = (
        sigma < 2.0 ** 0.5 - 1.0
        and land.max_value > gs2.c_inf * (1.0 + slack)
        and land.max_value <= upper * (1.0 + slack)
        and upper < 2.0 * gs2.c_inf
    )

    # degenerate consistency: without a field the maximum is the ground level
    grid0 = Grid(6.0, 193, dim=2)
    land0 = landscape_eval(field_library("zero"), gs2, PARAMS2, grid0, R=1.0, T=3.0, y_step=0.75)
    zero_err = abs(land0.max_value - gs2.c_inf) / gs2.c_inf
    ok = bracket_ok and zero_err <= 1e-3 and land0.sigma == 0.0
    report(8, "two-sided level bracket along the pass surface",
           ok,
           f"sigma {sigma:.4f} < {2**0.5 - 1:.4f}; c {gs2.c_inf:.4f} < max {land.max_value:.4f} "
           f"<= {upper:.4f} < {2 * gs2.c_inf:.4f}; b=0 deviation {zero_err:.2e} (tol 1e-3)")


def test_criterion_09_critical_point_search(gs1, gs2):
    grid1 = Grid(16.0, 2049, dim=1)
    params1 = FunctionalParams(p=4.0, lam=1.0, dim=1)
    seed = ComplexField(grid1, 1.1 * gs1.on_grid(grid1).values)
    free = critical_point_search(field_library("zero", dim=1), params1, seed, tol=1e-9, gs=gs1)
    level_err = abs(free.level - gs1.c_inf) / gs1.c_inf

    A = field_library("landau", b=0.5)
    land = landscape_eval(A, gs2, PARAMS2, GRID2, R=2.0, T=3.0, y_step=1.0)
    res = critical_point_search(A, PARAMS2, landscape_seed(land, gs2, A, GRID2), tol=1e-5, max_iters=60, gs=gs2)
    ok = (
        free.converged
        and level_err <= 1e-3
        and res.residual_norm < 1e-4
        and gs2.c_inf < res.level < 2.0 * gs2.c_inf
    )
    report(9, "residual-driven search: free-field level, magnetic bracket",
           ok,
           f"free level err {level_err:.2e} (tol 1e-3); magnetic residual {res.residual_norm:.2e} "
           f"(tol 1e-4) at level {res.level:.4f} in ({gs2.c_inf:.4f}, {2 * gs2.c_inf:.4f})")


def test_criterion_10_nonattainment_probe(nonattainment_runs):
    # gaussian b0=0.5, s=1 minimized on L/n = 4/65, 6/97, 8/129 (see conftest)
    values, drifts = nonattainment_runs
    ok = values[0] > values[1] > values[2] and drifts[0] < drifts[1] < drifts[2]
    report(10, "constrained minimum drifts outward as the window grows",
           ok,
           f"values {values[0]:.4f} > {values[1]:.4f} > {values[2]:.4f}; "
           f"centroid radii {drifts[0]:.3f} < {drifts[1]:.3f} < {drifts[2]:.3f}")


def test_criterion_11_profile_extraction():
    grid = Grid((36.0, 8.0), (577, 129))
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    spec = SyntheticSpec(
        profiles=[
            ProfileSpec(amplitude=1.0, width=0.8),
            ProfileSpec(amplitude=0.9, width=0.7, direction=(4.0, 0.0), wave=(0.5, 0.0)),
            ProfileSpec(amplitude=0.7, width=0.9, direction=(-4.0, 0.0)),
        ],
        field=A,
        noise_amplitude=5e-3,
        noise_decay=0.1,
        noise_seed=7,
    )
    seq, truth = synthesize_sequence(spec, grid, K=8)
    xi = Discretization.cubic(grid, rho=1.0)
    opts = ExtractOpts(eps_mass=1e-3, tail_window=4, window_radius=5.0, p=4.0)
    dec = extract_profiles(seq, A, xi, opts)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    rep = verify_decomposition(dec, seq, A, params)

    traj_ok = True
    prof_err = 0.0
    for term, v_true, traj_true in zip(dec.terms, truth["profiles"], truth["trajectories"]):
        prof_err = max(
            prof_err,
            lp_norm(ComplexField(grid, term.profile.values - v_true.values), 2.0) / lp_norm(v_true, 2.0),
        )
        for k in range(4, 8):
            traj_ok &= bool(np.max(np.abs(np.asarray(term.trajectory[k]) - traj_true[k])) <= xi.rho)

    spread_spec = SyntheticSpec(profiles=[], spreading_amplitude=1.0, spreading_width=1.0)
    sgrid = Grid(12.0, 193, dim=2)
    sseq, _ = synthesize_sequence(spread_spec, sgrid, K=8)
    sdec = extract_profiles(sseq, None, Discretization.cubic(sgrid, rho=1.0),
                            ExtractOpts(eps_mass=5e-3, tail_window=3, window_radius=6.0))
    spreading_terms = sum(1 for t in sdec.terms if t.index > 0)

    import copy

    crippled = copy.copy(dec)
    dropped = dec.terms[1]
    crippled.terms = [t for t in dec.terms if t.index != 1]
    neg = verify_decomposition(crippled, seq, A, params)
    expected_defect = lp_norm(dropped.profile, 4.0) ** 4 / lp_norm(seq[-1], 4.0) ** 4
    neg_ok = abs(neg["mass_defect"] - expected_defect) <= 0.10 * expected_defect

    ok = (
        len(dec.terms) == 3
        and traj_ok
        and prof_err <= 0.05
        and rep["mass_defect"] <= 0.02
        and rep["l2_slack"] >= -1e-6
        and rep["energy_slack"] >= -1e-6
        and rep["remainder_lp"][-1] <= opts.eps_mass
        and spreading_terms == 0
        and neg_ok
    )
    report(11, "planted three-term decomposition recovered and verified",
           ok,
           f"profile err {prof_err:.3f} (tol 0.05), mass defect {rep['mass_defect']:.4f} (tol 0.02), "
           f"slacks {rep['l2_slack']:.1e}/{rep['energy_slack']:.1e}, |r_K|_p {rep['remainder_lp'][-1]:.1e}, "
           f"spreading terms {spreading_terms}, negative-control defect {neg['mass_defect']:.4f} "
           f"vs {expected_defect:.4f}")


def test_criterion_12_reproducibility(tmp_path):
    from magnls.cli import run

    ok = True
    detail = []
    for args, files in [
        (["groundstate", "--dim", "2", "--p", "4", "--lambda", "1"], ["w.csv", "gs.json", "manifest.json"]),
        (["gauge", "--field", "landau:b=0.5", "--y", "1,1", "--dim", "2", "--L", "6", "--n", "65"],
         ["phi.csv", "ay.csv", "report.json", "manifest.json"]),
    ]:
        o1 = tmp_path / (args[0] + "_a")
        o2 = tmp_path / (args[0] + "_b")
        assert run(args + ["--out", str(o1)]) == 0
        assert run(args + ["--out", str(o2)]) == 0
        for name in files:
            if name == "manifest.json":
                d1 = json.loads((o1 / name).read_text())
                d2 = json.loads((o2 / name).read_text())
                d1.pop("out"), d2.pop("out")
                same = d1 == d2
            else:
                same = filecmp.cmp(o1 / name, o2 / name, shallow=False)
            ok &= same
            if not same:
                detail.append(f"{args[0]}/{name}")
    report(12, "identical configurations produce byte-identical artifacts",
           ok, "mismatch: " + ", ".join(detail) if detail else "all artifacts identical")
