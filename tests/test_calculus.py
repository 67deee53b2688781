import numpy as np
import pytest

from magnls.calculus import (
    ComplexField,
    FunctionalParams,
    Grid,
    RealField,
    bump,
    covariant_gradient,
    default_grid,
    diamagnetic_check,
    el_residual,
    energy_EA,
    eta_map,
    functional_I,
    functional_J,
    inner,
    lp_norm,
    magnetic_laplacian,
    pointwise_bounds_check,
    prepare_potential,
)
from magnls.field import field_library

A0 = field_library("zero")


def gaussian_grid(n=193):
    return Grid(6.0, n, dim=2)


# ---------------------------------------------------------------------------
# Grid and field plumbing
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError, match="odd"):
        Grid(4.0, 64, dim=2)
    with pytest.raises(ValueError, match="odd"):
        Grid(4.0, 2, dim=1)
    with pytest.raises(ValueError, match="positive"):
        Grid(-1.0, 33, dim=2)
    g = Grid((4.0, 2.0), (65, 33))
    assert g.dim == 2 and g.h == (0.125, 0.125)
    assert g.axes[0][32] == 0.0  # center node exists


def test_default_grids():
    assert default_grid(2).n == (129, 129)
    assert default_grid(2).extents == (8.0, 8.0)
    assert default_grid(3).n == (65, 65, 65)


def test_field_rejects_nonfinite():
    g = Grid(2.0, 9, dim=1)
    with pytest.raises(ValueError, match="finite"):
        RealField(g, np.full(g.shape, np.nan))


def test_boundary_mass_fraction():
    g = Grid(4.0, 33, dim=2)
    u = bump(g, width=0.5)
    assert u.boundary_mass_fraction() < 1e-10
    edge = np.zeros(g.shape)
    edge[0, :] = 1.0
    assert RealField(g, edge).boundary_mass_fraction() == pytest.approx(1.0)


def test_functional_params_validation():
    FunctionalParams(p=4.0, lam=1.0, dim=3)
    with pytest.raises(ValueError, match="p must"):
        FunctionalParams(p=2.0, lam=1.0, dim=3)
    with pytest.raises(ValueError, match="p must"):
        FunctionalParams(p=6.5, lam=1.0, dim=3)  # 2* = 6 for N = 3
    with pytest.raises(ValueError, match="lam"):
        FunctionalParams(p=4.0, lam=0.0, dim=2)


# ---------------------------------------------------------------------------
# Covariant gradient
# ---------------------------------------------------------------------------

def test_gradient_zero_field_plain():
    g = Grid(4.0, 65, dim=2)
    u = bump(g, width=1.0)
    G = covariant_gradient(u, A0)
    assert np.all(G.imag[:, 16:-16, 16:-16] == 0.0)


def test_gradient_constant_one_gives_iA():
    g = Grid(4.0, 65, dim=2)
    A = field_library("landau", b=0.7)
    u = ComplexField(g, np.ones(g.shape, dtype=complex))
    G = covariant_gradient(u, A)
    Avals = np.moveaxis(A(g.nodes()), -1, 0)
    interior = (slice(1, -1), slice(1, -1))
    for m in range(2):
        assert np.max(np.abs(G[m][interior] - 1j * Avals[m][interior])) <= 1e-14


def test_gradient_plane_wave():
    # u = exp(i k.x), A constant a: covariant gradient is i(k + a) u + O(h^2)
    g = Grid(4.0, 129, dim=2)
    k = np.array([0.8, -0.5])
    a = np.array([0.3, 0.2])

    def ev(p):
        return np.broadcast_to(a, p.shape).copy()

    from magnls.field import PotentialField

    A = PotentialField(2, ev, tag="custom")
    pts = g.nodes()
    u = ComplexField(g, np.exp(1j * (pts @ k)))
    G = covariant_gradient(u, A)
    interior = (slice(2, -2), slice(2, -2))
    err = 0.0
    for m in range(2):
        expected = 1j * (k[m] + a[m]) * u.values
        err = max(err, np.max(np.abs((G[m] - expected)[interior])))
    assert err <= 2.0 * g.h[0] ** 2


# ---------------------------------------------------------------------------
# Energies and norms (closed-form Gaussian oracles)
# ---------------------------------------------------------------------------

def test_energy_gaussian_free():
    # int |grad e^{-|x|^2/2}|^2 = int |x|^2 e^{-|x|^2} = pi in 2D
    g = Grid(6.0, 289, dim=2)
    u = bump(g, width=1.0)
    assert energy_EA(u, A0) == pytest.approx(np.pi, rel=1e-3)


def test_energy_gaussian_landau():
    # E_A = pi + b^2 int x1^2 e^{-|x|^2} = 3 pi / 2 for b = 1 (real u kills the cross term)
    g = Grid(6.0, 289, dim=2)
    u = bump(g, width=1.0)
    A = field_library("landau", b=1.0)
    assert energy_EA(u, A) == pytest.approx(1.5 * np.pi, rel=1e-3)


def test_energy_convergence_rate():
    vals = []
    for n in (97, 193):
        g = Grid(6.0, n, dim=2)
        vals.append(energy_EA(bump(g, width=1.0), A0))
    err = [abs(v - np.pi) for v in vals]
    assert 3.4 <= err[0] / err[1] <= 4.6


def test_energy_zero_field_is_zero():
    g = gaussian_grid(65)
    u = ComplexField(g, np.zeros(g.shape, dtype=complex))
    assert energy_EA(u, A0) == 0.0


def test_lp_norms_gaussian():
    g = gaussian_grid()
    u = bump(g, width=1.0)
    assert lp_norm(u, 2.0) == pytest.approx(np.sqrt(np.pi), rel=1e-9)
    assert lp_norm(u, 4.0) == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-9)
    zero = ComplexField(g, np.zeros(g.shape, dtype=complex))
    assert lp_norm(zero, 2.0) == 0.0


def test_lp_norm_homogeneity():
    g = Grid(4.0, 65, dim=2)
    u = bump(g, width=0.8, wave=(0.3, 0.1))
    c = -2.7 + 0.0j
    cu = ComplexField(g, c * u.values)
    assert abs(lp_norm(cu, 3.0) - abs(c) * lp_norm(u, 3.0)) <= 1e-14 * lp_norm(cu, 3.0)


def test_functionals_gaussian():
    # J = pi + pi = 2 pi; I = J/2 - (1/4)||u||_4^4 = pi - pi/8 for lam=1, p=4
    g = Grid(6.0, 289, dim=2)
    u = bump(g, width=1.0)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    J = functional_J(u, A0, params)
    I = functional_I(u, A0, params)
    assert J == pytest.approx(2.0 * np.pi, rel=1e-3)
    assert I == pytest.approx(np.pi - np.pi / 8.0, rel=1e-3)
    zero = ComplexField(g, np.zeros(g.shape, dtype=complex))
    assert functional_J(zero, A0, params) == 0.0
    assert functional_I(zero, A0, params) == 0.0


def test_nehari_identity_algebraic():
    # on the Nehari set J = ||u||_p^p, so I = (1/2 - 1/p) ||u||_p^p
    g = Grid(6.0, 129, dim=2)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    u = bump(g, width=1.0)
    J = functional_J(u, A0, params)
    M = lp_norm(u, 4.0) ** 4
    t = (J / M) ** 0.5
    tu = ComplexField(g, t * u.values)
    I = functional_I(tu, A0, params)
    Mt = lp_norm(tu, 4.0) ** 4
    assert I == pytest.approx((0.5 - 0.25) * Mt, rel=1e-12)


def test_functional_with_sampled_potential_V():
    g = Grid(6.0, 129, dim=2)
    r2 = np.sum(g.nodes() ** 2, axis=-1)
    V = RealField(g, 1.0 + 0.5 * np.exp(-r2))
    params = FunctionalParams(p=4.0, lam=1.0, V=V)
    u = bump(g, width=1.0)
    base = FunctionalParams(p=4.0, lam=1.0, dim=2)
    extra = functional_J(u, A0, params) - functional_J(u, A0, base)
    # int 0.5 e^{-|x|^2} e^{-|x|^2} = 0.5 * pi / 2
    assert extra == pytest.approx(0.25 * np.pi, rel=1e-6)


def test_global_phase_invariance():
    g = Grid(4.0, 65, dim=2)
    A = field_library("landau", b=0.5)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    u = bump(g, width=0.8, wave=(0.4, -0.2))
    ru = ComplexField(g, np.exp(1j * 0.9) * u.values)
    for f in (lambda w: energy_EA(w, A), lambda w: functional_J(w, A, params), lambda w: lp_norm(w, 4.0)):
        assert abs(f(ru) - f(u)) <= 1e-14 * abs(f(u))


# ---------------------------------------------------------------------------
# Variational exactness
# ---------------------------------------------------------------------------

def random_field(g, rng):
    return ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_summation_by_parts_identity(seed):
    rng = np.random.default_rng(seed)
    g = Grid(4.0, 49 + 16 * seed, dim=2)
    A = field_library("gaussian_decay", b0=0.6, s=1.0)
    u = random_field(g, rng)
    L = magnetic_laplacian(u, A)
    lhs = inner(g, L, u.values).real
    E = energy_EA(u, A)
    assert abs(lhs - E) <= 1e-12 * E


def test_summation_by_parts_identity_3d():
    rng = np.random.default_rng(3)
    g = Grid(2.0, 17, dim=3)
    A = field_library("landau", b=0.4, dim=3)
    u = random_field(g, rng)
    lhs = inner(g, magnetic_laplacian(u, A), u.values).real
    E = energy_EA(u, A)
    assert abs(lhs - E) <= 1e-12 * E


def test_laplacian_positive_on_support():
    rng = np.random.default_rng(4)
    g = Grid(4.0, 33, dim=2)
    for _ in range(5):
        u = random_field(g, rng)
        assert inner(g, magnetic_laplacian(u, A0), u.values).real > 0.0


@pytest.mark.parametrize("tag, params", [("landau", {"b": 0.5}), ("gaussian_decay", {"b0": 0.6, "s": 1.0})])
@pytest.mark.parametrize("dim, n", [(2, 17), (3, 9)])
@pytest.mark.parametrize("where", ["interior", "boundary"])
def test_laplacian_compact_stencil(tag, params, dim, n, where):
    # S^* S couples a node only to itself and its in-window axis neighbours
    # (2 dim + 1 points), and to each of them with a nonzero coefficient
    g = Grid(2.0, n, dim=dim)
    A = field_library(tag, dim=dim, **params)
    node = (n // 2 + 1,) * dim if where == "interior" else (0,) + (n // 2 + 1,) * (dim - 1)
    e = np.zeros(g.shape, dtype=complex)
    e[node] = 1.0
    expected = np.zeros(g.shape, dtype=bool)
    expected[node] = True
    for m in range(dim):
        for step in (-1, 1):
            nb = list(node)
            nb[m] += step
            if 0 <= nb[m] < n:
                expected[tuple(nb)] = True
    support = magnetic_laplacian(ComplexField(g, e), A) != 0
    assert np.array_equal(support, expected)
    assert np.sum(expected) == (2 * dim + 1 if where == "interior" else 2 * dim)


# ---------------------------------------------------------------------------
# Pointwise inequality verifiers
# ---------------------------------------------------------------------------

def test_diamagnetic_equality_real_positive():
    g = Grid(4.0, 65, dim=2)
    u = bump(g, width=0.8)
    rep = diamagnetic_check(u, A0)
    assert abs(rep["min_margin"]) <= 1e-13
    assert abs(rep["integrated_gap"]) <= 1e-13


def test_diamagnetic_gap_landau():
    # E_A(u) - E_0(u) = b^2 int x1^2 u^2 = b^2 pi / 2 for the unit Gaussian
    g = Grid(6.0, 193, dim=2)
    u = bump(g, width=1.0)
    b = 0.2
    rep = diamagnetic_check(u, field_library("landau", b=b))
    assert rep["integrated_gap"] == pytest.approx(b**2 * np.pi / 2.0, rel=1e-3)
    assert rep["integrated_gap"] > 0.0
    assert rep["violations"] == 0


def test_diamagnetic_zero_field_zero_function():
    g = Grid(4.0, 33, dim=2)
    u = ComplexField(g, np.zeros(g.shape, dtype=complex))
    rep = diamagnetic_check(u, A0)
    assert rep["integrated_gap"] == 0.0 and rep["min_margin"] == 0.0


def test_pointwise_bounds_zero_field_degenerate():
    g = Grid(4.0, 65, dim=2)
    u = bump(g, width=0.8)
    rep = pointwise_bounds_check(u, A0)
    assert abs(rep["worst_slack_lower"]) <= 1e-13
    assert abs(rep["worst_slack_upper"]) <= 1e-13


def test_pointwise_bounds_complex_phase():
    g = Grid(8.0, 129, dim=2)
    u = bump(g, width=1.0, wave=(1.0, 0.0))
    rep = pointwise_bounds_check(u, field_library("landau", b=1.0))
    # pointwise real algebra: no violations beyond rounding
    assert rep["worst_slack_lower"] >= -1e-12
    assert rep["worst_slack_upper"] >= -1e-12
    assert 0.0 < rep["ratio_min"] <= rep["ratio_max"] < np.inf


def test_local_sandwich_ratio_bounded():
    g = Grid(6.0, 65, dim=2)
    u = bump(g, width=1.0)
    rep = pointwise_bounds_check(u, field_library("gaussian_decay", b0=0.7, s=1.0), lam=2.0, n_bumps=6)
    assert 0.05 < rep["ratio_min"] and rep["ratio_max"] < 20.0


# ---------------------------------------------------------------------------
# eta map
# ---------------------------------------------------------------------------

def test_eta_radial_centroid_vanishes():
    g = Grid(6.0, 129, dim=2)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    u = bump(g, width=1.0)
    eta = eta_map(u, params)
    assert np.max(np.abs(eta[:2])) <= 1e-10 * eta[2]
    assert eta[2] == pytest.approx(lp_norm(u, 4.0) ** 4, rel=1e-12)


def test_eta_zero_function():
    g = Grid(4.0, 33, dim=2)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    u = ComplexField(g, np.zeros(g.shape, dtype=complex))
    assert np.all(eta_map(u, params) == 0.0)


def test_eta_shifted_bump_sign():
    g = Grid(8.0, 129, dim=2)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    u = bump(g, center=(2.0, 0.0), width=0.8)
    eta = eta_map(u, params)
    assert eta[0] > 0.0
    assert abs(eta[1]) <= 1e-10 * eta[2]


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------

def test_el_residual_zero():
    g = Grid(4.0, 33, dim=2)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    u = ComplexField(g, np.zeros(g.shape, dtype=complex))
    _, nrm = el_residual(u, A0, params)
    assert nrm == 0.0


def test_el_residual_sech_soliton_quartering():
    # w = sqrt(2) sech(x) solves -w'' + w = w^3; the residual is O(h^2)
    params = FunctionalParams(p=4.0, lam=1.0, dim=1)
    A1 = field_library("zero", dim=1)
    norms = []
    for n in (513, 1025):
        g = Grid(16.0, n, dim=1)
        w = ComplexField(g, np.sqrt(2.0) / np.cosh(g.axes[0]))
        _, nrm = el_residual(w, A1, params)
        norms.append(nrm)
    assert 3.5 <= norms[0] / norms[1] <= 4.5


def test_el_residual_respects_V():
    g = Grid(6.0, 65, dim=2)
    V = RealField(g, np.full(g.shape, 2.5))
    params_v = FunctionalParams(p=4.0, lam=1.0, V=V)
    params_l = FunctionalParams(p=4.0, lam=2.5, dim=2)
    u = bump(g, width=1.0)
    r1, n1 = el_residual(u, A0, params_v)
    r2, n2 = el_residual(u, A0, params_l)
    assert np.max(np.abs(r1.values - r2.values)) <= 1e-14
    assert n1 == pytest.approx(n2, rel=1e-14)


def test_prepared_potential_reuse():
    g = Grid(4.0, 65, dim=2)
    A = field_library("landau", b=0.5)
    prep = prepare_potential(A, g)
    u = bump(g, width=0.8)
    assert energy_EA(u, prep) == pytest.approx(energy_EA(u, A), rel=1e-15)
    node_samples = np.moveaxis(A(g.nodes()), -1, 0)
    # midpoint averaging of node samples agrees with exact midpoints to O(h^2)
    e_avg = energy_EA(u, node_samples)
    assert e_avg == pytest.approx(energy_EA(u, A), rel=5e-4)
