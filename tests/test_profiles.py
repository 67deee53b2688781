import numpy as np
import pytest

from magnls.calculus import ComplexField, FunctionalParams, Grid, bump, energy_EA, lp_norm
from magnls.field import field_library
from magnls.gauge import make_shift, shift_apply, shifted_corrected_samples
from magnls.profiles import (
    Discretization,
    ExtractOpts,
    ProfileSpec,
    SyntheticSpec,
    covering_chain_ratio,
    extract_profiles,
    local_mass_sup,
    synthesize_sequence,
    verify_decomposition,
)

WIDE = Grid((36.0, 8.0), (577, 129))
PARAMS = FunctionalParams(p=4.0, lam=1.0, dim=2)


def planted_spec(field=None):
    return SyntheticSpec(
        profiles=[
            ProfileSpec(amplitude=1.0, width=0.8),
            ProfileSpec(amplitude=0.9, width=0.7, direction=(4.0, 0.0), wave=(0.5, 0.0)),
            ProfileSpec(amplitude=0.7, width=0.9, direction=(-4.0, 0.0)),
        ],
        field=field,
        noise_amplitude=5e-3,
        noise_decay=0.1,
        noise_seed=7,
    )


@pytest.fixture(scope="module")
def gaussian_field():
    return field_library("gaussian_decay", b0=0.5, s=1.0)


@pytest.fixture(scope="module")
def planted(gaussian_field):
    seq, truth = synthesize_sequence(planted_spec(gaussian_field), WIDE, K=8)
    return seq, truth


@pytest.fixture(scope="module")
def extracted(planted, gaussian_field):
    seq, _ = planted
    xi = Discretization.cubic(WIDE, rho=1.0)
    opts = ExtractOpts(eps_mass=1e-3, tail_window=4, window_radius=5.0, p=4.0)
    return extract_profiles(seq, gaussian_field, xi, opts)


# ---------------------------------------------------------------------------
# Discretization and local mass
# ---------------------------------------------------------------------------

def test_discretization_invariants():
    g = Grid(8.0, 65, dim=2)
    xi = Discretization.cubic(g, rho=1.0)
    d = xi.points[:, None, :] - xi.points[None, :, :]
    dist = np.sqrt(np.sum(d**2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= xi.rho - 1e-12
    assert xi.rho_cover >= xi.rho * np.sqrt(2.0) / 2.0
    assert xi.multiplicity_bound() < 20
    with pytest.raises(ValueError, match="multiple"):
        Discretization.cubic(g, rho=0.3)
    # the scan's tie rule reads the points in strictly increasing lexicographic order
    lattices = (
        (g, 1.0),
        (Grid([36.0, 8.0], [577, 129]), 1.0),
        (Grid(6.0, 65, dim=3), 0.75),
        (Grid(4.0, 33, dim=1), 0.5),
    )
    for grid, rho in lattices:
        pts = Discretization.cubic(grid, rho).points
        assert all(tuple(a) < tuple(b) for a, b in zip(pts[:-1], pts[1:]))


def test_local_mass_zero_field_tie_break():
    g = Grid(4.0, 33, dim=2)
    xi = Discretization.cubic(g, rho=1.0)
    u = ComplexField(g, np.zeros(g.shape, dtype=complex))
    rep = local_mass_sup(u, xi, 4.0)
    assert rep["value"] == 0.0
    # lexicographically smallest lattice point wins all ties
    assert np.all(rep["argmax"] == xi.points[0])


def test_local_mass_single_bump():
    g = Grid(8.0, 129, dim=2)
    xi = Discretization.cubic(g, rho=1.0)
    u = bump(g, center=(2.0, -1.0), width=0.5)
    rep = local_mass_sup(u, xi, 4.0)
    assert np.max(np.abs(rep["argmax"] - np.array([2.0, -1.0]))) <= xi.rho
    # most of the quartic mass sits inside the covering ball
    assert rep["value"] >= 0.5 * rep["total_mass"]
    assert covering_chain_ratio(u, xi, 4.0) < 1.0  # the covering bound holds with room


@pytest.mark.parametrize(
    "grid,rho",
    [
        (Grid(4.0, 33, dim=1), 0.5),
        (Grid((3.0, 2.0), (49, 33)), 0.25),  # rho = 2h
        (Grid((3.0, 2.0), (49, 33)), 1.0),  # rho = 8h
        (Grid((3.0, 2.0), (25, 33)), 0.5),  # h = (0.25, 0.125)
        (Grid((2.0, 1.5, 1.0), (17, 13, 9)), 0.5),
    ],
    ids=["1d", "2d-rho2h", "2d-rho8h", "2d-aniso", "3d"],
)
def test_ball_masses_match_brute_force(grid, rho):
    xi = Discretization.cubic(grid, rho=rho)
    rng = np.random.default_rng(3)
    dens = rng.random(grid.shape)
    nodes = grid.nodes()
    brute = []
    clipped = 0
    for z in xi.points:
        inside = np.sum((nodes - z) ** 2, axis=-1) <= xi.rho_cover**2
        brute.append(np.sum(dens[inside]))
        clipped += int(np.count_nonzero(inside) < xi.flat.shape[1])
    brute = np.array(brute)
    assert clipped > 0  # balls at the window edge lose nodes
    np.testing.assert_allclose(xi.ball_masses(dens), brute, rtol=1e-14, atol=0.0)
    u = ComplexField(grid, (dens / grid.weights()) ** 0.25)
    rep = local_mass_sup(u, xi, 4.0)
    assert rep["value"] == pytest.approx(brute.max(), rel=1e-13)
    assert np.all(rep["argmax"] == xi.points[np.argmax(brute)])


def test_local_mass_mirror_tie_goes_to_first_point():
    g = Grid(8.0, 129, dim=2)
    xi = Discretization.cubic(g, rho=1.0)
    left = bump(g, center=(-3.0, 0.0), width=0.6)
    right = bump(g, center=(3.0, 0.0), width=0.6)
    rep = local_mass_sup(ComplexField(g, left.values + right.values), xi, 4.0)
    assert np.all(rep["argmax"] == np.array([-3.0, 0.0]))


def test_local_mass_two_bumps_orders_by_mass():
    g = Grid(8.0, 129, dim=2)
    xi = Discretization.cubic(g, rho=1.0)
    big = bump(g, center=(-3.0, 0.0), width=0.6)
    small = bump(g, center=(3.0, 0.0), width=0.6, amplitude=0.5)
    u = ComplexField(g, big.values + small.values)
    rep = local_mass_sup(u, xi, 4.0)
    assert rep["argmax"][0] < 0  # near the heavier bump


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_synthesize_stationary_constant():
    spec = SyntheticSpec(profiles=[ProfileSpec(amplitude=1.0, width=1.0)])
    g = Grid(8.0, 65, dim=2)
    seq, _ = synthesize_sequence(spec, g, K=6)
    for u in seq[1:]:
        assert np.array_equal(u.values, seq[0].values)


def test_synthesize_separation(planted):
    seq, truth = planted
    t1 = truth["trajectories"][1]
    t2 = truth["trajectories"][2]
    seps = [np.linalg.norm(a - b) for a, b in zip(t1, t2)]
    assert seps[1] == pytest.approx(8.0)
    assert all(b > a for a, b in zip(seps[1:-1], seps[2:]))


def test_synthesize_rejects_escaping_trajectory():
    spec = SyntheticSpec(profiles=[ProfileSpec(width=1.0, direction=(4.0, 0.0))])
    g = Grid(8.0, 65, dim=2)
    with pytest.raises(ValueError, match="exits the window"):
        synthesize_sequence(spec, g, K=8)


@pytest.mark.parametrize(
    "opts, match",
    [
        ({"tail_window": 0}, "tail_window"),
        ({"max_profiles": -1}, "max_profiles"),
        ({"tail_window": 3.5}, "whole number"),
        ({"max_profiles": 1.9}, "whole number"),
        ({"window_radius": 0.0}, "window_radius"),
        ({"window_radius": -2.0}, "window_radius"),
        ({"window_radius": float("inf")}, "window_radius"),
        ({"eps_mass": -1.0}, "eps_mass"),
        ({"eps_mass": 0.0}, "eps_mass"),
        ({"eps_mass": float("nan")}, "eps_mass"),
    ],
)
def test_extract_opts_rejects_bad_counts(opts, match):
    with pytest.raises(ValueError, match=match):
        ExtractOpts(**opts)


def test_synthesize_spreading_norm_decay():
    spec = SyntheticSpec(profiles=[], spreading_amplitude=1.0, spreading_width=1.0)
    g = Grid(12.0, 193, dim=2)
    seq, _ = synthesize_sequence(spec, g, K=8)
    norms = [lp_norm(u, 4.0) for u in seq]
    # ||u_k||_p scales like (k+1)^{-N(1/2 - 1/p)} = (k+1)^{-1/2} in 2D, p=4
    for k in (3, 7):
        predicted = norms[0] * ((k + 1) ** (-0.5))
        assert norms[k] == pytest.approx(predicted, rel=2e-3)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extract_constant_sequence_single_term():
    g = Grid(8.0, 65, dim=2)
    spec = SyntheticSpec(profiles=[ProfileSpec(amplitude=1.0, width=1.0)])
    seq, _ = synthesize_sequence(spec, g, K=6)
    xi = Discretization.cubic(g, rho=1.0)
    dec = extract_profiles(seq, None, xi, ExtractOpts(eps_mass=1e-6, tail_window=3, window_radius=6.0))
    assert len(dec.terms) == 1
    assert dec.success
    v0 = dec.terms[0].profile
    # the only defect is the window clip of the far Gaussian tail
    assert lp_norm(ComplexField(g, v0.values - seq[0].values), 2.0) <= 1e-6
    assert max(dec.remainder_lp) <= 1e-6


def test_extract_planted_three_terms(extracted, planted):
    seq, truth = planted
    dec = extracted
    assert dec.success
    assert len(dec.terms) == 3
    for term, v_true, traj_true in zip(dec.terms, truth["profiles"], truth["trajectories"]):
        rel = lp_norm(ComplexField(WIDE, term.profile.values - v_true.values), 2.0) / lp_norm(v_true, 2.0)
        assert rel <= 0.05
        for k in range(4, 8):  # tail steps within one lattice cell
            assert np.max(np.abs(np.asarray(term.trajectory[k]) - traj_true[k])) <= 1.0


def test_extract_idempotent(extracted, gaussian_field):
    xi = Discretization.cubic(WIDE, rho=1.0)
    opts = ExtractOpts(eps_mass=1e-3, tail_window=4, window_radius=5.0, p=4.0)
    again = extract_profiles(extracted.remainders, gaussian_field, xi, opts)
    assert sum(1 for t in again.terms if t.index > 0) == 0


def test_extract_a_inf_vanishes_for_decaying_field(extracted):
    moving = [t for t in extracted.terms if t.index > 0]
    assert moving and all(t.a_inf_converged for t in moving)


def test_parked_tail_term_measured_in_its_own_gauge():
    # the bump parks for the last tail step: the radii grow, but not strictly,
    # so no convergence report is made; the term still carries A_y(. + y) at
    # its last center: the energy check measures it there, not in A = 0
    g = Grid((8.0, 4.0), (129, 65))
    A = field_library("gaussian_decay", b0=0.5, s=4.0)
    v = bump(g, width=0.4)
    centers = [np.array([x, 0.0]) for x in (0.0, 1.0, 2.0, 4.0, 5.0, 5.0)]
    seq = [shift_apply(make_shift(A, y, g), v) for y in centers]
    opts = ExtractOpts(eps_mass=1e-3, tail_window=3, window_radius=2.0, p=4.0)
    dec = extract_profiles(seq, A, Discretization.cubic(g, rho=1.0), opts)
    # no stationary bump is planted: the near-zero tail average is accepted
    # without a spurious half-tail disagreement
    assert dec.success and not dec.warnings
    assert [t.index for t in dec.terms] == [0, 1]
    term = dec.terms[1]
    assert np.array_equal(term.trajectory[-1], centers[-1])
    assert term.a_inf_converged is None

    rep = verify_decomposition(dec, seq, A, PARAMS)
    e_tail = min(energy_EA(u, A) for u in seq[3:])
    a_inf = shifted_corrected_samples(A, term.trajectory[-1], g)
    e_own = energy_EA(dec.terms[0].profile, A) + energy_EA(term.profile, a_inf)
    e_zero = energy_EA(dec.terms[0].profile, A) + energy_EA(term.profile, np.zeros((2,) + g.shape))
    assert rep["energy_slack"] == e_tail - e_own
    assert abs(e_own - e_zero) > 1e-5


def test_extract_spreading_only_yields_no_profiles():
    spec = SyntheticSpec(profiles=[], spreading_amplitude=1.0, spreading_width=1.0)
    g = Grid(12.0, 193, dim=2)
    seq, _ = synthesize_sequence(spec, g, K=8)
    xi = Discretization.cubic(g, rho=1.0)
    dec = extract_profiles(seq, None, xi, ExtractOpts(eps_mass=5e-3, tail_window=3, window_radius=6.0))
    assert sum(1 for t in dec.terms if t.index > 0) == 0


def test_extract_plain_translation_reduction(planted):
    # with A = 0 the machinery is plain translation; the gauge normalization
    # convention cannot matter because every phase is identically zero
    seq, truth = planted
    seq0, truth0 = synthesize_sequence(planted_spec(field=None), WIDE, K=8)
    seq_zero, _ = synthesize_sequence(planted_spec(field=field_library("zero")), WIDE, K=8)
    for u, v in zip(seq0, seq_zero):
        assert np.array_equal(u.values, v.values)
    xi = Discretization.cubic(WIDE, rho=1.0)
    opts = ExtractOpts(eps_mass=1e-3, tail_window=4, window_radius=5.0)
    dec = extract_profiles(seq0, None, xi, opts)
    dec_zero_field = extract_profiles(seq0, field_library("zero"), xi, opts)
    assert dec.success and dec_zero_field.success
    assert len(dec.terms) == len(dec_zero_field.terms)
    for a, b in zip(dec.terms, dec_zero_field.terms):
        assert np.max(np.abs(a.profile.values - b.profile.values)) <= 1e-9
        assert a.a_inf_converged == b.a_inf_converged


def test_modulus_level_consistency(planted, extracted, gaussian_field):
    # |v| from the magnetic extraction matches plain-translation extraction on |u_k|
    seq, _ = planted
    xi = Discretization.cubic(WIDE, rho=1.0)
    opts = ExtractOpts(eps_mass=1e-3, tail_window=4, window_radius=5.0)
    mods = [ComplexField(WIDE, np.abs(u.values).astype(complex)) for u in seq]
    dec_mod = extract_profiles(mods, None, xi, opts)
    for tm, tmag in zip(extracted.terms, dec_mod.terms):
        diff = np.abs(np.abs(tm.profile.values) - np.abs(tmag.profile.values))
        assert np.max(diff) <= 0.05 * np.max(np.abs(tm.profile.values))


def test_extract_lattice_independence(planted, gaussian_field):
    seq, truth = planted
    opts = ExtractOpts(eps_mass=1e-3, tail_window=4, window_radius=5.0)
    d1 = extract_profiles(seq, gaussian_field, Discretization.cubic(WIDE, rho=1.0), opts)
    d2 = extract_profiles(seq, gaussian_field, Discretization.cubic(WIDE, rho=0.5), opts)
    assert len(d1.terms) == len(d2.terms)
    for a, b in zip(d1.terms, d2.terms):
        rel = lp_norm(ComplexField(WIDE, a.profile.values - b.profile.values), 2.0)
        assert rel <= 0.05 * lp_norm(a.profile, 2.0) + 1e-12


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_verify_planted_identities(extracted, planted, gaussian_field):
    seq, _ = planted
    rep = verify_decomposition(extracted, seq, gaussian_field, PARAMS)
    assert rep["mass_defect"] <= 0.02
    assert rep["l2_slack"] >= -1e-6
    assert rep["energy_slack"] >= -1e-6
    assert all(s["growing"] for s in rep["separations"].values())
    assert rep["remainder_lp"][-1] <= 1e-3


def test_verify_single_stationary(planted):
    g = Grid(8.0, 65, dim=2)
    spec = SyntheticSpec(profiles=[ProfileSpec(amplitude=1.0, width=1.0)])
    seq, _ = synthesize_sequence(spec, g, K=6)
    xi = Discretization.cubic(g, rho=1.0)
    dec = extract_profiles(seq, None, xi, ExtractOpts(eps_mass=1e-6, tail_window=3, window_radius=6.0))
    rep = verify_decomposition(dec, seq, None, PARAMS)
    assert rep["mass_defect"] <= 1e-8
    assert rep["l2_slack"] >= -1e-9
    assert rep["energy_slack"] >= -1e-9
    assert rep["separations"] == {}


def test_verify_negative_control(extracted, planted, gaussian_field):
    # dropping a term must show up as the dropped |v|_p^p mass
    import copy

    seq, _ = planted
    crippled = copy.copy(extracted)
    dropped = extracted.terms[1]
    crippled.terms = [t for t in extracted.terms if t.index != 1]
    rep = verify_decomposition(crippled, seq, gaussian_field, PARAMS)
    expected = lp_norm(dropped.profile, 4.0) ** 4 / lp_norm(seq[-1], 4.0) ** 4
    assert rep["mass_defect"] == pytest.approx(expected, rel=0.10)


def test_mass_splitting_sum_permutation_invariant(extracted):
    # the finite analogue of unconditional convergence: term order is irrelevant
    masses = [lp_norm(t.profile, 4.0) ** 4 for t in extracted.terms]
    rng = np.random.default_rng(0)
    for _ in range(4):
        perm = rng.permutation(len(masses))
        assert sum(masses[i] for i in perm) == pytest.approx(sum(masses), rel=1e-12)


def test_extract_rejects_bounded_trajectory():
    # leftover mass at a fixed off-origin spot must not spawn a diverging term
    g = Grid(8.0, 65, dim=2)
    v = bump(g, center=(5.0, 0.0), width=0.6)
    seq = [ComplexField(g, v.values.copy()) for _ in range(6)]
    xi = Discretization.cubic(g, rho=1.0)
    dec = extract_profiles(seq, None, xi, ExtractOpts(eps_mass=1e-6, tail_window=3, window_radius=3.0))
    assert sum(1 for t in dec.terms if t.index > 0) == 0
    assert any("bounded" in w for w in dec.warnings)
    assert not dec.success
