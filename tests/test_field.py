import numpy as np
import pytest

from magnls.field import (
    PotentialField,
    _mesh_points,
    b_sup_norm,
    curl,
    curl_of_samples,
    field_library,
    parse_field_spec,
)


def test_zero_field_curl_vanishes():
    B = curl(field_library("zero"), 4.0, 33)
    for comp in B.components.values():
        assert np.all(comp == 0.0)
    assert b_sup_norm(B) == 0.0


def test_landau_curl_is_constant():
    # A = (0, x1): B12 = d2 A1 - d1 A2 = -1 by hand differentiation
    B = curl(field_library("landau", b=1.0), 4.0, 33)
    assert np.allclose(B.components[(1, 2)], -1.0, atol=1e-13)


def test_symmetric_gauge_same_curl_as_landau():
    Bl = curl(field_library("landau", b=1.0), 4.0, 33)
    Bs = curl(field_library("symmetric", b=1.0), 4.0, 33)
    assert np.allclose(Bl.components[(1, 2)], Bs.components[(1, 2)], atol=1e-13)


def test_gaussian_decay_closed_form():
    # A = (0, 0.2 exp(-|x|^2)): B12 = -d1 A2 = 0.4 x1 exp(-|x|^2)
    A = field_library("gaussian_decay", b0=0.2, s=1.0)
    B = curl(A, 3.0, 61)
    x1 = B.axes[0][:, None]
    x2 = B.axes[1][None, :]
    expected = 0.4 * x1 * np.exp(-(x1**2 + x2**2))
    assert np.allclose(B.components[(1, 2)], expected, atol=1e-12)


def test_b_sup_norm_single_and_3d():
    B = curl(field_library("landau", b=0.7), 4.0, 33)
    assert b_sup_norm(B) == pytest.approx(0.7, abs=1e-13)

    # 3D potential A = (x2 + 2 x3, 2 x3, 0): B12 = 1, B13 = 2, B23 = 2
    def ev(p):
        out = np.zeros_like(p)
        out[..., 0] = p[..., 1] + 2.0 * p[..., 2]
        out[..., 1] = 2.0 * p[..., 2]
        return out

    def jac(p):
        J = np.zeros(p.shape[:-1] + (3, 3))
        J[..., 0, 1] = 1.0
        J[..., 0, 2] = 2.0
        J[..., 1, 2] = 2.0
        return J

    A = PotentialField(3, ev, jac, tag="custom")
    B3 = curl(A, 2.0, 9)
    assert b_sup_norm(B3) == pytest.approx(3.0, abs=1e-13)  # sqrt(1 + 4 + 4)


def test_fd_curl_matches_analytic_and_converges():
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    A_nojac = PotentialField(2, A.eval_fn, None, tag="custom")
    errs = []
    for res in (41, 81):
        Bfd = curl(A_nojac, 2.0, res)
        Bex = curl(A, 2.0, res)
        errs.append(np.max(np.abs(Bfd.components[(1, 2)] - Bex.components[(1, 2)])))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize(
    "tag,dim,kw", [("gaussian_decay", 2, {"b0": 0.5}), ("symmetric", 3, {"b": 0.7}), ("lattice_periodic", 3, {"b": 0.5})]
)
def test_fd_curl_is_curl_of_samples(tag, dim, kw):
    # a field without a jacobian takes the one finite-difference body
    A = field_library(tag, dim=dim, **kw)
    A_nojac = PotentialField(dim, A.eval_fn, None, tag="custom")
    B = curl(A_nojac, 2.0, 17)
    h = np.array([(hi - lo) / 16 for lo, hi in B.window])
    expected = curl_of_samples(A.on_axes(B.axes), h)
    assert B.components.keys() == expected.keys()
    for mn, comp in expected.items():
        assert np.array_equal(B.components[mn], comp)


def test_sup_norm_monotone_under_window_growth():
    # enlarge the window at fixed sampling density (nested node sets)
    A = field_library("gaussian_decay", b0=0.3, s=1.0)
    vals = [b_sup_norm(curl(A, L, int(64 * L) + 1)) for L in (0.25, 0.5, 2.0, 4.0)]
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]
    # saturated once the window contains the max of |B12| at |x1| = 1/sqrt(2)
    assert vals[3] == pytest.approx(vals[2], rel=1e-12)


def test_periodic_field_curl_is_lattice_periodic():
    A = field_library("lattice_periodic", b=0.4, period=2.0)
    B = curl(A, ((-4.0, 4.0), (-1.0, 1.0)), 65)
    vals = B.components[(1, 2)]
    x1 = B.axes[0]
    # values at x1 and x1 + period agree where both are sampled
    k = int(round(2.0 / (x1[1] - x1[0])))
    assert np.allclose(vals[k:, :], vals[:-k, :], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "tag, kw",
    [
        ("zero", {}),
        ("landau", {"b": 0.5}),
        ("symmetric", {"b": 0.5}),
        ("gaussian_decay", {"b0": 0.4, "s": 1.3}),
        ("lattice_periodic", {"b": 0.7, "period": 1.5}),
    ],
)
def test_slabwise_curl_equals_full_mesh_jacobian(tag, kw, dim):
    # curl evaluates the analytic jacobian one axis-0 slab at a time; the
    # components and sup norms are elementwise, so they match a full-mesh
    # evaluation bit for bit
    A = field_library(tag, dim=dim, **kw)
    window = ((-3.0, 2.5),) + ((-2.0, 4.0),) * (dim - 1)
    B = curl(A, window, 33)
    mesh = np.stack(np.meshgrid(*B.axes, indexing="ij"), axis=-1)
    jac = A.jacobian(mesh)
    assert sorted(B.components) == [(m, n) for m in range(1, dim + 1) for n in range(m + 1, dim + 1)]
    for (m, n), comp in B.components.items():
        ref = jac[..., m - 1, n - 1] - jac[..., n - 1, m - 1]
        assert np.array_equal(comp, ref)
        assert B.sup_norms[(m, n)] == float(np.max(np.abs(ref)))


def test_curl_1d_has_no_components():
    B = curl(field_library("zero", dim=1), 4.0, 33)
    assert B.components == {} and b_sup_norm(B) == 0.0


def test_curl_rejects_small_resolution():
    with pytest.raises(ValueError, match="resolution"):
        curl(field_library("zero"), 4.0, 2)


def test_field_library_validation():
    with pytest.raises(ValueError, match="unknown field tag"):
        field_library("nope")
    with pytest.raises(ValueError, match="requires parameter"):
        field_library("landau")


def test_parse_field_spec_grammar():
    A = parse_field_spec("landau:b=0.2")
    pts = np.array([[1.0, 3.0]])
    assert np.allclose(A(pts), [[0.0, 0.2]])
    assert parse_field_spec("zero").tag == "zero"
    assert parse_field_spec("gauss:b0=0.1,s=2").params == {"b0": 0.1, "s": 2.0}
    assert parse_field_spec("periodic:b=1,L=3").params == {"b": 1.0, "period": 3.0}
    with pytest.raises(ValueError):
        parse_field_spec("landau:q=1")
    with pytest.raises(ValueError):
        parse_field_spec("wat:b=1")


def test_jacobian_consistency_all_builtins():
    # centered differences of eval converge to the analytic jacobian
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 1.5, size=(40, 2))
    for tag, kw in (
        ("landau", {"b": 0.3}),
        ("symmetric", {"b": 0.3}),
        ("gaussian_decay", {"b0": 0.4, "s": 1.2}),
        ("lattice_periodic", {"b": 0.5, "period": 1.5}),
    ):
        A = field_library(tag, **kw)
        errs = []
        for h in (1e-3, 5e-4):
            fd = np.zeros((len(pts), 2, 2))
            for n in range(2):
                e = np.zeros(2)
                e[n] = h
                fd[:, :, n] = (A(pts + e) - A(pts - e)) / (2 * h)
            errs.append(np.max(np.abs(fd - A.jacobian(pts))))
        assert errs[1] <= 0.3 * errs[0] + 1e-12


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "tag, kw, declared",
    [
        ("zero", {}, lambda dim: set(range(dim))),
        ("landau", {"b": -0.7}, lambda dim: set(range(dim)) - {1}),
        ("symmetric", {"b": -0.7}, lambda dim: set(range(2, dim))),
        ("gaussian_decay", {"b0": 0.4, "s": 1.2}, lambda dim: set(range(dim)) - {1}),
        ("lattice_periodic", {"b": -0.5, "period": 1.5}, lambda dim: set(range(dim)) - {1}),
    ],
)
def test_declared_zero_components_are_exact_zeros(tag, kw, declared, dim):
    # a declared component evaluates to +0 (no sign bit) and has an all-zero
    # jacobian row, at points as far out as |x| = 1e3
    A = field_library(tag, dim=dim, **kw)
    assert A.zero_components == frozenset(declared(dim))
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(400, dim))
    pts *= (10.0 ** rng.uniform(-3.0, 3.0, size=(400, 1))) / np.linalg.norm(pts, axis=-1, keepdims=True)
    vals, jac = A(pts), A.jacobian(pts)
    for m in A.zero_components:
        assert np.all(vals[:, m] == 0.0) and not np.signbit(vals[:, m]).any(), m
        assert np.all(jac[:, m, :] == 0.0), m


def test_zero_components_validation():
    def ev(p):
        return np.zeros_like(p)

    assert PotentialField(2, ev).zero_components == frozenset()
    assert PotentialField(2, ev, zero_components={0, np.int64(1)}).zero_components == frozenset({0, 1})
    for bad in ({2}, {-1}, {0.5}):
        with pytest.raises(ValueError, match="zero_components"):
            PotentialField(2, ev, zero_components=bad)


def test_curl_of_samples_landau_exact():
    from magnls.calculus import Grid

    grid = Grid(4.0, 33, dim=2)
    A = field_library("landau", b=1.0)
    samples = np.moveaxis(A(grid.nodes()), -1, 0)
    B = curl_of_samples(samples, grid.h)
    assert np.allclose(B[(1, 2)], -1.0, atol=1e-12)


@pytest.mark.parametrize(
    "axes",
    [
        [np.linspace(-1.0, 1.0, 5)],
        [np.linspace(-6.0, 6.0, 13), np.linspace(-2.0, 2.0, 7), np.linspace(0.0, 1.0, 4)],
        [np.arange(-3, 4), np.arange(-2, 3)],
        [np.array([0.5]), np.linspace(-1.0, 1.0, 9), np.array([-2.0])],
        [np.arange(-2, 3), np.linspace(-1.0, 1.0, 3)],
    ],
)
def test_mesh_points_matches_stacked_meshgrid(axes):
    # float, int64, singleton and mixed-dtype axes: same bytes and dtype
    mesh = _mesh_points(axes)
    expected = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert mesh.dtype == expected.dtype
    assert mesh.shape == expected.shape
    assert mesh.tobytes() == expected.tobytes()
