"""The CSV writers produce exactly the bytes of ``np.savetxt`` with the artifact format."""

from types import SimpleNamespace

import numpy as np
import pytest

from magnls import io as mio
from magnls.calculus import ComplexField, Grid, RealField

# signed zeros, subnormals, the extremes of the float range, infinities and nan
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1.7976931348623157e308,
           np.inf, -np.inf, np.nan, 1.0 / 3.0, -123456.789e-5]

GRIDS = [
    Grid(2.0, 9, dim=1),
    Grid((36.0, 8.0), (577, 129)),
    Grid((3.0, 2.0, 1.5), (9, 7, 5)),
]


def savetxt_bytes(tmp_path, columns, header):
    path = tmp_path / "reference.csv"
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments="")
    return path.read_bytes()


def values(shape, rng, finite=False):
    """Random values spread over many magnitudes, the special values planted first."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    special = [x for x in SPECIAL if np.isfinite(x) or not finite]
    v.flat[: len(special)] = special
    return v


def join(re, im):
    """re + i im without arithmetic, which would turn inf into nan and -0.0 into 0.0."""
    v = np.empty(re.shape, dtype=complex)
    v.real, v.imag = re, im
    return v


def node_columns(grid):
    return [grid.nodes().reshape(-1, grid.dim)]


def coord_header(grid):
    return ",".join(f"x{i + 1}" for i in range(grid.dim))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.n)))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_field_csv_matches_savetxt(grid, kind, tmp_path):
    rng = np.random.default_rng(7)
    re = values(grid.shape, rng)
    if kind == "real":
        field = SimpleNamespace(grid=grid, values=re)
        columns, names = [re.reshape(-1)], "value"
    else:
        im = np.flip(values(grid.shape, rng))  # specials at the far end
        field = SimpleNamespace(grid=grid, values=join(re, im))
        columns, names = [re.reshape(-1), im.reshape(-1)], "re,im"
    mio.field_to_csv(field, str(tmp_path / "out.csv"))
    expected = savetxt_bytes(tmp_path, node_columns(grid) + columns, f"{coord_header(grid)},{names}")
    assert (tmp_path / "out.csv").read_bytes() == expected


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.n)))
def test_grid_field_classes_match_savetxt(grid, tmp_path):
    rng = np.random.default_rng(8)
    re, im = values(grid.shape, rng, finite=True), values(grid.shape, rng, finite=True)
    u = ComplexField(grid, join(re, im))
    mio.field_to_csv(u, str(tmp_path / "u.csv"))
    expected = savetxt_bytes(tmp_path, node_columns(grid) + [u.values.real.reshape(-1), u.values.imag.reshape(-1)],
                             f"{coord_header(grid)},re,im")
    assert (tmp_path / "u.csv").read_bytes() == expected

    phi = RealField(grid, re)
    mio.field_to_csv(phi, str(tmp_path / "phi.csv"))
    expected = savetxt_bytes(tmp_path, node_columns(grid) + [re.reshape(-1)], f"{coord_header(grid)},value")
    assert (tmp_path / "phi.csv").read_bytes() == expected


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.n)))
def test_covector_csv_matches_savetxt(grid, tmp_path):
    samples = values((grid.dim, *grid.shape), np.random.default_rng(9))
    mio.covector_to_csv(grid, samples, str(tmp_path / "ay.csv"))
    header = coord_header(grid) + "".join(f",A{m + 1}" for m in range(grid.dim))
    expected = savetxt_bytes(tmp_path, node_columns(grid) + [samples[m].reshape(-1) for m in range(grid.dim)], header)
    assert (tmp_path / "ay.csv").read_bytes() == expected


def test_table_csvs_match_savetxt(tmp_path):
    rng = np.random.default_rng(10)
    r = np.linspace(0.0, 35.0, 4001)
    w, dw = values(r.shape, rng), values(r.shape, rng)
    mio.radial_to_csv(r, {"w": w, "dw": dw}, str(tmp_path / "w.csv"))
    assert (tmp_path / "w.csv").read_bytes() == savetxt_bytes(tmp_path, [r, w, dw], "r,w,dw")

    for dim in (1, 2, 3):
        y = values((37, dim), rng)
        t_max, vals = values(37, rng), values(37, rng)
        mio.surface_to_csv(y, t_max, vals, str(tmp_path / "surface.csv"))
        header = ",".join(f"y{i + 1}" for i in range(dim)) + ",t_max,I_value"
        assert (tmp_path / "surface.csv").read_bytes() == savetxt_bytes(tmp_path, [y, t_max, vals], header)

    for rows in (1, 2, 25):
        trace = [tuple(row) for row in values((rows, 2), rng).tolist()]
        mio.trace_to_csv(trace, str(tmp_path / "trace.csv"))
        expected = savetxt_bytes(tmp_path, [np.array(trace)], "I_value,residual_norm")
        assert (tmp_path / "trace.csv").read_bytes() == expected
