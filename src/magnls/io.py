"""CSV/JSON serialization for grid fields and run reports.

Field CSVs carry one node per row (coordinates first, then value columns);
every file is written with a fixed float format so identical runs produce
byte-identical artifacts.

All CSVs go through one writer whose bytes equal those of
``np.savetxt(path, data, fmt="%.17g", delimiter=",", header=..., comments="")``
on the stacked columns.  For grid files it formats each axis's coordinates
once, builds the coordinate prefixes of the trailing axes once, and streams
the rows one leading-axis slab at a time, each slab formatted by a single
``%`` over its values.  Memory beyond the field itself stays at one slab.
"""

import json

import numpy as np

from .calculus import Grid, RealField

__all__ = [
    "grid_header",
    "field_to_csv",
    "covector_to_csv",
    "radial_to_csv",
    "write_json",
    "surface_to_csv",
    "trace_to_csv",
]

_FMT = "%.17g"


def grid_header(grid: Grid) -> dict:
    return {
        "dim": grid.dim,
        "extents": list(grid.extents),
        "n": list(grid.n),
        "h": list(grid.h),
    }


def _write_csv(path: str, names, columns, axes=()) -> None:
    """Write the header ``names``, then one row per node of the tensor mesh of ``axes``.

    Rows run over the mesh in C order: the node's coordinates, then its entry
    of each array in ``columns`` (all of the mesh shape).  With no ``axes`` the
    file is a plain table whose 1-D ``columns`` are written side by side.
    """
    coords = [[_FMT % x + "," for x in np.asarray(a, dtype=np.float64).tolist()] for a in axes]
    if coords:
        lead, tails = coords[0], [""]
        for axis in coords[1:]:
            tails = [t + x for t in tails for x in axis]
    else:
        lead, tails = [""], [""] * len(columns[0])
    blocks = [np.asarray(c, dtype=np.float64).reshape(len(lead), -1) for c in columns]
    rows = [t + ",".join([_FMT] * len(blocks)) + "\n" for t in tails]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i, pre in enumerate(lead):
            slab = np.stack([b[i] for b in blocks], axis=-1)
            fh.write((pre + pre.join(rows)) % tuple(slab.ravel().tolist()))


def _coord_names(grid: Grid) -> list:
    return [f"x{i + 1}" for i in range(grid.dim)]


def field_to_csv(field, path: str) -> None:
    """Node coordinates plus re/im columns (a single value column for real fields)."""
    vals = field.values
    if isinstance(field, RealField) or not np.iscomplexobj(vals):
        names, columns = ["value"], [np.real(vals)]
    else:
        names, columns = ["re", "im"], [vals.real, vals.imag]
    _write_csv(path, _coord_names(field.grid) + names, columns, field.grid.axes)


def covector_to_csv(grid: Grid, samples: np.ndarray, path: str) -> None:
    """Covector field samples (dim, *shape) as columns A1..Adim."""
    names = _coord_names(grid) + [f"A{m + 1}" for m in range(grid.dim)]
    _write_csv(path, names, [samples[m] for m in range(grid.dim)], grid.axes)


def radial_to_csv(r: np.ndarray, columns: dict, path: str) -> None:
    _write_csv(path, ["r"] + list(columns.keys()), [r] + list(columns.values()))


def surface_to_csv(y_points: np.ndarray, t_max: np.ndarray, values: np.ndarray, path: str) -> None:
    dim = y_points.shape[1]
    names = [f"y{i + 1}" for i in range(dim)] + ["t_max", "I_value"]
    _write_csv(path, names, list(y_points.T) + [t_max, values])


def trace_to_csv(trace, path: str) -> None:
    """Newton trace of (I_value, residual_norm) pairs, one row per iterate."""
    data = np.asarray(trace, dtype=np.float64)
    _write_csv(path, ["I_value", "residual_norm"], list(data.T))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")
