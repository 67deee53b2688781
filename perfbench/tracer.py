"""Spans and counters recorded around magnls functions, from outside the package.

The recorder replaces functions by wrappers after ``magnls`` is imported: every
module binding that ``from ... import`` created is patched, so calls made
through any of them are seen.  Methods (``PotentialField.__call__``) and the
``ComplexField``/``RealField`` constructors are patched on the class.  Nothing
under ``src/`` changes.

Each wrapped call appends one span (name id, parent span, start, end) to
in-memory arrays; ``save`` writes them out when the run ends.  Self time is
computed afterwards from the arrays (see ``layer_metrics``).  The recorder is
single-threaded: the CLI runs the landscape scan on one thread unless
``MAGNLS_THREADS`` asks for more, and the benchmark strips that variable.
"""

import functools
import json
import math
import sys
import time
from array import array

# Span names whose calls, self time or children feed the per-layer metrics.
FIELD_EVAL = "field.PotentialField.__call__"
ENERGY = "calculus.energy_EA"
RESIDUAL = "calculus.el_residual"
MINIMIZE = "solver.minimize_constrained"
SEARCH = "solver.critical_point_search"


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, span, after=None):
        """Wrapper recording one span per call; ``after(args, result)`` may add counts."""
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def save(self, path):
        import numpy as np

        np.savez(
            path + ".npz",
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "counts": self.counts}, fh, indent=1, sort_keys=True)


def _rebind(original, replacement):
    """Point every magnls module attribute that is ``original`` at ``replacement``."""
    found = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "magnls" or modname.startswith("magnls.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found += 1
    if not found:
        raise RuntimeError(f"no magnls binding of {getattr(original, '__qualname__', original)!r}")


def _patch_function(rec, module, attr, span, after=None):
    original = getattr(module, attr)
    _rebind(original, rec.wrap(original, span, after))


def _patch_method(rec, cls, attr, span, after=None):
    setattr(cls, attr, rec.wrap(getattr(cls, attr), span, after))


def install_search_only(rec):
    """Trace the critical-point search alone: one span, no measurable overhead."""
    from magnls import solver

    _patch_function(rec, solver, "critical_point_search", SEARCH)


def install(rec):
    """Wrap the public functions of field, gauge, calculus, solver, profiles and io."""
    import numpy as np
    from scipy.sparse.linalg import LinearOperator, aslinearoperator

    from magnls import calculus, field, gauge, io, profiles, solver

    def count_points(args, out):
        rec.count("field.eval_points", math.prod(np.shape(args[1])[:-1]))

    _patch_method(rec, field.PotentialField, "__call__", FIELD_EVAL, count_points)
    for attr in ("curl", "curl_of_samples"):
        _patch_function(rec, field, attr, f"field.{attr}")

    for attr in (
        "rephase_field",
        "make_shift",
        "shift_apply",
        "shift_invert",
        "potential_at_infinity",
        "shifted_corrected_samples",
        "corrected_potential_samples",
    ):
        _patch_function(rec, gauge, attr, f"gauge.{attr}")

    for attr in ("staggered_gradient", "magnetic_laplacian", "energy_EA", "el_residual"):
        _patch_function(rec, calculus, attr, f"calculus.{attr}")
    for cls in (calculus.ComplexField, calculus.RealField):
        _patch_method(rec, cls, "__init__", f"calculus.{cls.__name__}.__init__")

    def minimize_done(args, res):
        rec.count("solver.minimize_iters", res.iterations)
        rec.count("solver.minimize_accepted", len(res.trace) - 1)

    def search_done(args, res):
        rec.count("solver.newton_iters", res.iterations)
        rec.count("solver.newton_accepted", len(res.trace) - 1)

    def landscape_done(args, res):
        rec.count("solver.landscape_points", len(res.y_points))

    _patch_function(rec, solver, "minimize_constrained", MINIMIZE, minimize_done)
    _patch_function(rec, solver, "critical_point_search", SEARCH, search_done)
    _patch_function(rec, solver, "radial_ground_state", "solver.radial_ground_state")
    _patch_function(rec, solver, "landscape_eval", "solver.landscape_eval", landscape_done)

    solve_ivp = solver.solve_ivp

    def counted_solve_ivp(*args, **kwargs):
        rec.count("solver.shots")
        return solve_ivp(*args, **kwargs)

    _rebind(solve_ivp, counted_solve_ivp)

    def counting(op, key, span=None):
        op = aslinearoperator(op)
        apply = rec.wrap(op.matvec, span) if span else op.matvec

        def matvec(x):
            rec.count(key)
            return apply(x)

        return LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)

    minres = solver.minres

    def counted_minres(A, b, *args, M=None, **kwargs):
        A = counting(A, "solver.minres_matvecs")
        if M is not None:
            M = counting(M, "solver.precond_applies", "solver.precond")
        x, info = minres(A, b, *args, M=M, **kwargs)
        if info != 0:
            rec.count("solver.minres_unconverged")
        return x, info

    _rebind(minres, rec.wrap(counted_minres, "solver.minres"))

    for attr in ("synthesize_sequence", "extract_profiles", "verify_decomposition", "local_mass_sup"):
        _patch_function(rec, profiles, attr, f"profiles.{attr}")

    for attr in ("field_to_csv", "covector_to_csv", "radial_to_csv", "surface_to_csv", "write_json"):
        _patch_function(rec, io, attr, f"io.{attr}")
    # the solve command writes trace.csv through numpy directly
    np.savetxt = rec.wrap(np.savetxt, "io.savetxt")


# (metric, unit, kind, source): kind "calls" counts spans with one of the
# names in source, "self" sums their self time, "count" reads a counter, and
# "ratio" divides a counter of useful outcomes (accepted steps) by the
# attempts: spans of one name called directly from spans of another (value
# evaluations in the minimizer, residual evaluations in the Newton search).
LAYER_METRICS = [
    ("field.eval_calls", "count", "calls", (FIELD_EVAL,)),
    ("field.eval_points", "count", "count", "field.eval_points"),
    ("field.eval_s", "s", "self", (FIELD_EVAL,)),
    ("field.curl_s", "s", "self", ("field.curl", "field.curl_of_samples")),
    ("gauge.rephase_calls", "count", "calls", ("gauge.rephase_field",)),
    ("gauge.rephase_s", "s", "self", ("gauge.rephase_field",)),
    ("gauge.shift_calls", "count", "calls", ("gauge.make_shift",)),
    ("gauge.shift_s", "s", "self", ("gauge.make_shift", "gauge.shift_apply", "gauge.shift_invert")),
    (
        "gauge.offgrid_s",
        "s",
        "self",
        ("gauge.potential_at_infinity", "gauge.shifted_corrected_samples", "gauge.corrected_potential_samples"),
    ),
    ("calculus.gradient_calls", "count", "calls", ("calculus.staggered_gradient",)),
    ("calculus.gradient_s", "s", "self", ("calculus.staggered_gradient",)),
    ("calculus.laplacian_calls", "count", "calls", ("calculus.magnetic_laplacian",)),
    ("calculus.laplacian_s", "s", "self", ("calculus.magnetic_laplacian",)),
    ("calculus.energy_calls", "count", "calls", (ENERGY,)),
    ("calculus.energy_s", "s", "self", (ENERGY,)),
    ("calculus.residual_calls", "count", "calls", (RESIDUAL,)),
    ("calculus.residual_s", "s", "self", (RESIDUAL,)),
    ("calculus.field_wraps", "count", "calls", ("calculus.ComplexField.__init__", "calculus.RealField.__init__")),
    ("calculus.wrap_s", "s", "self", ("calculus.ComplexField.__init__", "calculus.RealField.__init__")),
    ("solver.minimize_s", "s", "self", (MINIMIZE,)),
    ("solver.minimize_iters", "count", "count", "solver.minimize_iters"),
    ("solver.minimize_accept_ratio", "ratio", "ratio", ("solver.minimize_accepted", ENERGY, MINIMIZE)),
    ("solver.search_s", "s", "self", (SEARCH,)),
    ("solver.newton_iters", "count", "count", "solver.newton_iters"),
    ("solver.newton_accept_ratio", "ratio", "ratio", ("solver.newton_accepted", RESIDUAL, SEARCH)),
    ("solver.minres_calls", "count", "calls", ("solver.minres",)),
    ("solver.minres_matvecs", "count", "count", "solver.minres_matvecs"),
    ("solver.minres_unconverged", "count", "count", "solver.minres_unconverged"),
    ("solver.minres_s", "s", "self", ("solver.minres",)),
    ("solver.precond_applies", "count", "count", "solver.precond_applies"),
    ("solver.precond_s", "s", "self", ("solver.precond",)),
    ("solver.groundstate_s", "s", "self", ("solver.radial_ground_state",)),
    ("solver.shots", "count", "count", "solver.shots"),
    ("solver.landscape_s", "s", "self", ("solver.landscape_eval",)),
    ("solver.landscape_points", "count", "count", "solver.landscape_points"),
    ("profiles.synthesize_s", "s", "self", ("profiles.synthesize_sequence",)),
    ("profiles.extract_s", "s", "self", ("profiles.extract_profiles",)),
    ("profiles.verify_s", "s", "self", ("profiles.verify_decomposition",)),
    ("profiles.scan_calls", "count", "calls", ("profiles.local_mass_sup",)),
    ("profiles.scan_s", "s", "self", ("profiles.local_mass_sup",)),
    (
        "cli.io_s",
        "s",
        "self",
        ("io.field_to_csv", "io.covector_to_csv", "io.radial_to_csv", "io.surface_to_csv", "io.write_json", "io.savetxt"),
    ),
]


def layer_metrics(path):
    """Per-layer metrics {name: (value, unit)} from the spans and counters saved at ``path``."""
    import numpy as np

    with open(path + ".json") as fh:
        meta = json.load(fh)
    names, counts = meta["names"], meta["counts"]
    with np.load(path + ".npz") as spans:
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    calls = np.bincount(name, minlength=len(names))
    self_by_name = np.bincount(name, weights=self_time, minlength=len(names))
    ids = {n: i for i, n in enumerate(names)}

    def ids_of(source):
        return [ids[n] for n in source if n in ids]

    def children_of(child, parent_name):
        if child not in ids or parent_name not in ids:
            return 0
        hit = (name == ids[child]) & nested
        return int(np.count_nonzero(name[parent[hit]] == ids[parent_name]))

    out = {}
    for metric, unit, kind, source in LAYER_METRICS:
        if kind == "count":
            out[metric] = (int(counts.get(source, 0)), unit)
        elif kind == "calls":
            out[metric] = (int(sum(calls[i] for i in ids_of(source))), unit)
        elif kind == "self":
            out[metric] = (float(sum(self_by_name[i] for i in ids_of(source))), unit)
        else:
            useful, child, parent_name = source
            attempts = children_of(child, parent_name)
            out[metric] = (counts.get(useful, 0) / attempts if attempts else 0.0, unit)
    return out


def search_seconds(path):
    """Inclusive time of the critical-point search spans (trace mode ``search``)."""
    import numpy as np

    with open(path + ".json") as fh:
        names = json.load(fh)["names"]
    with np.load(path + ".npz") as spans:
        hit = spans["name"] == names.index(SEARCH)
        return float(np.sum(spans["end"][hit] - spans["start"][hit]))
