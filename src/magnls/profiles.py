"""Discrete concentration-compactness: synthesis, extraction, verification.

A bounded sequence that concentrates along diverging centers is represented
as a fixed profile per center plus a remainder that is small in L^p.  The
extractor localizes mass with a lattice scan, inverts the magnetic shift
along the detected trajectory, and averages the tail; the verifier checks
the mass-splitting and superadditivity identities the decomposition must
satisfy.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import (
    BOUNDARY_MASS_TOL,
    ComplexField,
    Grid,
    _whole,
    bump,
    energy_EA,
    lp_norm,
)
from .field import PotentialField, field_library
from .gauge import make_shift, potential_at_infinity, shift_apply, shift_invert, shifted_corrected_samples

__all__ = [
    "Discretization",
    "ProfileTerm",
    "Decomposition",
    "SyntheticSpec",
    "ProfileSpec",
    "local_mass_sup",
    "covering_chain_ratio",
    "synthesize_sequence",
    "extract_profiles",
    "verify_decomposition",
    "ExtractOpts",
]


@dataclass
class Discretization:
    """Scan lattice: points at spacing rho whose rho_cover-balls cover the window.

    Each ball is stored as flat indices into the grid zero-padded by ``pad``
    nodes per axis, so nodes a ball reaches outside the window count zero.
    """

    grid: Grid
    rho: float
    rho_cover: float
    points: np.ndarray  # (M, dim)
    pad: tuple  # padding nodes per axis
    flat: np.ndarray  # (M, B) ball node indices into the padded, raveled grid

    @classmethod
    def cubic(cls, grid: Grid, rho: float) -> "Discretization":
        """Cubic lattice rho Z^dim clipped to the grid window.

        rho must be a multiple of the grid spacing so detected centers are
        valid shift vectors.  The covering radius rho sqrt(dim)/2 (plus 1e-12)
        is the smallest that covers space; the covering multiplicity of the
        doubled radius stays below 2^dim.  A ball holds the node offsets o
        with |o h| <= rho_cover around its center node.
        """
        ms = grid.is_lattice_vector(np.full(grid.dim, rho))
        if ms is None or min(ms) < 1:
            raise ValueError(f"lattice spacing {rho} is not a positive multiple of grid spacing {grid.h}")
        rho_cover = rho * float(np.sqrt(grid.dim)) / 2.0 + 1e-12
        ranges = [np.arange(-int(np.floor(L / rho)), int(np.floor(L / rho)) + 1) for L in grid.extents]
        ks = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, grid.dim)
        h = np.asarray(grid.h)
        pad = tuple(int(np.floor(rho_cover / hi)) for hi in h)
        reach = [np.arange(-r, r + 1) for r in pad]
        offsets = np.stack(np.meshgrid(*reach, indexing="ij"), axis=-1).reshape(-1, grid.dim)
        offsets = offsets[np.sum((offsets * h) ** 2, axis=1) <= rho_cover**2]
        centers = grid.node_index(ks * np.asarray(ms)) + np.asarray(pad)
        nodes = centers[:, None, :] + offsets[None, :, :]
        padded = tuple(n + 2 * r for n, r in zip(grid.n, pad))
        flat = np.ravel_multi_index(tuple(np.moveaxis(nodes, -1, 0)), padded)
        return cls(grid=grid, rho=rho, rho_cover=rho_cover, points=ks * rho, pad=pad, flat=flat)

    def multiplicity_bound(self) -> int:
        """Crude bound on how many cover balls can share a point."""
        return int(np.ceil(2.0 * self.rho_cover / self.rho + 1.0)) ** self.grid.dim

    def ball_masses(self, dens: np.ndarray) -> np.ndarray:
        """Sum of ``dens`` (a grid-shaped array) over each lattice point's ball, shape (M,)."""
        return np.pad(dens, [(r, r) for r in self.pad]).ravel()[self.flat].sum(axis=1)


def local_mass_sup(u: ComplexField, xi: Discretization, p: float) -> dict:
    """Largest |u|^p mass in a covering ball, with its maximizing lattice point.

    Ties go to the first lattice point (lexicographic order) whose mass is
    within 1e-15 max(top, 1) of the largest mass ``top``.
    """
    dens = u.grid.weights() * np.abs(u.values) ** p
    mass = xi.ball_masses(dens)
    top = float(mass.max())
    best = int(np.flatnonzero(mass >= top - 1e-15 * max(top, 1.0))[0])
    return {
        "value": float(mass[best]),
        "argmax": xi.points[best].copy(),
        "total_mass": float(np.sum(dens)),
    }


def covering_chain_ratio(u: ComplexField, xi: Discretization, p: float) -> float:
    """Empirical ratio in the covering chain bound
    ||u||_p^p <= C ||u||_{H_A}^2 sup_z (int_{B(z)} |u|^p)^{1-2/p},
    in the field-free form with C the covering multiplicity bound; the bound
    holds when the ratio is at most 1.  It is 0 for u = 0.
    """
    scan = local_mass_sup(u, xi, p)
    if scan["value"] == 0.0:
        return 0.0
    zero = np.zeros((u.grid.dim,) + u.grid.shape)
    h_norm2 = energy_EA(u, zero) + lp_norm(u, 2.0) ** 2
    return float(scan["total_mass"] / (xi.multiplicity_bound() * h_norm2 * scan["value"] ** (1.0 - 2.0 / p)))


# ---------------------------------------------------------------------------
# Synthetic sequences with planted ground truth
# ---------------------------------------------------------------------------

@dataclass
class ProfileSpec:
    """One planted bump: shape parameters plus a per-step trajectory rule."""

    amplitude: complex = 1.0
    width: float = 1.0
    wave: Optional[tuple] = None  # plane-wave phase factor exp(i wave . x)
    center: tuple = ()
    direction: tuple = ()  # per-step displacement; empty means stationary

    def moving(self) -> bool:
        return bool(self.direction) and any(d != 0 for d in self.direction)


@dataclass
class SyntheticSpec:
    profiles: list
    field: Optional[PotentialField] = None
    noise_amplitude: float = 0.0
    noise_decay: float = 0.1
    noise_seed: int = 0
    spreading_amplitude: float = 0.0
    spreading_width: float = 1.0


def _profile_field(spec: ProfileSpec, grid: Grid) -> ComplexField:
    center = spec.center if spec.center else 0.0
    return bump(grid, center=center, width=spec.width, amplitude=spec.amplitude, wave=spec.wave)


def synthesize_sequence(spec: SyntheticSpec, grid: Grid, K: int):
    """Build u_0..u_{K-1} as planted profiles under magnetic shifts plus
    decaying noise and an optional spreading (mass-escaping) term.

    The shifts use ``make_shift``'s defaults: quadrature tolerance 1e-10 and
    an allowed boundary-mass loss of 1e-6.

    Returns the fields together with the planted ground truth (profile
    fields, trajectories).  Raises when a trajectory would push a profile
    out of the window before step K.
    """
    A = spec.field
    if A is None:
        A = field_library("zero", dim=grid.dim)
    dim = grid.dim
    truth = {"profiles": [], "trajectories": []}
    base_fields = []
    for pr in spec.profiles:
        v = _profile_field(pr, grid)
        base_fields.append(v)
        truth["profiles"].append(v)
        if pr.moving():
            d = np.asarray(pr.direction, dtype=float)
            if grid.is_lattice_vector(d) is None:
                raise ValueError(f"trajectory step {d.tolist()} is not a lattice vector")
            margin = 4.0 * pr.width
            final = d * (K - 1)
            for L, f, c in zip(grid.extents, final, pr.center or (0.0,) * dim):
                if abs(c + f) + margin > L:
                    raise ValueError(
                        f"trajectory exits the window before step {K}: |{c} + {f}| + {margin} > {L}"
                    )
            truth["trajectories"].append([d * k for k in range(K)])
        else:
            truth["trajectories"].append([np.zeros(dim) for _ in range(K)])

    rng = np.random.default_rng(spec.noise_seed)
    envelope = bump(grid, width=min(grid.extents) / 2.0).values.real
    seq = []
    for k in range(K):
        vals = np.zeros(grid.shape, dtype=complex)
        for pr, v, traj in zip(spec.profiles, base_fields, truth["trajectories"]):
            g = make_shift(A, traj[k], grid)
            vals += shift_apply(g, v).values
        if spec.noise_amplitude > 0:
            eps = spec.noise_amplitude * spec.noise_decay**k
            noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            vals += eps * envelope * noise
        if spec.spreading_amplitude > 0:
            scale = float(k + 1)
            pts = grid.nodes()
            r2 = np.sum(pts**2, axis=-1) / scale**2
            vals += (
                spec.spreading_amplitude
                * scale ** (-dim / 2.0)
                * np.exp(-r2 / (2.0 * spec.spreading_width**2))
            )
        seq.append(ComplexField(grid, vals))
    return seq, truth


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

@dataclass
class ProfileTerm:
    index: int
    trajectory: list  # y_k per step; all zeros for the index-0 term
    profile: ComplexField
    a_inf: Optional[np.ndarray]  # potential-at-infinity samples; None only for the index-0 term
    a_inf_converged: Optional[bool] = None
    tail_agreement: float = 0.0
    converged: bool = True


@dataclass
class Decomposition:
    terms: list
    remainder_lp: list  # per step k
    remainders: list  # final remainder fields
    warnings: list
    success: bool


@dataclass
class ExtractOpts:
    eps_mass: float = 1e-3
    max_profiles: int = 6
    tail_window: int = 3
    agree_tol: float = 5e-2
    window_radius: float = 6.0
    p: float = 4.0  # exponent for the localization scan and remainder norms

    def __post_init__(self):
        self.max_profiles = _whole(self.max_profiles)
        self.tail_window = _whole(self.tail_window)
        if self.tail_window < 1:
            raise ValueError(f"tail_window must be >= 1, got {self.tail_window}")
        if self.max_profiles < 0:
            raise ValueError(f"max_profiles must be >= 0, got {self.max_profiles}")
        for name in ("window_radius", "eps_mass"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def _tail_average(fields: list, grid: Grid, wmask: np.ndarray) -> ComplexField:
    acc = np.zeros(grid.shape, dtype=complex)
    for f in fields:
        acc += f.values
    acc /= len(fields)
    return ComplexField(grid, np.where(wmask, acc, 0.0))


def _half_tail_agreement(fields: list, grid: Grid, wmask: np.ndarray):
    """Relative distance of the two half-tail averages, measured inside the
    profile window: the computable surrogate of local weak convergence.
    Returns it with the full-tail average."""
    avg = _tail_average(fields, grid, wmask)
    half = len(fields) // 2
    if half == 0:
        return 0.0, avg
    a = _tail_average(fields[:half], grid, wmask)
    b = _tail_average(fields[half:], grid, wmask)
    scale = max(lp_norm(avg, 2.0), 1e-30)
    return lp_norm(ComplexField(grid, a.values - b.values), 2.0) / scale, avg


def extract_profiles(
    seq: list,
    A: Optional[PotentialField],
    xi: Discretization,
    opts: Optional[ExtractOpts] = None,
) -> Decomposition:
    """Peel concentrating profiles off a bounded sequence.

    Step 0 takes the tail average as the stationary term (the computable
    surrogate of the weak limit; accepted only when the two half-tail
    averages agree).  Agreement is not tested when the tail average's
    windowed |u|^p mass is below eps_mass, where the relative disagreement
    of a near-zero average is noise; that term, its profile and its measured
    ``tail_agreement`` are still kept.  Each further round locates the
    remainder's dominant mass with the lattice scan, inverts the magnetic
    shift along that trajectory, tail-averages, windows the result, and
    subtracts its shifted copies from every remainder.  Stops when the tail's local mass drops
    below eps_mass or the trajectory fails to diverge.  ``A=None`` means the
    zero field, under which every shift is a plain translation.
    """
    opts = opts or ExtractOpts()
    K = len(seq)
    if K < 2 * opts.tail_window:
        raise ValueError(f"need at least {2 * opts.tail_window} steps, got {K}")
    grid = seq[0].grid
    dim = grid.dim
    if A is None:
        A = field_library("zero", dim=dim)
    warnings_list = []
    pts = grid.nodes()
    wmask = np.sum(pts**2, axis=-1) <= opts.window_radius**2

    tail = seq[K - opts.tail_window:]
    agree0, v0 = _half_tail_agreement(tail, grid, wmask)
    # below the mass that ends extraction there is no stationary part to test
    conv0 = agree0 <= opts.agree_tol or lp_norm(v0, opts.p) ** opts.p < opts.eps_mass
    if not conv0:
        warnings_list.append(
            f"stationary term: half-tail averages differ by {agree0:.3e} > {opts.agree_tol:.3e}"
        )
    terms = [
        ProfileTerm(
            index=0,
            trajectory=[np.zeros(dim) for _ in range(K)],
            profile=v0,
            a_inf=None,
            a_inf_converged=None,
            tail_agreement=agree0,
            converged=conv0,
        )
    ]
    remainders = [ComplexField(grid, u.values - v0.values) for u in seq]

    for n in range(1, opts.max_profiles + 1):
        scans = [local_mass_sup(r, xi, opts.p) for r in remainders]
        tail_vals = [s["value"] for s in scans[K - opts.tail_window:]]
        if max(tail_vals) < opts.eps_mass:
            break
        traj = [s["argmax"] for s in scans]
        tail_traj = traj[K - opts.tail_window:]
        tail_norms = [float(np.linalg.norm(y)) for y in tail_traj]
        # diverging means the radii keep growing by at least a lattice spacing
        # over the tail; a parked maximizer belongs to an earlier term's cell
        diverging = (
            all(b >= a - 1e-9 for a, b in zip(tail_norms[:-1], tail_norms[1:]))
            and tail_norms[-1] - tail_norms[0] >= xi.rho - 1e-9
            and tail_norms[-1] > 2.0 * xi.rho_cover
        )
        if not diverging:
            warnings_list.append(
                f"term {n}: trajectory stays bounded (tail radii {tail_norms}); remaining mass "
                "belongs to an earlier profile's cell"
            )
            break

        def shift_to(k):
            return make_shift(A, traj[k], grid, max_loss=0.9)

        tail_shifts = {k: shift_to(k) for k in range(K - opts.tail_window, K)}
        inverted = [shift_invert(g, remainders[k]) for k, g in tail_shifts.items()]
        agree, v = _half_tail_agreement(inverted, grid, wmask)
        conv = agree <= opts.agree_tol
        if not conv:
            warnings_list.append(
                f"term {n}: half-tail averages differ by {agree:.3e} > {opts.agree_tol:.3e}"
            )

        a_conv = None
        if all(b > a for a, b in zip(tail_norms[:-1], tail_norms[1:])):
            # convergence is judged on the bounded profile window and needs
            # strictly growing radii; a tail that parks for a step is still
            # measured in the frame of its last center below
            n_probe = min(33, min(grid.n))
            if n_probe % 2 == 0:
                n_probe -= 1
            probe = Grid(opts.window_radius, n_probe, dim=grid.dim)
            _, rep = potential_at_infinity(A, tail_traj, probe)
            a_conv = rep["converged"]
        # the energy samples live on the full grid (the profile vanishes
        # outside its window, so the far values are inert)
        a_inf = shifted_corrected_samples(A, tail_traj[-1], grid)

        for k in range(K):
            g = tail_shifts.pop(k) if k in tail_shifts else shift_to(k)
            shifted = shift_apply(g, v)
            remainders[k] = ComplexField(grid, remainders[k].values - shifted.values)

        terms.append(
            ProfileTerm(
                index=n,
                trajectory=traj,
                profile=v,
                a_inf=a_inf,
                a_inf_converged=a_conv,
                tail_agreement=agree,
                converged=conv,
            )
        )

    final_scans = [local_mass_sup(r, xi, opts.p) for r in remainders[K - opts.tail_window:]]
    success = max(s["value"] for s in final_scans) < opts.eps_mass and all(t.converged for t in terms)
    remainder_lp = [lp_norm(r, opts.p) for r in remainders]
    return Decomposition(
        terms=terms,
        remainder_lp=remainder_lp,
        remainders=remainders,
        warnings=warnings_list,
        success=success,
    )


# ---------------------------------------------------------------------------
# Verification of the splitting identities
# ---------------------------------------------------------------------------

def verify_decomposition(
    dec: Decomposition,
    seq: list,
    A: Optional[PotentialField],
    params,
) -> dict:
    """Check the identities a valid decomposition must satisfy.

    The |u|^p masses of the terms must add up to the sequence's tail mass;
    the L^2 masses and the energies (each term measured against its own
    potential at infinity) may only fall short, never exceed, by more than
    the tolerance 1e-6.  Pairwise trajectory separations must grow.
    ``A=None`` means the zero field.
    """
    tol = 1e-6
    K = len(seq)
    grid = seq[0].grid
    if A is None:
        A = field_library("zero", dim=grid.dim)
    p = params.p
    uK = seq[-1]
    mass_seq = lp_norm(uK, p) ** p
    mass_terms = sum(lp_norm(t.profile, p) ** p for t in dec.terms)
    mass_defect = abs(mass_seq - mass_terms) / max(mass_seq, 1e-30)

    l2_tail = min(lp_norm(u, 2.0) ** 2 for u in seq[K // 2:])
    l2_terms = sum(lp_norm(t.profile, 2.0) ** 2 for t in dec.terms)
    l2_slack = l2_tail - l2_terms

    e_tail = min(energy_EA(u, A) for u in seq[K // 2:])
    e_terms = 0.0
    for t in dec.terms:
        e_terms += energy_EA(t.profile, A if t.index == 0 else t.a_inf)
    energy_slack = e_tail - e_terms
    compared = seq[K // 2:] + [t.profile for t in dec.terms]
    bmass = max(f.boundary_mass_fraction() for f in compared)

    separations = {}
    moving = [t for t in dec.terms if t.index != 0]
    for i, ti in enumerate(dec.terms):
        for tj in dec.terms[i + 1:]:
            d = [float(np.linalg.norm(a - b)) for a, b in zip(ti.trajectory, tj.trajectory)]
            growing = all(b >= a - 1e-9 for a, b in zip(d[:-1], d[1:]))
            separations[f"{ti.index}-{tj.index}"] = {
                "final": d[-1],
                "growing": growing,
            }

    return {
        "mass_defect": float(mass_defect),
        "mass_seq": float(mass_seq),
        "mass_terms": float(mass_terms),
        "l2_slack": float(l2_slack),
        "energy_slack": float(energy_slack),
        "separations": separations,
        "remainder_lp": [float(lp_norm(r, p)) for r in dec.remainders],
        "tol": tol,
        "l2_ok": bool(l2_slack >= -tol),
        "energy_ok": bool(energy_slack >= -tol),
        "boundary_mass": {"value": bmass, "tol": BOUNDARY_MASS_TOL},
        "n_moving_terms": len(moving),
    }
