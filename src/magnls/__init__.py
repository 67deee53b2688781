"""Numerics for nonlinear Schrödinger problems with bounded magnetic fields.

Subpackages: ``field`` (potentials and curls), ``gauge`` (re-phasing and
magnetic shifts), ``calculus`` (discrete covariant calculus and functionals),
``solver`` (ground states, constrained minimization, minimax landscape),
``profiles`` (concentration-compactness extraction), ``cli`` (orchestration).
"""

from .calculus import (
    ComplexField,
    FunctionalParams,
    Grid,
    RealField,
    bump,
    default_grid,
    el_residual,
    energy_EA,
    eta_map,
    functional_I,
    functional_J,
    lp_norm,
)
from .field import PotentialField, TwoForm, b_sup_norm, curl, field_library, parse_field_spec
from .gauge import (
    CorrectedPotential,
    GaugePhase,
    ShiftOp,
    composition_constant,
    corrected_potential,
    linear_bound_check,
    make_shift,
    potential_at_infinity,
    rephase_field,
    shift_apply,
    shift_invert,
)

__version__ = "0.1.0"
