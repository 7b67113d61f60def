"""Verification-grade numerics for relativistic spin-1/2 kinematics.

The package covers the Lorentz group in its vector, SU(2), and bispinor
realizations, Wigner rotations, bispinor amplitudes on both mass shells,
momentum-space spin and Pauli-Lubanski operator matrices, wavefunctions
with Newton-Wigner position shifts, Bloch-vector transformation laws,
slow-motion polarization dynamics in magnetic fields, and position-space
synthesis with scalar-product (Parseval) consistency checks.

Conventions: metric diag(1, -1, -1, -1), natural units, eps^{0123} = +1,
chiral-like gamma matrices (see `clifford`), unit parity phase.
"""

__version__ = "0.7.0"

from .minkowski import (
    METRIC,
    minkowski_dot,
    on_shell,
    parity_flip,
    lorentz_matrix,
    lorentz_residual,
)
from .clifford import GAMMA, GAMMA0, GAMMA5, PAULI, SIGMA, energy_projector, slash
from .lorentz import (
    boost_from_velocity,
    standard_boost,
    wigner_rotation,
    wigner_rotation_closed,
    wigner_d,
    su2_from_so3,
    bispinor_rep,
)
from .amplitudes import amplitude, dirac_bar, weinberg_residual
from .spin_ops import (
    pl_covariant,
    pl_spin,
    spin_matrix,
    spin_from_pl,
    spin_covariant,
    hamiltonian_covariant,
    fw_residual,
    spin_transform_closed,
    spin_transform_wigner,
)
from .states import (
    Grid,
    SpinWaveFunction,
    CovariantWaveFunction,
    DensityState,
    gaussian_packet,
    to_covariant,
    from_covariant,
    scalar_product,
    norm,
    normalized,
    lorentz_transform,
    nw_shift,
    nw_apply,
    spin_expectations,
    bloch_transform,
)
from .dynamics import (
    ChargedState,
    FieldConfig,
    Trajectory,
    uniform_field,
    quadrupole_field,
    integrate,
    larmor_solution,
)
from .position import synthesize_mesh, parseval_check, default_grids
from .verify import RunConfig, run_all, run_identity, to_json, to_csv, DEFAULT_TOLERANCES

__all__ = [name for name in dir() if not name.startswith("_")]
