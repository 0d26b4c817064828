"""Numerical laboratory for bubble solutions of the singular Liouville equation."""

from .bubbles import (
    BubbleParams,
    bubble_residual,
    eval_bubble,
    far_field_gap,
    find_maxima,
    rescaled_profile_gap,
    total_mass,
)
from .config import load_defaults
from .harmonic import (
    LayerField,
    bubble_oscillation_killer,
    build_layer,
    grad_h_at_roots,
)
from .interaction import (
    InteractionParams,
    decompose_difference,
    interaction_coefficient,
    kernel_coefficients,
    moment_contributions,
    moment_integrals,
    second_moment,
)
from .kernels import fundamental_pair, kernel_functions, mode_solve, principal_eigenvalue
from .maxima import (
    MaximaConfiguration,
    green_disk,
    oscillation_gradient,
    solve_maxima_system,
)
from .numerics import (
    QuadratureSpec,
    circle_fourier,
    integrate_disk,
    integrate_plane,
    ode_integrate,
)
from .pohozaev import PohozaevReport, byparts_identity, coefficient_contrast, pohozaev_check
from .radial import (
    RadialProfile,
    harnack_diagnostic,
    shoot_radial,
    trace_branch,
)
from .report import ReportEntry, emit
from .scenarios import SCENARIOS, run_scenario

__version__ = "0.1.0"
