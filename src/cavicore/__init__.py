"""Numerical core-radius approximation of cavitation energies in planar
nonlinear elasticity: perforated-domain energies, degree-theoretic cavity
metrics, radial minimization, and recovery-sequence experiments."""

__version__ = "0.1.0"

from .cavity import (
    CavityMetrics,
    TraceCurve,
    cavity_perimeter,
    cavity_volume,
    converged_trace_metrics,
    degree_range_on_grid,
    extrapolate_limit,
    tangential_gradient_on_circle,
    tangential_jacobian,
    topological_image_contains,
    trace_on_circle,
    winding_number,
)
from .deformation import (
    CATALOG_KEYS,
    Deformation,
    RadialProfile,
    compose,
    example_change_of_reference,
    example_radial,
    example_spike,
    example_superposition,
    identity_deformation,
    make_example,
    radial_deformation,
)
from .energy import (
    Density,
    EnergyBreakdown,
    bump,
    check_admissibility_sampled,
    default_density,
    density_by_name,
    elastic_energy,
    extended_det_pairing,
    flaw_limit,
    limit_energy,
    regularized_energy,
    subquadratic_density,
)
from .geometry import (
    Confinement,
    Domain,
    FlawConfig,
    pseudoinverse,
    qnorm,
    validate_flaw_config,
)
from .minimize import (
    GammaSweep,
    RadialProblem,
    SweepRow,
    flaw_search,
    gamma_sweep,
    minimize_radial,
    radial_reduced_energy,
)
from .recovery import build_phi, compose_push, default_r_rule, recovery_energy_table
