"""Multirate coupling-window time integration for two interface-coupled
advection-diffusion subdomains."""

from .coupling import (
    ContractionError,
    SolverError,
    Trajectory,
    WindowConfig,
    WindowOperator,
    WindowSolution,
    check_flux_conservation,
    coupled_system,
    export_trajectory_csv,
    flux_solve,
    interfacial_energy_term,
    march,
    run_simulation,
    solve_window_fixed_point,
    step_restriction_ratio,
    window_diagnostics,
    window_traces,
)
from .dgit import SubstepBlock, assemble_substep, integrate, solve_substep
from .fespace import (
    AdvectionSpec,
    FeOperators,
    ProblemSpec,
    Separable,
    assemble,
    from_matrices,
)
from .mesh import InterfaceMap, MatchError, Mesh, build_mesh, match_interfaces
from .timepoly import (
    DtildeReport,
    Interval,
    SchemeError,
    SchemeSpec,
    backward_euler,
    continuous_galerkin,
    crank_nicolson,
    dg,
    downwind,
    gauss_rule,
    project_l2,
    project_pieces,
    shipped_schemes,
)
from .verify import (
    ErrorReport,
    ManufacturedCase,
    RateTable,
    ReferenceTrajectory,
    convergence_study,
    energy_report,
    error_norms,
    mms_case,
    prepare_initial_state,
    reference_solve,
)

__version__ = "0.1.0"
