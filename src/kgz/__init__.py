"""Uniformly accurate finite difference solver for the 1D KGZ system.

The package covers the full subsonic range of the acoustic parameter: an
exactly integrated oscillatory initial layer feeds a two-step semi-implicit
scheme whose accuracy does not degrade as the parameter goes to zero, plus
a harness that reproduces the spatial/temporal rate tables and the
vanishing-parameter diagnostics.
"""

from .errors import (
    DegenerateProblemError,
    IllConditionedError,
    KgzError,
    ParameterError,
    ShapeError,
    SingularSystemError,
    StabilityError,
)
from .grid import (
    Grid1D,
    GridNorms,
    factor_tridiagonal,
    forward_difference,
    grid_norms,
    inner_product,
    second_difference,
    solve_factored,
    solve_poisson_dirichlet,
    solve_tridiagonal,
    staggered_inner_product,
)
from .harness import (
    ErrorRow,
    RateTable,
    SweepSpec,
    aligned_tau,
    convergence_rate,
    error_metrics,
    grid_for,
    limit_study,
    make_params,
    read_table,
    reference_solution,
    run_sweep,
    write_snapshots,
    write_table,
)
from .layer import InitialLayer, decay_order
from .limits import LimitMetrics, first_state_kg, kg_energy, limit_metrics, trajectory_kg
from .presets import case_exponents, domain_for_eps, preset_initial_data, smooth_step
from .solver import (
    InitialData,
    KgzParams,
    KgzState,
    Snapshot,
    Trajectory,
    build_layer,
    density_at,
    energy,
    first_state,
    nondimensionalize,
    recover_density,
    run,
    step,
    step_back,
    trajectory,
)
from .transforms import dst_forward, dst_inverse

__version__ = "0.1.0"
