"""Inverse mean curvature flow and geometric inequality audits in
Kottler (ADS-Schwarzschild, toroidal, and hyperbolic) black-hole
backgrounds."""

from .base import (
    AxisymmetricSphereGrid,
    BaseSurface,
    FlatTorusGrid,
    PointGrid,
    integrate,
    make_base,
)
from .background import (
    HorizonData,
    KottlerBackground,
    ch_mass_integral,
    critical_mass,
    hk_constant,
    horizon_radius,
    make_background,
    mass_from_radius,
    mass_upper_bound,
    radius_bounds,
    richardson_mass,
    static_residual,
)
from .errors import (
    CFLError,
    ConfigError,
    ExteriorError,
    FlowSingularError,
    HorizonError,
    InvalidBaseError,
    KottlerError,
    NoiseFloorError,
)
from .flow import (
    FlowControls,
    FlowState,
    FlowTrace,
    TRACE_COLUMNS,
    asymptotic_rate_fit,
    cfl_limit,
    run_flow,
    step_graph_pde,
    step_slice_ode,
)
from .functionals import (
    FunctionalReport,
    areal_minkowski_deficit,
    asymptotic_limit_targets,
    bulk_integral,
    compute_P,
    compute_Q,
    evaluate_report,
    hawking_mass,
    hk_gap,
    minkowski_deficit,
    penrose_conjecture_deficit,
    reverse_penrose_deficit,
    surface_gravity_bound_deficit,
    total_mean_curvature,
)
from .surfaces import (
    GraphSurface,
    SurfaceGeometry,
    compute_geometry,
    star_shaped_check,
)

__version__ = "0.1.0"
