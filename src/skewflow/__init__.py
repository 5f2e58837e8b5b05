"""Skew mean curvature flow, Gauss maps into the oriented Grassmannian, and
residual-based verification that the plane field obeys a Schrodinger-type
evolution along the flow."""

from .errors import (
    DegenerateImmersionError,
    FrameError,
    NotNormalError,
    NotTangentError,
    SkewflowError,
    UnsupportedCaseError,
)
from .exterior import (
    MultiVector,
    index_sets,
    inner,
    simplicity_residual,
    wedge,
    wedge_vectors,
)
from .grassmann import (
    AdaptedFrame,
    GrassmannPoint,
    embed,
    frame_curve,
    jtilde_coeffs,
    normal_rotate,
    project_to_tangent,
    psi,
    psi_inv,
    random_adapted_frame,
    tangent_basis,
)
from .geometry import (
    GeometryCache,
    Immersion,
    PeriodicGrid,
    diff1,
    diff2,
    fundamental_forms,
    load_immersion_csv,
    make_circle,
    make_perturbed_circle,
    make_perturbed_torus,
    make_product_torus,
    save_immersion_csv,
    volume,
)
from .flow import (
    FlowConfig,
    FlowState,
    Trajectory,
    explicit_step_bound,
    fitted_torus_radii,
    product_torus_ode_oracle,
    run,
    stable_dt,
    step,
    velocity,
)
from .verify import (
    ConvergenceTable,
    Report,
    connection_residual,
    convergence_study,
    dt_rho_analytic,
    dt_rho_numeric,
    isometry_max_error,
    kahler_residual,
    residual_codazzi,
    residual_conservation,
    residual_identify,
    residual_theorem1,
    tension,
    theorem2_suite,
)

__version__ = "0.1.0"
