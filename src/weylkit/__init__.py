"""Numerical toolkit for two-term semiclassical spectral asymptotics of
the Dirichlet Laplacian.

Capabilities: exact Dirichlet spectra (boxes, disks, balls), counting
function and first Riesz mean with one- and two-term Weyl predictions and
Berezin-Li-Yau margin checks, the half-space boundary-layer density and
its Bessel-form integrals, multiscale partition-of-unity localization
with boundary straightening, and finite-difference spectra for general
polygons with inertia-based eigenvalue counting.
"""

from .constants import Constants, constants, phase_space_integral
from .domains import (
    Ball,
    Box,
    Disk,
    HalfSpace,
    Polygon,
    load_polygon,
    lshape_polygon,
    square,
)
from .bessel import bessel_j, bessel_zeros, zeros_below, zeros_below_orders
from .spectra import (
    Spectrum,
    ball_spectrum,
    box_spectrum,
    disk_spectrum,
    load_spectrum,
    save_spectrum,
    spectrum_for,
)
from .functionals import (
    FitReport,
    SweepRecord,
    SweepResult,
    berezin_check,
    counting_function,
    fit_second_term,
    fit_to_json,
    riesz_from_counting,
    riesz_mean,
    sweep,
    sweep_to_csv,
    weyl_prediction,
)
from .halfspace import (
    absolute_moment,
    boundary_coefficient,
    boundary_partial_sums,
    cosine_integral,
    density_profile,
    profile_to_csv,
    tail_bound_check,
)
from .localization import (
    BoundaryChart,
    ScaleFunction,
    dump_diagnostics,
    holder_chart,
    jacobian_factor,
    mapped_volume_mc,
    mother_bump,
    normalization_check,
    partition_eval,
    partition_grad,
    scale_integral_slopes,
    scale_integrals,
    straighten,
    surface_defect,
    surface_defect_slope,
    unstraighten,
)
from .fdlap import GridOperator, assemble, count_below, eigenvalues_below, fd_spectrum
from .errors import (
    CompletenessError,
    ConfigError,
    ConvergenceError,
    DomainError,
    FitError,
    InvariantViolation,
    NumericsError,
    ResourceError,
    WeylkitError,
)

__version__ = "0.1.0"
