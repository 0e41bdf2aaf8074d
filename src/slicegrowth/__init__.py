"""Slice analysis of several Clifford variables, verified numerically.

Clifford-algebra arithmetic, slice coordinates, stem-series evaluation,
the star-product algebra behind the extremal map families, two-slice
reconstruction, and growth-theorem checks on the unit ball and on gauged
slice domains, wired into a deterministic verification harness.
"""

from .algebra import (
    CliffordElement,
    blade,
    generator,
    in_sqrt_minus_one,
    slice_exp,
)
from .errors import (
    BasisError,
    ConeError,
    CriterionError,
    DimensionError,
    GaugeError,
    HypothesisViolationError,
    NonInvertibleError,
    RepresentationError,
    SamplingError,
    SliceAnalysisError,
)
from .geometry import (
    Gauge,
    convex_criterion_slice,
    gauge_rho,
    growth_check_ball,
    growth_check_domain,
    oracle_gauge,
    starlike_criterion_slice,
    verify_extremal,
)
from .reports import Report
from .series import (
    StemSeries,
    cr_residual,
    extremal_series,
    star_inverse,
    star_mul,
)
from .slicemaps import (
    ShadowMap,
    SliceMap,
    extremal_map,
    representation_formula,
    split_components,
    two_slice_average,
)
from .slicespace import (
    SlicePoint,
    make_point,
    point_norm,
)
from .suites import RunConfig, run_suite

__version__ = "0.1.0"
