"""Exception types shared across the package."""


class SliceAnalysisError(Exception):
    """Base class for every error raised by slicegrowth."""


class DimensionError(SliceAnalysisError):
    """Operands live in algebras with different generator counts, or a
    coefficient array has the wrong length."""


class NonInvertibleError(SliceAnalysisError):
    """Element has a (numerically) singular left-multiplication operator."""


class ConeError(SliceAnalysisError):
    """A slice unit J is not a square root of -1 within tolerance."""


class SamplingError(SliceAnalysisError):
    """A randomized search exhausted its retry budget, or what it looks
    for does not exist."""


class RepresentationError(SliceAnalysisError):
    """Two-slice reconstruction attempted with a degenerate slice pair."""


class BasisError(SliceAnalysisError):
    """A proposed module basis fails the change-of-basis solvability test."""


class CriterionError(SliceAnalysisError):
    """A geometric criterion hit a singular Jacobian."""


class GaugeError(SliceAnalysisError):
    """Membership oracle behaves inconsistently with a starlike gauge."""


class HypothesisViolationError(SliceAnalysisError):
    """Input map violates a hypothesis (e.g. values leave the slice C_I^n)."""
