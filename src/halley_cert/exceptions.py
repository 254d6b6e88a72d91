"""Exception types shared across the package."""

__all__ = [
    "HalleyCertError",
    "NoRootError",
    "DegenerateRootError",
    "AssumptionError",
    "LinearSolveError",
    "LFNormExceededError",
]


class HalleyCertError(Exception):
    """Base class for errors raised by this package."""


class NoRootError(HalleyCertError):
    """The majorizing function has no zero before its minimum."""


class DegenerateRootError(HalleyCertError):
    """The slope of the majorant vanishes at its smallest zero.

    This happens exactly on the boundary of the convergence criterion, where
    the existence and uniqueness radii collide and the error constants blow up.
    """


class AssumptionError(HalleyCertError):
    """A majorant failed the structural assumptions needed by the theory.

    Carries the offending :class:`~halley_cert.majorant.AssumptionReport` as
    the ``report`` attribute.
    """

    def __init__(self, report):
        self.report = report
        failed = [name for name, ok in
                  (("A1", report.a1_holds), ("A2", report.a2_holds), ("A3", report.a3_holds))
                  if not ok]
        notes = "; ".join(report.diagnostics) if report.diagnostics else "no diagnostics"
        super().__init__(f"majorant assumptions failed ({', '.join(failed)}): {notes}")


class LinearSolveError(HalleyCertError):
    """A dense linear solve hit a pivot too small to trust."""


class LFNormExceededError(HalleyCertError):
    """The Halley correction operator is too large for the iteration family."""
