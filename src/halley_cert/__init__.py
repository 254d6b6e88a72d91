"""Cubically convergent solves with semilocal convergence certificates.

The package has four layers. ``majorant`` holds the scalar comparison
functions whose Halley iterates dominate the vector iteration. ``problem``
runs Halley's method and the wider third-order family on finite-dimensional
systems. ``certificate`` turns start-point bounds into existence and
uniqueness radii plus a per-step error schedule, and audits solver traces
against that schedule. ``hammerstein`` is a worked integral-equation example
wired through all of the above, with a command-line front end in ``cli``.
"""

from . import certificate, exceptions, hammerstein, majorant, problem
from .certificate import *
from .exceptions import *
from .hammerstein import *
from .majorant import *
from .problem import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (certificate, exceptions, hammerstein,
                                      majorant, problem)
                  for name in module.__all__})
