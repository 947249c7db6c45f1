"""groupwalk: exact and Monte Carlo computations for random walks on
finitely generated groups: word metrics, convolution powers, drift and
entropy, quasi-harmonic tables, the free-group boundary with its cocycle,
and finite stationary G-spaces."""

__version__ = "0.5.0"

from .errors import (DomainError, GroupwalkError, OutOfRangeError,
                     PreconditionError, ResourceLimitError)
from .groups import (FreeAbelian, FreeGroup, Group, Heisenberg, Lamplighter,
                     group_from_id)
from .measures import (FiniteMeasure, adjoint, convolve, dirac,
                       finite_measure, power, power_sequence, srw)
from .wordmetric import (BallTable, build_ball, heisenberg_norm,
                         lamplighter_norm, norm_evaluator)

__all__ = [
    "DomainError", "GroupwalkError", "OutOfRangeError", "PreconditionError",
    "ResourceLimitError",
    "FreeAbelian", "FreeGroup", "Group", "Heisenberg", "Lamplighter",
    "group_from_id",
    "FiniteMeasure", "adjoint", "convolve", "dirac", "finite_measure",
    "power", "power_sequence", "srw",
    "BallTable", "build_ball", "heisenberg_norm", "lamplighter_norm",
    "norm_evaluator",
    "__version__",
]
