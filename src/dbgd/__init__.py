"""Dynamic-barrier gradient descent for nonconvex simple bilevel problems.

Minimize an upper objective over the set of minimizers of a lower
objective using first-order information only.  The package provides the
built-in problem instances, the per-iteration direction subproblems, the
iteration driver with trace recording, stationarity and KKT certificates,
independent verification oracles, and a CLI experiment harness.

Each module declares its public names in its ``__all__``; the package
exports all of them.
"""

from . import direction, errors, problems, solver, verify
from .direction import *
from .errors import *
from .problems import *
from .solver import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *direction.__all__, *errors.__all__, *problems.__all__, *solver.__all__, *verify.__all__,
    "__version__",
]
