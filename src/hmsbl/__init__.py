"""Block-sparse Bayesian 2-D harmonic retrieval on uniform rectangular arrays.

The estimation problem is gridded in one frequency coordinate only.  Each
grid point owns a block of latent rows whose learned intra-block correlation
matrix carries the second coordinate, recovered gridlessly by polynomial
rooting.  A conventional flat solver over the full 2-D grid is included as
the baseline, along with a config-driven benchmark harness.

Importing the package makes BLAS single-threaded unless the environment
already says otherwise: the solver's largest dense matrix is (nx ny)^2, on
which BLAS threads cost more than they save, and trial-level parallelism
comes from HMSBL_WORKERS processes, which inherit the setting.  It takes
effect only when hmsbl is imported before numpy.

Importing the package loads numpy but not SciPy.  ``scipy.linalg`` is
imported at the first solve, so validating a config or writing plot CSVs
from a saved record never loads SciPy.  Matching never loads
``scipy.optimize``: the package solves its small assignments itself.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from . import dictionary, experiments, metrics, pairing, signal_model, solver
from ._version import __version__
from .signal_model import *  # noqa: F401,F403
from .dictionary import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .pairing import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

# each module's __all__ is the one list of its public names
__all__ = ["__version__"] + [name for module in (signal_model, dictionary, solver, pairing,
                                                  metrics, experiments)
                             for name in module.__all__]
