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
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from ._version import __version__
from .signal_model import (
    Scene,
    SnapshotSet,
    Source,
    UraConfig,
    angles_to_uv,
    noise_power,
    sample_covariance,
    synthesize_snapshots,
)
from .dictionary import (
    DictionaryPair,
    Grid1D,
    KronDictionary,
    dictionary_pair,
    effective_dictionary,
    kron_dictionary,
    kron_factorization_check,
    steering,
    steering_matrix,
    uniform_grid,
)
from .solver import (
    DegenerateInputError,
    HMsblParams,
    HMsblState,
    Posterior,
    RunDiagnostics,
    SolverError,
    compress_snapshots,
    e_step,
    init_state,
    ml_cost,
    prune,
    run,
    update_b,
    update_gamma,
    update_lambda,
)
from .msbl import msbl_estimates
from .pairing import (
    PairedEstimates,
    PeakAllocation,
    PeakSelection,
    RootMusicEstimate,
    pair_estimates,
    root_music_v,
    select_peaks,
)
from .metrics import MatchCountError, MatchReport, match_and_rmse
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    emit_plot_data,
    load_config,
    run_and_save,
    run_bench,
    run_experiment,
    scene_for_trial,
    validate_config,
)

__all__ = [
    "__version__",
    # signal model
    "UraConfig", "Source", "Scene", "SnapshotSet",
    "angles_to_uv", "noise_power", "synthesize_snapshots", "sample_covariance",
    # dictionaries
    "Grid1D", "DictionaryPair", "KronDictionary",
    "uniform_grid", "steering", "steering_matrix", "dictionary_pair",
    "effective_dictionary", "kron_dictionary", "kron_factorization_check",
    # block solver
    "HMsblParams", "HMsblState", "Posterior", "RunDiagnostics",
    "SolverError", "DegenerateInputError",
    "init_state", "e_step", "update_gamma", "update_b", "update_lambda",
    "ml_cost", "prune", "compress_snapshots", "run",
    # flat baseline
    "msbl_estimates",
    # v extraction
    "PeakSelection", "PeakAllocation", "RootMusicEstimate", "PairedEstimates",
    "select_peaks", "root_music_v", "pair_estimates",
    # metrics
    "MatchReport", "MatchCountError", "match_and_rmse",
    # experiments
    "ExperimentConfig", "ConfigError", "ResultRecord",
    "validate_config", "load_config", "scene_for_trial",
    "run_experiment", "run_bench", "run_and_save", "emit_plot_data",
]
