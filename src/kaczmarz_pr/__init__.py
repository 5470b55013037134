"""Phase retrieval of complex-valued signals by randomized row projections.

The package splits into:

* ``core``       complex vector primitives and the phase-aligned metric
* ``sensing``    sphere / block-unitary ensembles (an ensemble is its rows),
                 measurements that carry their ensemble, and the objective f
* ``solver``     the randomized projection iteration
* ``spectral``   truncated spectral initialization
* ``regularity`` derivatives of f, wedge sets and the regularity constant's terms
* ``search``     ``estimate_L``, the regularity constant's bracket
* ``harness``    seeded experiment batches, rate fitting, CSV/JSON output
* ``blas``       one OpenBLAS thread for the work whose bits depend on it
* ``verify``     every invariant and lemma check, with the Monte-Carlo
                 estimates of the lemma constants, shared by the acceptance
                 tests and ``kaczmarz-pr verify``
"""

__version__ = "0.1.0"

from .core import PhaseAlignedDistance, dist_phase_aligned, inner, phase_diff_bound_check
from .harness import (
    ExperimentConfig,
    TrialRecord,
    fit_rate,
    run_experiment,
    run_trial,
)
from .regularity import dir_deriv_f, second_dir_deriv_at_signal, second_dir_deriv_fi, wedge
from .search import RegularityParams, RegularityReport, estimate_L
from .sensing import (
    MODEL_SPHERE,
    MODEL_UNITARY,
    MeasurementSet,
    SensingEnsemble,
    measure,
    objective_f,
    objective_rows,
    sample_block_unitary,
    sample_sphere,
    sample_unit_vector,
)
from .solver import (
    SolverConfig,
    SolverState,
    project_magnitude,
    solve,
    step,
)
from .spectral import SpectralConfig, spectral_init, truncated_covariance

__all__ = [
    "PhaseAlignedDistance",
    "dist_phase_aligned",
    "inner",
    "phase_diff_bound_check",
    "MODEL_SPHERE",
    "MODEL_UNITARY",
    "SensingEnsemble",
    "MeasurementSet",
    "sample_sphere",
    "sample_block_unitary",
    "sample_unit_vector",
    "measure",
    "SolverConfig",
    "SolverState",
    "project_magnitude",
    "step",
    "solve",
    "SpectralConfig",
    "spectral_init",
    "truncated_covariance",
    "objective_f",
    "objective_rows",
    "dir_deriv_f",
    "second_dir_deriv_fi",
    "second_dir_deriv_at_signal",
    "wedge",
    "RegularityParams",
    "RegularityReport",
    "estimate_L",
    "ExperimentConfig",
    "TrialRecord",
    "run_trial",
    "run_experiment",
    "fit_rate",
]
