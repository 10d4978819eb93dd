"""Scalable safety classifiers with order-statistic risk certificates.

The package trains classifiers whose predicted-safe region shrinks
monotonically with a scalar level, then calibrates that level on held-out
data so the probability of an unsafe point landing inside the region is
bounded by a chosen risk, with an explicit binomial confidence certificate.

Importing the package sets every OpenBLAS the process has loaded to one
thread (``forkpool``), for the whole process and with no restore.  The
thread count rounds the Gram, solver and margin products, so with it fixed
a run's bytes follow only its config and seed; one thread was also the
faster on every measured run.  Where no OpenBLAS setter can be reached
(MKL, BLIS, no ``/proc/self/maps``) nothing is set: family training stays
in-process and the bytes follow that BLAS's thread count.
"""

from .classifiers import (
    Hyperparameters,
    TrainSettings,
    expansion_margins,
    load_model,
    model_from_record,
    model_to_record,
    save_model,
)
from .config import (
    ClassifierConfig,
    DataConfig,
    ExperimentConfig,
    GridConfig,
    RiskConfig,
    load_config,
)
from .datagen import (
    Dataset,
    GaussianSpec,
    Standardizer,
    fit_standardizer,
    sample_gaussian,
    standardize,
)
from .errors import (
    InvalidArgument,
    SafeRegionsError,
    SimulationError,
    TrainingError,
    UncertifiedPlanError,
)
from .families import (
    TRAINERS,
    FamilyMember,
    FamilyResult,
    calibrate_trained_family,
    safe_coverage,
    select_best,
    train_families,
)
from .forkpool import _pin_blas_threads
from .kernels import KernelSpec, default_gamma, gram, kernel_matrix
from .logistic import ScLrModel, train_sc_lr
from .pipeline import (
    EVALUATION_COLUMNS,
    REPORT_COLUMNS,
    ExperimentResult,
    boundary_grid_rows,
    derive_seed,
    evaluate_saved,
    resolve_plans,
    run_experiment,
)
from .platoon import FEATURE_DIM, PlatoonRanges, generate_platoon_dataset
from .scaling import (
    WHOLE_SPACE,
    CalibrationCertificate,
    ScalingPlan,
    binomial_cdf,
    calibrate,
    check_plans,
    discarding_parameter,
    generalized_max,
    kappa,
    min_calibration_size,
)
from .svdd import ScSvddModel, train_sc_svdd
from .svm import ScSvmModel, train_sc_svm

__version__ = "0.1.0"

# after every submodule import, so scipy's OpenBLAS is loaded too
_pin_blas_threads()
