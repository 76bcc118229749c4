"""uqcurate: uncertainty-driven curation of labeled instance pools.

Small dual-head MLP classifiers with three weight-sampling schemes (point
model, stochastic dropout passes, ensembles), epistemic/aleatoric
uncertainty decomposition, the ehal/elah/random pool selectors, and an
experiment harness for quality-shift, data-growth and selector-comparison
studies.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    inject_shift,
    load_csv,
    save_csv,
    split,
    undersample_balance,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    DivergenceError,
    DomainError,
    ModelStateError,
    UqCurateError,
)
from .metrics import EvalReport, brier, classification_report, mann_whitney_u, spearman_rho
from .models import (
    Ensemble,
    MlpModel,
    ModelConfig,
    hetero_raw_outputs,
    load_checkpoint,
    predict_ensemble,
    predict_mc_dropout,
    predict_samples,
    predict_vanilla,
    save_checkpoint,
    train_ensemble,
    train_model,
)
from .curation import (
    CurationConfig,
    CurationResult,
    LoopConfig,
    UncertaintyRecord,
    curate,
    curation_loop,
)
from .uq import (
    HeteroDecomposition,
    UqSummary,
    expected_entropy,
    hetero_decompose,
    mean_predictive,
    mutual_information,
    predictive_entropy,
    summarize,
    summarize_hetero,
    total_variance_decompose,
)
