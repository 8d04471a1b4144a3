"""Differentially private survey pipelines with a desk-scale audit oracle."""

from .audit import (
    AuditInstance,
    DiscretizedLaplace,
    EffectiveEpsilonReport,
    NeighborRelation,
    RandomizedResponse,
    SampledReleaseMechanism,
    amplification_sweep,
    effective_epsilon,
    exact_sensitivity,
    hot_deck_mean_sensitivity,
    imputation_composition_epsilon,
    neighbors,
)
from .designs import (
    PPS,
    SRSWOR,
    SRSWR,
    ClusterSRSWOR,
    EnumerationCapExceeded,
    Poisson,
    StratifiedSRSWOR,
    Systematic,
    WeightedSample,
    allocate_strata,
    draw,
    inclusion_probs,
    sample_space,
)
from .estimators import HTEstimate, ReleaseRefusedError, ht_mean, ht_total, unweighted_mean
from .frames import Frame, FrameRecord, ValueUniverse, dump_frame_csv, load_frame_csv, make_frame
from .imputation import (
    ImputationParams,
    fit_dp_mean_model,
    fit_dp_regression,
    hot_deck,
    impute_dataset,
    impute_parametric,
)
from .mechanisms import (
    BoundedMean,
    HTMeanFixedWeights,
    LaplaceNoise,
    PrivacyLedger,
    PrivacyLoss,
    Proportion,
    Sensitivity,
    analytic_sensitivity,
    compose_sequential,
    laplace_scale,
    release_laplace,
)
from .pipeline import (
    ConfigError,
    PipelineConfig,
    PipelineStageError,
    RunReport,
    parse_config,
    parse_config_file,
    round_report,
    run_pipeline,
)
from .weighting import (
    CalibrationError,
    estimate_propensities_cells,
    nonresponse_adjust,
    poststratify,
    regularize_weights,
)

__version__ = "0.1.0"
