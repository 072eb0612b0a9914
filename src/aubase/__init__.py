"""Baseline-selection damage detection for acousto-ultrasonic monitoring.

Workflow: synthesize or load signal datasets, extract wavelet approximation
features, cluster per-step baselines on a self-organizing map, fit one PCA
per cluster, and score new experiments by squared prediction error against
the best-matching baseline model. See the ``cli`` module for the end-to-end
command-line version of the same pipeline.
"""

__version__ = "0.1.0"

from .ds2l import ClusterPartition, EnrichedSom, cluster, enrich
from .errors import (
    AubaseError,
    DataFormatError,
    DegenerateDataError,
    InvalidArgumentError,
    LayoutError,
    NotConvergedError,
)
from .evaluate import RocCurve, auc, fpr_at, fpr_at_tpr, roc, tpr_at
from .fusion import (
    FeatureMatrix,
    ScalingParams,
    apply_scaling,
    build_step_layouts,
    experiment_key,
    fit_group_scaling,
)
from .pca import PcaModel, covariance, eig_sym, spe, spe_control_limit
from .pipeline import (
    BaselineBank,
    DetectionReport,
    PipelineConfig,
    compare_monolithic,
    detect,
    select_baseline,
    train_phase1,
)
from .signals import (
    ScenarioConfig,
    SignalRecord,
    generate_dataset,
    load_dataset,
    reference_scenario,
    save_dataset,
)
from .som import SomModel, init_som, train, u_matrix
from .store import load_bank, save_bank
from .wavelet import dwt, extract_features, idwt, select_level, shannon_entropy

__all__ = [
    "AubaseError",
    "BaselineBank",
    "ClusterPartition",
    "DataFormatError",
    "DegenerateDataError",
    "DetectionReport",
    "EnrichedSom",
    "FeatureMatrix",
    "InvalidArgumentError",
    "LayoutError",
    "NotConvergedError",
    "PcaModel",
    "PipelineConfig",
    "RocCurve",
    "ScalingParams",
    "ScenarioConfig",
    "SignalRecord",
    "SomModel",
    "apply_scaling",
    "auc",
    "build_step_layouts",
    "cluster",
    "compare_monolithic",
    "covariance",
    "detect",
    "dwt",
    "eig_sym",
    "enrich",
    "experiment_key",
    "extract_features",
    "fit_group_scaling",
    "fpr_at",
    "fpr_at_tpr",
    "generate_dataset",
    "idwt",
    "init_som",
    "load_bank",
    "load_dataset",
    "reference_scenario",
    "roc",
    "save_bank",
    "save_dataset",
    "select_baseline",
    "select_level",
    "shannon_entropy",
    "spe",
    "spe_control_limit",
    "tpr_at",
    "train",
    "train_phase1",
    "u_matrix",
]
