"""Stationarity analysis for chronologically ordered software-project
datasets: kernel-weighted regression over accumulating training sets,
bandwidth sweeps, and per-split stationarity verdicts."""

__version__ = "0.1.0"

from .analysis import (
    AnalysisConfig,
    Classification,
    ConvergencePoint,
    StationarityVerdict,
    SweepResult,
    detect_convergence,
    run_sweep,
    stationarity_verdict,
    summarize,
)
from .chronology import (
    ChronologyMode,
    Split,
    SplitPlan,
    build_split_plan,
    completion_date,
    well_formed_min,
)
from .datasets import (
    Dataset,
    DatasetDescriptor,
    ProjectRecord,
    SynthConfig,
    builtin_descriptor,
    load_dataset,
    synthesize,
)
from .kernels import (
    BandwidthGrid,
    Granularity,
    KernelKind,
    assign_period_indices,
    build_grid,
    decay_horizon,
    kernel_weight,
    min_bandwidth,
    weights_for_target,
)
from .stats import (
    ModelFormula,
    Term,
    build_design_matrix,
    predict,
    relative_error,
    sample_variance,
    shapiro_wilk,
    weighted_least_squares,
)

__all__ = [
    "__version__",
    "AnalysisConfig", "Classification", "ConvergencePoint",
    "StationarityVerdict", "SweepResult", "detect_convergence", "run_sweep",
    "stationarity_verdict", "summarize",
    "ChronologyMode", "Split", "SplitPlan", "build_split_plan",
    "completion_date", "well_formed_min",
    "Dataset", "DatasetDescriptor", "ProjectRecord",
    "SynthConfig", "builtin_descriptor", "load_dataset", "synthesize",
    "BandwidthGrid", "Granularity", "KernelKind",
    "assign_period_indices", "build_grid", "decay_horizon", "kernel_weight",
    "min_bandwidth", "weights_for_target",
    "ModelFormula", "Term", "build_design_matrix",
    "predict", "relative_error", "sample_variance", "shapiro_wilk",
    "weighted_least_squares",
]
