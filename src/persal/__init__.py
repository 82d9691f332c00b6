"""Personalized saliency toolkit.

Preference-vector extraction, dynamic personalized ground-truth generation,
the center prior, both comparison baselines, the four-metric evaluation suite
(CC, SIM, KL variants, linear EMD with an exact transport solver), and the
blend-weight tuning sweep.
"""

from .baselines import BaselineConfig, center_prior_baseline, detection_baseline
from .grid import GridStats, SaliencyGrid, minmax_normalize, resample, softmax_normalize, stats
from .gridio import export_pgm, read_grid, write_grid
from .groundtruth import AnnotatedImage, GtWeights, center_prior, generate_psal, pmap
from .metrics import (
    FlowPlan,
    MetricReport,
    PairResult,
    cc,
    emd,
    evaluate_pair,
    kld_judd,
    kld_plain,
    sim,
    summarize,
)
from .preference import (
    CategoryMapping,
    Detection,
    DetectionSet,
    PreferenceVector,
    extract_preferences,
    from_ratings,
)
from .tuning import SweepResult, SweepSpec, final_weights, sweep_alpha, sweep_ratio

__all__ = [
    "AnnotatedImage",
    "BaselineConfig",
    "CategoryMapping",
    "Detection",
    "DetectionSet",
    "FlowPlan",
    "GridStats",
    "GtWeights",
    "MetricReport",
    "PairResult",
    "PreferenceVector",
    "SaliencyGrid",
    "SweepResult",
    "SweepSpec",
    "cc",
    "center_prior",
    "center_prior_baseline",
    "detection_baseline",
    "emd",
    "evaluate_pair",
    "export_pgm",
    "extract_preferences",
    "final_weights",
    "from_ratings",
    "generate_psal",
    "kld_judd",
    "kld_plain",
    "minmax_normalize",
    "pmap",
    "read_grid",
    "resample",
    "sim",
    "softmax_normalize",
    "stats",
    "summarize",
    "sweep_alpha",
    "sweep_ratio",
    "write_grid",
]
