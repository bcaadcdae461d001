"""Variational Bayes training and adaptation for the SPLDA linear-Gaussian model."""

from .data import Dataset, SpeakerPartition, SuffStats, accumulate, rotate
from .elbo import ElboBreakdown, elbo_total
from .engine import (
    FitConfig,
    FitReport,
    VariationalState,
    fit,
    fit_stats,
    heldout_bound,
    minimum_divergence,
)
from .model import (
    VARIANTS,
    ModelParams,
    PriorConfig,
    conditional_loglik,
    conditional_loglik_augmented,
)
from .posterior import QY, QAlpha, QVtilde, QWGamma, QWWishart
from .synth import CounterRng, GenSpec, sample

__version__ = "0.1.0"

__all__ = [
    "CounterRng",
    "Dataset",
    "ElboBreakdown",
    "FitConfig",
    "FitReport",
    "GenSpec",
    "ModelParams",
    "PriorConfig",
    "QAlpha",
    "QVtilde",
    "QWGamma",
    "QWWishart",
    "QY",
    "SpeakerPartition",
    "SuffStats",
    "VARIANTS",
    "VariationalState",
    "accumulate",
    "conditional_loglik",
    "conditional_loglik_augmented",
    "elbo_total",
    "fit",
    "fit_stats",
    "heldout_bound",
    "minimum_divergence",
    "rotate",
    "sample",
    "__version__",
]
