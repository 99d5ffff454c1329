"""Structured mean-field variational inference for dynamic factor models.

Estimates exact dynamic factor models under arbitrary missing-data
patterns, with a banded-precision state pass shared with the
Gibbs-sampler benchmark, predictive sampling and comparison metrics.
"""

__version__ = "0.1.0"

from .errors import DfmError, DomainError, NumericalError, PanelFormatError
from .model import ModelSpec, PriorSpec, default_prior, minnesota_prior, validate_prior
from .panel import TimeSeriesPanel, load_csv, standardize, unstandardize, write_csv
from .vi import fit_smf

__all__ = [
    "DfmError",
    "DomainError",
    "NumericalError",
    "PanelFormatError",
    "ModelSpec",
    "PriorSpec",
    "TimeSeriesPanel",
    "default_prior",
    "minnesota_prior",
    "validate_prior",
    "load_csv",
    "standardize",
    "unstandardize",
    "write_csv",
    "fit_smf",
]
