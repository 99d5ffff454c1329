"""Structured mean-field variational inference for dynamic factor models.

Estimates exact dynamic factor models under arbitrary missing-data
patterns, with a banded-precision state pass shared with the
Gibbs-sampler benchmark, predictive sampling and comparison metrics.

Importing the package loads numpy only: ``fit_smf`` is looked up in
``dfmvi.vi``, and with it scipy, on first use.
"""

__version__ = "0.1.0"

from .errors import DfmError, DomainError, NumericalError, PanelFormatError
from .model import ModelSpec, PriorSpec, default_prior, minnesota_prior
from .panel import TimeSeriesPanel, load_csv, standardize, unstandardize, write_csv

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
    "load_csv",
    "standardize",
    "unstandardize",
    "write_csv",
    "fit_smf",
]


def __getattr__(name):
    if name == "fit_smf":
        from .vi import fit_smf

        return fit_smf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
