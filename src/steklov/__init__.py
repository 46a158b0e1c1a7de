"""Sloshing (mixed Steklov-Neumann) and Steklov-Dirichlet spectra on planar
polygons and cylinder-type domains.

The package computes exact and finite-element spectra of the
Dirichlet-to-Neumann map on the free surface, evaluates semiclassical
Riesz-mean and eigenvalue-sum bounds, and checks two-term asymptotics.
"""

import importlib as _importlib

from . import specfun, geometry, spectra, riesz, bounds, asymptotics
from .geometry import PolygonalDomain, CylinderDomain, ConeDomain, DomainError
from .spectra import Spectrum, load_spectrum, save_spectrum
from .riesz import RieszCurve, ValidityCeilingError, riesz_mean, riesz_curve
from .bounds import BoundReport, verify

__version__ = "0.1.0"


def __getattr__(name):
    # fem loads scipy.sparse and scipy.linalg, which only the finite-element
    # solver needs: steklov.fem is imported on first use
    if name == "fem":
        return _importlib.import_module(f"{__name__}.fem")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "specfun", "geometry", "spectra", "riesz", "bounds", "asymptotics", "fem",
    "PolygonalDomain", "CylinderDomain", "ConeDomain", "DomainError",
    "Spectrum", "load_spectrum", "save_spectrum",
    "RieszCurve", "ValidityCeilingError", "riesz_mean", "riesz_curve",
    "BoundReport", "verify",
    "__version__",
]
