"""Decide whether a faint optical scene contains one point source or two
partially coherent ones.

The package provides the closed-form state model for a Gaussian imaging
system, the minimum-error (Helstrom) probability bound and its advantage
over blind guessing, a practical binary mode-sorting strategy, a seeded
Monte Carlo validator, and an independent spatial-grid oracle that rebuilds
everything by brute force.

Only the Monte Carlo validator needs numpy.  Its names and the oracle's
load on first use, so importing the package for bounds and sweeps loads
neither numpy nor the oracle.
"""

import importlib

from .errors import CohdetError, DegenerateScenarioError, DomainError, GridAccuracyError
from .kernel import (
    Observable2,
    ScenarioParams,
    bound_report,
    helstrom_bound,
    lambda_matrix,
    overlap,
    qod_advantage,
    rho2,
    spade_advantage,
    spade_error,
)
from .sweeps import (
    CSV_HEADER,
    SweepSpec,
    render_csv,
    render_json,
    sweep_rows,
)

#: Names imported on first access: the numpy-backed validator's and the oracle's.
_LAZY = dict.fromkeys(("TrialConfig", "run_simulation"), "montecarlo")
_LAZY.update(dict.fromkeys((
    "SpatialGrid", "equivalence_report", "grid_helstrom", "grid_overlap", "grid_rho2"), "oracle"))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER", "CohdetError", "DegenerateScenarioError", "DomainError", "GridAccuracyError",
    "Observable2", "ScenarioParams", "SpatialGrid", "SweepSpec", "TrialConfig", "bound_report",
    "equivalence_report", "grid_helstrom", "grid_overlap", "grid_rho2", "helstrom_bound",
    "lambda_matrix", "overlap", "qod_advantage", "render_csv", "render_json", "rho2",
    "run_simulation", "spade_advantage", "spade_error", "sweep_rows",
]
