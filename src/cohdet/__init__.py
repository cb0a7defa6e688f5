"""Decide whether a faint optical scene contains one point source or two
partially coherent ones.

The package provides the closed-form state model for a Gaussian imaging
system, the minimum-error (Helstrom) probability bound and its advantage
over blind guessing, a practical binary mode-sorting strategy, a seeded
Monte Carlo validator, and an independent spatial-grid oracle that rebuilds
everything by brute force.

Every public name loads its module on first use, so `import cohdet` loads
no submodule, and only the Monte Carlo validator's names load numpy.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, by the module that defines it.
_MODULES = {
    "errors": ("CohdetError", "DegenerateScenarioError", "DomainError", "GridAccuracyError"),
    "kernel": ("Observable2", "ScenarioParams", "bound_report", "helstrom_bound", "lambda_matrix",
               "overlap", "qod_advantage", "rho2", "spade_advantage"),
    "montecarlo": ("TrialConfig", "run_simulation"),
    "oracle": ("SpatialGrid", "equivalence_report", "grid_helstrom", "grid_overlap", "grid_rho2"),
    "sweeps": ("CSV_HEADER", "SweepSpec", "render_csv", "render_json", "sweep_rows"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
