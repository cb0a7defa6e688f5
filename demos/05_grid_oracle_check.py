"""Rebuild everything by brute force on a spatial grid and compare.

The closed forms say the overlap is exp(-k^2/8) and the optimal error
probability follows from a 2x2 eigenproblem.  Here the Gaussian PSF
wavefunctions are sampled on a dense grid, orthonormalized numerically,
and the whole calculation is repeated with quadrature and a numerical
2x2 eigensolver instead of algebra.  Agreement to well below 1e-6 is
what the `cohdet verify` command checks on a full (k, c, p) grid.
"""

import math

from cohdet import (
    ScenarioParams,
    SpatialGrid,
    equivalence_report,
    grid_helstrom,
    grid_overlap,
    grid_rho2,
    helstrom_bound,
    overlap,
    rho2,
)

print("overlap: quadrature vs exp(-k^2/8)")
for k in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    numeric = grid_overlap(k)
    closed = overlap(k)
    print(f"  k = {k:3.1f}: grid = {numeric:.12f}  closed = {closed:.12f}  |diff| = {abs(numeric - closed):.2e}")

print("\ntwo-source state at k = 1.2, c = -0.4 (grid / closed):")
g = grid_rho2(1.2, -0.4)
c = rho2(overlap(1.2), -0.4)
for name in ("a11", "a12", "a22"):
    print(f"  {name}: {getattr(g, name):+.12f} / {getattr(c, name):+.12f}")

print("\noptimal error probability:")
for k, gamma, theta, p in ((0.0, 0.2, 0.4, 0.7), (2.0, 0.0, 0.0, 0.5), (1.0, 0.9, math.pi, 0.6)):
    params = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p)
    numeric = grid_helstrom(params)
    closed = helstrom_bound(params)
    print(f"  k={k}, gamma={gamma}, theta={theta:.2f}, p={p}: grid = {numeric:.10f}  closed = {closed:.10f}")

print("\na deliberately coarse grid is refused rather than silently wrong:")
try:
    grid_overlap(2.0, SpatialGrid.for_separation(2.0, n_points=101))
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")

print("\nfull verification grid (5 x 5 x 5 over k, c, p):")
report = equivalence_report()
print(f"  max overlap error  = {report.max_overlap_error:.3e}")
print(f"  max rho2 error     = {report.max_rho2_error:.3e}")
print(f"  max helstrom error = {report.max_helstrom_error:.3e}")
print(f"  within {report.tolerance:.0e}: {report.passed}")
