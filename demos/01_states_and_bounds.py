"""Build one detection scenario and walk through every derived quantity.

Two faint emitters sit a fraction of a PSF width apart.  This script shows
the overlap of their image-plane wavefunctions, the two density matrices
in the orthonormalized basis, and the resulting error probabilities: the
quantum optimum, the blind guess, and the boundary of the prior region
where measuring cannot help at all.
"""

from cohdet import Observable2, ScenarioParams, bound_report, rho2

params = ScenarioParams(k=1.5, gamma=0.6, theta=0.8, p=0.55)
report = bound_report(params)
print("scenario:", params)
print(f"overlap delta            = {params.delta:.9f}")
print(f"effective coherence c    = {params.c:.9f}")
print(f"normalization N          = {report.normalization:.9f}")

r1, r2 = Observable2(1.0, 0.0, 0.0), rho2(params.delta, params.c)
print("\none-source state  [[{:.6f}, {:.6f}], [{:.6f}, {:.6f}]]".format(r1.a11, r1.a12, r1.a12, r1.a22))
print("two-source state  [[{:.6f}, {:.6f}], [{:.6f}, {:.6f}]]".format(r2.a11, r2.a12, r2.a12, r2.a22))
print(f"two-source trace = {r2.trace():.12f}, det = {r2.det():.3e}")

print(f"\nweighted difference eigenvalues: {report.eig_low:+.6f}, {report.eig_high:+.6f}")
print(f"optimal error probability   o_err = {report.o_err:.9f}")
print(f"blind-guess error           d_err = {report.d_err:.9f}")
print(f"detection advantage         a_qod = {report.a_qod:.6f}")

p_star = report.p_star
print(f"\nmeasurement is useless for priors above p* = {p_star:.6f}")
for p in (0.5, p_star - 0.02, p_star + 0.02):
    probe = ScenarioParams(k=params.k, gamma=params.gamma, theta=params.theta, p=p)
    probe_report = bound_report(probe)
    flag = "useless" if probe_report.useless else "helpful"
    print(f"  p = {p:.4f}: measuring is {flag}, a_qod = {probe_report.a_qod:.6f}")
