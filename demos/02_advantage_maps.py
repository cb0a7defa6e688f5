"""Map the detection advantage over separation and prior.

Reproduces the advantage surfaces at weak (gamma = 0.1) and strong
(gamma = 0.9) coherence on a coarse grid.  Cells inside the useless region
(a_qod = 1, no measurement helps) print as dots; elsewhere the advantage
itself is shown.  The CLI writes the same surfaces at full resolution:

    cohdet advantage-map --gamma 0.1 --theta 0 --k-range 0:5:101 \
        --p-range 0:1:101 --output map.csv
"""

import math

from cohdet import SweepSpec, sweep_rows

K_STEPS, P_STEPS = 11, 11

for gamma in (0.1, 0.9):
    for theta_label, theta in (("0", 0.0), ("pi", math.pi)):
        spec = SweepSpec(0.0, 5.0, K_STEPS, 0.0, 1.0, P_STEPS, gamma=gamma, theta=theta)
        rows = sweep_rows(spec)
        print(f"\na_qod for gamma = {gamma}, theta = {theta_label}  (rows: k, columns: p)")
        # The axes come from the rows: the first row of priors, and each row's k.
        header = "  k\\p " + " ".join(f"{row.p:5.2f}" for row in rows[:P_STEPS])
        print(header)
        for i in range(K_STEPS):
            k_rows = rows[i * P_STEPS : (i + 1) * P_STEPS]
            cells = []
            for row in k_rows:
                if row.degenerate:
                    cells.append("  x  ")
                elif row.useless:
                    cells.append("  .  ")
                else:
                    cells.append(f"{row.a_qod:5.2f}")
            print(f" {k_rows[0].k:4.1f} " + " ".join(cells))

print(
    "\nDots mark the useless region; its lower edge is the analytic prior"
    "\nboundary p* = (2 + 2*delta*c) / (3 + 2*delta*c - c^2); x marks the"
    "\nsingular point where the two-source state is not normalizable."
)
