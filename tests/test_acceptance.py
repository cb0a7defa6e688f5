"""Release acceptance suite.

One test per acceptance criterion, each asserting at its stated tolerance
and printing a `criterion N: PASS` line (run with `pytest -v -s` to see
them).  A criterion that cannot hold shows up as an ordinary pytest
failure with the measured numbers in the assertion message.
"""

import hashlib
import math
import random
from pathlib import Path

import pytest

from conftest import linspace

from cohdet import (
    DegenerateScenarioError,
    ScenarioParams,
    SweepSpec,
    TrialConfig,
    bound_report,
    equivalence_report,
    helstrom_bound,
    qod_advantage,
    run_simulation,
    spade_advantage,
    sweep_rows,
)
from cohdet.cli import main
from cohdet.kernel import _pair_terms, _prior_terms

THETAS = (0.0, math.pi / 3, 2 * math.pi / 3, math.pi)
GOLDEN_PATH = Path(__file__).parent / "data" / "fig2a_advantage_map.sha256"


def _pass(number, detail):
    print(f"criterion {number}: PASS ({detail})")


def test_criterion_1_coincident_source_identity():
    """At zero separation no measurement helps and the mode sorter is blind."""
    rng = random.Random(20240817)
    checked = 0
    while checked < 50:
        gamma = rng.random()
        theta = rng.random() * 2.0 * math.pi
        p = rng.random()
        if 1.0 + gamma * math.cos(theta) <= 1e-9:
            continue
        params = ScenarioParams(k=0.0, gamma=gamma, theta=theta, p=p)
        a_qod = qod_advantage(params)
        assert abs(a_qod - 1.0) <= 1e-10, f"a_qod(k=0) = {a_qod!r} at {params}"
        p_err = _prior_terms(_pair_terms(1.0, 0.0, params.c), 0.5)[8]
        assert abs(p_err - 0.5) <= 1e-12, f"p_err_spade(k=0, p=0.5) = {p_err!r}"
        checked += 1
    _pass(1, "50 random admissible scenarios")


def test_criterion_2_incoherent_closed_form():
    """gamma = 0, p = 1/2 reduces to 1/2 - sqrt(1 - exp(-k^2/4))/4."""
    worst = 0.0
    for k in linspace(0.0, 6.0, 100):
        params = ScenarioParams(k=k, gamma=0.0, theta=0.0, p=0.5)
        reference = 0.5 - math.sqrt(1.0 - math.exp(-k * k / 4.0)) / 4.0
        worst = max(worst, abs(helstrom_bound(params) - reference))
    assert worst <= 1e-10, f"worst closed-form deviation {worst!r}"
    edge = ScenarioParams(k=6.0, gamma=0.0, theta=0.0, p=0.5)
    assert helstrom_bound(edge) == pytest.approx(0.25, abs=1e-4)
    assert qod_advantage(edge) == pytest.approx(2.0, abs=1e-3)
    _pass(2, f"worst deviation {worst:.2e} over 100 separations")


def test_criterion_3_useless_region_boundary():
    """Just above the boundary the bound equals the blind guess; below it a
    genuine advantage exists (for k > 0; at k = 0 criterion 1 pins the
    advantage to exactly 1 for every prior, so no sub-boundary advantage
    can exist there)."""
    worst_eq = 0.0
    worst_margin = math.inf
    for gamma in (0.1, 0.9):
        for theta in THETAS:
            for k in linspace(0.0, 5.0, 21):
                p_star = bound_report(ScenarioParams(k, gamma, theta)).p_star
                above = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p_star + 1e-6)
                gap = abs(helstrom_bound(above) - min(above.p, 1.0 - above.p))
                worst_eq = max(worst_eq, gap)
                if k > 0.0:
                    p_below = max(p_star - 0.05, 0.5)
                    below = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p_below)
                    worst_margin = min(worst_margin, qod_advantage(below) - 1.0)
    assert worst_eq <= 1e-9, f"worst |o_err - d_err| above boundary: {worst_eq!r}"
    assert worst_margin > 1e-6, f"worst advantage margin below boundary: {worst_margin!r}"
    for k in (0.0, 1.0, 4.0):
        assert bound_report(ScenarioParams(k, 0.0)).p_star == 2.0 / 3.0
    _pass(3, f"equality gap {worst_eq:.2e}, advantage margin {worst_margin:.2e}")


def test_criterion_4_global_optimality_ordering():
    """The optimal bound never exceeds blind guessing nor the mode sorter."""
    skipped = 0
    for k in linspace(0.0, 5.0, 21):
        for gamma in linspace(0.0, 1.0, 5):
            for theta in THETAS:
                for p in linspace(0.0, 1.0, 21):
                    try:
                        params = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p)
                    except DegenerateScenarioError:
                        skipped += 1
                        continue
                    assert helstrom_bound(params) <= min(p, 1.0 - p) + 1e-12
                try:
                    even = ScenarioParams(k=k, gamma=gamma, theta=theta, p=0.5)
                except DegenerateScenarioError:
                    continue
                assert helstrom_bound(even) <= even._record[8] + 1e-12
    assert skipped == 21  # only the singular point k=0, gamma=1, theta=pi
    _pass(4, f"21x21x5x4 grid, {skipped} singular points skipped")


def test_criterion_5_oracle_equivalence():
    report = equivalence_report()
    assert report.max_overlap_error <= 1e-6, f"overlap discrepancy {report.max_overlap_error!r}"
    assert report.max_helstrom_error <= 1e-6, f"helstrom discrepancy {report.max_helstrom_error!r}"
    assert report.passed
    _pass(
        5,
        f"overlap {report.max_overlap_error:.2e}, helstrom {report.max_helstrom_error:.2e}",
    )


def test_criterion_6_monte_carlo_agreement():
    params = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)
    rate = 0.341970
    band = 3.0 * math.sqrt(rate * (1.0 - rate) / 10**6)
    result = run_simulation(TrialConfig(params, 10**6, 42))
    assert abs(result.error_rate - rate) <= band, f"seed 42 error rate {result.error_rate!r}"
    exceedances = sum(
        1
        for seed in range(100)
        if abs(run_simulation(TrialConfig(params, 10**6, seed)).z_score) > 3.0
    )
    assert exceedances <= 5, f"{exceedances} of 100 seeds exceeded |z| = 3"
    _pass(6, f"seed 42 within {band:.5f}, {exceedances}/100 seeds beyond 3 sigma")


@pytest.fixture(scope="module")
def figure_sweeps():
    """a_qod over the figure family: (gamma, theta) -> k grid x p grid."""
    sweeps = {}
    for gamma in (0.1, 0.9):
        for theta in THETAS:
            spec = SweepSpec(0.0, 5.0, 101, 0.0, 1.0, 101, gamma=gamma, theta=theta)
            rows = sweep_rows(spec)
            per_k = [rows[i * 101 : (i + 1) * 101] for i in range(101)]
            sweeps[(gamma, theta)] = per_k
    return sweeps


def test_criterion_7a_advantage_peaks_at_even_prior(figure_sweeps):
    for (gamma, theta), per_k in figure_sweeps.items():
        for k_rows in per_k:
            finite = [r.a_qod for r in k_rows if r.a_qod is not None and math.isfinite(r.a_qod)]
            at_half = next(r.a_qod for r in k_rows if r.p == 0.5)
            assert at_half >= max(finite) - 1e-12, (
                f"a_qod not maximal at p=0.5 for gamma={gamma}, theta={theta}, k={k_rows[0].k}"
            )
    _pass("7a", "a_qod maximal at p = 0.5 on all 8 sweeps")


def test_criterion_7b_advantage_nondecreasing_in_separation(figure_sweeps):
    for (gamma, theta), per_k in figure_sweeps.items():
        values = [next(r.a_qod for r in k_rows if r.p == 0.5) for k_rows in per_k]
        for i in range(1, len(values)):
            assert values[i] >= values[i - 1] - 1e-12, (
                f"a_qod drops from {values[i - 1]!r} to {values[i]!r} between "
                f"k={5.0 * (i - 1) / 100} and k={5.0 * i / 100} "
                f"at gamma={gamma}, theta={theta}"
            )
    _pass("7b", "a_qod non-decreasing in k at p = 0.5 on all 8 sweeps")


def test_criterion_7c_mode_sorter_approaches_optimum_out_of_phase():
    ratios = {}
    for theta in (0.0, math.pi):
        params = ScenarioParams(k=5.0, gamma=0.9, theta=theta, p=0.5)
        ratios[theta] = spade_advantage(params) / qod_advantage(params)
    assert ratios[math.pi] > ratios[0.0], f"ratios {ratios!r}"
    assert ratios[math.pi] > 0.99, (
        f"a_d/a_qod at k=5, gamma=0.9, theta=pi is {ratios[math.pi]!r}"
    )
    _pass("7c", f"ratio {ratios[math.pi]:.4f} out of phase vs {ratios[0.0]:.4f} in phase")


def test_criterion_8_determinism_and_golden_checksum(tmp_path, capsys):
    args = [
        "advantage-map", "--gamma", "0.1", "--theta", "0",
        "--k-range", "0:5:101", "--p-range", "0:1:101",
    ]
    first = tmp_path / "map_a.csv"
    second = tmp_path / "map_b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    capsys.readouterr()
    payload = first.read_bytes()
    assert payload == second.read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    golden = GOLDEN_PATH.read_text(encoding="utf-8").strip()
    assert digest == golden, f"digest {digest} != golden {golden}"
    _pass(8, f"sha256 {digest[:16]}... matches golden")
