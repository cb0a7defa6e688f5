"""The benchmark's workloads: their inputs, one round of operations, and
the samples each round yields.

Every workload runs the same seven families of operations, in its own sizes:

  set-up         fresh interpreters that import cohdet.cli and exit
  figure set     `cohdet advantage-map` / `cohdet spade` processes
  library map    sweep_rows + render_csv in this process
  scenarios      ScenarioParams + bound_report + spade_advantage in this process
  bound          `cohdet bound --format json` processes
  simulate       `cohdet simulate` processes
  verify         `cohdet verify` processes

so that each workload reports every end-to-end metric, and an eighth that
times the host rather than the program:

  calibration    `python3 perfbench/host.py` processes, and host.kernel
                 in this process right before and after each in-process
                 operation

A workload is about the families it makes large; the others are probes,
sized so that each metric has about ten samples or more in a 30-second
run.  One process at a time runs a closed loop: the next operation starts
only after the previous one and its check have finished.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from cohdet import (
    CohdetError,
    ScenarioParams,
    SpatialGrid,
    TrialConfig,
    bound_report,
    equivalence_report,
    grid_helstrom,
    grid_rho2,
    helstrom_bound,
    lambda_matrix,
    rho2,
    run_simulation,
    spade_advantage,
)
from cohdet.montecarlo import SHARD_SIZE
from cohdet.sweeps import SweepSpec, render_csv, render_json, sweep_rows

import host
from checks import (
    ZERO_RESIDUE,
    SweepReference,
    check_bound,
    check_scenario,
    check_simulate,
    check_sweep_csv,
    check_sweep_json,
    check_verify,
)
from reference import Reference, evaluate, evaluate_row
from tracing import Tracer, now

#: What the installed `cohdet` console script runs.
ENTRY = "import sys; from cohdet.cli import main; sys.exit(main())"

#: A fresh interpreter that imports the CLI module and exits; prints the
#: import time measured inside it.
IMPORT_CLI = "import time; t = time.perf_counter(); import cohdet.cli; print(time.perf_counter() - t)"
IMPORT_NUMPY = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"

#: In-process scenarios timed together as one sample.
SCENARIO_CHUNK = 250

#: Cells of the map that per-map timings are scaled to.
MAP_CELLS = 101 * 101

#: The paper's figure coherences as (gamma, theta, theta_pi): the README's
#: two examples, and fully coherent out-of-phase sources, whose k = 0 row
#: is degenerate.
FIGURE_COHERENCES = ((0.1, 0.0, None), (0.9, None, 1.0), (1.0, None, 1.0))

#: Sweeps at fully coherent out-of-phase sources fail today: next to the
#: singular point 1 + delta*c = 0 the closed forms cancel, so the 101x101
#: map is off the reference in the 9th digit (a_d at k = 0.05), and the
#: spade curve over k 0:5:501 stops with a DomainError traceback at k = 0.01.
NEAR_SINGULAR_SWEEP = "cancellation next to 1 + delta*c = 0"

#: Coherence of the in-process library map.
LIBRARY_COHERENCE = (0.6, None, 0.75)

#: The grid oracle's default verification block, as `cohdet verify` runs it.
ORACLE_K = (0.0, 1.0, 2.0, 3.0, 4.0)
ORACLE_C = (-0.9, -0.45, 0.0, 0.45, 0.9)
ORACLE_P = (0.1, 0.3, 0.5, 0.7, 0.9)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """The CLI's MIN:MAX:STEPS grid: inclusive endpoints, even spacing."""
    if n == 1:
        return [lo]
    values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    values[-1] = hi
    return values


@dataclass
class Sweep:
    """One (k, p) grid at fixed coherence, run as a CLI process or in-process."""

    command: str
    fmt: str
    gamma: float
    theta: float | None
    theta_pi: float | None
    k_range: tuple[float, float, int]
    p_range: tuple[float, float, int]
    fault: str | None = None
    ref: SweepReference | None = field(default=None, repr=False)

    @property
    def theta_radians(self) -> float:
        return self.theta_pi * math.pi if self.theta_pi is not None else self.theta

    @property
    def cells(self) -> int:
        return self.k_range[2] * self.p_range[2]

    def argv(self) -> list[str]:
        phase = ["--theta-pi", repr(self.theta_pi)] if self.theta_pi is not None else [
            "--theta", repr(self.theta)]
        k_lo, k_hi, k_n = self.k_range
        argv = [self.command, "--gamma", repr(self.gamma), *phase, "--k-range", f"{k_lo}:{k_hi}:{k_n}"]
        p_lo, p_hi, p_n = self.p_range
        if self.command == "spade":
            argv += ["--p", repr(p_lo)]
        else:
            argv += ["--p-range", f"{p_lo}:{p_hi}:{p_n}"]
        return argv + ["--format", self.fmt]

    def build_reference(self) -> None:
        ps = _linspace(*self.p_range)
        refs: list[Reference] = []
        for k in _linspace(*self.k_range):
            refs += evaluate_row(k, ps, self.gamma, self.theta or 0.0, self.theta_pi)
        self.ref = SweepReference(refs)


@dataclass
class Scenario:
    k: float
    p: float
    gamma: float
    theta: float
    theta_pi: float | None = None
    ref: Reference | None = field(default=None, repr=False)

    def build_reference(self) -> None:
        self.ref = evaluate(self.k, self.p, self.gamma, self.theta, self.theta_pi)

    def bound_argv(self) -> list[str]:
        return ["bound", "--k", repr(self.k), "--gamma", repr(self.gamma),
                "--theta", repr(self.theta), "--p", repr(self.p), "--format", "json"]


@dataclass
class Simulation:
    scenario: Scenario
    photons: int
    seed: int
    epsilon: float | None = None

    def argv(self) -> list[str]:
        s = self.scenario
        phase = ["--theta-pi", repr(s.theta_pi)] if s.theta_pi is not None else [
            "--theta", repr(s.theta)]
        argv = ["simulate", "--k", repr(s.k), "--gamma", repr(s.gamma), *phase, "--p", repr(s.p),
                "--photons", str(self.photons), "--seed", str(self.seed)]
        return argv + (["--epsilon", repr(self.epsilon)] if self.epsilon is not None else [])


@dataclass
class Inputs:
    figure_set: list[Sweep]
    library_map: Sweep
    scenarios: list[Scenario]
    edge_scenarios: list[tuple[str, Scenario]] = field(default_factory=list)
    bounds: list[Scenario] = field(default_factory=list)
    edge_bounds: list[tuple[str, list[str], Scenario]] = field(default_factory=list)
    simulations: list[Simulation] = field(default_factory=list)
    verify_grids: list[int | None] = field(default_factory=list)
    #: Fresh interpreters timed for set-up in each round.
    setups: int = 2
    #: Calibration processes in each round, about a quarter of the time
    #: the round spends in the program's processes.
    calibrations: int = 4
    #: Library maps in each round.
    library_maps: int = 1

    def build_references(self) -> None:
        # The CSV and JSON renderings of one grid share a reference.
        shared: dict[tuple, SweepReference] = {}
        for sweep in self.figure_set + [self.library_map]:
            key = (sweep.gamma, sweep.theta, sweep.theta_pi, sweep.k_range, sweep.p_range)
            if key not in shared:
                sweep.build_reference()
                shared[key] = sweep.ref
            sweep.ref = shared[key]
        for scenario in self.scenarios + self.bounds:
            scenario.build_reference()
        for *_, scenario in self.edge_scenarios + self.edge_bounds:
            scenario.build_reference()
        for sim in self.simulations:
            sim.scenario.build_reference()


def _domain_scenario(rng: random.Random) -> Scenario:
    """A scenario from the whole admissible domain, clear of the singular
    point 1 + delta*c = 0 (the near-singular subset covers that)."""
    while True:
        k = rng.uniform(0.0, 12.0)
        gamma = rng.random()
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = rng.random()
        if 1.0 + math.exp(-k * k / 8.0) * gamma * math.cos(theta) > 1e-6:
            return Scenario(k, p, gamma, theta)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def tiny_prior_subset(n: int = 16) -> list[tuple[str, Scenario]]:
    """p log-uniform in [1e-300, 1e-12]; fixed, independent of --seed."""
    rng = random.Random("tiny-prior")
    out = []
    for _ in range(n):
        s = _domain_scenario(rng)
        p = _log_uniform(rng, 1e-300, 1e-12)
        out.append(("tiny-prior: 0.5*(1 - ||Lambda||_1) cancels", Scenario(s.k, p, s.gamma, s.theta)))
    return out


def near_singular_subset(n: int = 16) -> list[tuple[str, Scenario]]:
    """gamma = 1, theta = pi, k log-uniform in [1e-9, 1e-6]; fixed,
    independent of --seed."""
    rng = random.Random("near-singular")
    label = "near-singular: DegenerateScenarioError although 1 + delta*c > 0"
    return [(label, Scenario(_log_uniform(rng, 1e-9, 1e-6), rng.random(), 1.0, math.pi, 1.0))
            for _ in range(n)]


def edge_bounds() -> list[tuple[str, list[str], Scenario]]:
    """Two `cohdet bound` processes that fail today."""
    return [
        ("bare inf in JSON output",
         ["bound", "--k", "1e300", "--gamma", "1", "--theta-pi", "1", "--p", "1e-300", "--format", "json"],
         Scenario(1e300, 1e-300, 1.0, math.pi, 1.0)),
        ("exit code 3 although 1 + delta*c = k**2/8 > 0",
         ["bound", "--k", "1e-9", "--gamma", "1", "--theta-pi", "1", "--format", "json"],
         Scenario(1e-9, 0.5, 1.0, math.pi, 1.0)),
    ]


def _simulation(rng: random.Random, photons: int, epsilon: bool = False) -> Simulation:
    return Simulation(_domain_scenario(rng), photons, rng.randrange(2**31),
                      rng.uniform(0.01, 0.1) if epsilon else None)


def _library_map(k_steps: int, p_steps: int) -> Sweep:
    gamma, theta, theta_pi = LIBRARY_COHERENCE
    return Sweep("advantage-map", "csv", gamma, theta, theta_pi, (0.0, 5.0, k_steps), (0.0, 1.0, p_steps))


def _spade(gamma, theta, theta_pi) -> Sweep:
    return Sweep("spade", "csv", gamma, theta, theta_pi, (0.0, 5.0, 501), (0.5, 0.5, 1))


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    probe_spade = [_spade(*FIGURE_COHERENCES[0]), _spade(*FIGURE_COHERENCES[1])]
    if workload == "figures":
        figure_set = []
        for coherence in FIGURE_COHERENCES:
            for fmt in ("csv", "json"):
                figure_set.append(Sweep("advantage-map", fmt, *coherence, (0.0, 5.0, 101), (0.0, 1.0, 101)))
            figure_set.append(_spade(*coherence))
            if coherence == (1.0, None, 1.0):
                for sweep in figure_set[-3:]:
                    sweep.fault = NEAR_SINGULAR_SWEEP
        return Inputs(
            figure_set=figure_set,
            library_map=_library_map(121, 121),
            scenarios=[_domain_scenario(rng) for _ in range(5000)],
            bounds=[_domain_scenario(rng) for _ in range(6)],
            simulations=[_simulation(rng, 10**6) for _ in range(4)],
            verify_grids=[None] * 4,
            setups=4,
            calibrations=8,
            library_maps=2,
        )
    if workload == "point-queries":
        scenarios = [_domain_scenario(rng) for _ in range(5000)]
        return Inputs(
            figure_set=probe_spade,
            library_map=_library_map(101, 101),
            scenarios=scenarios,
            edge_scenarios=tiny_prior_subset() + near_singular_subset(),
            bounds=rng.sample(scenarios, 6),
            edge_bounds=edge_bounds(),
            simulations=[_simulation(rng, 10**6) for _ in range(3)],
            verify_grids=[None, None],
            calibrations=6,
            library_maps=2,
        )
    if workload == "self-check":
        gamma_pi = Simulation(Scenario(rng.uniform(0.5, 4.0), rng.uniform(0.1, 0.9), 0.9, math.pi, 1.0),
                              10**7, rng.randrange(2**31))
        return Inputs(
            figure_set=probe_spade * 2,
            library_map=_library_map(101, 101),
            scenarios=[_domain_scenario(rng) for _ in range(1000)],
            bounds=[_domain_scenario(rng) for _ in range(3)],
            simulations=[
                Simulation(Scenario(2.0, 0.5, 0.0, 0.0), 10**7, 42),
                gamma_pi,
                _simulation(rng, 10**7, epsilon=True),
            ],
            verify_grids=[None, 8001],
            library_maps=2,
        )
    raise ValueError(f"unknown workload {workload!r}")


class Bench:
    """State of one run: operation counts, metric samples and the tracer
    (None when the run is not traced)."""

    def __init__(self, root: Path, tracer: Tracer | None) -> None:
        self.root = root
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Metric samples by name, then by the operation they time.
        self.samples: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.known_faults: Counter = Counter()
        self.repeats: dict[int, tuple] = {}
        self.calibration_output = repr(host.process_result())

    def sample(self, name: str, value: float, key: object = None) -> None:
        self.samples[name][key].append(value)

    def spawn(self, code: str, args: list[str]) -> tuple[int, str, float]:
        return self.run(["-c", code, *args])

    def run(self, args: list[str]) -> tuple[int, str, float]:
        """A fresh interpreter with these arguments: exit code, output, wall time."""
        start = now()
        proc = subprocess.run([sys.executable, *args], env=self.env, cwd=self.root,
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, (now() - start) * 1e-9

    def calibrate(self, repeats: int = 1) -> float:
        """Time the host's kernel in this process, `repeats` samples;
        returns their mean."""
        total = 0.0
        for _ in range(repeats):
            start = now()
            host.kernel()
            seconds = (now() - start) * 1e-9
            self.sample("host.kernel_s", seconds)
            total += seconds
        return total / repeats

    def cli(self, args: list[str], parent: int) -> tuple[int, str, float]:
        start = now()
        returncode, stdout, wall = self.spawn(ENTRY, args)
        if self.tracer:
            self.tracer.add(f"cli.{args[0]}", start, now(), parent)
        return returncode, stdout, wall

    def outcome(self, what: object, problems: list, fault: str | None = None) -> None:
        """Count one operation.  It fails if any check found a problem.  A
        failure is a known program fault when the operation is one that
        fails today (`fault` names why) or every problem is a zero residue."""
        self.attempted += 1
        for kind, detail in problems:
            if kind == ZERO_RESIDUE:
                self.counts["sweeps.zero_residue_cells"] += detail
        if not problems:
            return
        self.failed += 1
        if fault or all(kind == ZERO_RESIDUE for kind, _ in problems):
            self.known_faults[fault or ZERO_RESIDUE] += 1
            return
        self.correct = False
        print(f"FAIL {what}: {problems[:3]}", file=sys.stderr)


# One round ------------------------------------------------------------------


def round_steps(inputs: Inputs) -> list:
    """One round's operations as steps step(bench, parent), each family's
    steps spread evenly over the round.  The machine's speed drifts over
    seconds, so a family run in one burst would be timed in one state."""
    scenarios = inputs.scenarios
    families = [
        [setup_op] * inputs.setups,
        [partial(figure_op, sweep=s) for s in inputs.figure_set],
        [partial(library_map, sweep=inputs.library_map)] * inputs.library_maps,
        [partial(scenario_chunk, chunk=scenarios[i:i + SCENARIO_CHUNK])
         for i in range(0, len(scenarios), SCENARIO_CHUNK)],
        [partial(edge_scenario, label=label, scenario=s) for label, s in inputs.edge_scenarios],
        [partial(bound_op, scenario=s) for s in inputs.bounds],
        [partial(edge_bound_op, fault=fault, argv=argv, scenario=s) for fault, argv, s in inputs.edge_bounds],
        [partial(simulation_op, index=i, sim=sim) for i, sim in enumerate(inputs.simulations)],
        [partial(verify_op, n_points=n) for n in inputs.verify_grids],
        [calibration_op] * inputs.calibrations,
    ]
    placed = [((j + 0.5) / len(steps), f, step)
              for f, steps in enumerate(families) for j, step in enumerate(steps)]
    return [step for *_, step in sorted(placed, key=lambda item: item[:2])]


def warm_up(bench: Bench, inputs: Inputs) -> None:
    """Start one fresh interpreter, so that bytecode caches are written,
    and run the in-process kernels once, all untimed and unchecked, so
    that the first timed sample does not pay for first calls."""
    bench.spawn(IMPORT_CLI, [])
    for scenario in inputs.scenarios[:SCENARIO_CHUNK]:
        _evaluate(scenario)
    render_csv(sweep_rows(_sweep_spec(inputs.library_map)))


def run_round(bench: Bench, steps: list) -> None:
    tracer = bench.tracer
    parent = tracer.add("round", now(), 0) if tracer else -1
    for step in steps:
        step(bench, parent=parent)
    if tracer:
        tracer.spans[parent][2] = now()


def calibration_op(bench: Bench, parent: int) -> None:
    """A fresh interpreter that runs the host's kernel; not an operation of
    the program, so it is neither attempted nor failed, and a wrong output
    stops the run."""
    start = now()
    returncode, stdout, wall = bench.run([host.__file__])
    if returncode != 0 or stdout.strip() != bench.calibration_output:
        raise RuntimeError(f"calibration process: exit code {returncode}, output {stdout!r}, "
                           f"expected {bench.calibration_output}")
    bench.sample("host.process_s", wall)
    if bench.tracer:
        bench.tracer.add("host.process", start, now(), parent)


def _import_time(returncode: int, stdout: str) -> tuple[list, float]:
    """Problems with a fresh interpreter's run, and the import time it
    printed."""
    try:
        seconds = float(stdout)
    except ValueError:
        seconds = math.nan
    if returncode != 0 or not seconds > 0.0:
        return [("exit", f"exit code {returncode}, output {stdout!r}")], seconds
    return [], seconds


def setup_op(bench: Bench, parent: int) -> None:
    """A fresh interpreter that imports cohdet.cli and exits; a traced run
    also times the import inside it, and numpy's import in another."""
    start = now()
    returncode, stdout, wall = bench.spawn(IMPORT_CLI, [])
    problems, seconds = _import_time(returncode, stdout)
    bench.sample("setup_s", wall)
    if bench.tracer:
        bench.tracer.add("cli.setup", start, now(), parent)
        bench.sample("cli.import_s", seconds)
        with bench.tracer.span("cli.numpy_import", parent):
            numpy_problems, numpy_seconds = _import_time(*bench.spawn(IMPORT_NUMPY, [])[:2])
        bench.sample("cli.numpy_import_s", numpy_seconds)
        problems += numpy_problems
    bench.outcome("import cohdet.cli", problems)


def _sweep_spec(sweep: Sweep):
    return SweepSpec(*sweep.k_range, *sweep.p_range, gamma=sweep.gamma, theta=sweep.theta_radians)


def _traced_sweep(bench: Bench, sweep: Sweep, parent: int) -> tuple[list, float]:
    """sweep_rows and the sweep's renderer, each under its own span;
    returns the rows and the time both took."""
    tracer = bench.tracer
    spec = _sweep_spec(sweep)
    with tracer.span("sweeps.compute", parent) as compute:
        rows = sweep_rows(spec)
    render = render_csv if sweep.fmt == "csv" else render_json
    with tracer.span(f"sweeps.render_{sweep.fmt}", parent) as rendering:
        render(rows)
    scale = MAP_CELLS / sweep.cells
    bench.sample("sweeps.compute_s", tracer.seconds(compute) * scale)
    bench.sample(f"sweeps.render_{sweep.fmt}_s", tracer.seconds(rendering) * scale)
    return rows, tracer.seconds(compute) + tracer.seconds(rendering)


def _count_rows(bench: Bench, rows: list) -> None:
    bench.counts["sweeps.cells"] += len(rows)
    bench.counts["sweeps.degenerate_cells"] += sum(row.degenerate for row in rows)


def figure_op(bench: Bench, sweep: Sweep, parent: int) -> None:
    returncode, stdout, wall = bench.cli(sweep.argv(), parent)
    bench.sample("figures_s", wall, key=" ".join(sweep.argv()))
    if returncode != 0:
        problems = [("exit", f"exit code {returncode}")]
    elif sweep.fmt == "csv":
        problems = check_sweep_csv(stdout, sweep.ref)
    else:
        problems = check_sweep_json(stdout, sweep.ref)
    bench.outcome(" ".join(sweep.argv()), problems, sweep.fault)
    if bench.tracer and returncode == 0:
        # The same sweep in-process: what the process spends beyond it is
        # start-up, argument parsing and writing.
        rows, inside = _traced_sweep(bench, sweep, parent)
        _count_rows(bench, rows)
        bench.sample("cli.map_overhead_s", wall - inside)


def library_map(bench: Bench, sweep: Sweep, parent: int) -> None:
    spec = _sweep_spec(sweep)
    # One kernel sample per SCENARIO_CHUNK cells, half before and half after.
    repeats = max(1, sweep.cells // (2 * SCENARIO_CHUNK))
    bench.calibrate(repeats)
    start = now()
    rows = sweep_rows(spec)
    rendered = now()
    text = render_csv(rows)
    end = now()
    bench.calibrate(repeats)
    bench.sample("map_cells_per_s", len(rows) / ((end - start) * 1e-9))
    tracer = bench.tracer
    if tracer:
        scale = MAP_CELLS / len(rows)
        tracer.add("sweeps.compute", start, rendered, parent)
        tracer.add("sweeps.render_csv", rendered, end, parent)
        bench.sample("sweeps.compute_s", (rendered - start) * 1e-9 * scale)
        bench.sample("sweeps.render_csv_s", (end - rendered) * 1e-9 * scale)
        with tracer.span("sweeps.render_json", parent) as index:
            render_json(rows)
        bench.sample("sweeps.render_json_s", tracer.seconds(index) * scale)
        _count_rows(bench, rows)
    bench.outcome("library map", check_sweep_csv(text, sweep.ref))


def _evaluate(scenario: Scenario):
    try:
        params = ScenarioParams(k=scenario.k, gamma=scenario.gamma, theta=scenario.theta, p=scenario.p)
        return bound_report(params), spade_advantage(params)
    except CohdetError as exc:
        return exc


def _check_evaluation(result, scenario: Scenario) -> list:
    if isinstance(result, Exception):
        return [("raise", repr(result))]
    report, a_d = result
    return check_scenario(report.o_err, report.d_err, report.a_qod, a_d, report.useless, scenario.ref)


def scenario_chunk(bench: Bench, chunk: list[Scenario], parent: int) -> None:
    before = bench.calibrate()
    if bench.tracer:
        results, seconds = _traced_scenarios(bench, chunk, parent)
    else:
        start = now()
        results = [_evaluate(s) for s in chunk]
        seconds = (now() - start) * 1e-9
    after = bench.calibrate()
    # A chunk takes a few milliseconds, less than the host's fast and slow
    # episodes last: its rate is scaled by the kernel's time right around it.
    rate = len(chunk) / seconds
    bench.sample("raw.bound_evals_per_s", rate)
    bench.sample("bound_evals_per_s", rate * (before + after) / (2 * host.KERNEL_S))
    for scenario, result in zip(chunk, results):
        bench.outcome(scenario, _check_evaluation(result, scenario))


def edge_scenario(bench: Bench, label: str, scenario: Scenario, parent: int) -> None:
    bench.outcome(scenario, _check_evaluation(_evaluate(scenario), scenario), label)


def _traced_scenarios(bench: Bench, scenarios: list[Scenario], parent: int) -> tuple[list, float]:
    """A chunk of the scenario batch with a span around each call, then the
    kernel's inner steps (rho2, lambda_matrix, helstrom_bound) timed on
    their own; returns the results and the seconds the calls took."""
    add = bench.tracer.add
    batch = add("scenarios", now(), 0, parent)
    results = []
    start = now()
    for s in scenarios:
        try:
            a = now()
            params = ScenarioParams(k=s.k, gamma=s.gamma, theta=s.theta, p=s.p)
            b = now()
            report = bound_report(params)
            c = now()
            a_d = spade_advantage(params)
            d = now()
        except CohdetError as exc:
            results.append(exc)
            continue
        add("states.params", a, b, batch)
        add("helstrom.bound_report", b, c, batch)
        add("spade.advantage", c, d, batch)
        results.append((report, a_d))
    seconds = (now() - start) * 1e-9
    bench.tracer.spans[batch][2] = now()
    for s in scenarios:
        params = ScenarioParams(k=s.k, gamma=s.gamma, theta=s.theta, p=s.p)
        delta, coherence = params.delta, params.c
        a = now()
        rho2(delta, coherence)
        b = now()
        lambda_matrix(params)
        c = now()
        helstrom_bound(params)
        d = now()
        add("states.rho2", a, b, parent)
        add("states.lambda_matrix", b, c, parent)
        add("helstrom.helstrom_bound", c, d, parent)
    return results, seconds


def bound_op(bench: Bench, scenario: Scenario, parent: int) -> None:
    returncode, stdout, wall = bench.cli(scenario.bound_argv(), parent)
    bench.sample("bound_cli_s", wall)
    bench.outcome(" ".join(scenario.bound_argv()), check_bound(returncode, stdout, scenario.ref))


def edge_bound_op(bench: Bench, fault: str, argv: list[str], scenario: Scenario, parent: int) -> None:
    returncode, stdout, _ = bench.cli(argv, parent)
    bench.outcome(" ".join(argv), check_bound(returncode, stdout, scenario.ref), fault)


def simulation_op(bench: Bench, index: int, sim: Simulation, parent: int) -> None:
    returncode, stdout, wall = bench.cli(sim.argv(), parent)
    bench.sample("sim_photons_per_s", sim.photons / wall)
    problems, counts = check_simulate(returncode, stdout, sim.photons,
                                      sim.scenario.ref.values["p_err_spade"], sim.epsilon)
    if counts is not None:
        first = bench.repeats.setdefault(index, counts)
        if counts != first:
            problems.append(("repeat", f"seed {sim.seed} gave {counts}, earlier {first}"))
        if bench.tracer:
            problems += _traced_simulation(bench, sim, counts, parent)
    bench.outcome(" ".join(sim.argv()), problems)


def _traced_simulation(bench: Bench, sim: Simulation, counts: tuple, parent: int) -> list:
    """run_simulation in-process on the same configuration; it must count
    the same errors as the process did."""
    s = sim.scenario
    theta = s.theta_pi * math.pi if s.theta_pi is not None else s.theta
    config = TrialConfig(ScenarioParams(k=s.k, gamma=s.gamma, theta=theta, p=s.p),
                         n_photons=sim.photons, seed=sim.seed, epsilon=sim.epsilon)
    with bench.tracer.span("montecarlo.run_simulation", parent) as index:
        result = run_simulation(config)
    seconds = bench.tracer.seconds(index)
    bench.sample("montecarlo.run_simulation_s", seconds * 1e7 / sim.photons)
    bench.sample("montecarlo.photons_per_s", sim.photons / seconds)
    bench.counts["montecarlo.shards"] += -(-sim.photons // SHARD_SIZE)
    if (result.n_errors, result.n_attempts) != counts:
        return [("repeat", f"in-process run gave {result.n_errors}, process gave {counts}")]
    return []


def verify_op(bench: Bench, n_points: int | None, parent: int) -> None:
    argv = ["verify"] + ([] if n_points is None else ["--grid-points", str(n_points)])
    returncode, stdout, wall = bench.cli(argv, parent)
    bench.sample("verify_s", wall, key=n_points)
    bench.outcome(" ".join(argv), check_verify(returncode, stdout))
    if bench.tracer:
        _traced_oracle(bench, n_points or 4001, parent)


def _traced_oracle(bench: Bench, n_points: int, parent: int) -> None:
    """equivalence_report on verify's block in-process, then its grid-space
    state and bound reconstructions one call at a time."""
    tracer = bench.tracer
    with tracer.span("oracle.equivalence_report", parent) as index:
        equivalence_report(list(ORACLE_K), list(ORACLE_C), list(ORACLE_P), n_points=n_points)
    bench.sample("oracle.equivalence_report_s", tracer.seconds(index))
    bench.counts["oracle.scenarios"] += len(ORACLE_K) * len(ORACLE_C) * len(ORACLE_P)
    for k in ORACLE_K:
        grid = SpatialGrid.for_separation(k, n_points)
        for c in ORACLE_C:
            with tracer.span("oracle.grid_rho2", parent) as index:
                grid_rho2(k, c, grid)
            bench.sample("oracle.grid_rho2_us", tracer.seconds(index) * 1e6)
            params = ScenarioParams(k=k, gamma=abs(c), theta=0.0 if c >= 0 else math.pi, p=0.5)
            with tracer.span("oracle.grid_helstrom", parent) as index:
                grid_helstrom(params, grid)
            bench.sample("oracle.grid_helstrom_us", tracer.seconds(index) * 1e6)
