"""Benchmark of cohdet, end to end and per module.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

runs whole rounds of the workload's operations until --seconds have passed,
checks every output against an independent mpmath reference, and prints
one JSON object as its last line: whether every output that did not fail
was correct, the operations attempted and failed, and the end-to-end
metrics (--trace 0) or the per-layer metrics from spans recorded around
each call (--trace 1).  A traced run also writes its spans to
perfbench/out/.  --workload all runs the three workloads in turn.

Every time and rate is reported at the host's nominal speed: divided (a
rate multiplied) by the run's slowness, which host.py measures alongside
the program.  Standard error shows the slowness and the raw figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from host import KERNEL_S, PROCESS_S
from tracing import Tracer, now

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "point-queries", "self-check")
OUT = Path(__file__).resolve().parent / "out"

#: Metrics whose samples are rates, higher being better; all others are times.
RATES = {"map_cells_per_s", "bound_evals_per_s", "sim_photons_per_s", "montecarlo.photons_per_s"}

END_TO_END = {
    "setup_s": "s",
    "figures_s": "s",
    "map_cells_per_s": "cells/s",
    "bound_evals_per_s": "scenarios/s",
    "bound_cli_s": "s",
    "sim_photons_per_s": "photons/s",
    "verify_s": "s",
}

#: Per-layer metrics taken from samples the workload code records.
PER_LAYER_SAMPLES = {
    "cli.numpy_import_s": "s",
    "cli.import_s": "s",
    "cli.map_overhead_s": "s",
    "sweeps.compute_s": "s",
    "sweeps.render_csv_s": "s",
    "sweeps.render_json_s": "s",
    "montecarlo.run_simulation_s": "s",
    "montecarlo.photons_per_s": "photons/s",
    "oracle.equivalence_report_s": "s",
    "oracle.grid_rho2_us": "us",
    "oracle.grid_helstrom_us": "us",
}

#: Per-layer medians of span durations, in microseconds.
PER_LAYER_SPANS = {
    "states.params_us": "states.params",
    "states.rho2_us": "states.rho2",
    "states.lambda_matrix_us": "states.lambda_matrix",
    "helstrom.helstrom_bound_us": "helstrom.helstrom_bound",
    "helstrom.bound_report_us": "helstrom.bound_report",
    "spade.advantage_us": "spade.advantage",
}

#: Per-layer counts of work done, per round.
PER_LAYER_COUNTS = (
    "sweeps.cells",
    "sweeps.degenerate_cells",
    "sweeps.zero_residue_cells",
    "montecarlo.shards",
    "oracle.scenarios",
)


def average(values: list[float], rate: bool) -> float:
    """Mean time, or for rates (equal work per sample) total work over
    total time, which is the harmonic mean.

    The machines this runs on drift, over seconds to minutes, between a
    fast state and one up to 1.8x slower (other tenants on the same host).
    Samples of every metric are spread over the whole run, and their mean
    weighs the two states by the time spent in each; a median or a low
    percentile jumps between them.
    """
    if rate:
        return len(values) / sum(1.0 / v for v in values)
    return statistics.fmean(values)


def summarise(name: str, groups: dict) -> float:
    """A metric from its samples, grouped by the operation they time: each
    group's average, summed over the groups (one group for every metric
    but figures_s and verify_s, which add up a set of processes)."""
    return sum(average(values, name in RATES) for values in groups.values())


def slowness(samples: dict) -> dict[str, float]:
    """How much slower than nominal the host's kernel ran in this run: in
    this process, and in fresh processes.  Means, as for the metrics, so
    that both weigh the host's fast and slow episodes alike."""
    return {"kernel": statistics.fmean(samples["host.kernel_s"][None]) / KERNEL_S,
            "process": statistics.fmean(samples["host.process_s"][None]) / PROCESS_S}


#: Metrics whose samples workloads.py has already scaled, each by the
#: kernel's time right around it: the median of those samples.
PAIRED = {"bound_evals_per_s"}


def at_nominal_speed(name: str, value: float, slow: dict[str, float]) -> float:
    """A metric's value at the host's nominal speed.  Process wall times
    (the end-to-end times and cli.*) scale with the process slowness;
    work done in this process scales with the kernel's."""
    in_process = name in ("map_cells_per_s", "bound_evals_per_s") or (
        "." in name and not name.startswith("cli."))
    factor = slow["kernel" if in_process else "process"]
    return value * factor if name in RATES else value / factor


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import Bench, make_inputs, round_steps, run_round, warm_up

    tracer = Tracer() if trace else None
    bench = Bench(ROOT, tracer)
    inputs = make_inputs(workload, seed)
    inputs.build_references()
    steps = round_steps(inputs)
    warm_up(bench, inputs)

    # Whole rounds, as many as fit: stop when the next round, as long as
    # the mean round so far, would end more than half a round past --seconds.
    rounds = 0
    start = now()
    while True:
        run_round(bench, steps)
        rounds += 1
        elapsed = (now() - start) * 1e-9
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break

    slow = slowness(bench.samples)
    raw = {name: summarise(name, bench.samples["raw." + name if name in PAIRED else name])
           for name in END_TO_END}
    if trace:
        raw.update({name: summarise(name, bench.samples[name]) for name in PER_LAYER_SAMPLES})
        for name, span in PER_LAYER_SPANS.items():
            # Microsecond spans: the median, which a stray collection pause does not move.
            raw[name] = statistics.median(tracer.durations(span)) * 1e6
    print(f"{rounds} rounds; host slowness: {slow['kernel']:.3f} in process, "
          f"{slow['process']:.3f} in processes", file=sys.stderr)
    for fault, count in sorted(bench.known_faults.items()):
        print(f"known fault {fault}: {count // rounds} per round", file=sys.stderr)
    print("raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()), file=sys.stderr)
    units = dict(END_TO_END, **PER_LAYER_SAMPLES, **{name: "us" for name in PER_LAYER_SPANS})
    metrics = {name: _metric(at_nominal_speed(name, value, slow), units[name])
               for name, value in raw.items()}
    for name in PAIRED:
        metrics[name] = _metric(statistics.median(bench.samples[name][None]), units[name])
    end_to_end = {name: metrics[name] for name in END_TO_END}
    result = {"correct": bench.correct, "attempted": bench.attempted, "failed": bench.failed}
    if not trace:
        return dict(result, metrics=end_to_end)

    per_layer = {name: metrics[name] for name in list(PER_LAYER_SAMPLES) + list(PER_LAYER_SPANS)}
    for name in PER_LAYER_COUNTS:
        per_layer[name] = _metric(bench.counts[name] // rounds, "count")
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json",
                 {"workload": workload, "seed": seed, "rounds": rounds, "slowness": slow,
                  "raw": raw, "end_to_end": end_to_end, "per_layer": per_layer})
    return dict(result, metrics=per_layer)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cohdet" / "cli.py").is_file():
        print(f"error: no cohdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
