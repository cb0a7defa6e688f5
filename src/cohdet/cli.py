"""Command-line interface.

Subcommands:
  bound          single-point report of the error bounds and advantage
  advantage-map  (k, p) sweep written as CSV or JSON
  spade          per-separation sweep of the mode-sorting strategy
  simulate       seeded Monte Carlo run, printed as JSON
  verify         grid-space versus closed-form equivalence check

Exit codes: 0 success, 2 bad flags, 3 degenerate scenario, 4 output I/O
error (an `--output` file or stdout), 5 verification or statistical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import DegenerateScenarioError, DomainError, GridAccuracyError
from .kernel import ScenarioParams, bound_report
from .sweeps import SweepSpec, formatter, stream_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:STEPS, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:STEPS, got {text!r}") from exc


def _parse_count(text: str) -> int:
    """A whole number, also in an integral float spelling such as 1e7."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    return int(value)


def _add_scenario_flags(parser: argparse.ArgumentParser, with_k: bool = True, with_p: bool = True) -> None:
    if with_k:
        parser.add_argument("--k", type=float, required=True, help="separation in PSF widths")
    parser.add_argument("--gamma", type=float, default=0.0, help="coherence strength in [0, 1]")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=0.0, help="coherence phase in radians")
    group.add_argument(
        "--theta-pi", type=float, dest="theta_pi", default=None,
        help="coherence phase as a multiple of pi",
    )
    if with_p:
        parser.add_argument("--p", type=float, default=0.5, help="prior probability of two sources")


def _theta(ns: argparse.Namespace) -> float:
    return ns.theta_pi * math.pi if ns.theta_pi is not None else ns.theta


def _scenario(ns: argparse.Namespace) -> ScenarioParams:
    return ScenarioParams(k=ns.k, gamma=ns.gamma, theta=_theta(ns), p=ns.p)


def _print_record(fields: list[tuple[str, object]], as_json: bool) -> None:
    """One record, as JSON or as `key = value` lines; counts print as
    integers and every other value through the sweeps' token function."""
    token = formatter(as_json)
    tokens = [(key, str(value) if type(value) is int else token(value)) for key, value in fields]
    if as_json:
        print("{" + ", ".join(f'"{key}": {text}' for key, text in tokens) + "}")
    else:
        for key, text in tokens:
            print(f"{key} = {text}")


def _cmd_bound(ns: argparse.Namespace) -> int:
    params = _scenario(ns)
    report = bound_report(params)
    scenario = ("k", params.k), ("gamma", params.gamma), ("theta", params.theta), ("p", params.p)
    _print_record([*scenario, *zip(report._fields, report)], ns.format == "json")
    return EXIT_OK


def _run_sweep(ns: argparse.Namespace, p_range: tuple[float, float, int]) -> int:
    """Check the spec, open the output, then compute and write one chunk
    per separation.  A write error in mid-stream exits 4 and leaves the
    partial file in place; on stdout, `main` reports it."""
    chunks = stream_sweep(SweepSpec(*ns.k_range, *p_range, ns.gamma, _theta(ns)), ns.format == "json")
    if ns.output is None:
        sys.stdout.writelines(chunks)
        return EXIT_OK
    try:
        with open(ns.output, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {ns.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_advantage_map(ns: argparse.Namespace) -> int:
    return _run_sweep(ns, ns.p_range)


def _cmd_spade(ns: argparse.Namespace) -> int:
    return _run_sweep(ns, (ns.p, ns.p, 1))


def _cmd_simulate(ns: argparse.Namespace) -> int:
    # numpy loads only for the one command that uses it.
    from .montecarlo import TrialConfig, run_simulation

    config = TrialConfig(
        params=_scenario(ns), n_photons=ns.photons, seed=ns.seed, epsilon=ns.epsilon)
    result = run_simulation(config)
    fields = list(zip(result._fields, result))
    if result.n_attempts is None:  # the last field, set only with vacuum modelling
        fields.pop()
    _print_record(fields, as_json=True)
    return EXIT_OK if abs(result.z_score) <= 3.0 else EXIT_VERIFY


def _cmd_verify(ns: argparse.Namespace) -> int:
    from .oracle import equivalence_report

    try:
        report = equivalence_report(n_points=ns.grid_points)
    except GridAccuracyError as exc:  # a DomainError is a bad flag: exit 2, as everywhere
        print(f"verify: FAIL ({exc})")
        return EXIT_VERIFY
    labels = "overlap max abs error", "rho2 max abs error", "helstrom max abs error", "tolerance"
    _print_record(list(zip(labels, report)), as_json=False)
    if report.passed:
        print("verify: PASS")
        return EXIT_OK
    print("verify: FAIL")
    return EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:  # argparse's own drops a failed write
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohdet",
        description="Decide whether a faint optical scene holds one source or two.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="single-point error bounds and advantage")
    _add_scenario_flags(bound)
    bound.add_argument("--format", choices=("text", "json"), default="text")
    bound.set_defaults(func=_cmd_bound)

    amap = sub.add_parser("advantage-map", help="(k, p) sweep of the advantage surface")
    _add_scenario_flags(amap, with_k=False, with_p=False)
    amap.add_argument("--k-range", type=_parse_range, required=True, metavar="MIN:MAX:STEPS")
    amap.add_argument("--p-range", type=_parse_range, required=True, metavar="MIN:MAX:STEPS")
    amap.add_argument("--output", default=None, help="output path (stdout when omitted)")
    amap.add_argument("--format", choices=("csv", "json"), default="csv")
    amap.set_defaults(func=_cmd_advantage_map)

    spade = sub.add_parser("spade", help="mode-sorting strategy versus separation")
    _add_scenario_flags(spade, with_k=False)
    spade.add_argument("--k-range", type=_parse_range, required=True, metavar="MIN:MAX:STEPS")
    spade.add_argument("--output", default=None, help="output path (stdout when omitted)")
    spade.add_argument("--format", choices=("csv", "json"), default="csv")
    spade.set_defaults(func=_cmd_spade)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo self-test")
    _add_scenario_flags(simulate)
    simulate.add_argument("--photons", type=_parse_count, default=100000,
                          help="registered one-photon trials")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--epsilon", type=float, default=None,
                          help="mean photon number per emission attempt (enables vacuum modelling)")
    simulate.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser("verify", help="grid oracle versus closed form")
    verify.add_argument("--grid-points", type=int, dest="grid_points", default=4001)
    verify.set_defaults(func=_cmd_verify)

    return parser


def _drop_stdout() -> None:
    """Point fd 1 at the null device, so that what stdout still buffers does
    not fail again at shutdown with an "Exception ignored" line."""
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, sys.stdout.fileno())
    finally:
        os.close(null)


def main(argv: list[str] | None = None) -> int:
    # The one place where a rejected value or a failed stdout becomes an
    # error line and an exit code; `verify` reports its own failures as exit 5.
    try:
        try:
            ns = build_parser().parse_args(argv)
            code = ns.func(ns)
        finally:  # also after --help, where argparse exits
            sys.stdout.flush()
    except DegenerateScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an `--output` file reports its own errors, so this is stdout
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        _drop_stdout()
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
