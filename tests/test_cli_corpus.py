"""The CLI's bytes on a fixed, seeded corpus of argv, pinned by digest.

Each run goes through `cli.main` in this process; the sha256 of its argv,
exit code, stdout and stderr is compared with `data/cli_corpus.sha256`, one
line per run, so a failure names every argv whose bytes moved.  The corpus
may grow; a change that moves a byte on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_corpus.py > tests/data/cli_corpus.sha256

and lists each moved byte.
"""

import hashlib
import json
import random
import shlex
import sys
from pathlib import Path

from conftest import run_in_process

DIGESTS_PATH = Path(__file__).parent / "data" / "cli_corpus.sha256"

#: Phases inside and outside [0, 2*pi), as --theta or --theta-pi flags.
#: Spelled FLAG=VALUE, as argparse takes a value such as -1e15 for a flag otherwise.
PHASES = (
    "--theta=0", "--theta=1", "--theta=3.14159265", "--theta=6.283185307179586", "--theta=-7",
    "--theta=7", "--theta=1e9", "--theta=1e12", "--theta=-1e15",
    "--theta-pi=1", "--theta-pi=0.5", "--theta-pi=-1.5", "--theta-pi=3",
)

#: Separations and priors on and next to the edges of the domain.
TINY_K = ("0", "1e-160", "1e-7", "1e-4", "0.01")
TINY_P = ("0", "1e-300", "1e-6", "0.999999", "1")


def _bound_argv():
    rng = random.Random(20261020)
    scenarios = [("1", "1", phase, "0.5") for phase in PHASES]
    scenarios += [(k, "1", "--theta-pi=1", "0.5") for k in TINY_K]
    scenarios += [("0.5", "0.9", "--theta=2", p) for p in TINY_P]
    for _ in range(40):
        phase = rng.choice((f"--theta={rng.uniform(-20.0, 20.0)!r}",
                            f"--theta-pi={rng.uniform(-3.0, 3.0)!r}"))
        scenarios.append((repr(rng.uniform(0.0, 6.0)), repr(rng.random()), phase, repr(rng.random())))
    return [
        ["bound", "--k", k, "--gamma", gamma, phase, "--p", p, "--format", fmt]
        for k, gamma, phase, p in scenarios for fmt in ("text", "json")
    ]


def _sweep_argv():
    # The three figure spade curves, then maps in and outside [0, 2*pi).
    curves = [
        ["spade", "--gamma", gamma, phase, "--k-range", "0:5:501"]
        for gamma, phase in (("0.1", "--theta=0"), ("0.9", "--theta-pi=1"), ("1", "--theta-pi=1"))
    ]
    maps = [["advantage-map", "--gamma", "0.9", "--theta=-7", "--k-range", "0:5:41", "--p-range", "0:1:41",
             "--format", fmt] for fmt in ("csv", "json")]
    maps += [["advantage-map", "--gamma", "1", phase, "--k-range", "0:4:11", "--p-range", "0:1:11"]
             for phase in ("--theta=7", "--theta=1e9", "--theta-pi=1")]
    return curves + maps


def _other_argv():
    simulate = [["simulate", "--k", "1", "--gamma", "0.5", "--photons", "1e5", "--seed", seed]
                for seed in ("1", "2")]
    refused = [
        ["spade", "--k-range", "1:0:3"],
        ["bound", "--k", "1", "--gamma", "2"],
        ["advantage-map", "--k-range", "0:1:2", "--p-range", "0:2:3"],
        ["advantage-map", "--k-range", "0:1:2", "--p-range", "0:1:100001"],
        ["spade", "--k-range", f"0:1:{10**400}"],
    ]
    return simulate + [["verify", "--grid-points", "1001"]] + refused


CORPUS = _bound_argv() + _sweep_argv() + _other_argv()


def _digest(argv):
    payload = json.dumps([argv, *run_in_process(argv)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def corpus_digests():
    """One line per run: the digest of its (argv, exit code, stdout, stderr), then the argv."""
    return "".join(f"{_digest(argv)}  {shlex.join(argv)}\n" for argv in CORPUS)


def test_corpus_bytes_are_pinned():
    runs, pinned = corpus_digests().splitlines(), DIGESTS_PATH.read_text(encoding="utf-8").splitlines()
    assert [run for run in runs if run not in pinned] == []  # the runs whose bytes moved
    assert runs == pinned


if __name__ == "__main__":
    sys.stdout.write(corpus_digests())
