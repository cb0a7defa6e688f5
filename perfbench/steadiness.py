"""Check that the benchmark is steady: run it once per seed on each
workload and compare each end-to-end metric's spread with its bound.

    python3 perfbench/steadiness.py --seeds 10 [--workload figures] [--first-seed 1]

The spread is the distance between the first and third quartiles of the
runs, as a share of their median.  A metric is steady when its spread is
below a third of its bound (setup_s is reported but not held to that).
Every run must also fail the same share of its operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        shares = {(r["failed"], r["attempted"]) for r in runs}
        same_share = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for r in runs)
        steady &= same_share and correct
        print(f"{workload}: correct={correct} failed/attempted={sorted(shares)} "
              f"same share={same_share}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:<20} median {median:<12.6g} spread {spread:6.3f} "
                  f"bound {metric['bound']}{'' if ok else '  NOT STEADY'}")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
