"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload point-mix --seeds 1-10 [--trace 0]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound that
``BENCHMARK.json`` fixes; a spread at or above a third of the bound is
flagged.  The runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--verbose", action="store_true",
                   help="also print every run's value")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: attempted {results[-1]['attempted']} "
              f"failed {results[-1]['failed']}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "  <-- over a third of the bound" if (
            bound is not None and name != "setup_s" and spread >= bound / 3) else ""
        print(f"{name:28s} median {median:12.5f}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.5g}" for v in values))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
