"""Self-test of the benchmark: smoke runs, oracle and missing-program checks.

Usage (from the repository root)::

    python3 perfbench/selftest.py

1. Runs every workload in ``BENCHMARK.json`` briefly (one second) in
   both modes and checks that the last line names exactly the
   metrics ``BENCHMARK.json`` lists for that mode, each with its unit and
   a finite value, that the run was correct and that no operation failed.
2. Flips one byte of the benchmark's model (``--corrupt-model``) and
   checks that the run reports ``"correct": false`` and exits non-zero:
   the oracle fires.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` and checks that it exits non-zero without a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)])
            result = last_json(out)
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {name} = {value!r}")
            print(f"ok   {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops", flush=True)

    code, out = run(["--workload", "point-mix", "--seed", "1", "--seconds", "1",
                     "--corrupt-model"])
    result = last_json(out)
    if code == 0 or result is None or result["correct"] is not False:
        problems.append(f"corrupted model byte not caught (exit {code}, {result})")
    else:
        print("ok   oracle fires on a corrupted model byte", flush=True)

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out = run(["--workload", "point-mix", "--seed", "1", "--seconds", "1"],
                    cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or last_json(out) is not None:
        problems.append(f"without the program: exit {code}, output {out[-200:]!r}")
    else:
        print("ok   without the program: non-zero exit, no result", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
