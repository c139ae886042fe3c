"""Self-check of the benchmark: smoke test, exact-repeat counters, and
tracing overhead.

    python3 perfbench/selfcheck.py [--seed 2] [--size tiny] [--seconds 2]

1. Smoke: runs every workload (also ``index_admit``, which
   ``BENCHMARK.json`` does not gate) with ``--trace 0`` and ``--trace 1``.  Each
   run must pass its correctness checks, print every metric named in
   ``BENCHMARK.json`` with its unit (and a human-readable line for each
   end-to-end metric), and end with the JSON result line.
2. Repeat: runs every traced workload a second time with the same seed
   and lists which per-layer counters (non-time units, not 0 in both
   runs) repeat exactly and which differ.  Only the
   ones that repeat exactly may back a claim made on counts.
3. Overhead: the traced run's end-to-end figures against the untraced
   run's, as the tracing overhead.

Exits 1 if any smoke assertion fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

from workloads import WORKLOADS  # a module next to this script

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = {"s", "ms", "1/s"}
LINE = re.compile(r"^perfbench: (\S+) = (\S+) (\S+)")


def run(workload: str, seed: int, seconds: float, trace: int, size: str):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    human = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            human[m.group(1)] = (float(m.group(2)), m.group(3))
    return p.returncode, result, human, p.stderr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--size", default="tiny")
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    problems = []
    for wl in WORKLOADS:
        runs = {}
        for trace, units in ((0, e2e_units), (1, layer_units)):
            code, res, human, err = run(wl, args.seed, args.seconds, trace, args.size)
            runs[trace] = (res, human)
            tag = f"{wl} trace={trace}"
            if code != 0 or not res.get("correct") or res.get("failed"):
                problems.append(f"{tag}: exit {code}, result {res}\n{err[-2000:]}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units:
                problems.append(f"{tag}: metrics/units {got} != {units}")
            missing = [k for k in e2e_units if k not in human]
            if missing:
                problems.append(f"{tag}: no human-readable line for {missing}")
            print(f"smoke {tag}: ok ({res['attempted']} attempted, 0 failed)")

        if 1 not in runs or not runs[1][0].get("metrics"):
            continue
        _, res2, _, _ = run(wl, args.seed, args.seconds, 1, args.size)
        first = runs[1][0]["metrics"]
        second = res2.get("metrics", {})
        exact, differ = [], []
        for name, m in first.items():
            if m["unit"] in TIME_UNITS or name.startswith(("self_s.", "trace.")):
                continue
            if m["value"] == 0 and second.get(name, {}).get("value") == 0:
                continue  # a layer this workload does not use
            (exact if second.get(name, {}).get("value") == m["value"] else differ).append(name)
        print(f"repeat {wl}: exact {sorted(exact)}")
        print(f"repeat {wl}: differ {sorted(differ)}")

        if runs[0][1] and runs[1][1]:
            for name in e2e_units:
                if name in runs[0][1] and name in runs[1][1]:
                    a, b = runs[0][1][name][0], runs[1][1][name][0]
                    print(f"overhead {wl} {name}: untraced {a:.6g} traced {b:.6g} "
                          f"({(b - a) / a:+.1%})")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
