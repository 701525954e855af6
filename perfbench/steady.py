"""Steadiness of the benchmark: run one workload k times and summarise.

    python3 perfbench/steady.py --workload moves --runs 10 --first-seed 100

Runs perfbench/run.py once per seed, one run at a time, from the root
of the checkout.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles with n=4), the spread (the distance
between the quartiles as a share of the median) and that spread against
the metric's bound in BENCHMARK.json, and the share of failed
operations.  The raw results go to perfbench/out/steady-<workload>-<first
seed>.json, so two sets of runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        m = results[-1]["metrics"]
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in m.items()),
              flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}-{args.first_seed}.json").write_text(
        json.dumps(results, indent=1))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}, {len(results)} runs, correct: "
          f"{all(r['correct'] for r in results)}, failed share: "
          + ", ".join(f"{s:.6f}" for s in sorted(shares)))
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        print(f"  {metric['name']:<12} median {med:10.4f} {metric['unit']:<3} "
              f"quartiles {q1:.4f}..{q3:.4f}  spread {spread:6.1%}  "
              f"bound {metric['bound']:.0%}  spread/bound {spread / metric['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
