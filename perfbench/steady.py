"""Steadiness mode: run one workload several times and summarise the spread.

    python3 perfbench/steady.py --workload auth_table --runs 10 --seconds 20

Each run is a separate ``run.py`` process with its own seed (``--first-seed``,
then the next integers).  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; the bounds in ``BENCHMARK.json`` were set
from these spreads.  The summary is also written to
``perfbench/out/steady-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: attempted={runs[-1]['attempted']} failed={runs[-1]['failed']} "
              f"correct={runs[-1]['correct']}", file=sys.stderr)

    summary = {
        "workload": args.workload, "runs": len(runs), "seconds": args.seconds,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "all_correct": all(r["correct"] for r in runs),
        "failed_shares": sorted({r["failed"] / r["attempted"] for r in runs}),
        "metrics": {},
    }
    print(f"{'metric':45s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary["metrics"][name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values,
        }
        print(f"{name:45s} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {first['unit']}")
    print(f"correct in every run: {summary['all_correct']}; "
          f"failed shares: {summary['failed_shares']}")
    out = BENCH_DIR / "out" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
