"""Run-to-run spread of the end-to-end metrics against BENCHMARK.json bounds.

Run from the repository root, one workload at a time:

    python3 perfbench/spread.py --workload margins --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run after another, and prints for
each end-to-end metric its median, its quartile distance over the median
(statistics.quantiles, n = 4) and the metric's bound. A steady benchmark
keeps every spread except setup_s below a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_iqr

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    steady = True
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        spread = relative_iqr(values) if len(values) >= 2 else float("nan")
        ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3.0
        steady &= ok
        print(f"{metric['name']:>14}: median {statistics.median(values):.6g} "
              f"{metric['unit']}, spread {spread:.4f}, bound {metric['bound']}"
              f"{'' if ok else '  <-- above a third of the bound'}")
    print(f"all correct: {all(r['correct'] for r in runs)}; steady: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
