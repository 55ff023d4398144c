"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload word-g4 --seeds 1-10 [--trace 0] [--out FILE]

Spread is the distance between the first and third quartile of the values
over seeds, as a share of their median (statistics.quantiles, n=4).  The
runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the per-seed results here as JSON")
    args = ap.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result.update(seed=seed, wall_s=wall, details=json.loads(lines[-2])["details"])
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)

    report = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        entry = {"median": statistics.median(values), "values": values,
                 "unit": runs[0]["metrics"][name]["unit"]}
        if len(values) >= 2 and entry["median"]:
            entry["spread"] = summary.spread(values)
        report[name] = entry
    for name, entry in report.items():
        print(f"{name:44s} median {entry['median']:>12.6g} {entry['unit']:14s}"
              f" spread {entry.get('spread', float('nan')):.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
