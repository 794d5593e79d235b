"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--save FILE]

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one run at a
time, and reports for every end-to-end metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json. Every
``correct`` flag and ``failed`` count is reported too.
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


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"seconds": args.seconds, "seeds": args.seeds, "claim": None, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']} {values}", flush=True)
        summary["environment"] = runs[-1]["environment"]
        entry = {
            "all_correct": all(r["correct"] for r in runs),
            "output_sha256": {seed: r["output_sha256"] for seed, r in zip(args.seeds, runs)},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["metrics"][metric["name"]] = stats
            flag = "ok" if stats["spread"] < metric["bound"] / 3 else (
                "WITHIN-BOUND" if stats["spread"] <= metric["bound"] else "OVER-BOUND")
            print(f"  {workload:24s} {metric['name']:18s} median={stats['median']:.6g} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} spread={stats['spread']:.4f} "
                  f"bound={metric['bound']} {flag}", flush=True)
        summary["workloads"][workload] = entry
    if args.save:
        args.save.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
