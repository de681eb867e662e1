"""Run the benchmark over several seeds and summarise each end-to-end metric.

Run from the root of a checkout:

    python3 bench/collect.py --seeds 1-10 --out bench/baselines/NAME.json

For every workload (or those given with --workload) it runs bench/run.py
once per seed, one run at a time, and records each metric's values, median,
quartiles and spread (interquartile range over median, the figure each
metric's bound in BENCHMARK.json is compared with), plus each run's output
digest, failure count, tail percentile, host probe times and unscaled
figures (see host_probe in run.py) and run context.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in workloads:
        runs, values = [], {}
        for seed in seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            report, last = json.loads(lines[-2])["report"], json.loads(lines[-1])
            runs.append({
                "seed": seed,
                "wall_s": wall,
                "correct": last["correct"],
                "attempted": last["attempted"],
                "failed": last["failed"],
                "digest": report["digest"]["sha256"],
                "tail": report["op_ms.tail"],
                "machine_ms": report["machine_ms"],
                "own_time": report["own_time"],
                "host_probe_ms": report["host_probe_ms"],
            })
            result.setdefault("context", report["context"])
            for metric, rec in last["metrics"].items():
                values.setdefault(metric, []).append(rec["value"])
            print(f"{name} seed {seed}: {wall:.1f}s correct={last['correct']}", flush=True)
        metrics = {m: summarise(v) for m, v in values.items()}
        for m, rec in metrics.items():
            rec["bound"] = bounds[m]
            print(f"  {m:12s} median {rec['median']:.4g}  spread {rec['spread']}  bound {bounds[m]}")
        result["workloads"][name] = {"metrics": metrics, "runs": runs}
    result["context"].pop("seed", None)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
