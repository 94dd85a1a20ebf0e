"""Steadiness check: run the benchmark on many seeds and report each metric's spread.

    python3 perfbench/steady.py --seconds 40 --runs 10 --sets 2 [--workload serve-http ...] \\
        [--out perfbench/steadiness.json]

Run from the root of a checkout.  Each set runs ``run.py`` once per seed
(1..runs) on every workload, then reports per end-to-end metric the median,
the quartiles and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
the figure the benchmark's bounds are set from.  With more than one set,
each later set's median is compared with the first set's: ``drift`` is how
much worse it is, as a share of the first median (negative when better).
With ``--out`` the report, with every run's values and provenance, is
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_set(workloads: list[str], seeds: range, seconds: float, bounds: dict) -> dict:
    report = {}
    for workload in workloads:
        results = []
        for seed in seeds:
            started = time.perf_counter()
            result = run_once(workload, seed, seconds, 0)
            result["run_wall_s"] = time.perf_counter() - started
            results.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values} correct={result['correct']} "
                  f"wall={result['run_wall_s']:.1f}s", flush=True)
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {**summarize(values), "bound": bounds[name], "values": values}
            print(f"  {name}: median {metrics[name]['median']:.4g} "
                  f"spread {metrics[name]['spread']:.4f} bound {bounds[name]}", flush=True)
        report[workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in results),
            "run_wall_s": [r["run_wall_s"] for r in results],
            "provenance": results[0]["provenance"],
            "info": [r["info"] for r in results],
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = [run_set(workloads, range(1, args.runs + 1), args.seconds, bounds)
            for _ in range(args.sets)]
    drift: dict = {}
    for later in sets[1:]:
        for workload, report in later.items():
            for name, summary in report["metrics"].items():
                first = sets[0][workload]["metrics"][name]["median"]
                change = (summary["median"] - first) / first if first else 0.0
                worse = change if better[name] == "lower" else -change
                drift.setdefault(workload, {})[name] = worse
                print(f"{workload} {name}: later set is worse by {worse:+.4f} "
                      f"(bound {bounds[name]})", flush=True)
    if args.out:
        report = {"seconds": args.seconds, "runs": args.runs, "sets": sets, "drift": drift}
        Path(args.out).write_text(json.dumps(report, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
