"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads pkt_search,grid_reject --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --traced --append "seed code"

For every workload and end-to-end metric this prints the median of the runs
and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json. ``--traced`` adds one traced run per
workload, with the first seed. ``--append LABEL`` stores the medians,
quartiles, traced metrics and provenance as a new entry of
perfbench/results.json. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (result line, the labelled JSON lines)."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{done.returncode}:\n{done.stderr[-4000:]}")
    labelled = {}
    for line in lines[:-1]:
        label, sep, rest = line.partition(": ")
        if sep and rest.startswith("{"):
            labelled[label] = json.loads(rest)
    return json.loads(lines[-1]), labelled


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def spread_or_zero(values: list[float]) -> dict:
    if not any(values):
        return {"median": 0.0}
    med, q1, q3, sp = spread(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": sp}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--append", metavar="LABEL")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    entry = {"label": args.append, "seeds": seeds, "run_seconds": args.seconds,
             "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        summaries = []
        for seed in seeds:
            began = time.perf_counter()
            result, labelled = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            summaries.append(labelled["summary"])
            print(f"{workload} seed {seed} ({time.perf_counter() - began:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        prov = labelled["provenance"]
        entry["provenance"] = {k: v for k, v in prov.items()
                               if k not in ("workload", "why", "seed", "corpus_seed")}
        summary = {"why": prov["why"], "corpus_seed": prov["corpus_seed"],
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs), "metrics": {},
                   # Off the result line because it reads 0 where no mindeg job runs.
                   "solve_s.mindeg": spread_or_zero([s["solve_s.mindeg"] for s in summaries]),
                   "wall_solve_s": spread_or_zero([s["wall"]["solve_s"] for s in summaries])}
        print(f"{workload}: {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or sp < bound / 3 else "  <-- above bound/3"
            print(f"{workload}: {name:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{sp:>8.4f} {bound!s:>6}{flag}")
            summary["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"],
                                        "median": med, "q1": q1, "q3": q3,
                                        "spread": sp, "values": values}
        if args.traced:
            traced, labelled = run_once(workload, seeds[0], args.seconds, 1)
            summary["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
            summary["layer_share_of_traced_solve"] = labelled["layer share of traced solve_s"]
            print(f"{workload} traced: " + json.dumps(summary["traced"]), flush=True)
        entry["workloads"][workload] = summary

    if args.append:
        results = json.loads(RESULTS.read_text()) if RESULTS.exists() else {"entries": []}
        results["entries"].append(entry)
        RESULTS.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
