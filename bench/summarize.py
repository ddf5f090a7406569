#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the result as a BENCH file.

Run from the repository root:

    python3 bench/summarize.py --label baseline --seeds 1-10 --out bench/BENCH_baseline.json
    python3 bench/summarize.py --compare bench/BENCH_baseline.json bench/results/BENCH_new.json

Every workload of ``BENCHMARK.json`` is run for every seed, one
``bench/run.py --trace 0`` process at a time, for ``run_seconds``; one more
``--trace 1`` run per workload, on the first seed, adds the per-layer
split.  For every end-to-end metric the file holds the ten values, their
median and quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread: the distance between the quartiles as a share of the
median.  A spread over a third of the metric's bound is flagged WIDE and
makes the command exit 3.

``--compare`` prints, per workload and metric, how the second file's
median moved against the first's and whether that stays within the bound
in either direction; it exits 1 if a metric got worse beyond its bound.
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
RUN_TIMEOUT_S = 180


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}{done.stdout}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"seed": seed, "wall_s": round(wall, 3), "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "env": env,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def collect(args: argparse.Namespace) -> dict:
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record: dict = {"label": args.label, "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "run_seconds": seconds, "seeds": seeds, "env": None, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, 0)
            record["env"] = run.pop("env")
            runs.append(run)
            print(f"{workload} seed {seed}: {json.dumps(run['metrics'])} wall {run['wall_s']} s", flush=True)
        summary = {}
        for name, meta in bounds.items():
            s = summarize([r["metrics"][name] for r in runs])
            s.update(unit=meta["unit"], bound=meta["bound"])
            summary[name] = s
        traced = run_once(workload, seeds[0], seconds, 1)
        traced.pop("env")
        record["workloads"][workload] = {"runs": runs, "summary": summary, "traced": traced}
    return record


def print_spreads(record: dict) -> bool:
    steady = True
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            flag = ""
            if s["spread"] > s["bound"] / 3:
                flag = "  WIDE (over a third of the bound)"
                steady = False
            print(f"{workload:16s} {name:16s} median {s['median']:12.6g} {s['unit']:4s} "
                  f"spread {100 * s['spread']:6.2f}% bound {100 * s['bound']:.0f}%{flag}")
    return steady


def compare(base_path: str, new_path: str) -> int:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    worse = differ = 0
    for workload, entry in base["workloads"].items():
        if workload not in new["workloads"]:
            print(f"{workload}: missing from {new_path}")
            continue
        for name, s in entry["summary"].items():
            b, n = s["median"], new["workloads"][workload]["summary"][name]["median"]
            change = (n - b) / b if b else 0.0
            loss = change if better[name] == "lower" else -change
            if loss > s["bound"]:
                verdict = "worse beyond bound"
            elif -loss > s["bound"]:
                verdict = "better beyond bound"
            else:
                verdict = "within bound"
            worse += loss > s["bound"]
            differ += abs(change) > s["bound"]
            print(f"{workload:16s} {name:16s} {b:12.6g} -> {n:12.6g} ({100 * change:+.1f}%) {verdict}")
    print(f"{differ} metric(s) moved beyond their bound, {worse} of them for the worse")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    parser.add_argument("--out", help="default: bench/results/BENCH_<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    record = collect(args)
    out = Path(args.out) if args.out else BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0 if print_spreads(record) else 3


if __name__ == "__main__":
    sys.exit(main())
