#!/usr/bin/env python3
"""Certified-verdict benchmark for bvass1.

Run from the repository root:

    python3 bench/run.py --workload dense-random --seed 1 --seconds 20 --trace 0

One client in one process on one thread issues operations back to back
(a closed loop).  An operation repeats in process the library calls that
``bvass1 decide`` makes and then those ``bvass1 check`` makes on the
artifact: parse the system text; decide; for a YES reach extract the
certificate, write it to text, read it back, check it and expand it; for
an unbounded YES check the witness.  Argument parsing and file writes
are left out, so Python start-up does not swamp sub-millisecond work.

Every outcome is checked against the referee in ``workloads`` outside
the timed region.  A wrong verdict, a rejected engine artifact, an
unjustified expansion overflow or any exception counts as failed and
makes the command exit 1.

Each operation runs once, and its latency is that one execution, garbage
collection and all.  Every reported time is scaled to a reference speed
(see ``speed``): a fixed reference loop runs between operations, and a
time taken while the loop ran slow is scaled down by as much.  The
wall-clock figures are printed beside the scaled ones.  With ``--trace 0``
the run reports the end-to-end metrics.  With ``--trace 1`` every operation runs twice, untraced and then
traced: the
traced copy records one span per library call, the per-layer metrics are
computed from those spans and from the objects the calls return, and the
difference between the two copies is the tracing overhead.  Spans are
written to ``bench/results/`` when the run ends.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from speed import REFERENCE_S, Speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

EXPAND_MAX_NODES = 100_000  # the allowance the acceptance suite's round trip uses
SETUP_REPEATS = 11
MIN_OPS = 100  # operations per run, so that ten or more lie beyond the 90th percentile
WALL_LIMIT_S = 120.0  # hard stop for the measuring loop, whatever the floor says

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# public call -> the per-layer time metric its self time counts toward
CALL_METRIC = {
    "parse_bvass": "model.parse_ms",
    "certificate_to_text": "model.parse_ms",
    "certificate_from_text": "model.parse_ms",
    "run_query": "reach.decide_ms",
    "extract_certificate": "reach.extract_ms",
    "check_certificate_report": "reach.check_ms",
    "expand_certificate": "reach.expand_ms",
    "coverable": "cover_bound.cover_ms",
    "unbounded_report": "cover_bound.unbounded_ms",
    "check_unbounded_witness": "cover_bound.witness_check_ms",
    "residue_reachable": "residue.table_ms",
    # probes, run after the operation and outside its time
    "build_gain_graph": "cover_bound.gain_graph_ms",
    "tree_check": "model.tree_check_ms",
}
PROBE_METRICS = {"cover_bound.gain_graph_ms", "model.tree_check_ms"}
LAYERS = ("reach", "model", "residue", "cover_bound")

PER_LAYER = {
    "reach.decide_ms": "ms",
    "reach.contexts": "count",
    "reach.path_bits": "bits",
    "reach.reach_bits": "bits",
    "reach.budget_used": "cells",
    "reach.path_bits_per_context": "bits",
    "reach.extract_ms": "ms",
    "reach.cert_nodes": "count",
    "reach.cert_pumps": "count",
    "reach.check_ms": "ms",
    "reach.check_rejections": "count",
    "reach.expand_ms": "ms",
    "reach.expand_nodes": "count",
    "reach.expand_overflows": "count",
    "reach.expand_ratio": "ratio",
    "model.parse_ms": "ms",
    "model.tree_check_ms": "ms",
    "residue.cache_tables": "count",
    "residue.table_ms": "ms",
    "residue.iterations": "count",
    "residue.window_bits": "bits",
    "cover_bound.cover_ms": "ms",
    "cover_bound.unbounded_ms": "ms",
    "cover_bound.gain_graph_ms": "ms",
    "cover_bound.witness_check_ms": "ms",
    "cover_bound.witness_len": "count",
    "share.reach": "%",
    "share.model": "%",
    "share.residue": "%",
    "share.cover_bound": "%",
    "share.traced": "%",
    "trace.overhead": "%",
    "trace.spans": "count",
}


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: int


class Tracer:
    """Records one span per library call; when off, calls straight through."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self._parent = -1
        self._op = -1

    def root(self, name: str, op: int) -> int:
        self.spans.append(Span(name, time.perf_counter(), 0.0, -1, op))
        self._parent, self._op = len(self.spans) - 1, op
        return self._parent

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._parent = -1

    def __call__(self, name: str, fn: Callable, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), self._parent, self._op))


def self_times_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    return [(sp.end - sp.start - c) * 1000.0 for sp, c in zip(spans, child)]


# ---------------------------------------------------------------------------
# one certified-verdict operation


@dataclass
class Outcome:
    verdict: Optional[bool] = None
    error: Optional[str] = None
    system: Any = None
    state: int = 0
    tables: Any = None
    certificate: Any = None
    checked: Any = None
    tree: Any = None
    rejected: bool = False  # the checker refused the engine's certificate
    overflow: Any = None
    residue_table: Any = None
    witness: Any = None


def certified_verdict(lib, text: str, op, call: Callable) -> Outcome:
    """The calls ``bvass1 decide`` and then ``bvass1 check`` make, in process."""
    out = Outcome()
    system = out.system = call("parse_bvass", lib.parse_bvass, text)
    state = out.state = system.state_id(op.state)
    if op.kind == "reach":
        query = lib.ReachQuery(system, state, op.n)
        tables = out.tables = call("run_query", lib.run_query, query)
        out.verdict = tables.holds(state, op.n)
        if not out.verdict:
            return out
        cert = out.certificate = call("extract_certificate", lib.extract_certificate, query, tables)
        cert_text = call("certificate_to_text", lib.certificate_to_text, system, cert)
        checked = out.checked = call("certificate_from_text", lib.certificate_from_text, system, cert_text)
        ok, why = call(
            "check_certificate_report", lib.check_certificate_report, system, checked, lib.Config(state, op.n)
        )
        if not ok:
            out.rejected = True
            out.error = f"certificate rejected: {why}"
            return out
        try:
            out.tree = call("expand_certificate", lib.expand_certificate, system, cert, max_nodes=EXPAND_MAX_NODES)
        except lib.ExpandOverflow as exc:
            out.overflow = exc
            if exc.needed <= exc.allowed:
                out.error = f"unjustified expansion overflow: {exc}"
    elif op.kind == "cover":
        out.verdict = call("coverable", lib.coverable, system, state, op.n)
    elif op.kind == "residue":
        query = lib.ResidueQuery(system, state, op.n, op.d)
        out.verdict, out.residue_table = call("residue_reachable", lib.residue_reachable, query)
    elif op.kind == "bounded":
        out.verdict, _, witness = call("unbounded_report", lib.unbounded_report, system, state)
        if out.verdict:
            out.witness = witness
            if witness is None:
                out.error = "unbounded verdict without a witness"
                return out
            ok, why = call("check_unbounded_witness", lib.check_unbounded_witness, system, state, witness)
            if not ok:
                out.error = f"witness rejected: {why}"
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
    return out


class OutputCheck:
    """Says why an outcome is wrong, or None; runs outside the timed region.

    An expanded tree is validated in full the first time an operation
    produces it.  The validator is quadratic in tree depth (a doubling hub
    unrolls into a path of 2^k nodes), so a repeat of the same operation
    only has to produce a tree equal to the one already validated.
    """

    def __init__(self, lib):
        self.lib = lib
        self.valid_trees: dict[tuple, int] = {}

    def __call__(self, op, text: str, out: Outcome, expected: Optional[bool]) -> Optional[str]:
        if out.error:
            return out.error
        if expected is not None and out.verdict != expected:
            return f"verdict {out.verdict}, expected {expected}"
        if out.tree is None:
            return None
        key = (text, op.kind, op.state, op.n, op.d)
        digest = hash(frozenset(out.tree.labels.items()))
        if self.valid_trees.get(key) == digest:
            return None
        if out.tree.labels.get("") != self.lib.Config(out.state, op.n):
            return "expanded tree has the wrong root label"
        if not self.lib.is_reachability_tree(out.system, out.tree):
            return "expanded tree is not a reachability tree"
        self.valid_trees[key] = digest
        return None


# ---------------------------------------------------------------------------
# per-layer counts, read off the returned objects


class Counts:
    """Sums of per-call counts, for means per call and totals."""

    def __init__(self):
        self.sums: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0) + value
        self.calls[name] = self.calls.get(name, 0) + 1

    def mean(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.sums[name] / calls if calls else 0.0

    def total(self, name: str) -> float:
        return self.sums.get(name, 0)


def record_counts(counts: Counts, out: Outcome) -> None:
    if out.tables is not None:
        t = out.tables
        counts.add("reach.contexts", len(t.contexts))
        counts.add("reach.path_bits", sum(m.bit_count() for c in t.contexts for m in c.masks))
        counts.add("reach.reach_bits", sum(m.bit_count() for m in t.reach_masks))
        counts.add("reach.budget_used", t.budget.used)
        counts.add("residue.cache_tables", t.residue_cache.tables_built)
    if out.certificate is not None:
        counts.add("reach.cert_nodes", len(out.certificate.tree))
        counts.add("reach.cert_pumps", len(out.certificate.pumps))
    if out.rejected:
        counts.add("reach.check_rejections", 1)
    if out.tree is not None:
        counts.add("reach.expand_nodes", len(out.tree))
        counts.add("expanded_cert_nodes", len(out.certificate.tree))
    if out.overflow is not None:
        counts.add("reach.expand_overflows", 1)
    if out.residue_table is not None:
        counts.add("residue.iterations", out.residue_table.iterations)
        counts.add("residue.window_bits", sum(m.bit_count() for m in out.residue_table.s_masks))
    if out.witness is not None:
        counts.add("cover_bound.witness_len", len(out.witness.transitions))


def run_probes(lib, tracer: Tracer, op_id: int, op, out: Outcome) -> None:
    """Layer probes with no call of their own inside the operation."""
    probe = tracer.root("probe", op_id)
    if op.kind == "bounded":
        tracer("build_gain_graph", lib.build_gain_graph, out.system)
    if out.checked is not None:
        tree = out.checked.tree
        tracer("tree_check", _tree_check, lib, out.system, tree)
    tracer.close(probe)


def _tree_check(lib, system, tree) -> None:
    lib.validate_partial_tree_report(system, tree)
    lib.classify_nodes(tree)
    lib.is_exclusive(tree)


# ---------------------------------------------------------------------------
# the measuring loop


@dataclass
class RunResult:
    # latencies (s) of the successful untraced and traced executions, and
    # the family of each successful untraced one
    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter start of each latency
    traced_latencies: list[float] = field(default_factory=list)
    families: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    oracle_s: float = 0.0
    verify_s: float = 0.0
    wall_s: float = 0.0


def measure(lib, population, referee, seconds: float, traced: bool, min_ops: int, tracer: Tracer, counts: Counts,
            set_up: Callable[[], None], speed: Speed) -> RunResult:
    """Issue the population's operations in order, each once (untraced and
    then traced when ``traced``), until ``seconds`` of operation time are
    used, at least ``min_ops`` operations ran and the mix's cycle is whole.

    ``set_up`` runs SETUP_REPEATS times between operations, spread evenly
    over the operation time, so set-up samples the machine's speed over the
    whole run as the operations do.  ``speed`` probes the host between
    operations, and before and after the loop.
    """
    res = RunResult()
    check = OutputCheck(lib)
    plain = Tracer(False)
    ops = population.ops
    started = time.perf_counter()
    op_time = 0.0

    def execute(j: int) -> None:
        nonlocal op_time
        op = ops[j % len(ops)]
        info = population.systems[op.system]
        t1 = time.perf_counter()
        expected = referee.expected(op)
        res.oracle_s += time.perf_counter() - t1
        copies = ((plain, res.latencies), (tracer, res.traced_latencies)) if traced else ((plain, res.latencies),)
        for call, samples in copies:
            res.attempted += 1
            root = call.root("op", j) if call.on else -1
            t0 = time.perf_counter()
            try:
                out = certified_verdict(lib, info.text, op, call)
            except Exception:
                out = Outcome(error=traceback.format_exc(limit=3).strip())
            elapsed = time.perf_counter() - t0
            if call.on:
                call.close(root)
            op_time += elapsed
            t2 = time.perf_counter()
            why = check(op, info.text, out, expected)
            if call.on:
                record_counts(counts, out)
                if why is None:
                    run_probes(lib, call, j, op, out)
            res.verify_s += time.perf_counter() - t2
            if why is None:
                samples.append(elapsed)
                if not call.on:
                    res.starts.append(t0)
                    res.families.append(info.family)
            else:
                res.failures.append(f"op {j} {info.family} {op}: {why}")
            out = None  # free the engine's tables here, not inside the next timed operation

    def in_time() -> bool:
        return time.perf_counter() - started < WALL_LIMIT_S

    for _ in range(3):
        speed.probe()
    count = set_ups = 0
    while (op_time < seconds or count < min_ops or count % population.cycle) and in_time():
        if set_ups < SETUP_REPEATS and op_time >= set_ups * seconds / SETUP_REPEATS:
            set_up()
            set_ups += 1
        execute(count)
        speed.maybe_probe()
        count += 1
    for _ in range(set_ups, SETUP_REPEATS):
        set_up()
        speed.probe()
    speed.probe()
    res.wall_s = time.perf_counter() - started
    return res


# ---------------------------------------------------------------------------
# metrics


def end_to_end(latencies: list[float], setup_times: list[float]) -> dict[str, float]:
    lat_ms = sorted(x * 1000.0 for x in latencies)
    return {
        "verdicts_per_s": len(lat_ms) / (sum(lat_ms) / 1000.0) if lat_ms else 0.0,
        "verdict_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "verdict_p90_ms": p90(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(res: RunResult, tracer: Tracer, counts: Counts, speed: Speed) -> dict[str, float]:
    spans = tracer.spans
    scale: dict[int, float] = {}  # per operation, taken at the start of its traced copy
    for sp in spans:
        if sp.parent < 0 and sp.op not in scale:
            scale[sp.op] = speed.scale(sp.start)
    self_ms = [own * scale[sp.op] for sp, own in zip(spans, self_times_ms(spans))]
    is_probe = [sp.name == "probe" for sp in spans]
    layer_ms: dict[str, float] = {}
    op_ms = 0.0
    in_ops = 0.0
    for sp, own in zip(spans, self_ms):
        if sp.parent < 0:
            if sp.name == "op":
                op_ms += (sp.end - sp.start) * 1000.0 * scale[sp.op]
            continue
        metric = CALL_METRIC[sp.name]
        layer_ms[metric] = layer_ms.get(metric, 0.0) + own
        if not is_probe[sp.parent]:
            in_ops += own
            layer = metric.split(".")[0]
            layer_ms[layer] = layer_ms.get(layer, 0.0) + own
    n_ops = max(1, len(res.traced_latencies))
    n_probed = max(1, sum(1 for sp in spans if sp.name == "probe"))
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith("_ms"):
            out[name] = layer_ms.get(name, 0.0) / (n_probed if name in PROBE_METRICS else n_ops)
    for layer in LAYERS:
        out[f"share.{layer}"] = 100.0 * layer_ms.get(layer, 0.0) / op_ms if op_ms else 0.0
    out["share.traced"] = 100.0 * in_ops / op_ms if op_ms else 0.0
    for name in ("reach.contexts", "reach.path_bits", "reach.reach_bits", "reach.budget_used",
                 "residue.cache_tables", "reach.cert_nodes", "reach.cert_pumps", "reach.expand_nodes",
                 "residue.iterations", "residue.window_bits", "cover_bound.witness_len"):
        out[name] = counts.mean(name)
    contexts = counts.total("reach.contexts")
    out["reach.path_bits_per_context"] = counts.total("reach.path_bits") / contexts if contexts else 0.0
    out["reach.check_rejections"] = counts.total("reach.check_rejections")
    out["reach.expand_overflows"] = counts.total("reach.expand_overflows")
    cert_nodes = counts.total("expanded_cert_nodes")
    out["reach.expand_ratio"] = counts.total("reach.expand_nodes") / cert_nodes if cert_nodes else 0.0
    plain, traced = sum(res.latencies), sum(res.traced_latencies)
    out["trace.overhead"] = 100.0 * (traced / plain - 1.0) if plain else 0.0
    out["trace.spans"] = float(len(spans))
    return out


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict[str, Any]:
    return {
        "revision": git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def write_spans(workload: str, seed: int, spans: list[Span], origin: float) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i, sp in enumerate(spans):
            handle.write(json.dumps({
                "span": i, "op": sp.op, "name": sp.name, "parent": sp.parent,
                "start_s": round(sp.start - origin, 9), "end_s": round(sp.end - origin, 9),
            }) + "\n")
    return path


def load_library():
    """Import bvass1 from the checkout's ``src``; None when it is not there."""
    if not (SRC / "bvass1" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bvass1
    import bvass1.cover_bound

    lib = argparse.Namespace(**{name: getattr(bvass1, name) for name in bvass1.__all__})
    lib.build_gain_graph = bvass1.cover_bound.build_gain_graph
    return lib


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("dense-random", "big-certificate", "bounded-cover"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every generator, for the benchmark's own tests")
    return parser.parse_args(argv)


def timed_set_up(workloads, workload: str, seed: int, tiny: bool) -> float:
    """The time of one set-up: a fresh import of bvass1 and a build of the workload.

    The run keeps the modules it started with: the fresh ones, and the
    population, are dropped again outside the timed region.
    """
    kept = {name: m for name, m in sys.modules.items() if name == "bvass1" or name.startswith("bvass1.")}
    for name in kept:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("bvass1")
    workloads.build(workload, seed, tiny)
    elapsed = time.perf_counter() - t0
    for name in [name for name in sys.modules if name == "bvass1" or name.startswith("bvass1.")]:
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()  # the dropped modules are cyclic garbage; collect it here, not inside an operation
    return elapsed


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    tiny = args.size == "tiny"
    lib = load_library()
    if lib is None:
        print(f"bench: no bvass1 sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    import workloads

    population = workloads.build(args.workload, args.seed, tiny)
    setups: list[tuple[float, float]] = []  # (midpoint, seconds) of each timed set-up

    def set_up() -> None:
        t0 = time.perf_counter()
        elapsed = timed_set_up(workloads, args.workload, args.seed, tiny)
        setups.append((t0 + elapsed / 2, elapsed))

    traced = bool(args.trace)
    tracer = Tracer(traced)
    counts = Counts()
    speed = Speed()
    origin = time.perf_counter()
    # the percentile floor matters only to the end-to-end run
    min_ops = 1 if tiny or traced else MIN_OPS
    res = measure(lib, population, workloads.Referee(population.systems), args.seconds, traced, min_ops, tracer, counts,
                  set_up, speed)

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{res.attempted} executions of {len(res.latencies)} operations over {len(population.systems)} systems")
    families: dict[str, list[float]] = {}
    for family, latency in zip(res.families, res.latencies):
        families.setdefault(family, []).append(latency)
    for family, lat in sorted(families.items()):
        print(f"family {family}: {len(lat)} operations, mean {1000 * statistics.fmean(lat):.3f} ms")
    print(f"run wall {res.wall_s:.3f} s, referee (oracle) {res.oracle_s:.3f} s, output checks {res.verify_s:.3f} s")
    print(f"reference loop: {len(speed.durations)} probes, median {1000 * speed.median_s():.4f} ms "
          f"(scaled times assume {1000 * REFERENCE_S:g} ms)")
    for line in res.failures:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(res.failures)
    print(f"failed_ratio {failed / res.attempted if res.attempted else 0.0:.6f} - ({failed} of {res.attempted})")

    if traced:
        metrics = per_layer(res, tracer, counts, speed)
        units = PER_LAYER
        path = write_spans(args.workload, args.seed, tracer.spans, origin)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        wall = end_to_end(res.latencies, [elapsed for _, elapsed in setups])
        print("wall-clock, unscaled: " + ", ".join(
            f"{name} {wall[name]:.6g} {END_TO_END[name]}" for name in END_TO_END if name != "peak_rss_mb"))
        scaled = [x * speed.scale(t) for t, x in zip(res.starts, res.latencies)]
        metrics = end_to_end(scaled, [elapsed * speed.scale(moment) for moment, elapsed in setups])
        units = END_TO_END
    for name, value in metrics.items():
        note = ""
        if name == "verdict_p90_ms":
            note = f"  (n={len(scaled)}, {sum(1 for x in scaled if x * 1000.0 > value)} beyond)"
        print(f"{name} {value:.6g} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": res.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
