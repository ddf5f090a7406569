"""Command-line front end.

Subcommands: ``decide`` (reach/cover/bounded/residue with optional
certificate extraction and expansion), ``check`` (re-validate a
certificate), ``export-dot`` (render a tree or certificate file as
Graphviz DOT, each shared def drawn once),
``gen`` (instance generators), ``oracle`` (bounded brute-force referee,
results labeled with their cap).

Verdicts are one machine-parseable stdout line (``YES``/``NO``, or a
JSON object with ``--json``); diagnostics go to stderr.  Exit codes:
0 yes, 1 no, 2 usage, parse, or budget errors.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from .check import check_certificate_report
from .cover_bound import coverable, unbounded_report
from .gen import (
    gen_binary_constant,
    gen_doubling,
    gen_mcvp,
    gen_random,
    gen_subset_sum,
    parse_circuit,
)
from .model import (
    Budget,
    BudgetExceeded,
    Bvass1,
    Config,
    FormatError,
    PartialTree,
    SemanticError,
    Witness,
    _transition,
    _transition_line,
    certificate_from_text,
    certificate_to_text,
    classify_nodes,
    format_bvass,
    parse_bvass,
    raw_tree_from_text,
    tree_to_text,
)
from .oracle import bounded_reach_set, oracle_residue, oracle_unbounded_hint
from .reach import ExpandOverflow, ReachQuery, WitnessSearchFailed, expand_certificate, extract_certificate, run_query
from .residue import ResidueQuery, residue_reachable


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _nat(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a natural number")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a natural number")
    return value


def _read_text(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CliError(f"{path}: line {line}: not UTF-8 text ({exc.reason})")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _load_system(path: str) -> Bvass1:
    text = _read_text(path)
    try:
        return parse_bvass(text)
    except (FormatError, SemanticError) as exc:
        raise CliError(f"--system {path}: {exc}")


def _state_id(system: Bvass1, name: str) -> int:
    try:
        return system.state_id(name)
    except SemanticError:
        raise CliError(f"--state {name}: no such state")


def _budget(args) -> Budget:
    """The command's one budget: ``--budget``, else ``BVASS1_BUDGET``, else the default."""
    if args.budget is not None:
        return Budget(args.budget)
    raw = os.environ.get("BVASS1_BUDGET")
    if raw is None:
        return Budget()
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"BVASS1_BUDGET={raw!r} is not an integer")
    if value <= 0:
        raise CliError(f"BVASS1_BUDGET={raw!r} must be positive")
    return Budget(value)


class _Timer:
    def __init__(self) -> None:
        self.phases: dict[str, float] = {}

    @contextlib.contextmanager
    def time(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - start) * 1000.0
            self.phases[phase] = self.phases.get(phase, 0.0) + elapsed

    def as_ms(self) -> dict[str, float]:
        return {phase: round(ms, 3) for phase, ms in self.phases.items()}


def _emit_verdict(
    args, verdict: bool, problem: str, query: dict, certificate_path, timer: _Timer, reason: str | None = None
) -> int:
    if getattr(args, "json", False):
        report = {
            "verdict": "yes" if verdict else "no",
            "problem": problem,
            "query": query,
            "certificatePath": certificate_path,
            "timings": timer.as_ms(),
        }
        if reason is not None:
            report["reason"] = reason
        print(json.dumps(report))
    else:
        print("YES" if verdict else "NO")
    return 0 if verdict else 1


def _require(args, flag: str):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise CliError(f"{flag} is required for this problem")
    return value


def _witness_lines(system: Bvass1, witness: Witness) -> list[str]:
    lines = [f"witness re-entry {witness.j}"]
    lines.append("witness states " + " ".join(system.state_name(q) for q in witness.states))
    for i, rule in enumerate(witness.transitions, start=1):
        side = f" n_i={witness.n_values[i - witness.j - 1]}" if i > witness.j else ""
        lines.append(f"witness step {i} {_transition_line(system, _transition(system, rule))}{side}")
    return lines


def _cmd_decide(args) -> int:
    timer = _Timer()
    budget = _budget(args)
    with timer.time("parse"):
        system = _load_system(args.system)
        state = _state_id(system, args.state)
    query_echo = {"system": args.system, "state": args.state}

    if args.certificate is not None and args.problem != "reach":
        raise CliError("--certificate applies only to problem reach")
    if args.expand is not None and args.certificate is None:
        raise CliError("--expand requires --certificate for the output path")
    if args.witness and args.problem != "bounded":
        raise CliError("--witness applies only to problem bounded")

    certificate_path = None
    if args.problem == "reach":
        n = _require(args, "--n")
        query_echo["n"] = n
        with timer.time("decide"):
            tables = run_query(ReachQuery(system, state, n), budget)
            verdict = tables.holds(state, n)
        if verdict and args.certificate is not None:
            with timer.time("certificate"):
                certificate = extract_certificate(ReachQuery(system, state, n), tables)
                _write_text(args.certificate, certificate_to_text(system, certificate))
            certificate_path = args.certificate
            if args.expand is not None:
                with timer.time("expand"):
                    try:
                        tree = expand_certificate(system, certificate, args.expand)
                    except ExpandOverflow as exc:
                        print(f"expansion overflow: {exc}", file=sys.stderr)
                    except WitnessSearchFailed as exc:
                        print(f"expansion failed: {exc}", file=sys.stderr)
                    else:
                        _write_text(args.certificate + ".expanded", tree_to_text(system, tree))
        return _emit_verdict(args, verdict, "reach", query_echo, certificate_path, timer, tables.reason)

    if args.problem == "cover":
        n = _require(args, "--n")
        query_echo["n"] = n
        with timer.time("decide"):
            verdict = coverable(system, state, n, budget)
        return _emit_verdict(args, verdict, "cover", query_echo, None, timer)

    if args.problem == "residue":
        n = _require(args, "--n")
        d = _require(args, "--d")
        if d < 1:
            raise CliError("--d must be >= 1")
        query_echo["n"] = n
        query_echo["d"] = d
        with timer.time("decide"):
            verdict, _ = residue_reachable(ResidueQuery(system, state, n, d), budget)
        return _emit_verdict(args, verdict, "residue", query_echo, None, timer)

    # bounded: YES means the reach set is finite
    with timer.time("decide"):
        is_unbounded, reason, witness = unbounded_report(system, state, budget)
    print(reason, file=sys.stderr)
    code = _emit_verdict(args, not is_unbounded, "bounded", query_echo, None, timer)
    if is_unbounded and args.witness and witness is not None:
        for line in _witness_lines(system, witness):
            print(line)
    return code


def _cmd_check(args) -> int:
    budget = _budget(args)
    system = _load_system(args.system)
    state = _state_id(system, args.state)
    text = _read_text(args.certificate)
    try:
        certificate = certificate_from_text(system, text)
    except (FormatError, SemanticError) as exc:
        raise CliError(f"--certificate {args.certificate}: {exc}")
    if "" not in certificate.tree.labels and "" not in certificate.grafts:
        raise CliError(f"--certificate {args.certificate}: no root node")
    ok, reason = check_certificate_report(system, certificate, Config(state, args.n), budget)
    if not ok:
        print(reason, file=sys.stderr)
    print("YES" if ok else "NO")
    return 0 if ok else 1


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_export_dot(args) -> int:
    text = _read_text(args.tree)
    defs: dict = {}
    grafts: dict[str, int] = {}
    try:
        labels = raw_tree_from_text(text, defs, grafts)
    except (FormatError, SemanticError) as exc:
        raise CliError(f"--tree {args.tree}: {exc}")
    if "" not in labels:
        raise CliError(f"--tree {args.tree}: no root node")

    def key(addr: str) -> str:
        # a graft leaf is drawn as the def it names, once for all its grafts
        if addr in grafts:
            return f"d{grafts[addr]}"
        return addr or "e"

    def node(name: str, label: tuple[str, int]) -> str:
        return f"  {_dot_quote(name)} [label={_dot_quote(f'{label[0]}({label[1]})')}];"

    lines = ["digraph tree {"]
    order = sorted(labels, key=lambda a: (len(a), a))
    lines += [node(key(addr), labels[addr]) for addr in order if addr not in grafts]
    lines += [node(f"d{i}", label) for i, (label, _) in defs.items()]
    for addr in order:
        for child in (addr + "0", addr + "1"):
            if child in labels:
                lines.append(f"  {_dot_quote(key(addr))} -> {_dot_quote(key(child))};")
    for i, (_, kids) in defs.items():
        lines += [f"  {_dot_quote(f'd{i}')} -> {_dot_quote(f'd{c}')};" for c in kids]
    if args.mark_anchors:
        ids: dict[str, int] = {}
        tree = PartialTree(
            {a: Config(ids.setdefault(name, len(ids)), c) for a, (name, c) in labels.items()}
        )
        anchor_of = classify_nodes(tree).anchor_of
        for addr in order:
            if addr in anchor_of and tree.is_leaf(addr) and addr not in grafts:
                anchor = anchor_of[addr]
                lines.append(f"  {_dot_quote(key(anchor))} -> {_dot_quote(key(addr))} [style=dashed];")
    lines.append("}")
    print("\n".join(lines))
    return 0


def _emit_system(args, system: Bvass1, entry: str | None) -> int:
    text = ""
    if entry is not None:
        text += f"# entry {entry}\n"
    text += format_bvass(system)
    if args.out is not None:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    if args.family == "doubling":
        return _emit_system(args, gen_doubling(args.n), None)
    if args.family == "const":
        try:
            system, entry = gen_binary_constant(args.m)
        except ValueError as exc:
            raise CliError(f"--m {args.m}: {exc}")
        return _emit_system(args, system, system.state_name(entry))
    if args.family == "mcvp":
        try:
            gates = parse_circuit(_read_text(args.circuit))
        except (FormatError, SemanticError) as exc:
            raise CliError(f"--circuit {args.circuit}: {exc}")
        system, gate_states = gen_mcvp(gates)
        return _emit_system(args, system, system.state_name(gate_states[-1]))
    if args.family == "subsetsum":
        try:
            values = [int(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise CliError(f"--values {args.values!r}: expected comma-separated integers")
        try:
            system, entry = gen_subset_sum(values, args.target)
        except ValueError as exc:
            raise CliError(str(exc))
        return _emit_system(args, system, system.state_name(entry))
    try:
        system = gen_random(args.states, args.unary, args.branch, args.finals, args.seed)
    except ValueError as exc:
        raise CliError(f"--states {args.states}: {exc}")
    return _emit_system(args, system, None)


def _cmd_oracle(args) -> int:
    system = _load_system(args.system)
    state = _state_id(system, args.state)
    label = f"(up to cap {args.cap})"
    try:
        if args.kind == "reach":
            verdict = bounded_reach_set(system, args.cap).contains(state, args.n)
        elif args.kind == "cover":
            verdict = oracle_residue(system, state, args.n, 1, args.cap)
        elif args.kind == "residue":
            if args.d < 1:
                raise CliError("--d must be >= 1")
            verdict = oracle_residue(system, state, args.n, args.d, args.cap)
        else:  # unbounded-hint
            hint = oracle_unbounded_hint(system, state, args.cap)
            print(f"{hint} {label}")
            return 0 if hint == "unbounded-proven" else 1
    except ValueError as exc:
        raise CliError(str(exc))
    print(f"{'YES' if verdict else 'NO'} {label}")
    return 0 if verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvass1",
        description="Reachability, coverability and boundedness decisions "
        "for one-dimensional branching counter systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="run a decision procedure")
    p.add_argument("problem", choices=["reach", "cover", "bounded", "residue"])
    p.add_argument("--system", required=True, help="system file")
    p.add_argument("--state", required=True, help="queried state name")
    p.add_argument("--n", type=_nat, help="counter value (reach/cover/residue)")
    p.add_argument("--d", type=_nat, help="modulus (residue)")
    p.add_argument("--certificate", metavar="OUT", help="write certificate here (reach, YES only)")
    p.add_argument(
        "--expand",
        type=_nat,
        metavar="MAXNODES",
        help="also expand the certificate into a full tree (<certificate>.expanded)",
    )
    p.add_argument("--witness", action="store_true", help="print the witness walk (bounded, NO only)")
    p.add_argument("--json", action="store_true", help="emit a one-line JSON report")
    p.add_argument("--budget", type=_nat, help="table entry budget (default env BVASS1_BUDGET)")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("check", help="validate a certificate against a claim")
    p.add_argument("--system", required=True)
    p.add_argument("--certificate", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=_nat, required=True)
    p.add_argument("--budget", type=_nat, help="table entry budget (default env BVASS1_BUDGET)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("export-dot", help="render a tree or certificate file as DOT")
    p.add_argument("--tree", required=True)
    p.add_argument("--mark-anchors", action="store_true")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("gen", help="generate instance families")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("doubling")
    g.add_argument("--n", type=_nat, required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("const")
    g.add_argument("--m", type=_nat, required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("mcvp")
    g.add_argument("--circuit", required=True, help="one gate per line: T, F, AND i j, OR i j")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("subsetsum")
    g.add_argument("--values", required=True, help="comma-separated positive integers")
    g.add_argument("--target", type=_nat, required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("random")
    g.add_argument("--states", type=_nat, required=True)
    g.add_argument("--unary", type=_nat, required=True)
    g.add_argument("--branch", type=_nat, required=True)
    g.add_argument("--finals", type=_nat, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="bounded brute-force referee")
    p.add_argument("kind", choices=["reach", "residue", "cover", "unbounded-hint"])
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=_nat, default=0)
    p.add_argument("--d", type=_nat, default=1)
    p.add_argument("--cap", type=_nat, required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
