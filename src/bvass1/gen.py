"""Instance generators.

Structured families used by the tests and the CLI:

- a doubling family whose hub state can reach exactly the interval
  [0, 2^n] while the cascade states reach single powers of two, forcing
  exponentially deep pumping;
- constant gadgets accepting exactly one counter value, built on top of
  the doubling cascade with a binary bit chain (logarithmic state count);
- an encoding of monotone boolean circuit evaluation;
- an encoding of subset sum over such constant gadgets;
- seeded random systems for differential testing.

All generators return ordinary systems in the model module's format and
are deterministic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .model import Bvass1, BranchTransition, FormatError, SemanticError, UnaryTransition


def gen_doubling(n: int, prefix: str = "") -> Bvass1:
    """Doubling family: hub ``q`` reaches [0, 2^n], cascade ``q_i`` exactly {2^i}.

    States q, q_f, q_0 .. q_n.  The hub pumps +1 and may jump to the top
    of the cascade at any time; cascade level i splits into two copies
    of level i-1 and the bottom level steps -1 into the final state, so
    level i consumes exactly 2^i.  ``prefix`` namespaces the state names
    for composition into larger systems.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    names = [f"{prefix}q", f"{prefix}q_f"] + [f"{prefix}q_{i}" for i in range(n + 1)]
    hub, final = 0, 1
    level = [2 + i for i in range(n + 1)]
    unary = [
        UnaryTransition(hub, 1, hub),
        UnaryTransition(hub, 0, level[n]),
        UnaryTransition(level[0], -1, final),
    ]
    branching = [BranchTransition(level[i], level[i - 1], level[i - 1]) for i in range(n, 0, -1)]
    return Bvass1(tuple(names), tuple(unary), tuple(branching), frozenset({final}))


def gen_binary_constant(m: int, prefix: str = "") -> tuple[Bvass1, int]:
    """Gadget whose entry state reaches exactly the counter value ``m`` >= 1.

    Extends the doubling base with a bit chain q_m, q_m_n .. q_m_0 that
    peels the binary digits of m most significant first: a set bit i >= 1
    splits off a cascade branch consuming exactly 2^i, a clear bit passes
    through; the lowest bit either splits into cascade level 0 and the
    final state or steps straight to the final state.  Rejects m = 0,
    which the wiring cannot express (the level-0 branch always consumes
    one token); callers needing constant 0 use a final state directly.

    Returns the system and the entry state id.
    """
    if m < 1:
        raise ValueError("constant must be >= 1")
    n = m.bit_length() - 1
    base = gen_doubling(n, prefix=prefix)
    names = list(base.state_names)
    unary = list(base.unary)
    branching = list(base.branching)
    final = 1
    level = [2 + i for i in range(n + 1)]

    entry = len(names)
    names.append(f"{prefix}q_m")
    chain = []
    for i in range(n, -1, -1):
        chain.append(len(names))
        names.append(f"{prefix}q_m_{i}")
    chain.reverse()  # chain[i] handles bit i
    unary.append(UnaryTransition(entry, 0, chain[n]))
    for i in range(n, 0, -1):
        if (m >> i) & 1:
            branching.append(BranchTransition(chain[i], level[i], chain[i - 1]))
        else:
            unary.append(UnaryTransition(chain[i], 0, chain[i - 1]))
    if m & 1:
        branching.append(BranchTransition(chain[0], level[0], final))
    else:
        unary.append(UnaryTransition(chain[0], 0, final))
    system = Bvass1(tuple(names), tuple(unary), tuple(branching), frozenset(base.finals))
    return system, entry


@dataclass(frozen=True)
class Gate:
    """One gate of a monotone boolean circuit: T, F, AND i j, or OR i j."""

    kind: str
    left: int = 0
    right: int = 0


def parse_circuit(text: str) -> list[Gate]:
    """One gate per line, inputs referenced by 1-based line number."""
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind in ("T", "F"):
            if len(tokens) != 1:
                raise FormatError(line_no, f"{kind} takes no arguments")
            gates.append(Gate(kind))
        elif kind in ("AND", "OR"):
            if len(tokens) != 3:
                raise FormatError(line_no, f"{kind} needs two gate numbers")
            try:
                left, right = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise FormatError(line_no, "gate numbers must be integers") from None
            idx = len(gates) + 1
            if not (1 <= left < idx and 1 <= right < idx):
                raise SemanticError(f"line {line_no}: gate inputs must reference earlier lines")
            gates.append(Gate(kind, left, right))
        else:
            raise FormatError(line_no, f"unknown gate kind {kind!r}")
    if not gates:
        raise FormatError(1, "empty circuit")
    return gates


def format_circuit(gates: list[Gate]) -> str:
    lines = []
    for g in gates:
        lines.append(g.kind if g.kind in ("T", "F") else f"{g.kind} {g.left} {g.right}")
    return "\n".join(lines) + "\n"


def eval_circuit(gates: list[Gate]) -> bool:
    """Value of the last gate."""
    vals: list[bool] = []
    for g in gates:
        if g.kind == "T":
            vals.append(True)
        elif g.kind == "F":
            vals.append(False)
        elif g.kind == "AND":
            vals.append(vals[g.left - 1] and vals[g.right - 1])
        else:
            vals.append(vals[g.left - 1] or vals[g.right - 1])
    return vals[-1]


def gen_mcvp(gates: list[Gate]) -> tuple[Bvass1, tuple[int, ...]]:
    """Encode circuit evaluation: gate i's state reaches 0 iff gate i is true.

    True constants are final states, AND gates branch to both inputs, OR
    gates step (shift 0) to either input, false constants get no
    transition at all.  Returns the system and the state id per gate.
    """
    names = tuple(f"g{i}" for i in range(1, len(gates) + 1))
    unary: list[UnaryTransition] = []
    branching: list[BranchTransition] = []
    finals: set[int] = set()
    for i, g in enumerate(gates):
        if g.kind == "T":
            finals.add(i)
        elif g.kind == "AND":
            branching.append(BranchTransition(i, g.left - 1, g.right - 1))
        elif g.kind == "OR":
            unary.append(UnaryTransition(i, 0, g.left - 1))
            unary.append(UnaryTransition(i, 0, g.right - 1))
    system = Bvass1(names, tuple(unary), tuple(branching), frozenset(finals))
    return system, tuple(range(len(gates)))


def gen_subset_sum(values: list[int], target: int) -> tuple[Bvass1, int]:
    """Encode subset sum: the entry state q_c1 reaches exactly the subset sums.

    A chain of choice states q_c1 .. q_c{k+1} either skips value i
    (shift-0 edge) or splits off its constant gadget; the end of the
    chain steps into a final sink that absorbs only 0.  q_c1(target) is
    reachable iff some sub-multiset of ``values`` sums to ``target``.
    ``target`` is validated but not wired into the system; it lives in
    the query.
    """
    if not values:
        raise ValueError("values must be nonempty")
    if any(v < 1 for v in values):
        raise ValueError("values must be >= 1")
    if target < 0:
        raise ValueError("target must be >= 0")
    names: list[str] = []
    unary: list[UnaryTransition] = []
    branching: list[BranchTransition] = []
    finals: set[int] = set()

    k = len(values)
    choice = []
    for i in range(1, k + 2):
        choice.append(len(names))
        names.append(f"q_c{i}")
    sink = len(names)
    names.append("q_end")
    finals.add(sink)
    unary.append(UnaryTransition(choice[k], 0, sink))

    for i, v in enumerate(values):
        sub, entry = gen_binary_constant(v, prefix=f"v{i}_")
        offset = len(names)
        names.extend(sub.state_names)
        for t in sub.unary:
            unary.append(UnaryTransition(t.source + offset, t.delta, t.target + offset))
        for t in sub.branching:
            branching.append(BranchTransition(t.source + offset, t.left + offset, t.right + offset))
        finals.update(f + offset for f in sub.finals)
        unary.append(UnaryTransition(choice[i], 0, choice[i + 1]))
        branching.append(BranchTransition(choice[i], entry + offset, choice[i + 1]))

    system = Bvass1(tuple(names), tuple(unary), tuple(branching), frozenset(finals))
    return system, choice[0]


def gen_random(
    num_states: int,
    num_unary: int,
    num_branching: int,
    num_finals: int,
    seed: int,
) -> Bvass1:
    """Seeded random system; the same arguments always yield the same system."""
    if num_states < 1:
        raise ValueError("a random system needs at least one state")
    rng = random.Random(seed)
    names = tuple(f"s{i}" for i in range(num_states))
    unary = tuple(
        UnaryTransition(
            rng.randrange(num_states), rng.choice((-1, 0, 1)), rng.randrange(num_states)
        )
        for _ in range(num_unary)
    )
    branching = tuple(
        BranchTransition(
            rng.randrange(num_states), rng.randrange(num_states), rng.randrange(num_states)
        )
        for _ in range(num_branching)
    )
    finals = frozenset(rng.sample(range(num_states), min(num_finals, num_states)))
    return Bvass1(names, unary, branching, finals)


def gen_random_circuit(seed: int, num_gates: int = 30) -> list[Gate]:
    """Seeded random monotone circuit with the given gate count."""
    rng = random.Random(seed)
    gates: list[Gate] = [Gate(rng.choice(("T", "F")))]
    for i in range(2, num_gates + 1):
        kind = rng.choice(("T", "F", "AND", "OR")) if i < num_gates else rng.choice(("AND", "OR"))
        if kind in ("T", "F"):
            gates.append(Gate(kind))
        else:
            gates.append(Gate(kind, rng.randrange(1, i), rng.randrange(1, i)))
    return gates
