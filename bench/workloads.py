"""Workload populations and the referee for the certified-verdict benchmark.

A workload turns a seed into a list of generated systems and an ordered
list of operations over them.  The program under test only ever sees a
system's text; the generator facts kept beside it (the constant m, the
doubling depth, the subset values, the circuit) are read by the referee
alone, which knows each verdict in closed form, by brute force, or as an
oracle inclusion bound.

Sizes are stratified: each workload cycles through fixed size strata and
the seed only jitters sizes inside a stratum and picks the random
structure, so the mix of costs in a run is the same for every seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

from bvass1.gen import (
    Gate,
    eval_circuit,
    gen_binary_constant,
    gen_doubling,
    gen_mcvp,
    gen_random,
    gen_random_circuit,
    gen_subset_sum,
)
from bvass1.model import format_bvass, parse_bvass
from bvass1.oracle import (
    NO_VALUE_ABOVE_THRESHOLD,
    UNBOUNDED_PROVEN,
    bounded_reach_set,
    oracle_unbounded_hint,
)

@dataclass(frozen=True)
class System:
    """One generated system: its text plus what the referee needs to know."""

    text: str
    family: str
    num_states: int
    facts: tuple = ()


@dataclass(frozen=True)
class Op:
    """One certified-verdict operation on ``systems[system]``.

    ``kind`` is reach, cover, residue or bounded; for bounded the verdict
    is "the reach set is infinite", as ``unbounded_report`` returns it.
    """

    system: int
    kind: str
    state: str
    n: int = 0
    d: int = 1


@dataclass(frozen=True)
class Population:
    """``ops`` repeats its mix every ``cycle`` operations; a run stops only
    at such a boundary, so the mix it measures is whole."""

    systems: tuple[System, ...]
    ops: tuple[Op, ...]
    cycle: int


def build(workload: str, seed: int, tiny: bool = False) -> Population:
    """The workload's systems and operations; the same seed gives the same ones."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-random":
        return _dense_random(rng, tiny)
    if workload == "big-certificate":
        return _big_certificate(rng, tiny)
    if workload == "bounded-cover":
        return _bounded_cover(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _interleave(per_system: list[list[Op]]) -> tuple[Op, ...]:
    """Round r issues the r-th operation of every system, so any prefix of
    the run touches every system instead of sweeping a few of them."""
    return tuple(op for rnd in zip_longest(*per_system) for op in rnd if op is not None)


def _random_system(rng: random.Random, density: str, nq: int) -> str:
    s = rng.randrange(2**31)
    if density == "dense":
        system = gen_random(nq, 3 * nq, nq, 2, s)
    else:
        system = gen_random(nq, 2 * nq, nq // 2, 1, s)
    return format_bvass(system)


def _dense_random(rng: random.Random, tiny: bool) -> Population:
    # every state at n in {0, |Q|}: the C4-style sweep, spread over many
    # systems so a run samples the random structure widely.  Three dense
    # strata to one sparse: with half the systems sparse, the median fell
    # in the gap between cheap sparse queries and dense ones, and moved by
    # a fifth from seed to seed.  Dense |Q| = 9 and 10 are left out: they
    # cost up to 350 ms a query and carried most of the variance.
    if tiny:
        strata, count = [("dense", 3), ("dense", 4), ("sparse", 4)], 6
    else:
        strata, count = [("dense", 6), ("dense", 7), ("dense", 8), ("sparse", 9)], 1200
    systems: list[System] = []
    per_system: list[list[Op]] = []
    for i in range(count):
        density, nq = strata[i % len(strata)]
        text = _random_system(rng, density, nq)
        idx = len(systems)
        systems.append(System(text, f"random-{density}", nq))
        states = rng.sample(range(nq), nq)
        # half the systems of each stratum ask n = 0 first, half n = |Q|
        counters = (0, nq) if (i // len(strata)) % 2 == 0 else (nq, 0)
        per_system.append([Op(idx, "reach", f"s{q}", n) for q in states for n in counters])
    return Population(tuple(systems), _interleave(per_system), 2 * len(strata))


def _stratum(rng: random.Random, lo: float, hi: float, bins: int, i: int) -> float:
    """A log-uniform draw from bin ``i % bins`` of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / bins
    return math.exp(a + width * (i % bins + rng.random()))


def _big_certificate(rng: random.Random, tiny: bool) -> Population:
    # one group per round, each holding every family once; sizes cycle
    # through fixed bins so the run's size mix does not depend on the seed.
    # Only the two NO queries are cheap, so the median falls among the
    # certified YES operations rather than at the edge between the two.
    if tiny:
        m_range, level_ks, hub_ks, depths, values, counts, groups = (20, 60), (3, 4), (3, 4), (10, 30), (4, 16), (3, 4, 5, 6), 4
    else:
        m_range, level_ks, hub_ks, depths, values, counts, groups = (
            (1000, 5000), (10, 11, 12, 11), (11, 12), (300, 500), (256, 1024), (4, 5, 6, 7), 96)
    # one hub counter per depth: repeats of an operation reuse its validated tree
    hub_n = {k: rng.randrange(4) for k in hub_ks}
    systems: list[System] = []
    ops: list[Op] = []

    def add(system_text: str, family: str, nq: int, facts: tuple) -> int:
        systems.append(System(system_text, family, nq, facts))
        return len(systems) - 1

    # doubling systems depend on k alone, so each is generated once
    doubling: dict[tuple[str, int], int] = {}

    def add_doubling(family: str, k: int) -> int:
        if (family, k) not in doubling:
            system = gen_doubling(k)
            doubling[family, k] = add(format_bvass(system), family, system.num_states, (k,))
        return doubling[family, k]

    for g in range(groups):
        m = round(_stratum(rng, *m_range, 8, g))
        system, entry = gen_binary_constant(m)
        idx = add(format_bvass(system), "const", system.num_states, (m,))
        name = system.state_name(entry)
        ops += [Op(idx, "reach", name, m), Op(idx, "reach", name, m - 1)]

        k = level_ks[g % len(level_ks)]
        ops.append(Op(add_doubling("doubling-level", k), "reach", f"q_{k}", 2**k))

        k = hub_ks[g % len(hub_ks)]
        ops.append(Op(add_doubling("doubling-hub", k), "reach", "q", hub_n[k]))

        depth = round(_stratum(rng, *depths, 4, g))
        gates = [Gate("T")] + [Gate("OR", i, i) for i in range(1, depth)]
        system, gate_states = gen_mcvp(gates)
        idx = add(format_bvass(system), "or-chain", system.num_states, (tuple(gates),))
        ops.append(Op(idx, "reach", system.state_name(gate_states[-1]), 0))

        picked = [rng.randrange(*values) for _ in range(counts[g % len(counts)])]
        sums = _subset_sums(picked)
        yes = sum(picked[1:]) if g % 2 else sum(picked[::2])
        no = rng.choice([t for t in range(yes - values[0], yes + values[0]) if t not in sums and t >= 0])
        system, entry = gen_subset_sum(picked, 0)
        idx = add(format_bvass(system), "subset-sum", system.num_states, (tuple(picked),))
        name = system.state_name(entry)
        ops += [Op(idx, "reach", name, yes), Op(idx, "reach", name, no)]
    # every size cycle above divides 8, so the mix repeats every 8 groups
    return Population(tuple(systems), tuple(ops), 7 * 8)


def _bounded_cover(rng: random.Random, tiny: bool) -> Population:
    # one queried state per system, so consecutive systems are independent.
    # Dense systems carry the heavy boundedness searches; sparse ones stay
    # small, since at 15+ states whether their queried state is empty decides
    # between 0.1 ms and 0.5 s, and that coin would move the percentiles.
    # Dense |Q| = 30 is left out: its 1-s searches took most of a run, so
    # few systems were sampled and the median moved with the seed.
    # |Q| = 6 is the size at which the oracle's boundedness hint is decisive.
    if tiny:
        strata, gate_sizes, count = [("dense", 3), ("sparse", 3), ("dense", 4), ("circuit", 0)], (8, 16), 8
    else:
        strata = [("dense", 6), ("sparse", 6), ("dense", 10), ("sparse", 10), ("dense", 12),
                  ("dense", 15), ("circuit", 0)]
        gate_sizes, count = (60, 80, 100, 120), 700
    systems: list[System] = []
    ops: list[Op] = []
    circuits = 0
    for i in range(count):
        density, nq = strata[i % len(strata)]
        idx = len(systems)
        if density == "circuit":
            gates = gen_random_circuit(rng.randrange(2**31), gate_sizes[circuits % len(gate_sizes)])
            circuits += 1
            system, gate_states = gen_mcvp(gates)
            systems.append(System(format_bvass(system), "circuit", system.num_states, (tuple(gates),)))
            # a true gate makes unbounded_report run the whole gain-graph search
            true_consts = [g for g, gate in enumerate(gates) if gate.kind == "T"]
            probe_gate = len(gates) - 1 if eval_circuit(gates) or not true_consts else true_consts[-1]
            probe = system.state_name(gate_states[probe_gate])
            out = system.state_name(gate_states[-1])
            ops += [Op(idx, "bounded", probe), Op(idx, "cover", out, 0), Op(idx, "cover", probe, 1)]
            continue
        text = _random_system(rng, density, nq)
        systems.append(System(text, f"random-{density}", nq))
        state = f"s{rng.randrange(nq)}"
        ops += [
            Op(idx, "bounded", state),
            Op(idx, "cover", state, nq),
            Op(idx, "residue", state, rng.randrange(2 * nq + 1), rng.randint(2, 31)),
            Op(idx, "cover", state, 0),
            Op(idx, "residue", state, rng.randrange(2 * nq + 1), rng.randint(2, 31)),
            Op(idx, "cover", state, 3 * nq),
        ]
    # the circuit sizes advance once per round of the strata
    cycle = len(gate_sizes) * sum(3 if density == "circuit" else 6 for density, _ in strata)
    return Population(tuple(systems), tuple(ops), cycle)


def _subset_sums(values: list[int]) -> set[int]:
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sums


# ---------------------------------------------------------------------------
# referee


class Referee:
    """Expected verdicts, computed outside the timed region.

    ``expected`` returns True or False where the answer is known, and
    None where only the engine's own artifacts can vouch for it: random
    queries are refereed by oracle inclusion (a cap-bounded derivation
    proves YES, its absence proves nothing), as the acceptance criteria
    C3 and C5 do.
    """

    def __init__(self, systems: tuple[System, ...]):
        self.systems = systems
        self._reach_sets: dict[int, object] = {}

    def expected(self, op: Op) -> Optional[bool]:
        info = self.systems[op.system]
        family = info.family
        if family == "const":
            return op.n == info.facts[0]
        if family == "doubling-level":
            return op.n == 2 ** info.facts[0]
        if family == "doubling-hub":
            return op.n <= 2 ** info.facts[0]
        if family == "subset-sum":
            return op.n in _subset_sums(list(info.facts[0]))
        if family in ("or-chain", "circuit"):
            # reach sets of gate states are {0} or empty: every shift is 0
            if op.kind == "bounded":
                return False
            gate = int(op.state[1:])  # gen_mcvp names gate i "g<i>"
            return op.n == 0 and eval_circuit(list(info.facts[0][:gate]))
        system = parse_bvass(info.text)
        state = system.state_id(op.state)
        if op.kind == "bounded":
            return self._hint(system, state)
        values = self._reach_set(op.system, system).values(state)
        if op.kind == "reach":
            return True if op.n in values else None
        if any(v >= op.n and (v - op.n) % op.d == 0 for v in values):
            return True
        return None

    def _reach_set(self, index: int, system):
        # cap 4|Q| lies above every queried counter (at most 3|Q|)
        if index not in self._reach_sets:
            self._reach_sets[index] = bounded_reach_set(system, 4 * system.num_states)
        return self._reach_sets[index]

    @staticmethod
    def _hint(system, state: int) -> Optional[bool]:
        nq = system.num_states
        if nq > 7:
            return None  # a decisive cap of 2^|Q| + |Q| is out of the oracle's reach
        hint = oracle_unbounded_hint(system, state, 2**nq + nq)
        if hint == UNBOUNDED_PROVEN:
            return True
        if hint == NO_VALUE_ABOVE_THRESHOLD:
            return False
        return None
