"""Brute-force reference implementations.

Everything here is written in the most naive correct style on purpose:
full rescan passes over plain sets until nothing changes, no worklists,
no bit tricks, no code shared with the decision engines.  The results
referee the engines in tests and back the `oracle` CLI subcommand.

All answers are relative to a cap: a configuration is reported reachable
only if it has a derivation tree whose every counter stays at or below
the cap.  That is a sound under-approximation of true reachability and
is exact whenever every reachable value up to the cap admits such a
bounded tree.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Bvass1


@dataclass(frozen=True)
class BoundedReachSet:
    """Configurations with a cap-bounded derivation tree, one value set per state.

    Each set is kept packed, bit n of ``masks[q]`` standing for q(n): a
    referee that keeps one reach set per system then holds one integer
    per state rather than one frozenset.  The views unpack on request.
    """

    cap: int
    masks: tuple[int, ...]

    @property
    def by_state(self) -> tuple[frozenset[int], ...]:
        return tuple(map(_unpack, self.masks))

    @property
    def reachable(self) -> frozenset[tuple[int, int]]:
        return frozenset((q, n) for q, mask in enumerate(self.masks) for n in _unpack(mask))

    def values(self, state: int) -> frozenset[int]:
        return _unpack(self.masks[state])

    def contains(self, state: int, n: int) -> bool:
        return n >= 0 and bool((self.masks[state] >> n) & 1)


def _pack(values: set[int]) -> int:
    """The values as the set bits of one integer, in time linear in the largest."""
    buf = bytearray(max(values, default=0) // 8 + 1)
    for n in values:
        buf[n >> 3] |= 1 << (n & 7)
    return int.from_bytes(buf, "little")


def _unpack(mask: int) -> frozenset[int]:
    """The set bits of ``mask``, read off its binary digits lowest first."""
    return frozenset(n for n, digit in enumerate(reversed(bin(mask))) if digit == "1")


def bounded_reach_set(system: Bvass1, cap: int, budget: int | None = 2**30) -> BoundedReachSet:
    """Least fixpoint of the derivation rules restricted to counters <= cap.

    Rules: (f, 0) for final f; (q, n) if a unary (q, z, p) has (p, n+z)
    present with n, n+z in [0, cap]; (q, n) if a branching (q, p, p')
    has (p, m0) and (p', m1) present with n = m0 + m1 <= cap.  Every pass
    applies every rule to the whole of each state's value set.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if budget is not None and system.num_states * (cap + 1) > budget:
        raise ValueError(f"cap {cap} exceeds the memory budget")
    present: list[set[int]] = [set() for _ in range(system.num_states)]
    for f in system.finals:
        present[f].add(0)
    changed = True
    while changed:
        size = sum(map(len, present))
        for t in system.unary:
            parents = {m - t.delta for m in present[t.target]}
            parents.discard(-1)
            parents.discard(cap + 1)
            present[t.source] |= parents
        for t in system.branching:
            source, left, right = present[t.source], present[t.left], present[t.right]
            if not left or not right:
                continue
            if len(left) > len(right):
                left, right = right, left
            # n is new if some m of the smaller child set leaves n - m in the other
            sums = range(min(left) + min(right), min(cap, max(left) + max(right)) + 1)
            source.update([n for n in sums if n not in source and not right.isdisjoint(map(n.__sub__, left))])
        changed = sum(map(len, present)) != size
    return BoundedReachSet(cap, tuple(map(_pack, present)))


def oracle_residue(system: Bvass1, state: int, n0: int, d: int, cap: int) -> bool:
    """Scan for n >= n0 with n ≡ n0 (mod d) among cap-bounded reachable values.

    Sound; complete only up to the cap.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    reach = bounded_reach_set(system, cap)
    for n in reach.values(state):
        if n >= n0 and (n - n0) % d == 0:
            return True
    return False


def oracle_coverable(system: Bvass1, state: int, n: int, cap: int) -> bool:
    """Scan for a reachable value >= n; sound, complete only up to the cap."""
    return oracle_residue(system, state, n, 1, cap)


UNBOUNDED_PROVEN = "unbounded-proven"
NO_VALUE_ABOVE_THRESHOLD = "no-value-above-threshold"
INCONCLUSIVE = "inconclusive"


def oracle_unbounded_hint(system: Bvass1, state: int, cap: int) -> str:
    """Tri-state boundedness evidence for the reach set of ``state``.

    A value above 2^|Q| proves unboundedness outright.  If the cap
    already covers 2^|Q| + |Q| and the whole reach set is stable under
    doubling the cap, no value above the threshold exists as far as the
    oracle can see.  Everything else is inconclusive.  Stability is a
    heuristic of the test harness, not a truth claim.
    """
    threshold = 2 ** system.num_states
    first = bounded_reach_set(system, cap)
    if any(n > threshold for n in first.values(state)):
        return UNBOUNDED_PROVEN
    if cap >= threshold + system.num_states:
        second = bounded_reach_set(system, 2 * cap)
        if second.masks == first.masks:
            return NO_VALUE_ABOVE_THRESHOLD
    return INCONCLUSIVE
