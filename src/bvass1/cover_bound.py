"""Coverability and boundedness of a control state.

q(n) is coverable when some q(m) with m >= n is reachable, which is the
residue question with modulus 1.  A state is unbounded when its reach
set is infinite; that happens exactly when, starting from the state,
one can walk transitions whose side targets are all coverable and close
a short cycle that gains counter value: side branches feed the cycle,
so each lap raises the achievable counter.

The walk lives in the gain graph: an edge follows one target of a
transition whose every target covers 0, weighted by what the detour
through the other target can contribute (its largest coverable value,
clamped) minus the transition's counter effect.  Unboundedness then
reduces to a reachable state carrying a positive-gain cycle, with the
combined prefix and cycle length at most the number of states; a
dynamic program over walk lengths finds it and yields a witness
sequence that a separate checker verifies clause by clause.

The clamped values are the max-coverable profile the reach engine also
reads (``ResidueCache.max_coverable``); the witness checker does not
trust it and asks its own modulus-1 questions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .model import Bvass1
from .residue import Budget, ResidueCache, ResidueQuery, residue_reachable


def coverable(system: Bvass1, state: int, n: int, budget: Budget | None = None) -> bool:
    """Is some q(m) with m >= n reachable?  Modulus-1 residue question."""
    return residue_reachable(ResidueQuery(system, state, n, 1), budget)[0]


@dataclass(frozen=True)
class GainEdge:
    source: int
    kind: str  # "unary" or "branch"
    index: int
    target: int
    gain: int


@dataclass(frozen=True)
class GainGraph:
    edges: tuple[GainEdge, ...]
    max_coverable: tuple[Optional[int], ...]


def build_gain_graph(system: Bvass1, budget: Budget | None = None) -> GainGraph:
    """Edges through transitions whose every target covers zero.

    A unary edge contributes no side value (gain is minus the counter
    shift); a branching edge is worth what its sibling target can be
    covered at, clamped to |Q|+1.  Branching transitions have counter
    effect zero.
    """
    profile = ResidueCache(system, budget).max_coverable(system.num_states + 1)
    max_cov = [None if m < 0 else m for m in profile]
    edges: list[GainEdge] = []
    for i, t in enumerate(system.unary):
        if max_cov[t.target] is not None:
            edges.append(GainEdge(t.source, "unary", i, t.target, -t.delta))
    for i, t in enumerate(system.branching):
        if max_cov[t.left] is not None and max_cov[t.right] is not None:
            edges.append(GainEdge(t.source, "branch", i, t.left, max_cov[t.right]))
            edges.append(GainEdge(t.source, "branch", i, t.right, max_cov[t.left]))
    return GainGraph(tuple(edges), tuple(max_cov))


@dataclass(frozen=True)
class Witness:
    """An unboundedness witness: states p_0..p_k, the transitions between
    them, the index j with p_k = p_j, and the side values n_i chosen for
    the cycle part (transitions j+1..k)."""

    states: tuple[int, ...]
    transitions: tuple[tuple[str, int], ...]
    j: int
    n_values: tuple[int, ...]


def check_unbounded_witness(system: Bvass1, state: int, witness: Witness) -> tuple[bool, str]:
    """Verify every clause of a witness from scratch.

    Checks the walk shape, the first-occurrence condition, coverability
    of every transition target at zero, the side values against fresh
    coverability queries, and the positive-gain sum.
    """
    states, trans = witness.states, witness.transitions
    k = len(trans)
    j = witness.j
    if len(states) != k + 1:
        return False, "state sequence and transition sequence lengths disagree"
    if not 1 <= k <= system.num_states:
        return False, f"walk length {k} outside [1, {system.num_states}]"
    if not 0 <= j < k:
        return False, f"re-entry index {j} outside [0, {k - 1}]"
    if len(witness.n_values) != k - j:
        return False, "need one side value per cycle transition"

    def targets(ref: tuple[str, int]) -> tuple[int, ...]:
        kind, idx = ref
        if kind == "unary":
            if not 0 <= idx < len(system.unary):
                raise IndexError
            return (system.unary[idx].target,)
        if kind == "branch":
            if not 0 <= idx < len(system.branching):
                raise IndexError
            t = system.branching[idx]
            return (t.left, t.right)
        raise IndexError

    try:
        for i in range(1, k + 1):
            ref = trans[i - 1]
            kind, idx = ref
            src = system.unary[idx].source if kind == "unary" else system.branching[idx].source
            if src != states[i - 1]:
                return False, f"transition {i} does not start at state {i - 1} of the walk"
            if states[i] not in targets(ref):
                return False, f"state {i} of the walk is not a target of transition {i}"
    except (IndexError, ValueError):
        return False, "transition reference out of range"

    if states[k] != states[j]:
        return False, "the walk does not re-enter the state at the recorded index"
    for i in range(j):
        if states[i] == states[j]:
            return False, "re-entered state already occurs before the recorded index"

    # plain modulus-1 questions; the targets at 0 share one table
    cover = ResidueCache(system)
    side_targets = sorted({p for ref in trans for p in targets(ref)})
    for p in side_targets:
        if not cover.query(p, 0, 1):
            return False, f"target state {system.state_name(p)} does not cover 0"

    total_gain = 0
    cap = system.num_states + 1
    for pos, i in enumerate(range(j + 1, k + 1)):
        ref = trans[i - 1]
        kind, idx = ref
        n_i = witness.n_values[pos]
        if not 0 <= n_i <= cap:
            return False, f"side value for transition {i} outside [0, {cap}]"
        if kind == "unary":
            if n_i != 0:
                return False, f"unary transition {i} must carry side value 0"
            effect = system.unary[idx].delta
        else:
            t = system.branching[idx]
            sibling = t.right if states[i] == t.left else t.left
            if not cover.query(sibling, n_i, 1):
                return False, f"sibling of transition {i} is not coverable at {n_i}"
            effect = 0
        total_gain += n_i - effect
    if total_gain <= 0:
        return False, f"cycle gain {total_gain} is not positive"
    if states[0] != state:
        return False, "walk does not start at the queried state"
    return True, "ok"


def _bfs_paths(out: list[list[GainEdge]], start: int) -> tuple[list[int], list[Optional[GainEdge]]]:
    dist = [-1] * len(out)
    via: list[Optional[GainEdge]] = [None] * len(out)
    dist[start] = 0
    queue = deque([start])
    while queue:
        q = queue.popleft()
        for e in out[q]:
            if dist[e.target] < 0:
                dist[e.target] = dist[q] + 1
                via[e.target] = e
                queue.append(e.target)
    return dist, via


def unbounded_report(
    system: Bvass1, state: int, budget: int | None = None
) -> tuple[bool, str, Optional[Witness]]:
    """Decide unboundedness; on success also return a checkable witness.

    best[l][a][b] is the largest total gain of an l-edge walk a -> b in
    the gain graph; the state is unbounded iff some s with
    dist(state, s) + l <= |Q| has best[l][s][s] > 0.
    """
    b = Budget() if budget is None else Budget(budget)
    graph = build_gain_graph(system, b)
    if graph.max_coverable[state] is None:
        return False, "bounded: the state has an empty reach set", None
    nq = system.num_states
    out: list[list[GainEdge]] = [[] for _ in range(nq)]
    for e in graph.edges:
        out[e.source].append(e)
    dist, via = _bfs_paths(out, state)

    # best[a][b] for the current length; bt[l] remembers the first edge
    best: list[list[Optional[int]]] = [[None] * nq for _ in range(nq)]
    for a in range(nq):
        best[a][a] = 0
    bts: list[list[list[Optional[GainEdge]]]] = []
    for length in range(1, nq + 1):
        new: list[list[Optional[int]]] = [[None] * nq for _ in range(nq)]
        bt: list[list[Optional[GainEdge]]] = [[None] * nq for _ in range(nq)]
        for a in range(nq):
            row_new = new[a]
            row_bt = bt[a]
            for e in out[a]:
                mid = best[e.target]
                for target in range(nq):
                    m = mid[target]
                    if m is None:
                        continue
                    cand = e.gain + m
                    cur = row_new[target]
                    if cur is None or cand > cur:
                        row_new[target] = cand
                        row_bt[target] = e
        best = new
        bts.append(bt)
        for s in range(nq):
            if dist[s] >= 0 and dist[s] + length <= nq:
                gain = best[s][s]
                if gain is not None and gain > 0:
                    witness = _build_witness(system, graph, state, s, length, via, bts)
                    return True, f"unbounded: cycle of length {length} at {system.state_name(s)} gains {gain}", witness
    return False, "bounded: no reachable positive-gain cycle fits the length bound", None


def _build_witness(
    system: Bvass1,
    graph: GainGraph,
    start: int,
    s: int,
    length: int,
    via: list[Optional[GainEdge]],
    bts: list[list[list[Optional[GainEdge]]]],
) -> Witness:
    prefix: list[GainEdge] = []
    q = s
    while q != start:
        e = via[q]
        assert e is not None
        prefix.append(e)
        q = e.source
    prefix.reverse()

    cycle: list[GainEdge] = []
    a = s
    for step in range(length, 0, -1):
        e = bts[step - 1][a][s]
        assert e is not None
        cycle.append(e)
        a = e.target
    assert a == s

    edges = prefix + cycle
    states = [start] + [e.target for e in edges]
    transitions = tuple((e.kind, e.index) for e in edges)
    n_values = []
    for e in cycle:
        if e.kind == "unary":
            n_values.append(0)
        else:
            t = system.branching[e.index]
            sibling = t.right if e.target == t.left else t.left
            cov = graph.max_coverable[sibling]
            assert cov is not None
            n_values.append(cov)
    return Witness(tuple(states), transitions, len(prefix), tuple(n_values))


def unbounded(system: Bvass1, state: int, budget: int | None = None) -> bool:
    return unbounded_report(system, state, budget)[0]
