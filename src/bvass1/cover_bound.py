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
reduces to a reachable positive-gain cycle.  One longest-gain
relaxation from the state finds a simple one; a shortest path to it
plus the cycle fit in |Q| edges and form a witness sequence that a
separate checker verifies clause by clause.

The clamped values are the max-coverable profile the reach engine also
reads (``ResidueCache.max_coverable``), read off one modulus-1 table at
the clamp; the witness checker does not trust it and asks its own
modulus-1 questions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .model import Bvass1
from .residue import DEFAULT_BUDGET, Budget, ResidueCache, ResidueQuery, residue_reachable


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


def check_unbounded_witness(
    system: Bvass1, state: int, witness: Witness, budget: Budget | None = None
) -> tuple[bool, str]:
    """Verify every clause of a witness from scratch.

    Checks the walk shape, the first-occurrence condition, coverability
    of every transition target at zero, the side values against fresh
    coverability queries, and the positive-gain sum.  The coverability
    tables are charged to ``budget``, a fresh ``Budget()`` when none is given.
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
    cover = ResidueCache(system, budget)
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
    system: Bvass1, state: int, budget: int | None = DEFAULT_BUDGET
) -> tuple[bool, str, Optional[Witness]]:
    """Decide unboundedness; on success also return a checkable witness.

    A longest-gain relaxation (Bellman-Ford) from the state over the
    edges it reaches: with R reachable states, a round that changes
    nothing shows that no reachable cycle gains.  After each round that
    changes something, the predecessor edges are walked back R steps from
    the last improved state; if the walk never runs out, it has closed a
    cycle of predecessor edges, which always gains, and the search stops.
    A change in round R guarantees such a cycle, so at most R rounds run.
    The witness is a shortest path to the cycle's state nearest the
    start, then the cycle: simple, so prefix plus cycle fit in |Q| edges,
    but not necessarily the shortest positive cycle.
    """
    if not 0 <= state < system.num_states:
        raise ValueError("state out of range")
    graph = build_gain_graph(system, Budget(budget))
    if graph.max_coverable[state] is None:
        return False, "bounded: the state has an empty reach set", None
    nq = system.num_states
    out: list[list[GainEdge]] = [[] for _ in range(nq)]
    for e in graph.edges:
        out[e.source].append(e)
    dist, via = _bfs_paths(out, state)
    edges = [e for e in graph.edges if dist[e.source] >= 0]
    rounds = sum(d >= 0 for d in dist)

    # best[q] is the largest gain of a walk state -> q found so far; pred[q]
    # its last edge
    best: list[Optional[int]] = [None] * nq
    best[state] = 0
    pred: list[Optional[GainEdge]] = [None] * nq
    for _ in range(rounds):
        improved = -1
        for e in edges:
            g = best[e.source]
            if g is not None and (best[e.target] is None or g + e.gain > best[e.target]):
                best[e.target] = g + e.gain
                pred[e.target] = e
                improved = e.target
        if improved < 0:
            return False, "bounded: no reachable positive-gain cycle fits the length bound", None
        # a cycle of predecessor edges has positive gain; R steps back from
        # the last improved state end on one when its chain meets one,
        # which a change in round R guarantees
        q = improved
        for _ in range(rounds):
            if pred[q] is None:
                break
            q = pred[q].source
        else:
            break

    cycle = [pred[q]]
    while cycle[-1].source != q:
        cycle.append(pred[cycle[-1].source])
    cycle.reverse()
    entry = min(range(len(cycle)), key=lambda i: dist[cycle[i].source])
    cycle = cycle[entry:] + cycle[:entry]
    s = cycle[0].source
    # the shortest path to s meets no other cycle state: all are as far
    prefix: list[GainEdge] = []
    q = s
    while q != state:
        prefix.append(via[q])
        q = via[q].source
    prefix.reverse()

    walk = prefix + cycle
    witness = Witness(
        (state,) + tuple(e.target for e in walk),
        tuple((e.kind, e.index) for e in walk),
        len(prefix),
        tuple(0 if e.kind == "unary" else e.gain for e in cycle),
    )
    gain = sum(e.gain for e in cycle)
    return True, f"unbounded: cycle of length {len(cycle)} at {system.state_name(s)} gains {gain}", witness


def unbounded(system: Bvass1, state: int, budget: int | None = DEFAULT_BUDGET) -> bool:
    return unbounded_report(system, state, budget)[0]
