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
plus the cycle fit in |Q| edges and form a witness (``model.Witness``)
that ``check.check_unbounded_witness`` verifies clause by clause.

The clamped values are the largest coverable values the reach engine
also reads (``ResidueCache.max_coverable``), read off one modulus-1
table at the clamp; the witness checker does not trust them and asks
its own modulus-1 questions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .model import Budget, Bvass1, Witness
from .residue import ResidueCache, ResidueQuery, residue_reachable


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
    values = ResidueCache(system, budget).max_coverable(system.num_states + 1)
    max_cov = [None if m < 0 else m for m in values]
    edges: list[GainEdge] = []
    for i, t in enumerate(system.unary):
        if max_cov[t.target] is not None:
            edges.append(GainEdge(t.source, "unary", i, t.target, -t.delta))
    for i, t in enumerate(system.branching):
        if max_cov[t.left] is not None and max_cov[t.right] is not None:
            edges.append(GainEdge(t.source, "branch", i, t.left, max_cov[t.right]))
            edges.append(GainEdge(t.source, "branch", i, t.right, max_cov[t.left]))
    return GainGraph(tuple(edges), tuple(max_cov))


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
    system: Bvass1, state: int, budget: Budget | None = None
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
    graph = build_gain_graph(system, budget)
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


def unbounded(system: Bvass1, state: int, budget: Budget | None = None) -> bool:
    return unbounded_report(system, state, budget)[0]
