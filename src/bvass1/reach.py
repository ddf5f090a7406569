"""Reachability of a configuration, with checkable certificates.

A configuration q(n) is reachable exactly when some partial derivation
tree with root q(n) and counters bounded by B = 2|Q| + n has every leaf
either accepting or "increasing": labelled like a strictly smaller
ancestor (its anchor), with the residue query at the leaf positive, and
with the pumping segments of distinct increasing leaves not nested in a
conflicting way (exclusivity).  Such a tree is the certificate; it can
be checked independently and unrolled into a full derivation tree.

The certificate type and its text format are in ``model``, the checker
in ``check``.  Extraction writes each pump-free subderivation once as a
def (``model.Certificate``), numbered bottom-up; expansion adds the
pumps' copies and witnesses as more defs and writes the DAG out once.

The decision engine computes two families of bit tables by a worklist
fixpoint over counters in [0, B]:

- reach masks: bit n of state q set when q(n) has such a tree;
- per pump context c = (state s, leaf counter m*): path masks whose bit
  m at state p says there is a valid downward path from p(m) to a leaf
  s(m*), side branches discharged by reach, and no interior path node
  labelled (s, counter < m*) (so s's deepest smaller ancestor is the
  node the path starts under).

A context contributes reach bits at its own state: reach(s, n) holds
when n < m*, the residue query (s, m*, m* - n) is positive, and a first
step from s(n) enters a path of the context.  Contexts are only created
for states on directed cycles (a path returning to s needs one) and for
leaf counters not above the state's largest coverable value.

The contexts of one state are packed into rows of one path table, so
that one event advances every leaf counter at once: row m* holds the
context's counters [0, B] in its own W = 2B + 2 bits, wide enough that a
sumset with a reach mask (sums <= 2B) stays inside the row.  Rows are
grouped into blocks of at most ``_BLOCK_BITS`` bits; when B is large a
block is a single row, one table per context.  ``FixpointTables.contexts``
holds one read-only row view per context, which replay, the pump rules
on the reach table and the tests read as a table of its own.

The reach masks are a ``residue.BoundedReach`` kernel under B: it
applies the system's own rules (and saturates self-loops), and the pump
rules add to it.  A query is decided kernel first.  The kernel saturates
before any pump context exists, and a query bit it sets is a YES with a
pump-free certificate.  Otherwise the query is NO when no state of its
cone lies on a cycle, or when n is above the state's largest coverable
value, or when a reach profile of the cone refutes it: an ultimately
periodic value set per state (``model.Profile``), read off an unjustified
kernel over the cone's rules on one fixed window and kept only when it
holds the finals and is closed under the rules, so that it holds every
reachable configuration.
Only then are the cone's contexts activated on the same kernel,
and the fixpoint resumes, every path rule read off ``rule_index``.  So
a single query's tables are complete for that query alone; the batch
pumps every cyclic state once its kernel has saturated, and is complete
for all.  The kernel and every path block keep one event log
(``residue.EventLog``): per state, one (tick, rule, bits) entry per add
event, and a row view reads its row's part of its block's entries.  All
ticks come from the kernel's clock, so a rule's premises always carry
smaller ticks than its conclusion, and a positive answer replays into a
concrete certificate deterministically, reading either kind of table the
same way.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm
from typing import Iterable, Optional

from .model import (
    Budget,
    Bvass1,
    Certificate,
    Config,
    Def,
    PartialTree,
    Profile,
    PumpRecord,
    _def_sizes,
    reach_bound,
)
from .residue import BoundedReach, EventLog, ResidueCache, _shift_parent, _sumset

DEFAULT_WITNESS_CAP = 1 << 20

# the step that decided a query, as ``FixpointTables.reason`` names it
KERNEL = "kernel"
PUMP_FIXPOINT = "pump fixpoint"
NO_CYCLE = "no cyclic state in cone"
ABOVE_COVERABLE = "above largest coverable value"  # followed by the value
PROFILE = "profile"  # followed by the profile's threshold and period

# The window [0, N] a reach profile is read on.  It does not grow with the
# query's counter, so neither does the profile's cost.  On the seed-1
# benchmark populations and the differential test systems, every profile
# that refutes a query at N = 32 or 64 refutes it at N = 16 as well.
PROFILE_WINDOW = 16

# Defensive ceiling on a replayed certificate's spine; extraction of a
# decided query should stay far below this, so hitting it means an engine bug.
_REPLAY_NODE_LIMIT = 1_000_000


class ExpandOverflow(Exception):
    """Unrolling a certificate would exceed the node allowance."""

    def __init__(self, needed: int, allowed: int):
        super().__init__(f"expansion needs at least {needed} nodes, allowed {allowed}")
        self.needed = needed
        self.allowed = allowed


class WitnessSearchFailed(Exception):
    """No concrete reachable value found under the search cap.

    Signals that the bounded search gave up, not that the certificate is
    wrong; retry with a larger cap.
    """


@dataclass(frozen=True)
class ReachQuery:
    system: Bvass1
    state: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("counter must be a natural number")
        if not 0 <= self.state < self.system.num_states:
            raise ValueError("state out of range")

    @property
    def bound(self) -> int:
        return reach_bound(self.system, self.n)


# ---------------------------------------------------------------------------
# state-graph helpers


def _closure(edges: tuple[frozenset[int], ...], start: int) -> set[int]:
    """The states reachable from ``start`` along ``edges``, start included."""
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for p in edges[q]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _cyclic_states(system: Bvass1, states: Iterable[int]) -> list[int]:
    """The states of ``states`` on a directed cycle, sorted.

    s lies on a cycle iff one of its successors is in ``_closure`` over
    the predecessors of s, the states with a path to s.
    """
    succ, pred = system.state_graph
    return sorted(s for s in states if not succ[s].isdisjoint(_closure(pred, s)))


# ---------------------------------------------------------------------------
# fixpoint engine


# Width cap of one block of packed pump rows, in bits.  Measured with
# Python 3.11 on a 2-CPU host.  On the first 4,000 dense-random operations
# of seed 1 (B <= 27, rows at most 1,512 bits wide) the 126 step-3 queries
# took 2.1 s at one row per block, 0.53 s at 512 bits and 0.35-0.41 s from
# 1,024 bits on, where every state's rows fit one block.  On the parity
# system (state q / state p / final q / unary q -1 p / unary p -1 q) at
# n = 1001, whose 2,012-bit rows gain a bit or two per event, two rows per
# block (4,096 bits) took 2.2 s instead of 3.3 s but peaked at 260 MB
# instead of 237 MB: its log keeps a million entries, and each packed entry
# is an int as wide as the rows below its bits.  2,048 bits keeps such
# wide rows one to a block, the memory of one table per context.
_BLOCK_BITS = 2048


class _Block(EventLog):
    """The path tables of the pump contexts (state, m*) for consecutive leaf
    counters m*, packed: row r, leaf counter ``m_lo + r``, holds its counters
    [0, B] at bits [r·W, r·W + B] of each mask, W = ``stride`` = 2B + 2.

    A unary shift moves every row at once, and a sumset against a reach
    mask (bits <= B) keeps each row's sums (<= 2B) below the next row, so
    one add event advances every row of the block.  Bits outside a row's
    [0, B] are dropped through ``window`` (``cut`` within one row).
    ``below`` holds each row's counters below its m*: at the state itself
    these are the anchor candidates, never path bits.  ``rep`` copies a
    reach mask into every row.  The log entries carry packed bits; ``_Row``
    reads one row.
    """

    __slots__ = (
        "state", "m_lo", "stride", "first", "masks", "log", "pending", "probed",
        "rep", "window", "cut", "below",
    )

    def __init__(self, state: int, m_lo: int, rows: int, bound: int, first: int, num_states: int):
        self.state = state
        self.m_lo = m_lo
        self.stride = 2 * bound + 2
        self.rep = sum(1 << (r * self.stride) for r in range(rows))
        self.cut = (1 << (bound + 1)) - 1
        self.window = self.rep * self.cut
        self.first = first  # index of row 0's view in ``FixpointTables.contexts``
        self.masks = [0] * num_states
        self.log: list[list[tuple[int, tuple, int]]] = [[] for _ in range(num_states)]
        self.pending = [0] * num_states  # nonzero exactly while (block, state) is queued
        self.probed = 0  # anchor bits whose residue query was already asked
        self.below = sum(((1 << (m_lo + r)) - 1) << (r * self.stride) for r in range(rows))


class _Row:
    """Read-only view of one pump context (state, m*): a row of its block,
    read like a table of its own, its masks and log entries cut to the row."""

    __slots__ = ("block", "m_star", "shift")

    def __init__(self, block: _Block, r: int):
        self.block = block
        self.m_star = block.m_lo + r
        self.shift = r * block.stride

    @property
    def state(self) -> int:
        return self.block.state

    @property
    def masks(self) -> list[int]:
        shift, cut = self.shift, self.block.cut
        return [(m >> shift) & cut for m in self.block.masks]

    @property
    def log(self) -> list[list[tuple[int, tuple, int]]]:
        shift, cut = self.shift, self.block.cut
        return [
            [(tick, rule, b) for tick, rule, bits in entries if (b := (bits >> shift) & cut)]
            for entries in self.block.log
        ]

    def entry_of(self, q: int, m: int) -> tuple[int, tuple, int]:
        tick, rule, bits = self.block.entry_of(q, self.shift + m)
        return tick, rule, (bits >> self.shift) & self.block.cut

    def as_of(self, q: int, before: int) -> int:
        return (self.block.as_of(q, before) >> self.shift) & self.block.cut


class FixpointTables:
    """Least fixpoint of the reach and path tables for one bound.

    Build it through run_query or run_batch.  The reach tables are a
    justified ``BoundedReach`` kernel under the bound, and it saturates
    first, before any pump context exists.  ``pump`` then activates the
    contexts of some states on the same kernel and resumes the fixpoint:
    the pump rules add to the kernel, its queue and clock carry the path
    events too, and the residue cache, budget and reach window are the
    ones the kernel had.  The constructor pumps nothing: run_batch pumps
    every cyclic state, run_query the cone's when steps 1 and 2 leave the
    query open.  A pumped state's contexts are rows of the packed
    ``_Block`` tables in ``blocks``, and ``contexts`` holds one ``_Row``
    view per context, indexed as the pump rules on the reach table name
    them.

    ``holds(q, n)`` answers reachability for n up to ``complete_to`` when
    every cyclic state of q's cone has been pumped, as run_batch does for
    every q.  run_query's tables promise it for the query only.
    ``reason`` names the step that decided: ``kernel``, ``pump
    fixpoint``, or one of run_query's refutations.  Every table is
    charged to ``budget``, a fresh ``Budget()`` when none is given.
    """

    def __init__(self, system: Bvass1, bound: int, complete_to: int, budget: Budget | None = None):
        self.system = system
        self.bound = bound
        self.complete_to = complete_to
        self.budget = budget = Budget() if budget is None else budget
        self.residue_cache = ResidueCache(system, budget)
        # the largest coverable values at bound + 1, built by ``max_coverable``
        self.max_coverable_values: list[int] = []
        # the closed reach profile that refuted the query, if one did
        self.profile: Profile | None = None

        nq = system.num_states
        # the reach masks' window, charged before they exist
        budget.charge(nq * (bound + 1))

        # the packed path tables, and one view per pump context (state, m*)
        self.blocks: list[_Block] = []
        self.contexts: list[_Row] = []

        # one queue for both tables: reach keys are states, path keys (block, state)
        self.reach = BoundedReach(system, bound, justify=True)
        self.reach_masks = self.reach.masks
        self.reason = KERNEL
        self._run()

    def max_coverable(self) -> list[int]:
        """Per state, the largest coverable value up to bound + 1 (-1: none)."""
        if not self.max_coverable_values:
            self.max_coverable_values = self.residue_cache.max_coverable(self.bound + 1)
        return self.max_coverable_values

    def pump(self, states: list[int]) -> None:
        """Activate the pump contexts of ``states``, the cyclic states
        (``_cyclic_states``), and resume the fixpoint.  Each state gets one
        block per run of leaf counters, each charged its whole window, |Q|
        x its width, when it is built."""
        self.reason = PUMP_FIXPOINT
        nq = self.system.num_states
        top_of = self.max_coverable()
        stride = 2 * self.bound + 2
        per_block = max(1, _BLOCK_BITS // stride)
        for s in states:
            top = min(top_of[s], self.bound)
            for m_lo in range(1, top + 1, per_block):
                rows = min(per_block, top + 1 - m_lo)
                self.budget.charge(nq * rows * stride)
                block = _Block(s, m_lo, rows, self.bound, len(self.contexts), nq)
                self.blocks.append(block)
                self.contexts += [_Row(block, r) for r in range(rows)]
                # row r's leaf s(m_lo + r), at bit r·W + m_lo + r
                seed = sum(1 << (r * (stride + 1) + m_lo) for r in range(rows))
                self._add_p(block, s, seed, ("self",))
        self._run()

    # -- residue probes

    def _probe(self, state: int, n0: int, d: int) -> bool:
        if d == 1:
            return n0 <= self.max_coverable_values[state]
        return self.residue_cache.query(state, n0, d)

    # -- rule application

    def _add_p(self, block: _Block, q: int, bits: int, rule: tuple) -> None:
        """Add the bits a path rule derives at q.  At the pumped state, bits
        below a row's leaf counter are anchors, not path nodes (the leaf's
        deepest smaller ancestor would move off the node the path starts
        under): they fire ``rule``'s pump rule after the path bits are logged."""
        bits &= block.window
        anchors = 0
        if q == block.state:
            anchors = bits & block.below
            bits ^= anchors
        new = bits & ~block.masks[q]
        if new:
            block.masks[q] |= new
            reach = self.reach
            reach.tick += 1
            block.log[q].append((reach.tick, rule, new))
            if not block.pending[q]:
                reach.queue.append((block, q))
            block.pending[q] |= new
        if anchors:
            self._fire_top(block, anchors, rule)

    def _fire_top(self, block: _Block, bits: int, rule: tuple) -> None:
        """Probe each row's anchors ``bits``, strictly below its leaf counter;
        a positive probe adds the anchor's bit to the reach table by the pump
        rule ("pump", the row's view index, rule)."""
        bits &= ~block.probed
        if not bits:
            return
        s = block.state
        reach = self.reach
        masks = reach.masks
        bits &= ~(masks[s] * block.rep)
        stride = block.stride
        while bits:
            low = bits & -bits
            bits ^= low
            r, n = divmod(low.bit_length() - 1, stride)
            if (masks[s] >> n) & 1:
                continue  # an earlier row of this event added it
            block.probed |= low
            m_star = block.m_lo + r
            if self._probe(s, m_star, m_star - n):
                reach.add(s, 1 << n, ("pump", block.first + r, rule))
        # bits probed positive earlier are already reach bits; nothing to redo

    def _run(self) -> None:
        reach = self.reach
        queue = reach.queue
        while queue:
            key = queue.popleft()
            if type(key) is int:
                self._on_reach_delta(key, reach.step(key))
            else:
                block, q = key
                delta = block.pending[q]
                block.pending[q] = 0
                self._on_path_delta(block, q, delta)

    def _on_reach_delta(self, q: int, delta: int) -> None:
        """Reach bits at q as side branches of the path tables, through q's
        branch rules into every block with path bits at the other child;
        the kernel has already applied the reach rules."""
        for (src, left, (_, i)) in self.reach.by_right[q]:
            rule = ("branch", i, 0)
            for block in self.blocks:
                if pmask := block.masks[left]:
                    self._add_p(block, src, _sumset(delta, pmask), rule)
        for (src, right, (_, i)) in self.reach.by_left[q]:
            rule = ("branch", i, 1)
            for block in self.blocks:
                if pmask := block.masks[right]:
                    self._add_p(block, src, _sumset(delta, pmask), rule)

    def _on_path_delta(self, block: _Block, q: int, delta: int) -> None:
        reach = self.reach
        reach_masks = self.reach_masks
        for (src, z, rule) in reach.up[q]:
            self._add_p(block, src, _shift_parent(delta, z), rule)
        for (src, right, (_, i)) in reach.by_left[q]:
            self._add_p(block, src, _sumset(delta, reach_masks[right]), ("branch", i, 0))
        for (src, left, (_, i)) in reach.by_right[q]:
            self._add_p(block, src, _sumset(reach_masks[left], delta), ("branch", i, 1))

    # -- results

    def holds(self, state: int, n: int) -> bool:
        if not 0 <= n <= self.complete_to:
            raise ValueError(f"counter {n} outside the decided range [0, {self.complete_to}]")
        return bool((self.reach_masks[state] >> n) & 1)


# ---------------------------------------------------------------------------
# reach profiles


def _periodic(bits: int, t: int, p: int, width: int) -> int:
    """Bits [0, width) of the set that is ``bits`` below t + p and repeats
    its bits [t, t + p) with period p from t on."""
    if width <= t + p:
        return bits & ((1 << width) - 1)
    tail, span = bits >> t & ((1 << p) - 1), p
    while span < width - t:
        tail |= tail << span
        span += span
    return (bits & ((1 << t) - 1) | tail << t) & ((1 << width) - 1)


def _tail(mask: int, window: int) -> tuple[int, int] | None:
    """(t, p) for the smallest period p <= window / 4 with which the bits of
    ``mask`` on [0, window] repeat from some t <= window / 2, and the least
    such t; None when there is no such p."""
    mask &= (1 << (window + 1)) - 1
    for p in range(1, window // 4 + 1):
        # the highest i <= window - p with bit i unlike bit i + p, plus one
        t = ((mask ^ mask >> p) & ((1 << (window + 1 - p)) - 1)).bit_length()
        if t <= window // 2:
            return t, p
    return None


def _closed(system: Bvass1, profile: Profile) -> bool:
    """Does ``profile`` hold 0 at its final states and close under the rules
    of its states?  Tested with masks on the window [0, W], which
    ``Profile`` shows is enough; every state a rule of a masked state
    reaches must be masked."""
    t, p, masks = profile.threshold, profile.period, profile.masks
    width = profile.window + 1
    full = (1 << width) - 1
    ext = {q: _periodic(m, t, p, width) for q, m in masks.items()}
    if any(not ext[f] & 1 for f in system.finals if f in ext):
        return False
    for src, z, target in system.unary:
        if src in ext and _shift_parent(ext[target], z) & full & ~ext[src]:
            return False
    for src, left, right in system.branching:
        if src in ext and _sumset(ext[left], ext[right]) & full & ~ext[src]:
            return False
    return True


def reach_profile(system: Bvass1, cone: set[int], budget: Budget) -> Profile | None:
    """The cone's reach sets as a closed profile, or None.

    An unjustified kernel runs under the cap 2N + 4|cone|, N =
    ``PROFILE_WINDOW``, the budget charged |cone| x its width first.
    When the cone is not the whole system, the kernel's system keeps the
    cone's rules and finals alone: the cone is closed under successors,
    so its states' sets are the same, and states outside it cost nothing.
    Each cone state's mask on [0, N] gives a periodic tail (``_tail``);
    the profile takes the largest threshold T and the lcm P of the
    periods, and extends each mask with its own tail.  There is none when
    a mask shows no tail, when P > N, or when the profile does not close.
    Built over the cone alone, the profile does not depend on the rest of
    the system.
    """
    cap = 2 * PROFILE_WINDOW + 4 * len(cone)
    budget.charge(len(cone) * (cap + 1))
    if len(cone) < system.num_states:
        system = replace(
            system,
            unary=tuple(t for t in system.unary if t.source in cone),
            branching=tuple(t for t in system.branching if t.source in cone),
            finals=system.finals & cone,
        )
    kernel = BoundedReach(system, cap)
    kernel.run()
    tails = {q: _tail(kernel.masks[q], PROFILE_WINDOW) for q in cone}
    if None in tails.values():
        return None
    threshold = max(t for t, _ in tails.values())
    period = lcm(*(p for _, p in tails.values()))
    if period > PROFILE_WINDOW:
        return None
    masks = {q: _periodic(kernel.masks[q], t, p, threshold + period) for q, (t, p) in tails.items()}
    profile = Profile(threshold, period, masks)
    return profile if _closed(system, profile) else None


def run_query(query: ReachQuery, budget: Budget | None = None) -> FixpointTables:
    """Decide one configuration q(n), kernel first; pump contexts come last.

    Four steps on one ``FixpointTables`` and one fixpoint:

    1. the reach kernel under B saturates with no pump context; if the
       query bit is set, that is the answer, and its certificate has no
       pumps;
    2. otherwise the answer is NO when no state of q's cone lies on a
       cycle (no context could add a bit), or when n is above q's largest
       coverable value at B + 1, the values the contexts read;
    3. otherwise the answer is NO when a closed reach profile of the cone
       (``reach_profile``) lacks n at q; the tables keep it as
       ``profile``;
    4. only then are the cone's contexts activated and the fixpoint
       resumed.

    ``reason`` on the tables names the step.  The tables promise ``holds``
    for the query only: a bit of another state, or of q below n, may be
    missing when it needs a context that was never activated.

    Step 2 could refute at n equal to the largest coverable value m as
    well, since step 1 has always answered such a query.  As m <= B, m is
    q's largest reachable value, and a shortest derivation of q(m) keeps
    its counters within m + |Q| - 1 <= B (the lemma in
    ``ResidueCache.max_coverable``), where the kernel finds it.
    """
    system = query.system
    state, n = query.state, query.n
    tables = FixpointTables(system, query.bound, n, budget)
    if tables.holds(state, n):
        return tables
    cone = _closure(system.state_graph[0], state)
    cyclic = _cyclic_states(system, cone)
    if not cyclic:
        tables.reason = NO_CYCLE
    elif n > tables.max_coverable()[state]:
        tables.reason = f"{ABOVE_COVERABLE} {tables.max_coverable_values[state]}"
    elif (profile := reach_profile(system, cone, tables.budget)) and not profile.holds(state, n):
        tables.reason = f"{PROFILE} {profile.threshold} {profile.period}"
        tables.profile = profile
    else:
        tables.pump(cyclic)
    return tables


def run_batch(system: Bvass1, nmax: int, budget: Budget | None = None) -> FixpointTables:
    """One fixpoint answering every query with counter up to nmax.

    Uses the bound for the largest counter; a tree certifying q(n) under
    its own bound is also valid under a larger one, so the per-query and
    batched answers agree.  The kernel saturates first, as in run_query,
    and then every cyclic state is pumped at once, so ``holds`` is
    complete for every state.
    """
    if nmax < 0:
        raise ValueError("nmax must be a natural number")
    tables = FixpointTables(system, reach_bound(system, nmax), nmax, budget)
    cyclic = _cyclic_states(system, range(system.num_states))
    if cyclic:
        tables.pump(cyclic)
    return tables


def decide_reach(query: ReachQuery, budget: Budget | None = None) -> bool:
    return run_query(query, budget).holds(query.state, query.n)


# ---------------------------------------------------------------------------
# certificate extraction


def _resolve_branch_split(left: int, right: int, total: int) -> int:
    """Lowest left counter m0 with bit m0 of left and bit total - m0 of right.

    The callers pass the two tables as they stood before the parent's
    tick, so the split found is one the parent's rule could have used.
    Walks the set bits of the sparser side in [0, total]: left's upward,
    or right's downward, which visits the left counters upward as well.
    """
    window = (1 << (total + 1)) - 1
    left &= window
    right &= window
    if left.bit_count() <= right.bit_count():
        while left:
            low = left & -left
            m0 = low.bit_length() - 1
            if (right >> (total - m0)) & 1:
                return m0
            left ^= low
    else:
        while right:
            m1 = right.bit_length() - 1
            if (left >> (total - m1)) & 1:
                return total - m1
            right ^= 1 << m1
    raise AssertionError("no justified split found; the fixpoint tables are inconsistent")


class _ReplayOverLimit(Exception):
    """A size-limited replay grew past its allowance."""


def _replay_step(
    reach: BoundedReach, contexts: list[_Row], ci: Optional[int], m: int, ts: int, rule: tuple
) -> tuple:
    """How a key with counter m unfolds, given its first justification.

    ``ts`` and ``rule`` are the tick and rule of the add event that set
    the key's bit in table ``ci`` (None for the reach table).  Returns
    (starts a path, children) with children as (address suffix, key), a
    key being (context index or None for a reach node, state, counter);
    children is None at a pumped leaf.  A pump rule at a reach node
    starts a path of its context anchored at that node.
    """
    kind = rule[0]
    if kind == "final":
        return False, ()
    if kind == "self":
        return False, None
    starts_path = kind == "pump"
    if starts_path:
        _, ci, rule = rule  # the path rule that derived the anchor
    if rule[0] == "unary":
        _, z, target = reach.system.unary[rule[1]]
        return starts_path, (("0", (ci, target, m + z)),)
    # a branch; on a path, the path continues on side rule[2]
    _, left_state, right_state = reach.system.branching[rule[1]]
    lci = ci if ci is not None and rule[2] == 0 else None
    rci = ci if ci is not None and rule[2] == 1 else None
    left = (reach if lci is None else contexts[lci]).as_of(left_state, ts)
    right = (reach if rci is None else contexts[rci]).as_of(right_state, ts)
    m0 = _resolve_branch_split(left, right, m)
    return starts_path, (("0", (lci, left_state, m0)), ("1", (rci, right_state, m - m0)))


def _loop_run(steps: dict[tuple, tuple], q: int, m: int, z: int, bits: int) -> tuple[list[tuple], tuple]:
    """The keys q(m), q(m+z), ... that one self-loop event set, and the key below them.

    The run goes on while the next counter's bit belongs to the same
    event, whose rule is then the same loop, and stops early at a key
    already replayed.  Returns (the run's keys, the child of its last).
    """
    if z > 0:
        x = bits >> m
        length = (~x & (x + 1)).bit_length() - 1  # trailing ones
    else:
        length = m + 1 - (~bits & ((1 << (m + 1)) - 1)).bit_length()
    keys = []
    for c in range(m, m + length * z, z):
        key = (None, q, c)
        if key in steps:
            return keys, key
        keys.append(key)
    return keys, (None, q, m + length * z)


def _replay(
    reach: BoundedReach, contexts: list[_Row], state: int, n: int, key_limit: int | None = None, first: int = 0
) -> tuple[dict[int, Def], dict[str, Config], dict[str, int], dict[str, tuple[str, int]]]:
    """Read the derivation of state(n) back from the first justifications.

    A derivation is fixed by its (table, state, counter) keys, so each key
    is unfolded once.  A reach key with no pumped leaf below it becomes a
    def, numbered when its children are done; the other keys form the
    spine, unfolded from the root down to the pumped leaves, with a graft
    wherever it meets a def.  A reach key set by a +1 or -1 self-loop of
    its own state heads a run of keys down the loop, all set by that one
    event: the run is taken in one step, and numbered in one step once
    the key below it is done, in the order a key-by-key walk would give.
    Returns (defs, numbered from ``first``, spine labels with the graft
    leaves, grafts, pumps as leaf -> (anchor, gap)).  ``key_limit`` bounds
    the number of distinct keys; a tree has at least as many nodes.
    """
    unary = reach.system.unary
    steps: dict[tuple, tuple] = {}
    ids: dict[tuple, Optional[int]] = {}  # key -> def id, None on the spine
    defs: dict[int, Def] = {}
    runs: dict[tuple, tuple[list[tuple], tuple]] = {}  # head key -> its run, head first, and the key below
    root = (None, state, n)
    stack = [root]
    while stack:
        key = stack[-1]
        step = steps.get(key)
        if step is None:
            if key_limit is not None and len(steps) >= key_limit:
                raise _ReplayOverLimit
            ci, q, m = key
            ts, rule, bits = (reach if ci is None else contexts[ci]).entry_of(q, m)
            # runs are reach keys: a path table's loop step stays on the path
            _, z, target = unary[rule[1]] if ci is None and rule[0] == "unary" else (None, 0, None)
            if z and target == q:
                run, below = runs[key] = _loop_run(steps, q, m, z, bits)
                if key_limit is not None and len(steps) + len(run) > key_limit:
                    raise _ReplayOverLimit
                for k, child in zip(run, run[1:] + [below]):
                    steps[k] = (False, (("0", child),))
                step = steps[key]
                todo = [below] if below not in steps else None
            else:
                step = steps[key] = _replay_step(reach, contexts, ci, m, ts, rule)
                todo = [ck for _, ck in reversed(step[1]) if ck not in steps] if step[1] else None
            if todo:
                # children finish before their parent, so get smaller ids
                stack.extend(todo)
                continue
        stack.pop()
        if key in ids:
            continue
        if runs and key in runs:
            # the run's keys, numbered bottom-up as a key-by-key walk would
            run, below = runs.pop(key)
            i = ids[below]
            for k in reversed(run):
                if i is not None:
                    defs[first + len(defs)] = (Config(k[1], k[2]), (i,))
                    i = first + len(defs) - 1
                ids[k] = i
            continue
        starts_path, children = step
        i = None
        if key[0] is None and not starts_path and children is not None:
            kids = tuple([ids[ck] for _, ck in children])
            if None not in kids:
                i = first + len(defs)
                defs[i] = (Config(key[1], key[2]), kids)
        ids[key] = i

    labels: dict[str, Config] = {}
    grafts: dict[str, int] = {}
    pumps: dict[str, tuple[str, int]] = {}
    # spine items: (address, key, anchor address)
    spine = [("", root, "")]
    while spine:
        addr, key, anchor = spine.pop()
        if len(labels) >= _REPLAY_NODE_LIMIT:
            raise AssertionError("replayed spine grew past the safety limit")
        ci, q, m = key
        labels[addr] = Config(q, m)
        i = ids[key]
        if i is not None:
            grafts[addr] = i
            continue
        starts_path, children = steps[key]
        if children is None:
            pumps[addr] = (anchor, contexts[ci].m_star - labels[anchor].counter)
            continue
        if starts_path:
            anchor = addr
        for suffix, ck in children:
            spine.append((addr + suffix, ck, anchor))
    return defs, labels, grafts, pumps


def extract_certificate(query: ReachQuery, tables: FixpointTables) -> Certificate:
    """Replay the recorded first justifications into one certificate."""
    if not tables.holds(query.state, query.n):
        raise ValueError("extract_certificate needs a positive decision")
    defs, labels, grafts, raw_pumps = _replay(tables.reach, tables.contexts, query.state, query.n)
    pumps = {leaf: PumpRecord(anchor=anchor, modulus=d) for leaf, (anchor, d) in sorted(raw_pumps.items())}
    return Certificate(tree=PartialTree(labels), pumps=pumps, defs=defs, grafts=grafts)


# ---------------------------------------------------------------------------
# expansion into a full derivation tree


def _witness_value_scan(
    system: Bvass1, state: int, start: int, d: int, search_cap: int
) -> tuple[int, BoundedReach, int]:
    """Smallest reachable value >= start congruent to start modulo d.

    Searches complete derivations whose counters stay under a doubling
    cap; intermediate counters may need to be much larger than the value
    itself, hence the cap growth.  Returns (value, the justified kernel
    at the cap it was found at, largest cap tried without finding it);
    the last is 0 on a first-cap hit and lets the caller bound the
    witness tree size from below before committing to a replay.
    """
    cap = max(4 * reach_bound(system, start), 64)
    prev = 0
    while True:
        cap = min(cap, search_cap)
        reach = BoundedReach(system, cap, justify=True)
        reach.run()
        # byte view: per-position tests on the huge mask must stay O(1)
        buf = reach.masks[state].to_bytes(cap // 8 + 1, "little")
        for v in range(start, cap + 1, d):
            if buf[v >> 3] & (1 << (v & 7)):
                return v, reach, prev
        if cap >= search_cap:
            raise WitnessSearchFailed(
                f"no reachable value >= {start} congruent modulo {d} at state "
                f"{system.state_name(state)} with counters up to {search_cap}"
            )
        prev = cap
        cap *= 2


def expand_certificate(system: Bvass1, certificate: Certificate, max_nodes: int) -> PartialTree:
    """Unroll every pump into concrete segments, giving a full derivation tree.

    The certificate is folded bottom-up into one DAG of defs, deeper
    anchors first, and written out once.  A spine node off the pumping
    paths becomes a def over its children's defs.  At the anchor of a
    pumped leaf l(m*) with gap d, the witness derivation of a reachable
    value v = m* + k*d is replayed as defs, and the anchor-to-leaf path is
    written k+1 times above it, copy i with its counters raised by i*d,
    every copy sharing the path's side children.  The tree's size is read
    off the defs before it is written.  The search for a witness value
    gives up at counters above ``DEFAULT_WITNESS_CAP``.
    """
    labels, grafts, defs = certificate.tree.labels, certificate.grafts, dict(certificate.defs)
    sizes = _def_sizes(defs)
    unfolded = len(labels) - len(grafts) + sum(sizes[i] for i in grafts.values())
    if unfolded > max_nodes:
        raise ExpandOverflow(unfolded, max_nodes)
    top = max(defs, default=-1) + 1  # the next free id; ids read from text may be sparse
    anchors = {rec.anchor: (leaf, rec.modulus) for leaf, rec in certificate.pumps.items()}
    ids = dict(grafts)  # spine address -> def id; a path node gets none, its anchor the top copy
    for addr in sorted(labels, key=lambda a: (-len(a), a)):
        if addr in ids or addr in certificate.pumps:
            continue
        if addr not in anchors:
            kids = [ids.get(c) for c in (addr + "0", addr + "1") if c in labels]
            if None not in kids:
                defs[top] = (labels[addr], tuple(kids))
                ids[addr], top = top, top + 1
            continue
        leaf, d = anchors[addr]
        leaf_cfg = labels[leaf]
        value, witness, cap_prev = _witness_value_scan(system, leaf_cfg.state, leaf_cfg.counter, d, DEFAULT_WITNESS_CAP)
        k = (value - leaf_cfg.counter) // d

        # cheap overflow bounds before any replay: a derivation missing from
        # the cap_prev-bounded fixpoint contains a counter above cap_prev,
        # and a node with counter c heads a subtree of more than c nodes
        # (its value is consumed one step at a time); the path copies are
        # distinct nodes beside the witness
        if cap_prev >= max_nodes:
            raise ExpandOverflow(cap_prev + 1, max_nodes)
        copies = (k + 1) * (len(leaf) - len(addr))
        if copies + 1 > max_nodes:
            raise ExpandOverflow(copies + 1, max_nodes)
        try:
            wit_defs, _, wit_grafts, _ = _replay(witness, [], leaf_cfg.state, value, max_nodes - copies, top)
        except _ReplayOverLimit:
            raise ExpandOverflow(max_nodes + 1, max_nodes) from None
        defs.update(wit_defs)
        below = wit_grafts[""]
        top += len(wit_defs)
        # the path bottom-up: each node's label, the child that goes on down
        # the path, and the def of its other child, if any
        path = []
        for j in range(len(leaf) - 1, len(addr) - 1, -1):
            other = leaf[:j] + "10"[int(leaf[j])]
            path.append((labels[leaf[:j]], leaf[j], ids[other] if other in labels else None))
        for i in range(k, -1, -1):
            for cfg, on, other in path:
                kids = (below,) if other is None else (below, other) if on == "0" else (other, below)
                defs[top] = (Config(cfg.state, cfg.counter + i * d), kids)
                below, top = top, top + 1
        ids[addr] = below

    root = ids[""]
    size = _def_sizes(defs)[root]
    if size > max_nodes:
        raise ExpandOverflow(size, max_nodes)
    return Certificate(PartialTree({"": defs[root][0]}), {}, defs, {"": root}).unfold()
