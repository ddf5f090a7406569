"""Residue reachability.

Decides queries of the form: is q(n) reachable for some n >= n0 with
n ≡ n0 (mod d)?  The procedure works with a window of concrete counter
values [0, cap] where cap = n0 + |Q|·d, plus residue classes modulo d
for everything above:

- S: configurations with a derivation tree entirely inside [0, cap];
- R0: residues of root values >= cap whose root step lands in S;
- R: closure of R0 upward through the transitions, modulo d.

Some n >= n0 with n ≡ n0 (mod d) is reachable at q exactly when S holds
one within [n0, cap] or R holds (q, n0 mod d), so the query is one test
of each.  S is read first, and a query that S answers never builds R0
or R (a table builds them on first read).  ``residue_reachable`` stops
S as soon as it answers the query, so its table promises that query's
answer alone; ``compute_table`` and ``ResidueCache`` saturate S, and
their tables answer every state.

Value sets are packed into Python integers, one bit per counter value
(or per residue class); the fixpoints are semi-naive worklists over
those masks.  S comes from ``BoundedReach``, the one bounded-reach
kernel, which the reach engine (its reach rules under the bound B) and
certificate expansion (the witness for each pumped leaf) run as well.
Those two keep an ``EventLog``, one (tick, rule, bits) entry per add
event, to replay a derivation, as the reach engine's path tables do;
the residue tables never replay and log nothing.  The kernel and R's
fixpoint apply the system's rules through its one ``Bvass1.rule_index``.
Every sumset, of counter values and of residues alike, goes through
``_sumset``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .model import Budget, Bvass1

@dataclass(frozen=True)
class ResidueQuery:
    system: Bvass1
    start_state: int
    n0: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n0 < 0:
            raise ValueError("n0 must be >= 0")
        if not 0 <= self.start_state < self.system.num_states:
            raise ValueError("start state out of range")

    @property
    def big_n(self) -> int:
        return self.system.num_states * self.d

    @property
    def cap(self) -> int:
        return self.n0 + self.big_n


@dataclass(frozen=True)
class ResidueTable:
    """The sets of one residue query, bit-packed per state.

    ``s_masks[q]`` has bit m set iff q(m) has a cap-bounded derivation;
    the residue masks have bit r set for residue class r modulo d.  Only
    S is built with the table: R0, R and the round count of R's fixpoint
    are built on first read, which a query that S answers never makes.

    A table from ``compute_table`` answers every state.  One that
    ``residue_reachable`` returns after a YES by S holds the bits S had
    when it answered, a subset of the full sets: its ``holds`` is exact,
    and any other reading may miss a witness.
    """

    query: ResidueQuery
    big_n: int
    cap: int
    s_masks: tuple[int, ...]

    @cached_property
    def r0_masks(self) -> tuple[int, ...]:
        return tuple(_r0_value_masks(self.query.system, self.s_masks, self.cap, self.query.d))

    @cached_property
    def _closure(self) -> tuple[tuple[int, ...], int]:
        d = self.query.d
        s_mod = [_fold_mod(m, d) for m in self.s_masks]
        r, iterations = _r_fixpoint(self.query.system, s_mod, self.r0_masks, d)
        return tuple(r), iterations

    @property
    def r_masks(self) -> tuple[int, ...]:
        return self._closure[0]

    @property
    def iterations(self) -> int:
        return self._closure[1]

    def answers(self, state: int, n0: int) -> bool:
        """Is state(n) reachable for some n >= n0 with n ≡ n0 (mod d)?

        Valid for n0 in [W, W + d) with W the query's n0: a witness in
        [W, n0) congruent to n0 would lie less than d below it.  S is
        read first, for a witness in [n0, cap]; R only when it has none.
        """
        d = self.query.d
        if _fold_mod(self.s_masks[state] >> n0, d) & 1:
            return True
        return bool((self.r_masks[state] >> (n0 % d)) & 1)

    @property
    def holds(self) -> bool:
        return self.answers(self.query.start_state, self.query.n0)


def _sumset(a: int, b: int) -> int:
    """{x + y : bit x of a, bit y of b} as a bitmask; operands untruncated.

    Walks the runs of one operand: the other is smeared over a run of n
    consecutive bits by O(log n) doubling shift-ors, then shifted to the
    run's start.  A single bit is one shift.  Otherwise the walk takes the
    operand with fewer set bits, or, when that has more than two, the one
    with fewer runs (x ^ (x << 1) has two bits per run of x): a packed
    pump table has a run or more per row, where the reach mask it is
    added to often has one.
    """
    if a == 0 or b == 0:
        return 0
    na, nb = a.bit_count(), b.bit_count()
    if na > nb:
        a, b, na = b, a, nb
    if na == 1:
        return b << (a.bit_length() - 1)
    if na > 2 and (a ^ (a << 1)).bit_count() > (b ^ (b << 1)).bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        past = a + low  # the run starting at low carries into the bit above it
        end = past & -past
        a = past ^ end
        lo = low.bit_length() - 1
        n = end.bit_length() - 1 - lo
        smear, width = b, 1
        while width < n:
            step = width if width + width <= n else n - width
            smear |= smear << step
            width += step
        out |= smear << lo
    return out


def _shift_parent(bits: int, z: int) -> int:
    """Child counters -> parent counters along a unary step (child = parent + z)."""
    if z == 1:
        return bits >> 1
    if z == -1:
        return bits << 1
    return bits


def _fold_mod(mask: int, d: int, base: int = 0) -> int:
    """Residues modulo d of { base + j : bit j of mask }."""
    if mask == 0:
        return 0
    if d == 1:
        return 1
    g = mask << (base % d)
    dmask = (1 << d) - 1
    out = 0
    while g:
        out |= g & dmask
        g >>= d
    return out


class EventLog:
    """A justified table's reading: ``log[q]`` holds one ``(tick, rule, bits)``
    entry per add event that set bits of q, in tick order, their bits
    disjoint and together q's mask."""

    __slots__ = ()

    def entry_of(self, q: int, m: int) -> tuple[int, tuple, int]:
        """The log entry (tick, rule, bits) of the add event that set bit m of q."""
        for entry in self.log[q]:
            if (entry[2] >> m) & 1:
                return entry
        raise KeyError((q, m))

    def as_of(self, q: int, before: int) -> int:
        """The bits of q set by add events with ticks below ``before``."""
        out = 0
        for tick, _, bits in self.log[q]:
            if tick >= before:
                break
            out |= bits
        return out


class BoundedReach(EventLog):
    """Per-state bitmasks of the values in [0, cap] with a cap-bounded derivation.

    The one bounded-reach fixpoint: S of the residue tables, the reach
    masks of the reach engine under its bound B, and expansion's witness
    tables.  ``run`` applies the system's rules (finals at 0, unary steps,
    branch sums) with a semi-naive worklist, and runs until the caller's
    query is answered or the masks saturate.  A run that stops early has
    taken the first steps of a saturating run, and a later ``run()``
    takes the rest, ending on the same masks, log and ticks.  Callers that
    interleave rules of their own (the reach engine's pump rules) call
    ``add`` and ``step`` and drive ``queue`` themselves.  A state's own
    +1/-1 self-loops are saturated in closed form (they fill the mask
    downward resp. upward), which keeps long pump chains from dribbling
    through the queue one bit at a time.

    With ``justify``, each add event, and each self-loop fill it sets
    off, appends one ``(tick, rule, bits)`` entry to the state's log; a
    bit filled by a self-loop is justified by that loop, whose child is
    the neighbour toward the bit that started the fill.  Every entry
    takes a fresh tick of ``tick``, a clock other tables may share, so
    the premises of a rule were set by events with strictly smaller
    ticks.  The masks cost (cap + 1) bits per state; callers with a
    budget charge that window before they build the kernel.
    """

    def __init__(self, system: Bvass1, cap: int, justify: bool = False):
        nq = system.num_states
        self.system = system
        self.cap = cap
        self.full = (1 << (cap + 1)) - 1
        self.log: list[list[tuple[int, tuple, int]]] | None = [[] for _ in range(nq)] if justify else None
        self.tick = 0
        self.up, self.by_left, self.by_right, self._loops = system.rule_index
        self.masks = [0] * nq
        self._pending = [0] * nq  # nonzero exactly while q is queued
        self.queue: deque = deque()
        for f in sorted(system.finals):
            self.add(f, 1, ("final",))

    def add(self, q: int, bits: int, rule: tuple) -> None:
        """Set bits of q (clipped to [0, cap]) derived by one rule."""
        old = self.masks[q]
        new = bits & self.full & ~old
        if not new:
            return
        log = self.log
        if log is not None:
            self.tick += 1
            log[q].append((self.tick, rule, new))
        mask = old | new
        down, up = self._loops[q]
        if down is not None:
            fill = ((1 << mask.bit_length()) - 1) & ~mask
            if fill:
                mask |= fill
                if log is not None:
                    self.tick += 1
                    log[q].append((self.tick, down, fill))
        if up is not None:
            fill = self.full & -(mask & -mask) & ~mask
            if fill:
                mask |= fill
                if log is not None:
                    self.tick += 1
                    log[q].append((self.tick, up, fill))
        self.masks[q] = mask
        if not self._pending[q]:
            self.queue.append(q)
        self._pending[q] |= mask & ~old

    def step(self, q: int) -> int:
        """Apply the system's rules to the bits queued q gained since its last step; returns them.

        A rule is applied only when it can yield a bit its source lacks: a
        branch rule needs a source that is not full and a sibling that is not
        empty, and ``add`` is called only with new bits.  So the add events,
        and with them the masks, logs and ticks, are those of applying every
        rule.
        """
        delta = self._pending[q]
        self._pending[q] = 0
        masks, add, full = self.masks, self.add, self.full
        for (src, z, rule) in self.up[q]:
            bits = _shift_parent(delta, z) & full & ~masks[src]
            if bits:
                add(src, bits, rule)
        for (src, right, rule) in self.by_left[q]:
            room = full & ~masks[src]
            if room and masks[right]:
                bits = _sumset(delta, masks[right]) & room
                if bits:
                    add(src, bits, rule)
        for (src, left, rule) in self.by_right[q]:
            room = full & ~masks[src]
            if room and masks[left]:
                bits = _sumset(masks[left], delta) & room
                if bits:
                    add(src, bits, rule)
        return delta

    def run(self, state: int = 0, base: int = 0, rel: int = 0) -> None:
        """Step the worklist until it is empty, or until the goal is met:
        ``state`` holds base + r for some bit r of ``rel``.  The default
        ``rel`` = 0 sets no goal, so the masks saturate.  A bit once set
        stays set, so a met goal stays met.  The goal is tested before
        each step, the first included, as the finals may meet it.  A test
        shifts one mask right by ``base``, which keeps only its bits in
        [base, cap], so its cost does not grow with ``base``."""
        queue, step, masks = self.queue, self.step, self.masks
        while queue and not (rel and masks[state] >> base & rel):
            step(queue.popleft())


def _r0_value_masks(system: Bvass1, s_masks: tuple[int, ...], cap: int, d: int) -> list[int]:
    """Residues of root values >= cap with the root step landing inside S.

    A +1 root step cannot apply (its child would exceed cap); a -1 step
    allows children at cap-1 and cap, a 0 step only a child at exactly
    cap; a branching root takes any S x S pair summing to >= cap.
    """
    out = [0] * system.num_states
    for t in system.unary:
        if t.delta == -1:
            for m in (cap - 1, cap):
                if m >= 0 and (s_masks[t.target] >> m) & 1:
                    out[t.source] |= 1 << ((m + 1) % d)
        elif t.delta == 0:
            if (s_masks[t.target] >> cap) & 1:
                out[t.source] |= 1 << (cap % d)
    for t in system.branching:
        sums = _sumset(s_masks[t.left], s_masks[t.right])
        high = sums >> cap  # bit j = root value cap + j
        if high:
            out[t.source] |= _fold_mod(high, d, base=cap)
    return out


def _r_fixpoint(
    system: Bvass1, s_mod: list[int], r0: tuple[int, ...], d: int
) -> tuple[list[int], int]:
    """Close R0 upward through the transitions modulo d; counts rounds.

    Jacobi rounds: each evaluates its rules on the masks the round
    started from.  A rule whose premises did not change in the last round
    would add nothing new, so a round evaluates only the rules with a
    changed premise (in the first, a nonempty one).
    """
    nq = system.num_states
    up, by_left, by_right, _ = system.rule_index
    branching = system.branching
    r = list(r0)
    changed = [q for q in range(nq) if r[q]]
    iterations = 0
    while True:
        # every evaluation pass counts, including the stabilizing one; a
        # nonempty seed leaves at most |Q|*d - 1 residues to add, so the
        # count never exceeds |Q|*d
        iterations += 1
        new = [0] * nq
        branches = set()
        for p in changed:
            for (src, z, _) in up[p]:
                # parent residue = child residue - z (mod d)
                new[src] |= _fold_mod(r[p], d, base=-z)
            branches.update(rule[1] for (_, _, rule) in by_left[p])
            branches.update(rule[1] for (_, _, rule) in by_right[p])
        for i in branches:
            t = branching[i]
            rl, rr = r[t.left], r[t.right]
            new[t.source] |= _fold_mod(_sumset(rl, s_mod[t.right] | rr) | _sumset(s_mod[t.left], rr), d)
        changed = []
        for q in range(nq):
            extra = new[q] & ~r[q]
            if extra:
                r[q] |= extra
                changed.append(q)
        if not changed:
            break
    big_n = nq * d
    assert iterations <= big_n, f"fixpoint took {iterations} rounds, bound is {big_n}"
    return r, iterations


def _s_table(query: ResidueQuery, budget: Budget | None, rel: int) -> ResidueTable:
    """The table whose S is the kernel run to the goal (query.start_state,
    query.n0, ``rel``), ``rel`` = 0 for a saturated S."""
    system = query.system
    d, cap = query.d, query.cap
    (Budget() if budget is None else budget).charge(system.num_states * (3 * d + cap + 1))
    bounded = BoundedReach(system, cap)
    bounded.run(query.start_state, query.n0, rel)
    return ResidueTable(query=query, big_n=query.big_n, cap=cap, s_masks=tuple(bounded.masks))


def compute_table(query: ResidueQuery, budget: Budget | None = None) -> ResidueTable:
    """Build S for one query, saturated; R0 and R follow on first read.

    The table answers every state.  The budget (a fresh ``Budget()`` for
    None) is charged up front, |Q|·(3d + cap + 1) entries, a bound on the
    sets the table may build: S, R0 and R take cap + 1 + 2d.
    """
    return _s_table(query, budget, 0)


def residue_reachable(query: ResidueQuery, budget: Budget | None = None) -> tuple[bool, ResidueTable]:
    """Decide the query, and return its table, charged as ``compute_table``.

    S runs only until the start state holds some n0 + kd in [n0, cap], or
    until it saturates, and only a saturated S goes on to R0 and R.  So
    the table promises ``holds`` alone: after a YES by S, its other
    readings may miss a witness that the unfinished S lacks.
    """
    d = query.d
    # bits 0, d, ..., |Q|·d: the witnesses n0 + kd <= cap, relative to n0
    rel = ((1 << (query.big_n + d)) - 1) // ((1 << d) - 1)
    table = _s_table(query, budget, rel)
    return table.holds, table


# ---------------------------------------------------------------------------
# window cache and the largest coverable values


class ResidueCache:
    """Shares residue tables across queries with the same modulus.

    The answer for (q, n0, d) is read from the table computed at the
    window base W = d * floor(n0 / d): a witness l >= W with
    l ≡ n0 (mod d) below n0 would satisfy 0 < n0 - l < d with d | n0 - l,
    which is impossible, so the witnesses of the two queries coincide.
    Keying tables by (d, W) collapses the probe storm the reachability
    engine produces into a few dozen table builds.  The tables are charged
    to one budget, a fresh ``Budget()`` when none is given.

    Coverability is the modulus-1 question: the cache keeps the values of
    the widest clamp ``max_coverable`` read, and answers (q, n0, 1), n0 at
    most that clamp, as n0 <= q's value with no table, exact by its lemma.
    """

    def __init__(self, system: Bvass1, budget: Budget | None = None):
        self.system = system
        self.budget = Budget() if budget is None else budget
        self._tables: dict[tuple[int, int], ResidueTable] = {}
        self._clamp, self._coverable = -1, []  # the widest clamp max_coverable read, and its values

    def _table(self, state: int, n0: int, d: int) -> ResidueTable:
        """The table at n0's window base, built on first use."""
        key = (d, (n0 // d) * d)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = compute_table(ResidueQuery(self.system, state, key[1], d), self.budget)
        return table

    def query(self, state: int, n0: int, d: int) -> bool:
        """The residue question (state, n0, d); bad arguments raise as ``ResidueQuery`` does."""
        if d < 1 or n0 < 0 or not 0 <= state < self.system.num_states:
            ResidueQuery(self.system, state, n0, d)  # raises its ValueError
        if d == 1 and n0 <= self._clamp:
            return n0 <= self._coverable[state]
        return self._table(state, n0, d).answers(state, n0)

    def max_coverable(self, clamp: int) -> list[int]:
        """Per state, the largest n <= clamp with some q(m), m >= n, reachable.

        -1 marks an empty reach set.  One modulus-1 table at window base
        clamp gives them all: clamp for a state it answers at clamp, the
        highest S bit for any other.  That bit is exact.  Such
        a state q reaches no value >= clamp, so its reach set is empty or
        has a largest value m < clamp.  Take a derivation of q(m) with
        s(a) above s(b) on one path.  If b > a, grafting s(b)'s subtree at
        s(a) raises every node above by b - a, so q(m + b - a) is
        reachable; if b < a, grafting s(a)'s subtree at s(b) gives
        q(m + a - b).  So b = a, and that graft shortens the tree.  A
        shortest derivation of q(m) thus repeats no state on a path, and
        as a child's counter is at most its parent's plus 1, its counters
        stay within m + |Q| - 1, below the table's cap clamp + |Q|: S
        holds m.
        """
        if clamp == self._clamp:
            return self._coverable
        if not self.system.num_states:
            return []
        table = self._table(0, clamp, 1)
        values = [clamp if table.answers(q, clamp) else s.bit_length() - 1 for q, s in enumerate(table.s_masks)]
        if clamp > self._clamp:
            self._clamp, self._coverable = clamp, values
        return values

    @property
    def tables_built(self) -> int:
        return len(self._tables)
