"""Shared builders and naive reference implementations for the test suites."""
from __future__ import annotations

import random
from typing import Optional

from bvass1.cover_bound import GainEdge, GainGraph, _bfs_paths, build_gain_graph, coverable
from bvass1.gen import gen_doubling, gen_random
from bvass1.model import (
    RESERVED_WORDS,
    Z_VALUES,
    BranchTransition,
    Budget,
    Bvass1,
    Config,
    FormatError,
    NodeClassification,
    PartialTree,
    SemanticError,
    UnaryTransition,
    Witness,
    format_bvass,
    is_accepting,
    parse_bvass,
)
from bvass1.reach import _replay_step
from bvass1.residue import ResidueQuery, compute_table

LOOP_TEXT = """
state a  state f
final f
unary a -1 a
unary a 0 f
"""

# Doubling system at n = 2, written out in the file format.
B2_TEXT = """\
state q   state q_f  state q_0  state q_1  state q_2
final q_f
unary q +1 q
unary q 0 q_2
branch q_2 q_1 q_1
branch q_1 q_0 q_0
unary q_0 -1 q_f
"""


# s climbs, descends, splits and exits; s(0) pumps to s(1)
PUMP_TEXT = """
state s  state f
final f
unary s +1 s
unary s -1 s
unary s 0 f
branch s s s
"""


# q reaches the even values, p the odd ones: the reach profile with
# threshold 0 and period 2 refutes q at every odd n
PARITY_TEXT = """\
state q
state p
final q
unary q -1 p
unary p -1 q
"""

# The cascade level q_7 of the doubling hub reaches exactly 128, so x
# reaches 129 and a the even values and every odd one from 129 on.  The
# cascade's thresholds lie beyond the profile window, so no profile of
# a's cone closes, and a(5), a NO, is left to the pump fixpoint.
BEYOND_WINDOW_TEXT = format_bvass(gen_doubling(7)) + """\
state a
state b
state x
unary a 0 q_f
unary a -1 b
unary b -1 a
unary x -1 q_7
branch a a x
"""


def b2() -> Bvass1:
    return parse_bvass(B2_TEXT)


def loop_gadget() -> Bvass1:
    """Two states: a counts down to itself and may exit to the final f.

    reach(a) is all naturals, reach(f) = {0}.
    """
    return parse_bvass(LOOP_TEXT)


def tree_of(system: Bvass1, labels: dict[str, tuple[str, int]]) -> PartialTree:
    """Build a tree from {address: (state name, counter)}."""
    return PartialTree(
        {addr: Config(system.state_id(name), c) for addr, (name, c) in labels.items()}
    )


def random_valid_tree(system: Bvass1, rng: random.Random, max_nodes: int = 40) -> PartialTree:
    """Grow a random valid partial tree by expanding leaves top-down."""
    state = rng.randrange(system.num_states)
    labels = {"": Config(state, rng.randint(0, 3))}
    frontier = [""]
    while frontier and len(labels) < max_nodes:
        addr = frontier.pop(rng.randrange(len(frontier)))
        if rng.random() < 0.25:
            continue  # leave this node a leaf
        cfg = labels[addr]
        options: list[tuple] = []
        for t in system.unary:
            if t.source == cfg.state and cfg.counter + t.delta >= 0:
                options.append(("u", t))
        options += [("b", t) for t in system.branching if t.source == cfg.state]
        if not options:
            continue
        kind, t = options[rng.randrange(len(options))]
        if kind == "u":
            labels[addr + "0"] = Config(t.target, cfg.counter + t.delta)
            frontier.append(addr + "0")
        else:
            m0 = rng.randint(0, cfg.counter)
            labels[addr + "0"] = Config(t.left, m0)
            labels[addr + "1"] = Config(t.right, cfg.counter - m0)
            frontier.append(addr + "0")
            frontier.append(addr + "1")
    return PartialTree(labels)


def random_instances() -> list[Bvass1]:
    """The 500 seeded systems shared by criteria 3 and 4 (|Q| <= 5, |transitions| <= 10)."""
    out = []
    for seed in range(500):
        out.append(
            gen_random(
                num_states=1 + seed % 5,
                num_unary=(3 + seed) % 8,
                num_branching=seed % 4,
                num_finals=1 + seed % 2,
                seed=seed,
            )
        )
    return out


def lca(a: str, b: str) -> str:
    """Longest common prefix of two addresses."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return a[:i]


def is_ancestor(a: str, b: str) -> bool:
    """True iff ``a`` is an ancestor of ``b`` or equal to it."""
    return b.startswith(a)


# ---------------------------------------------------------------------------
# naive references: direct transcriptions of the definitions, quadratic or
# worse in tree depth, kept to test the linear library code against


def naive_classify_nodes(tree: PartialTree) -> NodeClassification:
    """Walks every present ancestor of every node."""
    increasing: set[str] = set()
    decreasing: set[str] = set()
    anchor_of: dict[str, str] = {}
    labels = tree.labels
    for addr in tree.addresses():
        cfg = labels[addr]
        # ancestors from deepest to the root; the first smaller one is the anchor
        for k in range(len(addr) - 1, -1, -1):
            anc = labels.get(addr[:k])
            if anc is None or anc.state != cfg.state:
                continue
            if anc.counter < cfg.counter and addr not in increasing:
                increasing.add(addr)
                anchor_of[addr] = addr[:k]
            elif anc.counter > cfg.counter:
                decreasing.add(addr)
    return NodeClassification(frozenset(increasing), anchor_of, frozenset(decreasing))


def naive_is_exclusive(tree: PartialTree) -> bool:
    """No two increasing leaves have both anchors at or above their meet."""
    cls = naive_classify_nodes(tree)
    inc_leaves = sorted((a for a in cls.increasing if tree.is_leaf(a)), key=lambda a: (len(a), a))
    for i, a in enumerate(inc_leaves):
        for b in inc_leaves[i + 1 :]:
            meet = lca(a, b)
            if is_ancestor(cls.anchor_of[a], meet) and is_ancestor(cls.anchor_of[b], meet):
                return False
    return True


def naive_validate_partial_tree_report(system: Bvass1, tree: PartialTree) -> tuple[bool, Optional[str], str]:
    """Domain checks over all addresses in (length, address) order, then node checks."""
    if not tree.labels:
        return False, None, "empty tree"
    labels = tree.labels
    for addr in tree.addresses():
        if addr and addr[:-1] not in labels:
            return False, addr, "domain is not prefix-closed"
        if any(c not in "01" for c in addr):
            return False, addr, "address contains characters other than 0/1"
    for addr in tree.addresses():
        cfg = labels[addr]
        left, right = tree.children(addr)
        if left is None and right is None:
            continue
        if left is None:
            return False, addr, "node has only a right child"
        lcfg = labels[left]
        if right is not None:
            rcfg = labels[right]
            if not any(t.source == cfg.state and (t.left, t.right) == (lcfg.state, rcfg.state) for t in system.branching):
                return False, addr, "no branching transition matches the children"
            if lcfg.counter + rcfg.counter != cfg.counter:
                return False, addr, "children counters do not sum to the parent counter"
        elif not any(
            t.source == cfg.state and t.target == lcfg.state and cfg.counter + t.delta == lcfg.counter
            for t in system.unary
        ):
            return False, addr, "no unary transition matches the child"
    return True, None, "ok"


def naive_check_certificate_report(system: Bvass1, certificate, claimed: Config) -> tuple[bool, str]:
    """The certificate checker written over the naive references, clause by clause."""
    tree = certificate.tree
    if "" not in tree.labels:
        return False, "tree has no root"
    if tree.labels[""] != claimed:
        return False, "root label differs from the claimed configuration"
    ok, addr, why = naive_validate_partial_tree_report(system, tree)
    if not ok:
        return False, f"invalid tree at {addr or 'root'}: {why}"
    bound = 2 * system.num_states + claimed.counter
    for a in tree.addresses():
        if tree.labels[a].counter > bound:
            return False, f"counter {tree.labels[a].counter} at node {a or 'root'} exceeds the bound {bound}"
    cls = naive_classify_nodes(tree)
    for leaf in tree.leaves():
        if leaf not in certificate.pumps and not is_accepting(system, tree.labels[leaf]):
            return False, f"leaf {leaf or 'root'} is neither accepting nor pumped"
    for leaf, rec in sorted(certificate.pumps.items()):
        if leaf not in tree.labels or not tree.is_leaf(leaf):
            return False, f"pump source {leaf!r} is not a leaf of the tree"
        if rec.anchor not in tree.labels:
            return False, f"pump anchor {rec.anchor!r} is not a node of the tree"
        if leaf not in cls.increasing:
            return False, f"pumped leaf {leaf or 'root'} is not increasing"
        if cls.anchor_of[leaf] != rec.anchor:
            return False, f"recorded anchor of leaf {leaf} is not its deepest smaller ancestor"
        gap = tree.labels[leaf].counter - tree.labels[rec.anchor].counter
        if rec.modulus != gap or rec.modulus < 1:
            return False, f"modulus {rec.modulus} of leaf {leaf} does not match the counter gap {gap}"
    if not naive_is_exclusive(tree):
        return False, "pumping segments are not exclusive"
    for leaf, rec in sorted(certificate.pumps.items()):
        cfg = tree.labels[leaf]
        if not compute_table(ResidueQuery(system, cfg.state, cfg.counter, rec.modulus)).holds:
            return False, f"residue query at leaf {leaf} ({system.state_name(cfg.state)}, {cfg.counter}, {rec.modulus}) is negative"
    return True, "ok"


def naive_cyclic_states(system: Bvass1) -> set[int]:
    """A state is cyclic iff it is reachable from one of its successors."""
    succ: list[set[int]] = [set() for _ in range(system.num_states)]
    for t in system.unary:
        succ[t.source].add(t.target)
    for t in system.branching:
        succ[t.source].update((t.left, t.right))
    out = set()
    for q in range(system.num_states):
        stack = list(succ[q])
        seen = set(stack)
        while stack and q not in seen:
            for r in succ[stack.pop()]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        if q in seen:
            out.add(q)
    return out


def naive_max_coverable(system: Bvass1, clamp: int) -> list[int]:
    """Per state, scan n = 0..clamp with one fresh coverability run each,
    up to the first miss; -1 when the state covers nothing."""
    out = []
    for q in range(system.num_states):
        best = -1
        for n in range(clamp + 1):
            if not coverable(system, q, n):
                break
            best = n
        out.append(best)
    return out


def naive_unbounded_report(
    system: Bvass1, state: int, budget: Budget | None = None
) -> tuple[bool, str, Optional[Witness]]:
    """The walk-length dynamic program that ``unbounded_report`` replaced.

    best[l][a][b] is the largest total gain of an l-edge walk a -> b in
    the gain graph; the state is unbounded iff some s with
    dist(state, s) + l <= |Q| has best[l][s][s] > 0.
    """
    graph = build_gain_graph(system, budget)
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
                    witness = _naive_build_witness(system, graph, state, s, length, via, bts)
                    return True, f"unbounded: cycle of length {length} at {system.state_name(s)} gains {gain}", witness
    return False, "bounded: no reachable positive-gain cycle fits the length bound", None


def _naive_build_witness(
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


# ---------------------------------------------------------------------------
# literal set-level residue operations and the per-bit sumsets


def delta_unary(system: Bvass1, v: set[tuple[int, int]], d: int) -> set[tuple[int, int]]:
    """{(q, (r - z) mod d) : (q, z, p) a unary transition, (p, r) in v}."""
    return {(t.source, (r - t.delta) % d) for t in system.unary for (p, r) in v if p == t.target}


def delta_branch(
    system: Bvass1, v: set[tuple[int, int]], w: set[tuple[int, int]], d: int
) -> set[tuple[int, int]]:
    """{(q, (r0 + r1) mod d) : branching (q, p0, p1), (p0, r0) in v, (p1, r1) in w}."""
    out = set()
    for t in system.branching:
        for (p0, r0) in v:
            if p0 != t.left:
                continue
            for (p1, r1) in w:
                if p1 == t.right:
                    out.add((t.source, (r0 + r1) % d))
    return out


def naive_r_rounds(
    system: Bvass1, s: frozenset[tuple[int, int]], r0: frozenset[tuple[int, int]], d: int
) -> tuple[frozenset[tuple[int, int]], int]:
    """R and its round count by Jacobi rounds that apply every rule.

    The reference for ``residue._r_fixpoint``, which re-applies only the
    rules with a premise that changed; the stabilizing round counts.
    """
    s_mod = {(q, m % d) for (q, m) in s}
    r = set(r0)
    rounds = 0
    while True:
        rounds += 1
        grown = r | delta_unary(system, r, d) | delta_branch(system, r, s_mod | r, d) | delta_branch(system, s_mod, r, d)
        if grown == r:
            return frozenset(r), rounds
        r = grown


def x_masks(table) -> tuple[int, ...]:
    """X of a residue table: per state, R joined with the residues of its
    S values in [n0, cap].  X holds (q, n0 mod d) exactly when q reaches
    some n >= n0 congruent to n0 modulo d."""
    d, n0 = table.query.d, table.query.n0
    out = []
    for r, s in zip(table.r_masks, table.s_masks):
        for v in range(n0, table.cap + 1):
            if (s >> v) & 1:
                r |= 1 << (v % d)
        out.append(r)
    return tuple(out)


def mask_pairs(masks) -> frozenset[tuple[int, int]]:
    """{(q, m) : bit m of masks[q]}: a residue table's S, R0, R or X as a set."""
    out = set()
    for q, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            out.add((q, low.bit_length() - 1))
            mask ^= low
    return frozenset(out)


def compute_R0(query: ResidueQuery, s: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Literal root-step enumeration over an explicit S set."""
    system, cap, d = query.system, query.cap, query.d
    by_state: dict[int, set[int]] = {}
    for (q, m) in s:
        by_state.setdefault(q, set()).add(m)
    out: set[tuple[int, int]] = set()
    for t in system.unary:
        for m in by_state.get(t.target, ()):
            n = m - t.delta
            if n >= cap:
                out.add((t.source, n % d))
    for t in system.branching:
        for m0 in by_state.get(t.left, ()):
            for m1 in by_state.get(t.right, ()):
                if m0 + m1 >= cap:
                    out.add((t.source, (m0 + m1) % d))
    return frozenset(out)


def naive_sumset(a: int, b: int) -> int:
    """{x + y : bit x of a, bit y of b}: one shift-or per set bit of the sparser operand."""
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out |= b << (low.bit_length() - 1)
        a ^= low
    return out


def naive_cyclic_sumset(a: int, b: int, d: int) -> int:
    """{(r0 + r1) mod d} over the set bits of two d-bit masks, by cyclic rotations."""
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    dmask = (1 << d) - 1
    out = 0
    while a:
        low = a & -a
        r = (low.bit_length() - 1) % d
        out |= ((b << r) | (b >> (d - r))) & dmask if r else b
        a ^= low
    return out


def naive_replay(reach, contexts: list, state: int, n: int):
    """A certificate's parts replayed one key at a time, each by its own log scan.

    The reference for ``reach._replay``, which takes a self-loop run in one
    step: returns the same (defs, spine labels, grafts, pumps), with defs
    numbered in post-order.
    """

    def first_justification(ci, q, m):
        for tick, rule, bits in (reach if ci is None else contexts[ci]).log[q]:
            if (bits >> m) & 1:
                return tick, rule
        raise KeyError((q, m))

    steps: dict[tuple, tuple] = {}
    ids: dict[tuple, Optional[int]] = {}
    defs: dict[int, tuple] = {}
    root = (None, state, n)
    stack = [root]
    while stack:
        key = stack[-1]
        step = steps.get(key)
        if step is None:
            ci, _, m = key
            step = steps[key] = _replay_step(reach, contexts, ci, m, *first_justification(*key))
            if step[1]:
                stack.extend(ck for _, ck in reversed(step[1]) if ck not in steps)
                continue
        stack.pop()
        if key in ids:
            continue
        starts_path, children = step
        kids = None
        if key[0] is None and not starts_path and children is not None:
            kids = tuple(ids[ck] for _, ck in children)
        if kids is None or None in kids:
            ids[key] = None
        else:
            ids[key] = len(defs)
            defs[len(defs)] = (Config(key[1], key[2]), kids)

    labels: dict[str, Config] = {}
    grafts: dict[str, int] = {}
    pumps: dict[str, tuple[str, int]] = {}
    spine = [("", root, "")]
    while spine:
        addr, key, anchor = spine.pop()
        ci, q, m = key
        labels[addr] = Config(q, m)
        if ids[key] is not None:
            grafts[addr] = ids[key]
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


def naive_bounded_reach_set(system: Bvass1, cap: int) -> frozenset[tuple[int, int]]:
    """The (state, value) pairs with a cap-bounded derivation, by full rescans
    of one set of pairs: the reference for ``oracle.bounded_reach_set``."""
    present: set[tuple[int, int]] = {(f, 0) for f in system.finals}
    changed = True
    while changed:
        changed = False
        for t in system.unary:
            for n in range(0, cap + 1):
                m = n + t.delta
                if 0 <= m <= cap and (t.target, m) in present and (t.source, n) not in present:
                    present.add((t.source, n))
                    changed = True
        for t in system.branching:
            left_vals = sorted(n for (q, n) in present if q == t.left)
            right_vals = sorted(n for (q, n) in present if q == t.right)
            for m0 in left_vals:
                for m1 in right_vals:
                    n = m0 + m1
                    if n > cap:
                        break
                    if (t.source, n) not in present:
                        present.add((t.source, n))
                        changed = True
    return frozenset(present)


def naive_parse_bvass(text: str) -> Bvass1:
    """The system format read line by line, one token slice per directive:
    the reference for ``model.parse_bvass``, errors and line numbers included."""
    names: list[str] = []
    ids: dict[str, int] = {}
    unary: list[UnaryTransition] = []
    branching: list[BranchTransition] = []
    finals: set[int] = set()
    line_no = 0
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.partition("#")[0].split()
            ntok = len(tokens)
            pos = 0
            while pos < ntok:
                word = tokens[pos]
                if word == "unary":
                    if pos + 3 >= ntok:
                        raise FormatError(line_no, "unary needs <src> <z> <tgt>")
                    src, z_tok, tgt = tokens[pos + 1 : pos + 4]
                    try:
                        z = int(z_tok)
                    except ValueError:
                        raise FormatError(line_no, f"bad counter shift {z_tok!r}") from None
                    if z not in Z_VALUES:
                        raise SemanticError(f"line {line_no}: counter shift must be -1, 0 or +1")
                    unary.append(UnaryTransition(ids[src], z, ids[tgt]))
                    pos += 4
                elif word == "branch":
                    if pos + 3 >= ntok:
                        raise FormatError(line_no, "branch needs <src> <left> <right>")
                    src, left, right = tokens[pos + 1 : pos + 4]
                    branching.append(BranchTransition(ids[src], ids[left], ids[right]))
                    pos += 4
                elif word == "state":
                    if pos + 1 >= ntok:
                        raise FormatError(line_no, "state needs a name")
                    name = tokens[pos + 1]
                    if name in RESERVED_WORDS:
                        raise SemanticError(f"line {line_no}: {name!r} is a reserved word")
                    if name in ids:
                        raise SemanticError(f"line {line_no}: duplicate state {name!r}")
                    ids[name] = len(names)
                    names.append(name)
                    pos += 2
                elif word == "final":
                    if pos + 1 >= ntok:
                        raise FormatError(line_no, "final needs a state name")
                    finals.add(ids[tokens[pos + 1]])
                    pos += 2
                else:
                    raise FormatError(line_no, f"unknown directive {word!r}")
    except KeyError as exc:
        raise SemanticError(f"line {line_no}: unknown state {exc.args[0]!r}") from None
    return Bvass1(tuple(names), tuple(unary), tuple(branching), frozenset(finals))


# ---------------------------------------------------------------------------
# metamorphic transformations: each keeps every verdict of the system


def relabel(system: Bvass1, new_id: list[int], names: list[str], extra: Optional[Bvass1] = None) -> Bvass1:
    """``system`` with state q moved to ``new_id[q]``, plus ``extra``'s states
    appended after it unchanged in order; ``names`` covers both."""
    unary = [UnaryTransition(new_id[t.source], t.delta, new_id[t.target]) for t in system.unary]
    branching = [BranchTransition(new_id[t.source], new_id[t.left], new_id[t.right]) for t in system.branching]
    finals = {new_id[f] for f in system.finals}
    if extra is not None:
        k = system.num_states
        unary += [UnaryTransition(t.source + k, t.delta, t.target + k) for t in extra.unary]
        branching += [BranchTransition(t.source + k, t.left + k, t.right + k) for t in extra.branching]
        finals |= {f + k for f in extra.finals}
    return Bvass1(tuple(names), tuple(unary), tuple(branching), frozenset(finals))


def renamed(system: Bvass1, rng: random.Random) -> tuple[Bvass1, list[int]]:
    """``system`` with its state ids shuffled and every name changed; the
    list gives each state's new id."""
    perm = list(range(system.num_states))
    rng.shuffle(perm)
    names = [""] * system.num_states
    for q, p in enumerate(perm):
        names[p] = f"r_{system.state_name(q)}"
    return relabel(system, perm, names), perm


def disjoint_union(system: Bvass1, other: Bvass1) -> Bvass1:
    """Both systems side by side, ``system``'s states first with their ids."""
    names = [f"a_{n}" for n in system.state_names] + [f"b_{n}" for n in other.state_names]
    return relabel(system, list(range(system.num_states)), names, other)


def metamorphic_variants(system: Bvass1, other: Bvass1, rng: random.Random) -> list[tuple[str, Bvass1, list[int]]]:
    """(kind, variant, where) with ``where[q]`` the id of q in the variant:
    states renamed and shuffled, transitions reordered, the disjoint union
    with ``other`` placed first, so every id of ``system`` moves, and
    ``other``'s states added after ``system``'s with one transition from
    one of them into ``system``.  No state of ``system`` reaches the added
    states, but they have a path to some of its states."""
    nq, k = system.num_states, other.num_states
    shuffled_unary, shuffled_branching = list(system.unary), list(system.branching)
    rng.shuffle(shuffled_unary)
    rng.shuffle(shuffled_branching)
    reordered = Bvass1(system.state_names, tuple(shuffled_unary), tuple(shuffled_branching), system.finals)
    variants = [
        ("rename", *renamed(system, rng)),
        ("reorder", reordered, list(range(nq))),
        ("union", disjoint_union(other, system), [q + k for q in range(nq)]),
    ]
    joined = disjoint_union(system, other)
    entry = UnaryTransition(nq + rng.randrange(k), rng.choice((-1, 0, 1)), rng.randrange(nq))
    added = Bvass1(joined.state_names, joined.unary + (entry,), joined.branching, joined.finals)
    return variants + [("added", added, list(range(nq)))]
