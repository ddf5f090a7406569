"""Core data model for one-dimensional branching counter systems.

A system couples a finite set of control states with two kinds of
transitions: unary transitions, which move to a successor state while
shifting the counter by -1, 0 or +1, and branching transitions, which
split the current counter value between two successor states.  A
configuration is a state together with a natural-valued counter.

Derivations are binary trees of configurations, grown top-down: the two
children of a branching node carry counters summing to the parent's, and
the single child of a unary node carries the parent's counter plus the
transition shift.  A derivation is complete when every leaf is a final
state with counter zero.  This module holds the types, the text formats,
the tree validators, and the node classifications (increasing nodes and
their anchors) that the decision engines build on, and what the
decisions hand out and are charged: reach certificates with their text
format, reach profiles, unboundedness witnesses, and the work budget.
Rules are resolved, written and checked here alone.  It imports nothing
else from the package, so ``check`` reads an artifact without the engine.

Node addresses are strings over "0"/"1"; the root is the empty string and
is spelled "e" in text files.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

Z_VALUES = (-1, 0, 1)

# Directive keywords of the system and certificate formats, and the graft
# marker "="; not usable as state names.
RESERVED_WORDS = frozenset({"state", "final", "unary", "branch", "pump", "def", "="})


class FormatError(ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SemanticError(ValueError):
    """Well-formed text with inconsistent content (unknown state, duplicate, ...)."""


DEFAULT_BUDGET = 2**30


class BudgetExceeded(Exception):
    """A run would materialize more table entries than the budget allows."""


class Budget:
    """Mutable counter of materialized table entries shared across phases;
    an entry point given None charges a fresh ``Budget()``, and ``Budget(None)`` is unlimited."""

    def __init__(self, limit: int | None = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def charge(self, entries: int) -> None:
        self.used += entries
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(
                f"needs more than {self.limit} table entries ({self.used} and counting); "
                "raise the budget to proceed"
            )


class UnaryTransition(NamedTuple):
    """source -> target, with the child's counter the parent's plus delta;
    ``Bvass1`` checks delta against Z_VALUES."""

    source: int
    delta: int
    target: int


class BranchTransition(NamedTuple):
    source: int
    left: int
    right: int


@dataclass(frozen=True, init=False)
class Config:
    """A control state paired with a natural counter value."""

    state: int
    counter: int

    def __init__(self, state: int, counter: int):
        # written into the instance dict: a frozen dataclass's generated
        # __init__ sets each field through object.__setattr__, which costs
        # more than the rest of the construction
        if counter < 0:
            raise ValueError(f"counter must be a natural number, got {counter}")
        fields = self.__dict__
        fields["state"] = state
        fields["counter"] = counter


@dataclass(frozen=True)
class Bvass1:
    """A branching one-counter system.

    States are dense integer ids; ``state_names`` fixes the id order and
    the external names used by the text format.
    """

    state_names: tuple[str, ...]
    unary: tuple[UnaryTransition, ...]
    branching: tuple[BranchTransition, ...]
    finals: frozenset[int]

    def __post_init__(self):
        problems = validate_bvass(self)
        if problems:
            raise SemanticError(problems[0])

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def size(self) -> int:
        return len(self.state_names) + len(self.unary) + len(self.branching)

    def state_id(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise SemanticError(f"unknown state {name!r}") from None

    def state_name(self, state: int) -> str:
        return self.state_names[state]

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.state_names)}

    @cached_property
    def rule_index(self) -> tuple[tuple[tuple, ...], ...]:
        """(up, by_left, by_right, loops), the rules ("unary", i) and ("branch", i)
        by premise state p in transition order: ``up[p]`` lists (source, shift,
        rule) for the unary transitions into p, ``by_left[p]`` and ``by_right[p]``
        (source, sibling, rule) for the branching ones with p as left resp.
        right child, and ``loops[p]`` holds p's +1 and -1 self-loop rules or None.

        Built on first read, whichever way the system was made; of two
        self-loops with one shift, ``loops`` keeps the later."""
        n = len(self.state_names)
        up, by_left, by_right = ([[] for _ in range(n)] for _ in range(3))
        loops: list[list[Optional[tuple]]] = [[None, None] for _ in range(n)]
        for i, (src, z, tgt) in enumerate(self.unary):
            rule = ("unary", i)
            up[tgt].append((src, z, rule))
            if src == tgt and z:
                loops[src][z < 0] = rule
        for i, (src, left, right) in enumerate(self.branching):
            rule = ("branch", i)
            by_left[left].append((src, right, rule))
            by_right[right].append((src, left, rule))
        return tuple(tuple(map(tuple, rows)) for rows in (up, by_left, by_right, loops))

    @cached_property
    def transition_sets(self) -> tuple[frozenset[UnaryTransition], frozenset[BranchTransition]]:
        """(unary, branching) as sets, for ``_step_fault``'s test whether a
        step is one of the system's transitions."""
        return frozenset(self.unary), frozenset(self.branching)

    @cached_property
    def state_graph(self) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
        """(successors, predecessors): per state, the states one transition
        from it enters, and the states with a transition entering it, read
        off ``rule_index``."""
        up, by_left, by_right, _ = self.rule_index
        pred = tuple(
            frozenset(src for rows in entry for src, _, _ in rows) for entry in zip(up, by_left, by_right)
        )
        succ: list[set[int]] = [set() for _ in pred]
        for p, sources in enumerate(pred):
            for q in sources:
                succ[q].add(p)
        return tuple(map(frozenset, succ)), pred


def validate_bvass(system: Bvass1) -> list[str]:
    """Structural problems of a system; empty list means well formed.

    ``Bvass1`` raises the first of them on construction, so this reports
    only on systems rebuilt through unchecked paths.
    """
    problems: list[str] = []
    n = system.num_states
    if len(set(system.state_names)) != n:
        problems.append("duplicate state name")
    for name in system.state_names:
        if name in RESERVED_WORDS:
            problems.append(f"state name {name!r} is a reserved word")
    for t in system.unary:
        if t.delta not in Z_VALUES:
            problems.append(f"bad shift {t.delta}")
        if not (0 <= t.source < n and 0 <= t.target < n):
            problems.append(f"dangling unary transition {t}")
    for t in system.branching:
        if not (0 <= t.source < n and 0 <= t.left < n and 0 <= t.right < n):
            problems.append(f"dangling branching transition {t}")
    for f in system.finals:
        if not 0 <= f < n:
            problems.append(f"dangling final state {f}")
    return problems


# ---------------------------------------------------------------------------
# system text format


# shift tokens as ``format_bvass`` writes them; any other token goes through int()
_SHIFT_TOKENS = {"-1": -1, "0": 0, "+1": 1, "1": 1}


def parse_bvass(text: str) -> Bvass1:
    """Parse the line-oriented system format.

    Directives are ``state <name>``, ``final <name>``,
    ``unary <src> <z> <tgt>`` and ``branch <src> <left> <right>``;
    ``#`` starts a comment.  Several directives may share a line; none
    spans lines.  States must be declared before use; declaration order
    fixes their ids.  The parser's dict from names to ids becomes the
    system's name index; ``rule_index`` is built on first read, as for
    any system.
    """
    names: list[str] = []
    ids: dict[str, int] = {}
    unary: list[UnaryTransition] = []
    branching: list[BranchTransition] = []
    finals: set[int] = set()
    new = tuple.__new__  # a transition without NamedTuple.__new__'s call
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    line_no = 0
    try:
        # state names resolve through ids[...]; a KeyError names an unknown one
        for line_no, tokens in enumerate(map(str.split, lines), start=1):
            ntok = len(tokens)
            pos = 0
            while pos < ntok:
                word = tokens[pos]
                if word == "unary":
                    if pos + 3 >= ntok:
                        raise FormatError(line_no, "unary needs <src> <z> <tgt>")
                    src, z_tok, tgt = tokens[pos + 1 : pos + 4]
                    z = _SHIFT_TOKENS.get(z_tok)
                    if z is None:
                        try:
                            z = int(z_tok)
                        except ValueError:
                            raise FormatError(line_no, f"bad counter shift {z_tok!r}") from None
                        if z not in Z_VALUES:
                            raise SemanticError(f"line {line_no}: counter shift must be -1, 0 or +1")
                    s, t = ids[src], ids[tgt]
                    unary.append(new(UnaryTransition, (s, z, t)))
                    pos += 4
                elif word == "branch":
                    if pos + 3 >= ntok:
                        raise FormatError(line_no, "branch needs <src> <left> <right>")
                    src, left, right = tokens[pos + 1 : pos + 4]
                    s, a, b = ids[src], ids[left], ids[right]
                    branching.append(new(BranchTransition, (s, a, b)))
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
    # Every check of validate_bvass has passed above, so the fields are
    # set directly, with the name index as the cached ``_name_index`` (a
    # cached_property keeps its value in the instance dict under its own name).
    system = object.__new__(Bvass1)
    system.__dict__.update(
        state_names=tuple(names),
        unary=tuple(unary),
        branching=tuple(branching),
        finals=frozenset(finals),
        _name_index=ids,
    )
    return system


def format_bvass(system: Bvass1) -> str:
    """Render a system in the text format; parse(format(B)) == B."""
    lines = [f"state {name}" for name in system.state_names]
    lines += [f"final {system.state_name(f)}" for f in sorted(system.finals)]
    lines += [_transition_line(system, t) for t in system.unary + system.branching]
    return "\n".join(lines) + "\n"


def _transition(system: Bvass1, rule) -> UnaryTransition | BranchTransition:
    """The transition a rule reference names: ("unary", i) or ("branch", i),
    as ``rule_index`` hands them out and ``Witness.transitions`` carries
    them.  Anything else raises ValueError."""
    if type(rule) is tuple and len(rule) == 2 and type(rule[1]) is int:
        table = system.unary if rule[0] == "unary" else system.branching if rule[0] == "branch" else ()
        if 0 <= rule[1] < len(table):
            return table[rule[1]]
    raise ValueError(f"no transition {rule!r}")


def _transition_line(system: Bvass1, t: UnaryTransition | BranchTransition) -> str:
    """The ``unary`` or ``branch`` directive that writes transition t."""
    names = system.state_names
    if isinstance(t, UnaryTransition):
        return f"unary {names[t.source]} {'+1' if t.delta > 0 else t.delta} {names[t.target]}"
    return f"branch {names[t.source]} {names[t.left]} {names[t.right]}"


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True)
class PartialTree:
    """A binary tree of configurations, keyed by 0/1 address strings.

    The mapping is treated as immutable after construction.  Nothing about
    well-formedness is assumed here; use the validators.
    """

    labels: dict[str, Config]

    def __len__(self) -> int:
        return len(self.labels)

    def addresses(self) -> list[str]:
        return sorted(self.labels, key=lambda a: (len(a), a))

    def label(self, addr: str) -> Config:
        return self.labels[addr]

    def children(self, addr: str) -> tuple[Optional[str], Optional[str]]:
        left = addr + "0"
        right = addr + "1"
        return (left if left in self.labels else None, right if right in self.labels else None)

    def is_leaf(self, addr: str) -> bool:
        return addr + "0" not in self.labels and addr + "1" not in self.labels

    def leaves(self) -> list[str]:
        return [a for a in self.addresses() if self.is_leaf(a)]

    def subtree(self, addr: str) -> "PartialTree":
        k = len(addr)
        return PartialTree({a[k:]: c for a, c in self.labels.items() if a.startswith(addr)})


@dataclass(frozen=True)
class NodeClassification:
    """Increasing/decreasing nodes of a tree and the anchor of each increasing node.

    The anchor of an increasing node is its deepest proper ancestor with
    the same state and a strictly smaller counter.
    """

    increasing: frozenset[str]
    anchor_of: dict[str, str]
    decreasing: frozenset[str]


def _anchor_walk(
    tree: PartialTree, pumped: Optional[dict] = None
) -> tuple[dict[str, str], set[str], bool]:
    """Anchors, decreasing nodes and exclusivity in one pre-order walk.

    Returns (anchor_of, decreasing, exclusive).  Sorting lists a string
    before its extensions and keeps each node's descendants contiguous,
    so a stack of open prefixes holds exactly the present ancestors of
    the current node; no prefix-closed domain is assumed.

    Per state, the open same-state ancestors form a chain carrying a
    running counter maximum (a larger ancestor makes a node decreasing)
    and previous-smaller links with binary lifting: the anchor is the
    first strictly smaller entry on the link chain from the deepest
    same-state ancestor, found in O(log depth).

    Exclusivity holds iff the pumping paths (anchor down to increasing
    leaf) are pairwise node-disjoint, i.e. no node has two increasing
    leaves at or below it whose anchors are at or above it.  Reverse
    pre-order sums that count bottom-up: a child passes up its count less
    the leaves anchored at the child itself.  With ``pumped``, only the
    increasing leaves in it count: a certificate's graft leaf stands for a
    whole pump-free subtree, so it is no leaf of the derivation.
    """
    labels = tree.labels
    order = sorted(labels)
    n = len(order)
    counter = [0] * n
    run_max = [0] * n
    up: list = [()] * n  # up[i][k]: the 2^k-th previous-smaller entry of i
    parent = [-1] * n  # nearest present ancestor
    ends = [0] * n  # increasing leaves anchored at i
    inc_leaves: list[int] = []
    chains: dict[int, list[int]] = {}  # per state, its open nodes
    stack: list[int] = []
    open_chains: list[list[int]] = []  # the chain each stack entry sits on
    anchor_of: dict[str, str] = {}
    decreasing: set[str] = set()
    for i, addr in enumerate(order):
        while stack and not addr.startswith(order[stack[-1]]):
            stack.pop()
            open_chains.pop().pop()
        if stack:
            parent[i] = stack[-1]
        cfg = labels[addr]
        v = cfg.counter
        counter[i] = v
        run_max[i] = v
        chain = chains.get(cfg.state)
        if chain is None:
            chain = chains[cfg.state] = []
        elif chain:
            j = chain[-1]
            if run_max[j] > v:
                decreasing.add(addr)
                run_max[i] = run_max[j]
            if counter[j] >= v:
                for k in range(len(up[j]) - 1, -1, -1):
                    if k < len(up[j]) and counter[up[j][k]] >= v:
                        j = up[j][k]
                j = up[j][0] if up[j] else -1
            if j >= 0:
                anchor_of[addr] = order[j]
                jumps = [j]
                while len(up[jumps[-1]]) >= len(jumps):
                    jumps.append(up[jumps[-1]][len(jumps) - 1])
                up[i] = jumps
                if (
                    addr + "0" not in labels
                    and addr + "1" not in labels
                    and (pumped is None or addr in pumped)
                ):
                    inc_leaves.append(i)
                    ends[j] += 1
        chain.append(i)
        stack.append(i)
        open_chains.append(chain)
    count = [0] * n  # increasing leaves at or below i anchored at or above i
    for i in inc_leaves:
        count[i] = 1
    for i in range(n - 1, -1, -1):
        if count[i] > 1:
            return anchor_of, decreasing, False
        if count[i] and parent[i] >= 0:
            count[parent[i]] += count[i] - ends[i]
    return anchor_of, decreasing, True


def classify_nodes(tree: PartialTree) -> NodeClassification:
    anchor_of, decreasing, _ = _anchor_walk(tree)
    return NodeClassification(frozenset(anchor_of), anchor_of, frozenset(decreasing))


def validate_partial_tree_report(system: Bvass1, tree: PartialTree) -> tuple[bool, Optional[str], str]:
    """Validate a partial derivation tree; reports the first violating address.

    A tree is valid when its domain is non-empty and prefix-closed and
    every inner node matches exactly one transition shape: both children
    present with counters summing to the parent under some branching
    transition, or only the left child present with counter shifted by
    some unary transition.  Domain violations are reported before
    transition violations; within each kind, the violation at the first
    address in (length, address) order.
    """
    if not tree.labels:
        return False, None, "empty tree"
    labels = tree.labels
    shape: list[tuple[int, str, str]] = []
    links = 0  # (node, child) pairs present
    for addr, cfg in labels.items():
        lcfg = labels.get(addr + "0")
        rcfg = labels.get(addr + "1")
        if lcfg is None:
            if rcfg is not None:
                links += 1
                shape.append((len(addr), addr, "node has only a right child"))
        else:
            links += 1 if rcfg is None else 2
            if why := _step_fault(system, cfg, lcfg, rcfg):
                shape.append((len(addr), addr, why))
    # every node but a root "" is some node's child exactly when the domain
    # is prefix-closed over 0/1; only then can the domain scan be skipped
    domain: list[tuple[int, str, str]] = []
    if "" not in labels or links != len(labels) - 1:
        for addr in labels:
            if addr and addr[:-1] not in labels:
                domain.append((len(addr), addr, "domain is not prefix-closed"))
            elif addr.strip("01"):
                domain.append((len(addr), addr, "address contains characters other than 0/1"))
    if domain or shape:
        _, addr, why = min(domain or shape)
        return False, addr, why
    return True, None, "ok"


def _step_fault(system: Bvass1, cfg: Config, left: Config, right: Optional[Config] = None) -> Optional[str]:
    """How a node labelled cfg fails to take one of the system's steps to
    its left child, and its right child when there is one, or None."""
    unary, branching = system.transition_sets
    if right is None:
        if (cfg.state, left.counter - cfg.counter, left.state) not in unary:
            return "no unary transition matches the child"
    elif (cfg.state, left.state, right.state) not in branching:
        return "no branching transition matches the children"
    elif left.counter + right.counter != cfg.counter:
        return "children counters do not sum to the parent counter"
    return None


def validate_partial_tree(system: Bvass1, tree: PartialTree) -> bool:
    return validate_partial_tree_report(system, tree)[0]


def is_accepting(system: Bvass1, cfg: Config) -> bool:
    return cfg.state in system.finals and cfg.counter == 0


def is_reachability_tree(system: Bvass1, tree: PartialTree) -> bool:
    """True iff the tree is valid and every leaf is a final state at zero."""
    if not validate_partial_tree(system, tree):
        return False
    return all(is_accepting(system, tree.labels[a]) for a in tree.leaves())


def is_exclusive(tree: PartialTree) -> bool:
    """Exclusivity of pumping segments.

    For any two distinct increasing leaves, their least common ancestor
    must sit strictly below at least one of the two anchors; equivalently
    it is never the case that both anchors are ancestors of the lca.
    """
    return _anchor_walk(tree)[2]


# ---------------------------------------------------------------------------
# reach certificates


def reach_bound(system: Bvass1, n: int) -> int:
    """B = 2|Q| + n, the counter bound of a certificate for q(n)."""
    return 2 * system.num_states + n


@dataclass(frozen=True)
class PumpRecord:
    """Where an increasing leaf pumps from: its anchor and the counter gap."""

    anchor: str
    modulus: int


# a shared pump-free subderivation: its root label and its children's def ids
Def = tuple[Config, tuple[int, ...]]


@dataclass(frozen=True)
class Certificate:
    """A partial derivation tree with its pumps, pump-free parts shared.

    ``tree`` is the spine, every node on a path from the root to a pumped
    leaf, plus one labelled leaf per graft.  ``defs`` maps an id to a
    shared pump-free subderivation; ids are numbered bottom-up, so a
    child's id is smaller than its parent's.  ``grafts`` maps a leaf of
    ``tree`` to the def that derives it.  A certificate without defs is a
    plain tree.

    A pump-free subderivation is valid wherever it hangs, as anchors and
    exclusivity concern only the pumped leaves and the paths above them.
    So there are at most |Q|·(B+1) defs plus the spine, where the tree the
    certificate stands for can be exponential in |Q|.
    """

    tree: PartialTree
    pumps: dict[str, PumpRecord]
    defs: dict[int, Def] = field(default_factory=dict)
    grafts: dict[str, int] = field(default_factory=dict)

    def unfold(self) -> PartialTree:
        """The whole tree, every def written out under each graft of it.

        Every graft must name a def; the checker makes sure of that.
        """
        labels = dict(self.tree.labels)
        _unfold_defs(labels, self.grafts, self.defs)
        return PartialTree(labels)


def _unfold_defs(out: dict[str, Config], grafts: dict[str, int], defs: dict[int, Def]) -> None:
    """Write the subtree of each grafted def into ``out`` under its address.

    A def occurring more than once among the grafts and the children of
    the defs below them has its relative addresses and labels built once,
    children before parents; each occurrence then costs one ``dict.update``
    of its prefixed addresses.  The rest is walked node by node.
    """
    refs: dict[int, int] = {}
    stack = list(grafts.values())
    while stack:
        i = stack.pop()
        if i in refs:
            refs[i] += 1
        else:
            refs[i] = 1
            stack += defs[i][1]
    shared: dict[int, tuple[list[str], list[Config]]] = {}
    for i in sorted(i for i, r in refs.items() if r > 1):
        shared[i] = _walk_def("", i, defs, shared)
    for addr, i in grafts.items():
        out.update(zip(*_walk_def(addr, i, defs, shared)))


def _walk_def(
    addr: str, root: int, defs: dict[int, Def], shared: dict[int, tuple[list[str], list[Config]]]
) -> tuple[list[str], list[Config]]:
    """The addresses and labels of def ``root`` under ``addr``, in walk order.

    A def in ``shared`` is not walked: its built addresses are prefixed.
    """
    addrs: list[str] = []
    cfgs: list[Config] = []
    stack = [(addr, root)]
    while stack:
        a, i = stack.pop()
        if i in shared:
            rels, labels = shared[i]
            addrs += [a + r for r in rels]
            cfgs += labels
            continue
        cfg, kids = defs[i]
        addrs.append(a)
        cfgs.append(cfg)
        if kids:
            stack.append((a + "0", kids[0]))
            if len(kids) == 2:
                stack.append((a + "1", kids[1]))
    return addrs, cfgs


def _def_sizes(defs: dict[int, Def]) -> dict[int, int]:
    """Node count of each def's unfolded subtree; children have smaller ids."""
    size: dict[int, int] = {}
    for i, (_, kids) in sorted(defs.items()):
        n = 1
        for c in kids:
            n += size[c]
        size[i] = n
    return size


# ---------------------------------------------------------------------------
# tree and certificate text format


def _addr_from_text(token: str, line_no: int) -> str:
    if token == "e":
        return ""
    if token.strip("01"):
        raise FormatError(line_no, f"bad node address {token!r}")
    return token


def tree_to_text(system: Bvass1, tree: PartialTree) -> str:
    """One line per node: ``<address> <state> <counter>``; the root is ``e``."""
    return certificate_to_text(system, Certificate(tree, {})) or "\n"


def certificate_to_text(system: Bvass1, certificate: Certificate) -> str:
    """Def lines, tree lines, then one ``pump <leaf> <anchor> <modulus>`` per pump.

    Defs come bottom-up as ``def <id> <state> <counter> [<child-id>
    [<child-id>]]``.  Tree lines are ``<address> <state> <counter>``, in
    (length, address) order, except that a graft leaf is written
    ``<address> = <id>``.
    """
    name = system.state_name
    parts = [
        f"def {i} {name(cfg.state)} {cfg.counter}{''.join(f' {c}' for c in kids)}\n"
        for i, (cfg, kids) in sorted(certificate.defs.items())
    ]
    tree, grafts = certificate.tree, certificate.grafts
    for addr in tree.addresses():
        i = grafts.get(addr)
        if i is None:
            cfg = tree.labels[addr]
            parts.append(f"{addr or 'e'} {name(cfg.state)} {cfg.counter}\n")
        else:
            parts.append(f"{addr or 'e'} = {i}\n")
    for leaf, rec in sorted(certificate.pumps.items()):
        parts.append(f"pump {leaf or 'e'} {rec.anchor or 'e'} {rec.modulus}\n")
    return "".join(parts)


def _read_pump(tokens: list[str], line_no: int, pumps: dict[str, PumpRecord]) -> None:
    if len(tokens) != 4:
        raise FormatError(line_no, "expected pump <leaf> <anchor> <modulus>")
    leaf = _addr_from_text(tokens[1], line_no)
    anchor = _addr_from_text(tokens[2], line_no)
    try:
        modulus = int(tokens[3])
    except ValueError:
        raise FormatError(line_no, f"bad modulus {tokens[3]!r}") from None
    if modulus < 1:
        raise SemanticError(f"line {line_no}: modulus must be at least 1")
    if leaf in pumps:
        raise SemanticError(f"line {line_no}: duplicate pump for leaf {tokens[1]!r}")
    pumps[leaf] = PumpRecord(anchor, modulus)


def _read_id(token: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise FormatError(line_no, f"bad def id {token!r}")
    return value


def _read_label(state_tok: str, counter_tok: str, line_no: int, system: Optional[Bvass1]):
    try:
        state = state_tok if system is None else system.state_id(state_tok)
    except SemanticError as exc:
        raise SemanticError(f"line {line_no}: {exc}") from None
    try:
        counter = int(counter_tok)
    except ValueError:
        raise FormatError(line_no, f"bad counter {counter_tok!r}") from None
    if counter < 0:
        raise SemanticError(f"line {line_no}: negative counter")
    return (state, counter) if system is None else Config(state, counter)


def _read_tree_text(
    text: str,
    system: Optional[Bvass1] = None,
    pumps: Optional[dict[str, PumpRecord]] = None,
    defs: Optional[dict] = None,
    grafts: Optional[dict[str, int]] = None,
    strict: bool = True,
) -> dict:
    """Read a tree or certificate file in one pass.

    Node lines are ``<address> <state> <counter>``.  With a system, the
    labels are Configs; without one, (state name, counter) pairs.  Def
    lines ``def <id> <state> <counter> [<child-id> [<child-id>]]`` and
    graft lines ``<address> = <id>`` go into ``defs`` as id -> (label,
    child ids) and ``grafts`` as address -> id, and a graft's address is
    labelled like the def it names.  ``strict`` makes an id that no
    earlier line defines a format error; otherwise the checker reports it,
    and a graft naming no def stays unlabelled.  Pump lines
    ``pump <leaf> <anchor> <modulus>`` go into ``pumps`` as
    leaf -> ``PumpRecord`` when it is given and are skipped otherwise.
    A bad node, def or graft line is reported before any bad pump line,
    and an empty tree before either.
    """
    labels: dict = {}
    defs = {} if defs is None else defs
    grafts = {} if grafts is None else grafts
    pump_error: Optional[ValueError] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "pump":
            if pumps is not None and pump_error is None:
                try:
                    _read_pump(tokens, line_no, pumps)
                except (FormatError, SemanticError) as exc:
                    pump_error = exc
            continue
        if tokens[0] == "def":
            if not 4 <= len(tokens) <= 6:
                raise FormatError(line_no, "expected def <id> <state> <counter> [<child-id> [<child-id>]]")
            i = _read_id(tokens[1], line_no)
            if i in defs:
                raise SemanticError(f"line {line_no}: duplicate def id {i}")
            kids = tuple(_read_id(t, line_no) for t in tokens[4:])
            for c in kids:
                if strict and c not in defs:
                    raise FormatError(line_no, f"def id {c} is not defined on an earlier line")
            defs[i] = (_read_label(tokens[2], tokens[3], line_no, system), kids)
            continue
        if len(tokens) != 3:
            raise FormatError(line_no, "expected <address> <state> <counter>")
        addr = _addr_from_text(tokens[0], line_no)
        if addr in labels or addr in grafts:
            raise SemanticError(f"line {line_no}: duplicate address {tokens[0]!r}")
        if tokens[1] == "=":
            i = _read_id(tokens[2], line_no)
            if strict and i not in defs:
                raise FormatError(line_no, f"def id {i} is not defined on an earlier line")
            grafts[addr] = i
        else:
            labels[addr] = _read_label(tokens[1], tokens[2], line_no, system)
    if not labels and not grafts:
        raise FormatError(1, "empty tree")
    if pump_error is not None:
        raise pump_error
    for addr, i in grafts.items():
        if i in defs:
            labels[addr] = defs[i][0]
    return labels


def tree_from_text(system: Bvass1, text: str) -> PartialTree:
    """Read a tree file; a certificate's graft leaves carry their defs' labels."""
    return PartialTree(_read_tree_text(text, system))


def certificate_from_text(system: Bvass1, text: str) -> Certificate:
    """Read either text format; a tree without def lines has no defs.

    Ids are taken as written: an unknown or forward reference is left for
    the checker to report.
    """
    pumps, defs, grafts = {}, {}, {}
    labels = _read_tree_text(text, system, pumps, defs, grafts, strict=False)
    return Certificate(PartialTree(labels), pumps, defs, grafts)


def raw_tree_from_text(
    text: str, defs: Optional[dict] = None, grafts: Optional[dict[str, int]] = None
) -> dict[str, tuple[str, int]]:
    """Parse a tree file without a system: address -> (state name, counter).

    Def and graft lines go into ``defs`` and ``grafts`` when given.
    """
    return _read_tree_text(text, defs=defs, grafts=grafts)


# ---------------------------------------------------------------------------
# reach profiles


@dataclass(frozen=True)
class Profile:
    """Per state of ``masks``, an ultimately periodic set of counter values.

    ``masks[q]`` holds q's values below T + P as bits, for the threshold
    T and the period P; from T on the set repeats with period P, so n >= T
    is read at T + (n - T) mod P.

    Say the profile holds 0 at every final state of ``masks``, and is
    closed under every rule whose parent has a mask: a unary step gives
    the parent child - shift, where that is a natural number, and a branch
    gives left + right.  The reach sets of the masked states are the least
    such family, so the profile holds them, and a value it lacks refutes
    reach (``check.check_profile_report``).

    Closure needs testing on the ``window`` [0, W], W = 2(T + P) + P,
    only.  A unary step moves a set by one, so both sides of its inclusion
    repeat with period P from T + 1 on, and agree everywhere once they
    agree below T + P + 1 <= W.  For a branch, take a sum s = x + y > W of
    the children's values.  If both x and y were below T + P, s would be
    at most 2(T + P) - 2; so one, say x, is at least T + P, x - P >= T is a
    value of that child as well, and s - P is a sum.  Lowering by P so
    lands in (W - P, W], each step at or above T.  There the parent holds
    the sum, and the parent's set repeats with period P from T, so it
    holds s.
    """

    threshold: int
    period: int
    masks: dict[int, int]

    @property
    def window(self) -> int:
        """W, the top of the window closure is tested on."""
        return 2 * (self.threshold + self.period) + self.period

    def holds(self, state: int, n: int) -> bool:
        t, p = self.threshold, self.period
        if n >= t + p:
            n = t + (n - t) % p
        return bool((self.masks[state] >> n) & 1)


# ---------------------------------------------------------------------------
# unboundedness witnesses


@dataclass(frozen=True)
class Witness:
    """An unboundedness witness: states p_0..p_k, the transitions between
    them, the index j with p_k = p_j, and the side values n_i chosen for
    the cycle part (transitions j+1..k)."""

    states: tuple[int, ...]
    transitions: tuple[tuple[str, int], ...]
    j: int
    n_values: tuple[int, ...]
