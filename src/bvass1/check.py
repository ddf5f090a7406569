"""Independent checkers: each names the first failed clause of an artifact.

They trust no engine code with an artifact and read it through ``model``
alone, which imports nothing else from the package.  The one engine name
imported here is ``residue.ResidueCache``: the certificate and witness
checkers decide their residue and coverability questions afresh through
it, its tables charged to a budget (``tests/test_check_imports.py`` pins
these imports).  The profile checker decides nothing: it tests a closure.
"""
from __future__ import annotations

from .model import (
    Budget,
    Bvass1,
    Certificate,
    Config,
    Profile,
    UnaryTransition,
    Witness,
    _anchor_walk,
    _step_fault,
    _transition,
    _transition_line,
    is_accepting,
    reach_bound,
    validate_partial_tree_report,
)
from .residue import ResidueCache


def _shared_parts_report(system: Bvass1, certificate: Certificate, bound: int) -> str | None:
    """The first failed clause of the defs and grafts, or None.

    Each def is checked once, against its children's labels only; each
    graft must name a def, sit on an unpumped leaf of the tree and carry
    the def's label.
    """
    defs = certificate.defs
    for i, (cfg, kids) in defs.items():
        for c in kids:
            if c not in defs:
                return f"def {i} references unknown id {c}"
            if c >= i:
                return f"def {i} references id {c}, a forward reference"
        if cfg.counter > bound:
            return f"counter {cfg.counter} of def {i} exceeds the bound {bound}"
        if not kids:
            if not is_accepting(system, cfg):
                return f"def {i} is a leaf that is not accepting"
        elif len(kids) > 2:
            return f"def {i} has more than two children"
        elif why := _step_fault(system, cfg, defs[kids[0]][0], defs[kids[1]][0] if len(kids) == 2 else None):
            return f"def {i}: {why}"
    tree = certificate.tree
    for addr, i in certificate.grafts.items():
        where = addr or "root"
        if i not in defs:
            return f"graft at {where} references unknown id {i}"
        if addr in certificate.pumps:
            return f"graft at {where} sits on a pumped leaf"
        if addr not in tree.labels or not tree.is_leaf(addr):
            return f"graft at {where} is not a leaf of the tree"
        if tree.labels[addr] != defs[i][0]:
            return f"graft at {where} is labelled unlike def {i}"
    return None


def check_certificate_report(
    system: Bvass1, certificate: Certificate, claimed: Config, budget: Budget | None = None
) -> tuple[bool, str]:
    """Validate a certificate from scratch; names the first failed clause.

    Shares only the model validators and the residue decision with the
    engine; in particular every pump's residue query is re-decided here,
    through one residue cache of the checker's own, whose tables are
    charged to ``budget``, a fresh ``Budget()`` when none is given.  The
    defs and grafts are checked first, each once; then the tree, whose
    graft leaves count as derived, and the pumps.
    """
    bound = reach_bound(system, claimed.counter)
    why = _shared_parts_report(system, certificate, bound)
    if why is not None:
        return False, why
    tree = certificate.tree
    if "" not in tree.labels:
        return False, "tree has no root"
    if tree.labels[""] != claimed:
        return False, "root label differs from the claimed configuration"
    ok, addr, why = validate_partial_tree_report(system, tree)
    if not ok:
        return False, f"invalid tree at {addr or 'root'}: {why}"
    labels = tree.labels
    # first violations in (length, address) order, found without sorting
    over = min(((len(a), a) for a, cfg in labels.items() if cfg.counter > bound), default=None)
    if over is not None:
        a = over[1]
        return False, f"counter {labels[a].counter} at node {a or 'root'} exceeds the bound {bound}"
    pumps, grafts = certificate.pumps, certificate.grafts
    stuck = min(
        (
            (len(a), a)
            for a, cfg in labels.items()
            if a not in pumps and a not in grafts and tree.is_leaf(a) and not is_accepting(system, cfg)
        ),
        default=None,
    )
    if stuck is not None:
        return False, f"leaf {stuck[1] or 'root'} is neither accepting nor pumped"
    anchor_of, _, exclusive = _anchor_walk(tree, pumps)
    for leaf, rec in sorted(pumps.items()):
        if leaf not in tree.labels or not tree.is_leaf(leaf):
            return False, f"pump source {leaf!r} is not a leaf of the tree"
        if rec.anchor not in tree.labels:
            return False, f"pump anchor {rec.anchor!r} is not a node of the tree"
        if leaf not in anchor_of:
            return False, f"pumped leaf {leaf or 'root'} is not increasing"
        if anchor_of[leaf] != rec.anchor:
            return False, f"recorded anchor of leaf {leaf} is not its deepest smaller ancestor"
        gap = tree.labels[leaf].counter - tree.labels[rec.anchor].counter
        if rec.modulus != gap or rec.modulus < 1:
            return False, f"modulus {rec.modulus} of leaf {leaf} does not match the counter gap {gap}"
    if not exclusive:
        return False, "pumping segments are not exclusive"
    residues = ResidueCache(system, budget)
    for leaf, rec in sorted(pumps.items()):
        cfg = tree.labels[leaf]
        if not residues.query(cfg.state, cfg.counter, rec.modulus):
            return False, f"residue query at leaf {leaf} ({system.state_name(cfg.state)}, {cfg.counter}, {rec.modulus}) is negative"
    return True, "ok"


def check_certificate(system: Bvass1, certificate: Certificate, claimed: Config) -> bool:
    return check_certificate_report(system, certificate, claimed)[0]


def _profile_values(profile: Profile, q: int, top: int) -> set[int]:
    """The values of state q's set in [0, top], one by one."""
    t, p = profile.threshold, profile.period
    values: set[int] = set()
    for v, bit in enumerate(reversed(bin(profile.masks[q])[2:])):
        if bit == "1":
            values.update(range(v, top + 1, p) if v >= t else (v,))
    return values


def check_profile_report(system: Bvass1, profile: Profile, state: int, n: int) -> tuple[bool, str]:
    """Check that a reach profile refutes state(n); names the first failed clause.

    Redoes the closure of ``model.Profile`` with sets of values on its
    window [0, W] and plain loops, none of the engine's sumsets or shifts.
    The clauses, in order: the profile's shape (a natural threshold, a
    positive period, a mask below T + P for the queried state and for every
    state a rule of a masked state reaches); ``final``, 0 at every masked
    final state; ``unary`` and ``branch``, each value a rule of a masked
    state derives from masked values in the window is in the parent's set;
    and the claim, n not in the queried state's set.
    """
    t, p, masks = profile.threshold, profile.period, profile.masks
    if type(t) is not int or type(p) is not int or t < 0 or p < 1:
        return False, f"threshold {t!r} or period {p!r} is not a natural number resp. a positive one"
    if type(masks) is not dict or state not in masks:
        return False, f"no mask for the queried state {system.state_name(state)}"
    for q, bits in masks.items():
        if type(q) is not int or not 0 <= q < system.num_states:
            return False, f"mask for {q!r}, which is no state"
        if type(bits) is not int or bits < 0 or bits >> (t + p):
            return False, f"mask of state {system.state_name(q)} is not a set of values below T + P = {t + p}"
    for tr in system.unary + system.branching:
        children = (tr.target,) if isinstance(tr, UnaryTransition) else (tr.left, tr.right)
        for c in children:
            if tr.source in masks and c not in masks:
                return False, f"state {system.state_name(c)} has no mask, though {_transition_line(system, tr)} enters it"
    top = profile.window
    values = {q: _profile_values(profile, q, top) for q in masks}
    name = system.state_name
    for f in sorted(system.finals):
        if f in masks and 0 not in values[f]:
            return False, f"final state {name(f)} lacks the value 0"
    for tr in system.unary:
        if tr.source in masks:
            for child in sorted(values[tr.target]):
                parent = child - tr.delta
                if 0 <= parent <= top and parent not in values[tr.source]:
                    return False, (
                        f"{_transition_line(system, tr)}: {name(tr.source)}({parent}) over "
                        f"{name(tr.target)}({child}) lies outside the profile"
                    )
    for tr in system.branching:
        if tr.source in masks:
            for x in sorted(values[tr.left]):
                for y in sorted(values[tr.right]):
                    if x + y <= top and x + y not in values[tr.source]:
                        return False, (
                            f"{_transition_line(system, tr)}: {name(tr.source)}({x + y}) over "
                            f"{name(tr.left)}({x}) and {name(tr.right)}({y}) lies outside the profile"
                        )
    if profile.holds(state, n):
        return False, f"the profile holds {name(state)}({n}), so it refutes nothing"
    return True, "ok"


def check_unbounded_witness(
    system: Bvass1, state: int, witness: Witness, budget: Budget | None = None
) -> tuple[bool, str]:
    """Verify every clause of a witness from scratch.

    Checks the walk shape, the first-occurrence condition, coverability
    of every transition target at zero, the side values against fresh
    coverability queries, and the positive-gain sum.  The coverability
    tables are charged to ``budget``, a fresh ``Budget()`` when none is given.
    A field not of the type ``Witness`` declares fails its clause.
    """
    states, trans, j, n_values = witness.states, witness.transitions, witness.j, witness.n_values
    if type(states) is not tuple or type(trans) is not tuple or len(states) != len(trans) + 1:
        return False, "state sequence and transition sequence lengths disagree"
    k = len(trans)
    if not 1 <= k <= system.num_states:
        return False, f"walk length {k} outside [1, {system.num_states}]"
    if type(j) is not int or not 0 <= j < k:
        return False, f"re-entry index {j!r} outside [0, {k - 1}]"
    if type(n_values) is not tuple or len(n_values) != k - j:
        return False, "need one side value per cycle transition"

    walk, side_targets = [], set()
    for i in range(1, k + 1):
        try:
            t = _transition(system, trans[i - 1])
        except ValueError:
            return False, "transition reference out of range"
        targets = (t.target,) if isinstance(t, UnaryTransition) else (t.left, t.right)
        if t.source != states[i - 1]:
            return False, f"transition {i} does not start at state {i - 1} of the walk"
        if states[i] not in targets:
            return False, f"state {i} of the walk is not a target of transition {i}"
        walk.append(t)
        side_targets.update(targets)

    if states[k] != states[j]:
        return False, "the walk does not re-enter the state at the recorded index"
    for i in range(j):
        if states[i] == states[j]:
            return False, "re-entered state already occurs before the recorded index"

    # plain modulus-1 questions; the targets at 0 share one table
    cover = ResidueCache(system, budget)
    for p in sorted(side_targets):
        if not cover.query(p, 0, 1):
            return False, f"target state {system.state_name(p)} does not cover 0"

    total_gain = 0
    cap = system.num_states + 1
    for pos, i in enumerate(range(j + 1, k + 1)):
        t = walk[i - 1]
        n_i = n_values[pos]
        if type(n_i) is not int or not 0 <= n_i <= cap:
            return False, f"side value for transition {i} outside [0, {cap}]"
        if isinstance(t, UnaryTransition):
            if n_i != 0:
                return False, f"unary transition {i} must carry side value 0"
            effect = t.delta
        else:
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
