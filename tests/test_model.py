"""System and tree model: formats, validators, node classification."""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bvass1.gen import gen_doubling, gen_random, gen_subset_sum
from bvass1.model import (
    BranchTransition,
    Bvass1,
    Config,
    FormatError,
    PartialTree,
    SemanticError,
    UnaryTransition,
    classify_nodes,
    format_bvass,
    is_exclusive,
    is_reachability_tree,
    parse_bvass,
    raw_tree_from_text,
    tree_from_text,
    tree_to_text,
    validate_bvass,
    validate_partial_tree,
    validate_partial_tree_report,
)

import pytest

from helpers import B2_TEXT, b2, is_ancestor, lca, loop_gadget, naive_parse_bvass, random_valid_tree, tree_of


# ---------------------------------------------------------------------------
# system text format


def test_parse_multi_directive_lines():
    system = b2()
    assert system.state_names == ("q", "q_f", "q_0", "q_1", "q_2")
    assert system.finals == frozenset({system.state_id("q_f")})
    assert len(system.unary) == 3
    assert len(system.branching) == 2
    hub = system.state_id("q")
    assert (system.unary[0].source, system.unary[0].delta, system.unary[0].target) == (hub, 1, hub)
    t = system.branching[0]
    assert (t.source, t.left, t.right) == (
        system.state_id("q_2"),
        system.state_id("q_1"),
        system.state_id("q_1"),
    )


def test_parse_minimal_system():
    system = parse_bvass("state f\nfinal f\n")
    assert system.num_states == 1
    assert system.unary == () and system.branching == ()
    assert system.finals == frozenset({0})


def test_parse_comments_and_blank_lines():
    system = parse_bvass("# header\nstate a # trailing\n\nfinal a\n")
    assert system.state_names == ("a",)
    assert system.finals == frozenset({0})


def test_parse_rejects_undeclared_state():
    with pytest.raises(SemanticError):
        parse_bvass("state a\nunary a 0 b\n")


def test_parse_rejects_duplicate_state():
    with pytest.raises(SemanticError):
        parse_bvass("state a\nstate a\n")


def test_parse_rejects_reserved_word_as_name():
    with pytest.raises(SemanticError):
        parse_bvass("state unary\n")


def test_parse_rejects_bad_shift():
    with pytest.raises(SemanticError, match="line 2"):
        parse_bvass("state a\nunary a 2 a\n")
    with pytest.raises(FormatError):
        parse_bvass("state a\nunary a x a\n")


def test_system_rejects_bad_shift():
    # a transition is a plain tuple; the system it joins checks the shift
    bad = UnaryTransition(0, 2, 0)
    assert bad.delta == 2
    with pytest.raises(SemanticError, match="shift 2"):
        Bvass1(("a",), (bad,), (), frozenset())


@pytest.mark.parametrize(
    "names, unary, branching, finals, first",
    [
        (("a", "b", "a"), (), (), (), "duplicate state name"),
        (("a", "def"), (), (), (), "state name 'def' is a reserved word"),
        (("a",), (UnaryTransition(0, 2, 0),), (), (), "bad shift 2"),
        (("a",), (UnaryTransition(0, 1, 3),), (), (),
         "dangling unary transition UnaryTransition(source=0, delta=1, target=3)"),
        (("a",), (), (BranchTransition(0, 0, -1),), (),
         "dangling branching transition BranchTransition(source=0, left=0, right=-1)"),
        (("a",), (), (), (1,), "dangling final state 1"),
        # several problems: the first one reported is the one raised
        (("a", "pump", "a"), (UnaryTransition(0, 5, 9),), (), (4,), "duplicate state name"),
        (("a",), (UnaryTransition(0, -2, 0), UnaryTransition(0, 0, 1)), (), (2,), "bad shift -2"),
    ],
    ids=["duplicate", "reserved", "shift", "unary", "branch", "final", "first-of-four", "first-of-three"],
)
def test_construction_raises_the_first_problem_validate_bvass_reports(names, unary, branching, finals, first):
    # the same fields with the constructor's check bypassed, as parse_bvass builds a system
    unchecked = object.__new__(Bvass1)
    unchecked.__dict__.update(state_names=names, unary=unary, branching=branching, finals=frozenset(finals))
    assert validate_bvass(unchecked)[0] == first
    with pytest.raises(SemanticError) as raised:
        Bvass1(names, unary, branching, frozenset(finals))
    assert str(raised.value) == first


def _random_directives(rng: random.Random) -> list[list[str]]:
    """Token lists of mostly valid directives, with a malformed one now and then."""
    names = [f"s{i}" for i in range(rng.randint(1, 6))]
    declared = rng.sample(names, rng.randint(1, len(names)))
    out = [["state", name] for name in declared]
    shifts = ["-1", "0", "+1", "1"] * 12 + ["+0", "-0", "01", "\u0661", "2", "x", "1.0"]

    def name() -> str:
        # a declared state; now and then an undeclared one or a reserved word
        if rng.random() < 0.02:
            return rng.choice(names + ["final", "ghost"])
        return rng.choice(declared)

    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.45:
            out.append(["unary", name(), rng.choice(shifts), name()])
        elif kind < 0.75:
            out.append(["branch", name(), name(), name()])
        elif kind < 0.97:
            out.append(["final", name()])
        else:
            out.append(["state", rng.choice(names + ["unary", "x"])])
    if rng.random() < 0.15:  # a malformed directive: cut short or misspelled
        d = list(rng.choice(out))
        if rng.random() < 0.5 and len(d) > 1:
            d.pop()
        else:
            d[0] = rng.choice(["states", "Unary", "pump", "#"])
        out.insert(rng.randrange(len(out) + 1), d)
    return out


def _render(rng: random.Random, directives: list[list[str]]) -> str:
    """One text of the directives: several to a line, tabs, comments, blank
    lines, CRLF endings, and now and then a directive split over two lines."""
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    lines: list[str] = []
    i = 0
    while i < len(directives):
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "\t", "# unary a 0 b", "#"]))
        group = directives[i : i + rng.choice([1, 1, 1, 2, 3])]
        i += len(group)
        tokens = [tok for d in group for tok in d]
        if rng.random() < 0.03 and len(tokens) > 1:
            cut = rng.randrange(1, len(tokens))
            lines.append(" ".join(tokens[:cut]))
            tokens = tokens[cut:]
        line = rng.choice([" ", "\t", "  "]).join(tokens)
        if rng.random() < 0.15:
            line += rng.choice([" # note", "#branch x y z", "\t# state q"])
        lines.append(rng.choice(["", " ", "\t"]) + line)
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


def _parse_outcome(parse, text: str):
    try:
        system = parse(text)
    except (FormatError, SemanticError) as exc:
        return type(exc), str(exc)
    return system, system.rule_index, [system.state_id(name) for name in system.state_names]


def test_parse_matches_the_line_by_line_reader():
    rng = random.Random(20161)
    kinds = set()
    for _ in range(1500):
        text = _render(rng, _random_directives(rng))
        expected = _parse_outcome(naive_parse_bvass, text)
        assert _parse_outcome(parse_bvass, text) == expected, text
        kinds.add(expected[0] if isinstance(expected[0], type) else Bvass1)
    assert kinds == {Bvass1, FormatError, SemanticError}


def test_rule_index_is_built_once_and_lazily():
    # one builder: a parsed system, like a generated one, builds it on first read
    generated = gen_doubling(3)
    parsed = parse_bvass(format_bvass(generated))
    assert "rule_index" not in vars(generated)
    assert "rule_index" not in vars(parsed)
    assert parsed.rule_index == generated.rule_index
    assert parsed.rule_index is parsed.rule_index
    assert generated.rule_index is generated.rule_index
    assert parsed.state_id("q_2") == generated.state_id("q_2") == 4


def test_parse_rejects_a_directive_split_over_two_lines():
    with pytest.raises(FormatError, match="line 1: unary needs"):
        parse_bvass("unary a\n+1 b\n")
    with pytest.raises(FormatError, match="line 3: branch needs"):
        parse_bvass("state a state b\r\n# a comment\r\nbranch a b\r\nb\r\n")


def test_parse_rejects_unknown_directive():
    with pytest.raises(FormatError):
        parse_bvass("states a\n")


def test_state_id_rejects_unknown_name():
    with pytest.raises(SemanticError):
        b2().state_id("nope")


def test_format_parse_round_trip_examples():
    for system in (b2(), loop_gadget(), gen_doubling(4), gen_subset_sum([2, 5, 9], 11)[0]):
        assert parse_bvass(format_bvass(system)) == system


@given(
    num_states=st.integers(1, 6),
    num_unary=st.integers(0, 8),
    num_branching=st.integers(0, 4),
    num_finals=st.integers(0, 3),
    seed=st.integers(0, 10**9),
)
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip_random(num_states, num_unary, num_branching, num_finals, seed):
    system = gen_random(num_states, num_unary, num_branching, num_finals, seed)
    assert validate_bvass(system) == []
    assert parse_bvass(format_bvass(system)) == system


# ---------------------------------------------------------------------------
# tree validation


def test_validate_unary_step_tree():
    system = b2()
    tree = tree_of(system, {"": ("q_0", 1), "0": ("q_f", 0)})
    ok, addr, why = validate_partial_tree_report(system, tree)
    assert (ok, addr, why) == (True, None, "ok")


def test_validate_single_node_tree():
    system = b2()
    assert validate_partial_tree(system, tree_of(system, {"": ("q", 7)}))


def test_validate_rejects_bad_branch_sum():
    system = b2()
    tree = tree_of(system, {"": ("q_2", 4), "0": ("q_1", 2), "1": ("q_1", 1)})
    ok, addr, why = validate_partial_tree_report(system, tree)
    assert not ok
    assert addr == ""
    assert why == "children counters do not sum to the parent counter"


def test_validate_accepts_good_branch():
    system = b2()
    tree = tree_of(system, {"": ("q_2", 4), "0": ("q_1", 2), "1": ("q_1", 2)})
    assert validate_partial_tree(system, tree)


def test_validate_rejects_right_only_child():
    system = b2()
    tree = PartialTree({"": Config(0, 1), "1": Config(0, 2)})
    ok, addr, why = validate_partial_tree_report(system, tree)
    assert not ok and why == "node has only a right child"


def test_validate_rejects_non_prefix_closed_domain():
    tree = PartialTree({"": Config(0, 0), "00": Config(0, 0)})
    ok, addr, why = validate_partial_tree_report(b2(), tree)
    assert not ok and why == "domain is not prefix-closed"
    assert addr == "00"


def test_validate_rejects_empty_tree():
    ok, addr, why = validate_partial_tree_report(b2(), PartialTree({}))
    assert (ok, addr, why) == (False, None, "empty tree")


def test_validate_rejects_unmatched_unary_child():
    system = b2()
    # q_0 steps -1 into q_f, never 0
    tree = tree_of(system, {"": ("q_0", 1), "0": ("q_f", 1)})
    ok, _, why = validate_partial_tree_report(system, tree)
    assert not ok and why == "no unary transition matches the child"


def test_validate_rejects_a_step_that_only_another_source_takes():
    system = b2()
    # q_0 -1 q_f and q_2 -> (q_1, q_1) exist, but not from q_1
    unary = tree_of(system, {"": ("q_1", 1), "0": ("q_f", 0)})
    branch = tree_of(system, {"": ("q_1", 4), "0": ("q_1", 2), "1": ("q_1", 2)})
    assert validate_partial_tree_report(system, unary) == (False, "", "no unary transition matches the child")
    assert validate_partial_tree_report(system, branch) == (False, "", "no branching transition matches the children")


def test_is_reachability_tree_examples():
    system = b2()
    assert is_reachability_tree(system, tree_of(system, {"": ("q_f", 0)}))
    # valid but the leaf is not accepting
    assert not is_reachability_tree(system, tree_of(system, {"": ("q", 3)}))
    # complete doubling derivation of q_2(4)
    full = tree_of(
        system,
        {
            "": ("q_2", 4),
            "0": ("q_1", 2),
            "1": ("q_1", 2),
            "00": ("q_0", 1),
            "01": ("q_0", 1),
            "10": ("q_0", 1),
            "11": ("q_0", 1),
            "000": ("q_f", 0),
            "010": ("q_f", 0),
            "100": ("q_f", 0),
            "110": ("q_f", 0),
        },
    )
    assert is_reachability_tree(system, full)


# ---------------------------------------------------------------------------
# addresses and tree helpers


def test_lca_and_is_ancestor():
    assert lca("010", "0110") == "01"
    assert lca("", "0110") == ""
    assert lca("01", "01") == "01"
    assert is_ancestor("", "01")
    assert is_ancestor("01", "01")
    assert not is_ancestor("01", "0")
    assert not is_ancestor("0", "10")


def test_addresses_sorted_by_depth_then_lex():
    tree = PartialTree({a: Config(0, 0) for a in ("", "1", "0", "10", "00", "11", "01")})
    assert tree.addresses() == ["", "0", "1", "00", "01", "10", "11"]


def test_subtree_rekeys_addresses():
    system = b2()
    tree = tree_of(system, {"": ("q_2", 4), "0": ("q_1", 2), "1": ("q_1", 2), "00": ("q_0", 1)})
    sub = tree.subtree("0")
    assert set(sub.labels) == {"", "0"}
    assert sub.label("") == tree.label("0")
    assert sub.label("0") == tree.label("00")


def test_leaves_and_children():
    system = b2()
    tree = tree_of(system, {"": ("q_2", 2), "0": ("q_1", 1), "1": ("q_1", 1)})
    assert tree.leaves() == ["0", "1"]
    assert tree.children("") == ("0", "1")
    assert tree.children("0") == (None, None)


# ---------------------------------------------------------------------------
# node classification


def test_classify_increasing_chain():
    system = b2()
    tree = tree_of(system, {"": ("q", 0), "0": ("q", 1)})
    cls = classify_nodes(tree)
    assert cls.increasing == frozenset({"0"})
    assert cls.anchor_of == {"0": ""}
    assert cls.decreasing == frozenset()


def test_classify_decreasing_chain():
    system = loop_gadget()
    tree = tree_of(system, {"": ("a", 1), "0": ("a", 0)})
    cls = classify_nodes(tree)
    assert cls.decreasing == frozenset({"0"})
    assert cls.increasing == frozenset()


def test_classify_single_node():
    cls = classify_nodes(tree_of(b2(), {"": ("q", 5)}))
    assert cls.increasing == frozenset()
    assert cls.anchor_of == {}
    assert cls.decreasing == frozenset()


def test_anchor_is_deepest_smaller_ancestor():
    system = b2()
    tree = tree_of(system, {"": ("q", 0), "0": ("q", 1), "00": ("q", 2)})
    cls = classify_nodes(tree)
    assert cls.anchor_of["00"] == "0"
    assert cls.anchor_of["0"] == ""


def test_classify_ignores_other_states():
    system = b2()
    tree = tree_of(system, {"": ("q", 3), "0": ("q_2", 3), "00": ("q_1", 2), "01": ("q_1", 1)})
    cls = classify_nodes(tree)
    assert cls.increasing == frozenset()
    assert cls.decreasing == frozenset()


# ---------------------------------------------------------------------------
# exclusivity


def test_exclusive_fails_when_both_anchors_above_meet():
    # both leaves increase over the root; their meet is the root itself
    tree = PartialTree({"": Config(0, 0), "0": Config(0, 1), "1": Config(0, 2)})
    assert not is_exclusive(tree)


def test_exclusive_holds_for_separated_segments():
    # each leaf's anchor sits inside its own branch, below the meet
    tree = PartialTree(
        {
            "": Config(1, 2),
            "0": Config(0, 1),
            "1": Config(0, 1),
            "00": Config(0, 2),
            "10": Config(0, 2),
        }
    )
    assert is_exclusive(tree)


def test_exclusive_trivial_cases():
    assert is_exclusive(PartialTree({"": Config(0, 0)}))
    # a single increasing leaf is always exclusive
    assert is_exclusive(PartialTree({"": Config(0, 0), "0": Config(0, 1)}))


def test_exclusive_mixed_anchor_positions():
    # leaf "10" anchors at "1", below the meet of the two leaves; leaf "0"
    # anchors at the root.  One anchor below the meet is enough.
    tree = PartialTree(
        {
            "": Config(0, 1),
            "0": Config(0, 2),
            "1": Config(0, 0),
            "10": Config(0, 1),
        }
    )
    assert is_exclusive(tree)


# ---------------------------------------------------------------------------
# pumping structure of valid trees


def _pump_between(cls, u, v) -> bool:
    for w, a in cls.anchor_of.items():
        if is_ancestor(u, a) and is_ancestor(w, v):
            return True
    return False


@given(seed=st.integers(0, 10**6), size=st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_far_counter_climbs_contain_a_pump(seed, size):
    # In any valid tree, a path pair whose counters differ by at least the
    # state count must contain an increasing node anchored inside the pair.
    system = gen_doubling(size)
    tree = random_valid_tree(system, random.Random(seed), max_nodes=70)
    assert validate_partial_tree(system, tree)
    cls = classify_nodes(tree)
    for v, cfg in tree.labels.items():
        for k in range(len(v)):
            u = v[:k]
            if cfg.counter - tree.labels[u].counter >= system.num_states:
                assert _pump_between(cls, u, v)


# ---------------------------------------------------------------------------
# tree text format


def test_tree_text_round_trip():
    system = b2()
    tree = tree_of(system, {"": ("q_2", 4), "0": ("q_1", 2), "1": ("q_1", 2)})
    text = tree_to_text(system, tree)
    assert tree_from_text(system, text).labels == tree.labels
    lines = text.splitlines()
    assert lines[0] == "e q_2 4"


def test_tree_from_text_rejects_bad_input():
    system = b2()
    with pytest.raises(FormatError):
        tree_from_text(system, "")
    with pytest.raises(SemanticError):
        tree_from_text(system, "e q 0\ne q 1\n")
    with pytest.raises(SemanticError):
        tree_from_text(system, "e nope 0\n")
    with pytest.raises(SemanticError):
        tree_from_text(system, "e q -1\n")
    with pytest.raises(FormatError):
        tree_from_text(system, "x q 0\n")


def test_raw_tree_from_text_keeps_names():
    labels = raw_tree_from_text("e q 2\n0 q_2 2 # comment\n")
    assert labels == {"": ("q", 2), "0": ("q_2", 2)}


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_tree_text_round_trip_random(seed):
    system = gen_doubling(2)
    tree = random_valid_tree(system, random.Random(seed), max_nodes=30)
    assert tree_from_text(system, tree_to_text(system, tree)).labels == tree.labels
