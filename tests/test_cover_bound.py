"""Coverability and the gain-graph boundedness decision."""
from __future__ import annotations

import dataclasses

from bvass1.check import check_unbounded_witness
from bvass1.cover_bound import build_gain_graph, coverable, unbounded, unbounded_report
from bvass1.gen import gen_doubling, gen_random
from bvass1.model import Budget, BudgetExceeded, Witness, parse_bvass
from bvass1.oracle import (
    NO_VALUE_ABOVE_THRESHOLD,
    UNBOUNDED_PROVEN,
    oracle_unbounded_hint,
)

import pytest

from helpers import b2, loop_gadget

# sibling-fed pump: each lap of the a-branch splits one token into c
SIBLING_FEED = """
state a  state c  state f
final f
branch a c a
unary a 0 f
unary c -1 f
"""

# two-state cycle gaining one per lap
TWO_STATE_CYCLE = """
state a  state b  state f
final f
unary a -1 b
unary b 0 a
unary b 0 f
"""


# ---------------------------------------------------------------------------
# coverability


def test_coverable_pins():
    system = b2()
    assert coverable(system, system.state_id("q_2"), 4)
    assert not coverable(system, system.state_id("q_2"), 5)
    assert coverable(system, system.state_id("q_f"), 0)
    loop = loop_gadget()
    assert coverable(loop, loop.state_id("a"), 100)


def test_coverable_charges_a_default_budget():
    # without a budget the window's charge still meets the default limit,
    # before a 10^20-bit mask is built; Budget(None) runs unlimited
    system = parse_bvass("state q\nstate f\nfinal f\nunary q -1 q\nunary q 0 f\n")
    with pytest.raises(BudgetExceeded):
        coverable(system, 0, 10**20)
    assert coverable(system, 0, 1000, Budget(None))


def test_coverable_is_downward_closed():
    for seed in range(30):
        system = gen_random(2 + seed % 3, 2 + seed % 5, seed % 3, 1, seed)
        for state in range(system.num_states):
            covered = [coverable(system, state, n) for n in range(9)]
            for lo, hi in zip(covered, covered[1:]):
                assert lo or not hi  # covering n+1 implies covering n


# ---------------------------------------------------------------------------
# gain graph


def test_loop_gain_graph():
    system = loop_gadget()
    graph = build_gain_graph(system)
    a, f = system.state_id("a"), system.state_id("f")
    assert graph.max_coverable[a] == system.num_states + 1  # clamped
    assert graph.max_coverable[f] == 0
    got = {(e.source, e.kind, e.target, e.gain) for e in graph.edges}
    assert got == {(a, "unary", a, 1), (a, "unary", f, 0)}


def test_doubling_gain_graph_values():
    system = b2()
    graph = build_gain_graph(system)
    ids = {name: system.state_id(name) for name in system.state_names}
    assert graph.max_coverable[ids["q"]] == 4
    assert graph.max_coverable[ids["q_0"]] == 1
    assert graph.max_coverable[ids["q_1"]] == 2
    assert graph.max_coverable[ids["q_2"]] == 4
    assert graph.max_coverable[ids["q_f"]] == 0
    branch_gains = {e.gain for e in graph.edges if e.kind == "branch" and e.source == ids["q_2"]}
    assert branch_gains == {2}  # sibling q_1 covers at most 2
    hub_gains = {e.gain for e in graph.edges if e.source == ids["q"]}
    assert hub_gains == {-1, 0}


def test_gain_graph_drops_uncoverable_targets():
    system = parse_bvass("state a  state dead  state f\nfinal f\nbranch a dead a\nunary a 0 f\n")
    graph = build_gain_graph(system)
    assert all(e.kind != "branch" for e in graph.edges)


# ---------------------------------------------------------------------------
# boundedness decisions


def test_loop_is_unbounded_with_verified_witness():
    system = loop_gadget()
    a = system.state_id("a")
    is_unbounded, reason, witness = unbounded_report(system, a)
    assert is_unbounded
    assert reason.startswith("unbounded: cycle of length 1 at a gains 1")
    assert witness is not None
    ok, why = check_unbounded_witness(system, a, witness)
    assert (ok, why) == (True, "ok")


@pytest.mark.parametrize("n", range(5))
def test_doubling_family_is_bounded(n):
    system = gen_doubling(n)
    for state in range(system.num_states):
        assert not unbounded(system, state)


def test_single_final_state_is_bounded():
    system = parse_bvass("state f\nfinal f\n")
    is_unbounded, reason, witness = unbounded_report(system, 0)
    assert not is_unbounded and witness is None
    assert reason == "bounded: no reachable positive-gain cycle fits the length bound"


def test_empty_reach_state_gets_distinct_diagnostic():
    system = parse_bvass("state x  state f\nfinal f\n")
    is_unbounded, reason, witness = unbounded_report(system, system.state_id("x"))
    assert not is_unbounded and witness is None
    assert reason == "bounded: the state has an empty reach set"


def test_sibling_feed_is_unbounded():
    system = parse_bvass(SIBLING_FEED)
    a = system.state_id("a")
    is_unbounded, _, witness = unbounded_report(system, a)
    assert is_unbounded
    assert check_unbounded_witness(system, a, witness)[0]
    # the cycle pays with a branch side value, not a unary step
    assert any(kind == "branch" for kind, _ in witness.transitions)


def test_two_state_cycle_is_unbounded():
    system = parse_bvass(TWO_STATE_CYCLE)
    for name in ("a", "b"):
        state = system.state_id(name)
        is_unbounded, _, witness = unbounded_report(system, state)
        assert is_unbounded
        assert check_unbounded_witness(system, state, witness)[0]


def test_prefix_chains_into_a_pump_are_unbounded():
    # p0 -> ... -> p{k-1} -> a, down-counting loop at a
    for k in range(1, 4):
        names = "".join(f"state p{i}  " for i in range(k)) + "state a  state f"
        lines = [names, "final f"]
        for i in range(k - 1):
            lines.append(f"unary p{i} 0 p{i + 1}")
        lines.append(f"unary p{k - 1} 0 a")
        lines.append("unary a -1 a")
        lines.append("unary a 0 f")
        system = parse_bvass("\n".join(lines) + "\n")
        p0 = system.state_id("p0")
        is_unbounded, _, witness = unbounded_report(system, p0)
        assert is_unbounded, k
        ok, why = check_unbounded_witness(system, p0, witness)
        assert ok, why
        assert witness.j == k  # the prefix walks the whole chain first


def test_unreachable_pump_does_not_count():
    # the positive loop exists but the queried state cannot reach it
    system = parse_bvass(
        "state s  state a  state f\nfinal f\nunary s 0 f\nunary a -1 a\nunary a 0 f\n"
    )
    assert not unbounded(system, system.state_id("s"))
    assert unbounded(system, system.state_id("a"))


# ---------------------------------------------------------------------------
# witness checker clause by clause


def _loop_witness(system) -> Witness:
    a = system.state_id("a")
    return Witness(states=(a, a), transitions=(("unary", 0),), j=0, n_values=(0,))


def test_checker_accepts_handmade_loop_witness():
    system = loop_gadget()
    assert check_unbounded_witness(system, system.state_id("a"), _loop_witness(system))[0]


def test_checker_charges_its_budget():
    system = loop_gadget()
    a = system.state_id("a")
    budget = Budget(None)
    assert check_unbounded_witness(system, a, _loop_witness(system), budget) == (True, "ok")
    assert budget.used == system.num_states * (3 + system.num_states + 1)  # one table, at 0
    with pytest.raises(BudgetExceeded):
        check_unbounded_witness(system, a, _loop_witness(system), Budget(5))


def test_checker_rejects_bad_shapes():
    system = loop_gadget()
    a = system.state_id("a")
    good = _loop_witness(system)

    bad = Witness(states=(a,), transitions=good.transitions, j=0, n_values=(0,))
    assert check_unbounded_witness(system, a, bad)[1].endswith("lengths disagree")

    bad = Witness(states=good.states, transitions=good.transitions, j=5, n_values=(0,))
    assert "re-entry index" in check_unbounded_witness(system, a, bad)[1]

    bad = Witness(states=good.states, transitions=good.transitions, j=0, n_values=(0, 0))
    assert "one side value" in check_unbounded_witness(system, a, bad)[1]

    bad = Witness(states=good.states, transitions=(("unary", 99),), j=0, n_values=(0,))
    assert "out of range" in check_unbounded_witness(system, a, bad)[1]

    bad = Witness(states=good.states, transitions=good.transitions, j=0, n_values=(2,))
    assert "must carry side value 0" in check_unbounded_witness(system, a, bad)[1]


@pytest.mark.parametrize(
    "ref",
    [("unary", "0"), ("unary", 0.0), None, ("unary",), ("unary", -1), ("loop", 0), ("branch", 0)],
)
def test_checker_refuses_every_malformed_reference(ref):
    # the loop gadget has no branching transition, so ("branch", 0) names none
    system = loop_gadget()
    a = system.state_id("a")
    bad = Witness(states=(a, a), transitions=(ref,), j=0, n_values=(0,))
    assert check_unbounded_witness(system, a, bad) == (False, "transition reference out of range")


@pytest.mark.parametrize(
    "fields, why",
    [
        ({"j": "0"}, "re-entry index '0' outside [0, 0]"),
        ({"j": 0.0}, "re-entry index 0.0 outside [0, 0]"),
        ({"j": None}, "re-entry index None outside [0, 0]"),
        ({"n_values": ("0",)}, "side value for transition 1 outside [0, 3]"),
        ({"n_values": (None,)}, "side value for transition 1 outside [0, 3]"),
        ({"n_values": (0.0,)}, "side value for transition 1 outside [0, 3]"),
        ({"n_values": 5}, "need one side value per cycle transition"),
        ({"states": 5}, "state sequence and transition sequence lengths disagree"),
        ({"transitions": 5}, "state sequence and transition sequence lengths disagree"),
    ],
    ids=["j-str", "j-float", "j-none", "side-str", "side-none", "side-float", "sides-int", "states-int", "steps-int"],
)
def test_checker_names_the_clause_of_a_mistyped_field(fields, why):
    # a climbing-down loop that gains one a lap; each case mistypes one field
    system = parse_bvass("state a  state f\nfinal f\nunary a -1 a\nunary a 0 f\n")
    a = system.state_id("a")
    good = Witness(states=(a, a), transitions=(("unary", 0),), j=0, n_values=(0,))
    assert check_unbounded_witness(system, a, good) == (True, "ok")
    bad = dataclasses.replace(good, **fields)
    assert check_unbounded_witness(system, a, bad) == (False, why)


def test_checker_rejects_wrong_start_state():
    system = loop_gadget()
    ok, why = check_unbounded_witness(system, system.state_id("f"), _loop_witness(system))
    assert not ok and why == "walk does not start at the queried state"


def test_checker_rejects_non_positive_gain():
    # only a climbing self-loop: reach(a) = {0}, the lap loses one
    system = parse_bvass("state a  state f\nfinal f\nunary a +1 a\nunary a 0 f\n")
    a = system.state_id("a")
    bad = Witness(states=(a, a), transitions=(("unary", 0),), j=0, n_values=(0,))
    ok, why = check_unbounded_witness(system, a, bad)
    assert not ok and why == "cycle gain -1 is not positive"


def test_checker_rejects_uncoverable_side_target():
    system = parse_bvass("state a  state dead  state f\nfinal f\nbranch a dead a\nunary a 0 f\n")
    a = system.state_id("a")
    bad = Witness(states=(a, a), transitions=(("branch", 0),), j=0, n_values=(0,))
    ok, why = check_unbounded_witness(system, a, bad)
    assert not ok and why == "target state dead does not cover 0"


def test_checker_rejects_overclaimed_sibling_value():
    system = parse_bvass(SIBLING_FEED)
    a = system.state_id("a")
    bad = Witness(states=(a, a), transitions=(("branch", 0),), j=0, n_values=(3,))
    ok, why = check_unbounded_witness(system, a, bad)
    assert not ok and why == "sibling of transition 1 is not coverable at 3"


def test_checker_rejects_early_reentry_state():
    system = loop_gadget()
    a = system.state_id("a")
    # two laps recorded as j = 1; the re-entered state already sits at index 0
    bad = Witness(
        states=(a, a, a),
        transitions=(("unary", 0), ("unary", 0)),
        j=1,
        n_values=(0,),
    )
    ok, why = check_unbounded_witness(system, a, bad)
    assert not ok and why == "re-entered state already occurs before the recorded index"


# ---------------------------------------------------------------------------
# oracle hint consistency


def test_hint_agrees_with_engine_on_random_systems():
    proven = disproven = 0
    for seed in range(100):
        system = gen_random(2 + seed % 3, 2 + seed % 6, seed % 3, 1, seed)
        cap = 2**system.num_states + system.num_states + 2
        for state in range(system.num_states):
            hint = oracle_unbounded_hint(system, state, cap)
            engine = unbounded(system, state)
            if hint == UNBOUNDED_PROVEN:
                assert engine, (seed, state)
                proven += 1
            elif hint == NO_VALUE_ABOVE_THRESHOLD:
                assert not engine, (seed, state)
                disproven += 1
    assert proven > 20 and disproven > 20
