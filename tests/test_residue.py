"""Residue reachability: bounded set, root seeds, fixpoint, window cache."""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bvass1.gen import (
    gen_binary_constant,
    gen_doubling,
    gen_mcvp,
    gen_random,
    gen_random_circuit,
    gen_subset_sum,
)
from bvass1.model import Budget, BudgetExceeded, parse_bvass
from bvass1.oracle import bounded_reach_set, oracle_residue
from bvass1.reach import _witness_value_scan
from bvass1.residue import BoundedReach, ResidueCache, ResidueQuery, compute_table, residue_reachable

import pytest

from test_max_coverable import _family_systems as _max_coverable_families

from helpers import (
    b2,
    compute_R0,
    delta_branch,
    delta_unary,
    loop_gadget,
    mask_pairs,
    naive_r_rounds,
    random_instances,
    x_masks,
)


def _q(system, name, n0, d) -> ResidueQuery:
    return ResidueQuery(system, system.state_id(name), n0, d)


# ---------------------------------------------------------------------------
# pinned sets on the doubling system, n0 = 0, d = 1 (cap = 5)


def test_bounded_set_exact():
    system = b2()
    table = compute_table(_q(system, "q", 0, 1))
    ids = {name: system.state_id(name) for name in system.state_names}
    expected = {(ids["q_f"], 0), (ids["q_0"], 1), (ids["q_1"], 2), (ids["q_2"], 4)}
    expected |= {(ids["q"], m) for m in range(5)}
    assert mask_pairs(table.s_masks) == expected
    assert table.cap == 5 and table.big_n == 5


def test_root_seed_empty_on_doubling():
    system = b2()
    table = compute_table(_q(system, "q", 0, 1))
    assert mask_pairs(table.r0_masks) == frozenset()
    assert (system.state_id("q_2"), 0) not in mask_pairs(table.r0_masks)
    assert mask_pairs(table.r_masks) == frozenset()
    assert table.iterations == 1


def test_combined_set_is_every_state_at_residue_zero():
    system = b2()
    table = compute_table(_q(system, "q", 0, 1))
    assert mask_pairs(x_masks(table)) == {(q, 0) for q in range(system.num_states)}
    assert table.holds


def test_self_incrementing_state_has_no_root_seed():
    # f(+1)f can never step down into the bounded set from above the cap
    system = parse_bvass("state f\nfinal f\nunary f +1 f\n")
    for n0, d in [(0, 1), (3, 2), (1, 4)]:
        table = compute_table(ResidueQuery(system, 0, n0, d))
        assert mask_pairs(table.r0_masks) == frozenset()
        assert table.iterations == 1


def test_loop_root_seed_and_answer():
    system = loop_gadget()
    a, f = system.state_id("a"), system.state_id("f")
    table = compute_table(_q(system, "a", 0, 1))
    assert (a, 0) in mask_pairs(table.r0_masks)
    assert mask_pairs(x_masks(table)) == {(a, 0), (f, 0)}
    assert table.holds


# ---------------------------------------------------------------------------
# one-step operators


def test_delta_unary_pinned():
    system = b2()
    got = delta_unary(system, {(system.state_id("q_2"), 1)}, 3)
    assert got == {(system.state_id("q"), 1)}


def test_delta_unary_shift_changes_residue():
    system = b2()
    # the hub self-loop adds one going down, so the parent residue drops by one
    got = delta_unary(system, {(system.state_id("q"), 0)}, 3)
    assert (system.state_id("q"), 2) in got


def test_delta_branch_pinned():
    system = b2()
    q1 = {(system.state_id("q_1"), 2)}
    got = delta_branch(system, q1, q1, 3)
    assert got == {(system.state_id("q_2"), 1)}


def test_delta_on_empty_sets():
    system = b2()
    assert delta_unary(system, set(), 3) == set()
    assert delta_branch(system, set(), {(0, 0)}, 3) == set()
    assert delta_branch(system, {(0, 0)}, set(), 3) == set()


# ---------------------------------------------------------------------------
# pinned answers


def test_answer_pins():
    system = b2()
    assert not residue_reachable(_q(system, "q_2", 5, 1))[0]
    assert residue_reachable(_q(system, "q", 1, 2))[0]
    assert residue_reachable(_q(system, "q_f", 0, 3))[0]
    loop = loop_gadget()
    assert residue_reachable(_q(loop, "a", 7, 5))[0]


def test_unary_cycle_keeps_residues_apart():
    # q reaches exactly the multiples of 3, p the values 3k+2, r the values 3k+1
    system = parse_bvass("state q state p state r final q unary q -1 p unary p -1 r unary r -1 q")
    for name, residue in (("q", 0), ("p", 2), ("r", 1)):
        for n0 in range(12):
            assert residue_reachable(_q(system, name, n0, 3))[0] == (n0 % 3 == residue), (name, n0)


def test_query_validation():
    system = b2()
    with pytest.raises(ValueError):
        ResidueQuery(system, 0, 0, 0)
    with pytest.raises(ValueError):
        ResidueQuery(system, 0, -1, 1)
    with pytest.raises(ValueError):
        ResidueQuery(system, 99, 0, 1)


def test_budget_refusal():
    with pytest.raises(BudgetExceeded):
        compute_table(_q(b2(), "q", 0, 1), Budget(5))


# ---------------------------------------------------------------------------
# bit-packed pipeline vs the literal set semantics


@given(
    num_states=st.integers(1, 4),
    num_unary=st.integers(0, 6),
    num_branching=st.integers(0, 3),
    seed=st.integers(0, 10**9),
    n0=st.integers(0, 5),
    d=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_matches_literal_sets(num_states, num_unary, num_branching, seed, n0, d):
    system = gen_random(num_states, num_unary, num_branching, 1, seed)
    query = ResidueQuery(system, 0, n0, d)
    table = compute_table(query)
    s, r0 = mask_pairs(table.s_masks), mask_pairs(table.r0_masks)
    assert r0 == compute_R0(query, s)
    r = mask_pairs(table.r_masks)
    assert (r, table.iterations) == naive_r_rounds(system, s, r0, d)
    assert r0 <= r <= mask_pairs(x_masks(table))
    assert 1 <= table.iterations <= table.big_n
    if not r0:
        assert table.iterations == 1


def test_bounded_set_matches_oracle():
    for seed in range(25):
        system = gen_random(1 + seed % 4, 2 + seed % 5, seed % 3, 1, seed)
        query = ResidueQuery(system, 0, seed % 4, 1 + seed % 3)
        table = compute_table(query)
        assert mask_pairs(table.s_masks) == bounded_reach_set(system, query.cap).reachable


# ---------------------------------------------------------------------------
# differential against the brute-force oracle


def test_differential_with_witness_confirmation():
    checked_true = 0
    for seed in range(60):
        system = gen_random(2 + seed % 3, 2 + seed % 5, seed % 3, 1, seed)
        for state in range(system.num_states):
            n0 = (seed + state) % 5
            d = 1 + (seed + state) % 3
            answer = residue_reachable(ResidueQuery(system, state, n0, d))[0]
            if oracle_residue(system, state, n0, d, cap=40):
                assert answer, (seed, state, n0, d)
            if answer:
                v, witness, _ = _witness_value_scan(system, state, n0, d, 1 << 14)
                assert v >= n0 and (v - n0) % d == 0
                if witness.cap <= 512:
                    assert bounded_reach_set(system, witness.cap).contains(state, v)
                    checked_true += 1
    assert checked_true > 50  # the sweep must actually exercise positives


# ---------------------------------------------------------------------------
# window cache


def test_cache_matches_fresh_computation():
    system = loop_gadget()
    cache = ResidueCache(system)
    for state in range(system.num_states):
        for n0 in range(9):
            for d in (1, 2, 3):
                fresh = residue_reachable(ResidueQuery(system, state, n0, d))[0]
                assert cache.query(state, n0, d) == fresh


def test_cache_collapses_same_window():
    system = loop_gadget()
    cache = ResidueCache(system)
    for n0 in range(9):
        cache.query(0, n0, 3)
    # windows 0, 3 and 6 for d = 3
    assert cache.tables_built == 3


@pytest.mark.parametrize(
    "state, n0, d, message",
    [
        (0, 0, 0, "d must be >= 1"),  # the window base would divide by zero
        (5, 0, 1, "start state out of range"),  # past the cached table's states
        (-1, 0, 1, "start state out of range"),  # the cached table would answer for p
        (0, -1, 1, "n0 must be >= 0"),
    ],
)
def test_cache_query_checks_every_call_like_residue_query(state, n0, d, message):
    cache = ResidueCache(parse_bvass("state q\nstate p\nfinal q\n"))
    assert cache.query(0, 0, 1)  # a table the bad queries could read
    with pytest.raises(ValueError, match=message):
        cache.query(state, n0, d)
    with pytest.raises(ValueError, match=message):
        ResidueQuery(cache.system, state, n0, d)


@given(
    seed=st.integers(0, 10**9),
    n0=st.integers(0, 8),
    d=st.integers(1, 4),
    state=st.integers(0, 2),
)
@settings(max_examples=50, deadline=None)
def test_cache_matches_fresh_on_random_systems(seed, n0, d, state):
    system = gen_random(3, 4, 2, 1, seed)
    cache = ResidueCache(system)
    fresh = residue_reachable(ResidueQuery(system, state, n0, d))[0]
    assert cache.query(state, n0, d) == fresh


# ---------------------------------------------------------------------------
# S-first answers against the full X reading


def _gen_family_systems():
    yield gen_doubling(5)
    yield gen_binary_constant(100)[0]
    yield gen_mcvp(gen_random_circuit(5, 12))[0]
    yield gen_subset_sum([3, 5, 7], 12)[0]
    yield gen_random(8, 14, 5, 2, 1)


def _x_reading(table, state: int, n0: int) -> bool:
    return bool((x_masks(table)[state] >> (n0 % table.query.d)) & 1)


def test_answers_equal_the_full_x_reading():
    rng = random.Random(10)
    beyond_s = 0  # YES answers with no witness in S, read from X
    systems = [(system, 2) for system in random_instances()] + [(system, 40) for system in _gen_family_systems()]
    for system, draws in systems:
        nq = system.num_states
        for _ in range(draws):
            state, n0, d = rng.randrange(nq), rng.randrange(2 * nq + 3), rng.randint(1, 4)
            budget = Budget(None)
            table = compute_table(ResidueQuery(system, state, n0, d), budget)
            assert budget.used == nq * (3 * d + table.cap + 1)
            answer = table.holds
            from_s = "_closure" not in vars(table)
            assert answer == _x_reading(table, state, n0)
            beyond_s += answer and not from_s
            s, r0 = mask_pairs(table.s_masks), mask_pairs(table.r0_masks)
            assert (mask_pairs(table.r_masks), table.iterations) == naive_r_rounds(system, s, r0, d)
            assert budget.used == nq * (3 * d + table.cap + 1)  # building R and X charges nothing more
            # a cache table at window W answers every n0 in [W, W + d)
            cache = ResidueCache(system)
            window = n0 - n0 % d
            for m in range(window, window + d):
                for q in range(nq):
                    answer = cache.query(q, m, d)
                    assert answer == _x_reading(cache._tables[(d, window)], q, m), (system, q, m, d)
    assert beyond_s >= 5


def test_s_answered_query_leaves_r_unbuilt():
    system = b2()
    yes = compute_table(_q(system, "q", 1, 2))  # q(1) lies in S
    assert yes.holds
    assert not {"r0_masks", "_closure"} & set(vars(yes))
    no = compute_table(_q(system, "q_2", 5, 1))  # q_2 reaches only 4
    assert not no.holds
    assert {"r0_masks", "_closure"} <= set(vars(no))


# ---------------------------------------------------------------------------
# residue_reachable stops S once it answers


def _agrees_with_the_saturated_table(query: ResidueQuery) -> bool:
    """residue_reachable against compute_table on one query: the same
    answer, and an S inside the saturated one that differs from it only
    after a YES by S, with R0 and R unbuilt.  Returns whether S stopped
    short of saturation."""
    answer, table = residue_reachable(query)
    full = compute_table(query)
    assert answer == full.holds == table.holds, query
    assert all(m & ~f == 0 for m, f in zip(table.s_masks, full.s_masks)), query
    stopped = table.s_masks != full.s_masks
    if stopped:
        assert answer and not {"r0_masks", "_closure"} & set(vars(table)), query
    return stopped


def test_stopped_s_answers_as_the_saturated_table_on_every_family():
    queries = stopped = 0
    for system in _max_coverable_families() + [loop_gadget()]:
        nq = system.num_states
        for d in range(1, 6):
            for n0 in range(2 * nq + 3):
                for state in range(nq):
                    stopped += _agrees_with_the_saturated_table(ResidueQuery(system, state, n0, d))
                    queries += 1
    assert queries > 50_000 and stopped > 1500, (queries, stopped)


@given(
    nq=st.integers(1, 6),
    num_unary=st.integers(0, 9),
    num_branching=st.integers(0, 4),
    seed=st.integers(0, 10**9),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_stopped_s_answers_as_the_saturated_table_on_drawn_systems(nq, num_unary, num_branching, seed, data):
    system = gen_random(nq, num_unary, num_branching, 1 + seed % 2, seed)
    state = data.draw(st.integers(0, nq - 1))
    d = data.draw(st.integers(1, 5))
    n0 = data.draw(st.integers(0, 2 * nq + 2))
    _agrees_with_the_saturated_table(ResidueQuery(system, state, n0, d))


def test_goal_spans_the_window_from_n0_to_cap(monkeypatch):
    # the entry reaches exactly m: with n0 = m - kd the one witness lies kd
    # above n0, in S's window [n0, cap] up to k = |Q| (m at cap itself) and
    # beyond it, for R to find, at k = |Q| + 1
    goals = []
    run = BoundedReach.run

    def recorded(self, state=0, base=0, rel=0):
        goals.append((state, base, rel))
        run(self, state, base, rel)

    monkeypatch.setattr(BoundedReach, "run", recorded)
    for m in (100, 1000):
        system, entry = gen_binary_constant(m)
        nq = system.num_states
        for d in range(1, 6):
            window = sum(1 << (k * d) for k in range(nq + 1))  # n0, n0 + d, ..., cap
            for k in range(nq + 2):
                query = ResidueQuery(system, entry, m - k * d, d)
                assert query.cap - m == (nq - k) * d
                answer, table = residue_reachable(query)
                assert goals.pop() == (entry, query.n0, window)
                assert answer, (m, d, k)
                assert ("_closure" in vars(table)) == (k > nq), (m, d, k)
                if d > 1:  # m is not congruent to n0 + 1
                    assert not residue_reachable(ResidueQuery(system, entry, query.n0 + 1, d))[0], (m, d, k)
