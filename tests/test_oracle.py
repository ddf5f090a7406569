"""Brute-force bounded oracle used to cross-check the polynomial engines."""
from __future__ import annotations

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
from bvass1.oracle import (
    INCONCLUSIVE,
    NO_VALUE_ABOVE_THRESHOLD,
    UNBOUNDED_PROVEN,
    bounded_reach_set,
    oracle_coverable,
    oracle_residue,
    oracle_unbounded_hint,
)

import pytest

from helpers import b2, loop_gadget, naive_bounded_reach_set, random_instances


def test_doubling_three_cascade_values():
    system = gen_doubling(3)
    reach = bounded_reach_set(system, 8)
    cascade = {
        (q, n)
        for (q, n) in reach.reachable
        if system.state_name(q).startswith("q_") and system.state_name(q) != "q_f"
    }
    expected = {(system.state_id(f"q_{i}"), 2**i) for i in range(4)}
    assert cascade == expected


def test_cap_zero_keeps_zero_effect_closure():
    system = loop_gadget()
    reach = bounded_reach_set(system, 0)
    # (a,0) enters via the shift-0 exit; the down-step is infeasible at 0
    assert reach.reachable == frozenset({(system.state_id("f"), 0), (system.state_id("a"), 0)})


def test_cap_zero_on_doubling_is_final_only():
    system = gen_doubling(3)
    assert bounded_reach_set(system, 0).reachable == frozenset({(system.state_id("q_f"), 0)})


def test_loop_reaches_every_value():
    system = loop_gadget()
    reach = bounded_reach_set(system, 10)
    a, f = system.state_id("a"), system.state_id("f")
    assert reach.values(a) == set(range(11))
    assert reach.values(f) == {0}


def test_values_and_contains_agree():
    system = b2()
    reach = bounded_reach_set(system, 6)
    q2 = system.state_id("q_2")
    assert reach.values(q2) == {4}
    assert reach.contains(q2, 4) and not reach.contains(q2, 3)


@given(
    num_states=st.integers(1, 4),
    num_unary=st.integers(0, 6),
    num_branching=st.integers(0, 3),
    seed=st.integers(0, 10**9),
    cap=st.integers(0, 12),
)
@settings(max_examples=50, deadline=None)
def test_reach_set_grows_with_cap(num_states, num_unary, num_branching, seed, cap):
    system = gen_random(num_states, num_unary, num_branching, 1, seed)
    small = bounded_reach_set(system, cap)
    large = bounded_reach_set(system, cap + 3)
    assert small.reachable <= large.reachable


def test_bounded_reach_set_rejects_bad_arguments():
    system = b2()
    with pytest.raises(ValueError):
        bounded_reach_set(system, -1)
    with pytest.raises(ValueError):
        bounded_reach_set(system, 10**9)  # past the default memory budget


def test_residue_scan_examples():
    b = b2()
    assert oracle_residue(b, b.state_id("q"), 1, 2, cap=10)
    assert not oracle_residue(b, b.state_id("q_2"), 5, 1, cap=40)
    loop = loop_gadget()
    assert oracle_residue(loop, loop.state_id("f"), 0, 1, cap=0)


def test_residue_rejects_bad_modulus():
    b = b2()
    with pytest.raises(ValueError):
        oracle_residue(b, 0, 0, 0, cap=4)


def test_coverable_scan():
    loop = loop_gadget()
    assert oracle_coverable(loop, loop.state_id("a"), 7, cap=10)
    assert not oracle_coverable(loop, loop.state_id("f"), 1, cap=10)


def test_unbounded_hint_three_outcomes():
    loop = loop_gadget()
    assert oracle_unbounded_hint(loop, loop.state_id("a"), cap=10) == UNBOUNDED_PROVEN
    b = b2()
    assert oracle_unbounded_hint(b, b.state_id("q"), cap=80) == NO_VALUE_ABOVE_THRESHOLD
    assert oracle_unbounded_hint(b, b.state_id("q"), cap=3) == INCONCLUSIVE


def _referee_caps(system) -> list[int]:
    """4|Q|, the cap of the benchmark's reach sets; for |Q| <= 7 also the
    boundedness hint's caps 2^|Q|+|Q| and twice that."""
    nq = system.num_states
    caps = [4 * nq]
    if nq <= 7:
        caps += [2**nq + nq, 2 * (2**nq + nq)]
    return caps


def _gen_families():
    yield from (gen_doubling(n) for n in range(4))
    yield from (gen_binary_constant(m)[0] for m in (1, 2, 5, 6))
    yield from (gen_mcvp(gen_random_circuit(seed, 12))[0] for seed in range(4))
    yield gen_subset_sum([2, 3], 5)[0]
    yield gen_subset_sum([1, 4, 6], 0)[0]
    for seed in range(12):
        nq = 6 + seed % 2
        yield gen_random(nq, 3 * nq, nq, 2, seed)  # dense, as the benchmark draws them
        yield gen_random(nq, 2 * nq, nq // 2, 1, seed)  # sparse


def test_reach_set_matches_the_pair_rescan():
    systems = random_instances() + list(_gen_families())
    for system in systems:
        for cap in _referee_caps(system):
            assert bounded_reach_set(system, cap).reachable == naive_bounded_reach_set(system, cap), (system, cap)
