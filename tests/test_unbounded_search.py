"""The positive-cycle search against the walk-length program it replaced."""
from __future__ import annotations

import pytest

from bvass1.check import check_unbounded_witness
from bvass1.cover_bound import unbounded_report
from bvass1.gen import gen_mcvp, gen_random_circuit
from bvass1.model import parse_bvass

from helpers import naive_unbounded_report
from test_max_coverable import _all_systems


def _circuit_queries():
    # all-pairs in the reference is what makes every state of a circuit slow
    for seed in range(50):
        system = gen_mcvp(gen_random_circuit(seed, 60))[0]
        for q in sorted({*range(0, system.num_states, 10), system.num_states - 1}):
            yield system, q


def _all_queries():
    for system in _all_systems():
        for q in range(system.num_states):
            yield system, q
    yield from _circuit_queries()


def test_search_matches_walk_length_program():
    unbounded_states = bounded_states = 0
    for system, q in _all_queries():
        is_unbounded, reason, witness = unbounded_report(system, q)
        naive_unbounded, naive_reason, _ = naive_unbounded_report(system, q)
        assert is_unbounded == naive_unbounded, (system, q, reason, naive_reason)
        if not is_unbounded:
            bounded_states += 1
            assert (reason, witness) == (naive_reason, None)
            continue
        unbounded_states += 1
        assert check_unbounded_witness(system, q, witness) == (True, "ok")
        assert len(witness.transitions) <= system.num_states
    assert unbounded_states > 300 and bounded_states > 300


def test_cycle_is_entered_at_its_state_nearest_the_start():
    # s -> a -> b, and the gaining cycle a -> b -> c -> a: the walk enters at a
    system = parse_bvass(
        "state s  state a  state b  state c  state f\nfinal f\n"
        "unary s 0 a\nunary a 0 b\nunary b 0 c\nunary c -1 a\nunary a 0 f\n"
    )
    is_unbounded, reason, witness = unbounded_report(system, system.state_id("s"))
    assert is_unbounded
    assert reason == "unbounded: cycle of length 3 at a gains 1"
    assert witness.j == 1
    assert [system.state_name(q) for q in witness.states] == ["s", "a", "b", "c", "a"]


@pytest.mark.parametrize("state", [-3, -2, 3])
def test_state_out_of_range_is_rejected(state):
    system = parse_bvass("state s  state a  state f\nfinal f\nunary a -1 a\nunary a 0 f\n")
    with pytest.raises(ValueError, match="state out of range"):
        unbounded_report(system, state)
