"""The shared largest coverable values against the per-state scan they replaced.

Some test names say "profile" for these values; the word now names the
reach profile of ``reach.reach_profile``, and the names are kept as they were."""
from __future__ import annotations

import random
import time

from bvass1.check import check_unbounded_witness
from bvass1.cover_bound import build_gain_graph, coverable, unbounded_report
from bvass1.gen import (
    gen_binary_constant,
    gen_doubling,
    gen_mcvp,
    gen_random,
    gen_random_circuit,
    gen_subset_sum,
)
from bvass1.model import Bvass1, parse_bvass
from bvass1.reach import _cyclic_states, run_batch
from bvass1.residue import ResidueCache, ResidueQuery, residue_reachable

from helpers import metamorphic_variants, naive_max_coverable, random_instances


def _family_systems() -> list[Bvass1]:
    out = [gen_doubling(n) for n in range(6)]
    out += [gen_binary_constant(m)[0] for m in (1, 2, 5, 13, 100)]
    out += [gen_mcvp(gen_random_circuit(seed, num_gates=12))[0] for seed in range(20)]
    out.append(gen_subset_sum([3, 5, 7], 12)[0])
    return out


def _random_systems() -> list[Bvass1]:
    """|Q| from 6 to 15, sparse to dense, mostly with branching."""
    out = []
    for seed in range(60):
        nq = 6 + seed % 10
        out.append(gen_random(nq, nq * (1 + seed % 3), (nq * (seed % 4)) // 3, 1 + seed % 3, 7100 + seed))
    return out


def _all_systems() -> list[Bvass1]:
    return random_instances() + _family_systems() + _random_systems()


def _values(graph_values) -> list[int]:
    return [-1 if m is None else m for m in graph_values]


# d3 reaches exactly 8 = |Q| + 1, so q, one +1 step below it, reaches 7 at
# most: in the values at clamp 8, d3 is the table's answer at the clamp and
# q its highest S bit
OVERSHOOT = """
state f  state u  state d1  state d2  state d3  state q  state z
final f
unary u -1 f
branch d1 u u
branch d2 d1 d1
branch d3 d2 d2
unary q +1 d3
"""


def test_profile_settles_an_overshooting_upper_bound():
    system = parse_bvass(OVERSHOOT)
    q = system.state_id("q")
    assert build_gain_graph(system).max_coverable[q] == 7
    assert ResidueCache(system).max_coverable(8) == naive_max_coverable(system, 8)
    assert ResidueCache(parse_bvass("")).max_coverable(8) == []


def _largest_values(system: Bvass1, limit: int = 256) -> list[tuple[int, int]]:
    """(q, m) for each state q whose reach set is nonempty with largest value
    m < limit, by bisection over fresh coverability runs."""
    out = []
    for q in range(system.num_states):
        if not coverable(system, q, 0) or coverable(system, q, limit):
            continue
        lo, hi = 0, limit  # q covers lo and not hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if coverable(system, q, mid):
                lo = mid
            else:
                hi = mid
        out.append((q, lo))
    return out


def test_profile_matches_naive_scan_around_each_largest_value():
    # at clamp m - 1 or m a state with largest value m is the table's answer
    # at the clamp; at m + 1 it is read off its highest S bit
    answered = read_off_s = 0
    for system in [parse_bvass(OVERSHOOT)] + random_instances() + _family_systems():
        largest = _largest_values(system)
        for clamp in sorted({c for _, m in largest for c in (m - 1, m, m + 1) if c >= 0}):
            values = ResidueCache(system).max_coverable(clamp)
            assert values == naive_max_coverable(system, clamp), (system, clamp)
            for q, m in largest:
                if clamp in (m - 1, m):
                    answered += values[q] == clamp
                elif clamp == m + 1:
                    read_off_s += values[q] == m
    assert answered > 800 and read_off_s > 700, (answered, read_off_s)


def test_engine_probe_matches_coverable():
    systems = [s for s in random_instances()[::25] + _random_systems()[::10] if _cyclic_states(s, range(s.num_states))]
    assert len(systems) > 20
    for system in systems:
        tables = run_batch(system, 1)
        for q in range(system.num_states):
            for n0 in range(tables.bound + 1):
                assert tables._probe(q, n0, 1) == coverable(system, q, n0)


def test_gain_graph_profile_matches_naive_scan():
    for system in _all_systems():
        expected = naive_max_coverable(system, system.num_states + 1)
        assert _values(build_gain_graph(system).max_coverable) == expected


def test_engine_profile_matches_naive_scan_at_bound_plus_one():
    # only pump contexts read the values, so tables without any leave them empty
    systems = random_instances()[::10] + _family_systems()[::2] + _random_systems()[::4]
    for i, system in enumerate(systems):
        tables = run_batch(system, i % 4)
        expected = naive_max_coverable(system, tables.bound + 1) if _cyclic_states(system, range(system.num_states)) else []
        assert tables.max_coverable_values == expected


def test_every_emitted_witness_passes_the_checker():
    emitted = 0
    for system in _all_systems():
        for q in range(system.num_states):
            is_unbounded, reason, witness = unbounded_report(system, q)
            assert is_unbounded == (witness is not None), reason
            if is_unbounded:
                emitted += 1
                assert check_unbounded_witness(system, q, witness) == (True, "ok")
    assert emitted > 300


# ---------------------------------------------------------------------------
# metamorphic: renaming, reordering, disjoint union and added states change nothing


def _metamorphic_cases():
    """(system, other, its metamorphic variants with ``other``)."""
    rng = random.Random(31)
    systems = random_instances()[::5] + _family_systems()[::3] + _random_systems()[::2]
    for i, system in enumerate(systems):
        other = gen_random(6 + i % 5, 12, 3, 1 + i % 2, 8200 + i)
        yield system, other, metamorphic_variants(system, other, rng)


def _verdicts(system: Bvass1, states, clamp: int) -> list[tuple]:
    """Per state: its largest coverable value at clamp, whether it is unbounded, and
    its cover and residue verdicts at counters around the clamp."""
    values = ResidueCache(system).max_coverable(clamp)
    return [
        (
            values[q],
            unbounded_report(system, q)[0],
            [coverable(system, q, n) for n in (0, 1, clamp - 1, clamp)],
            [residue_reachable(ResidueQuery(system, q, n0, d))[0] for n0, d in ((1, 2), (clamp, 3))],
        )
        for q in states
    ]


def test_renaming_states_keeps_profile_and_verdicts():
    # and so does reordering the transitions
    for system, _, variants in _metamorphic_cases():
        clamp = system.num_states + 1
        expected = _verdicts(system, range(system.num_states), clamp)
        for kind, variant, where in variants:
            if kind in ("rename", "reorder"):
                assert _verdicts(variant, where, clamp) == expected, (kind, system)


def test_disjoint_union_keeps_profile_and_verdicts():
    for system, other, variants in _metamorphic_cases():
        [(_, union, where)] = [v for v in variants if v[0] == "union"]
        clamp = union.num_states + 1
        assert _verdicts(union, where, clamp) == _verdicts(system, range(system.num_states), clamp)
        assert _verdicts(union, range(other.num_states), clamp) == _verdicts(other, range(other.num_states), clamp)


def test_added_states_keep_profile_and_verdicts():
    # no state of the system reaches the added ones, which have a path into it
    for system, _, variants in _metamorphic_cases():
        [(_, added, where)] = [v for v in variants if v[0] == "added"]
        clamp = added.num_states + 1
        assert _verdicts(added, where, clamp) == _verdicts(system, range(system.num_states), clamp)


def test_unbounded_report_at_80_states_is_fast():
    # the per-state scan took about a minute here
    system = gen_random(80, 240, 80, 2, 7)
    start = time.perf_counter()
    unbounded_report(system, 0)
    assert time.perf_counter() - start < 2.0


def test_bounded_query_on_a_400_gate_circuit_is_fast():
    # the walk-length program took about 5 s here
    system = gen_mcvp(gen_random_circuit(1, 400))[0]
    start = time.perf_counter()
    is_unbounded, reason, _ = unbounded_report(system, 0)
    assert time.perf_counter() - start < 1.0
    assert not is_unbounded and reason.startswith("bounded")


def test_max_coverable_at_a_large_clamp_is_fast():
    # one shift-or per set bit of a full 10^5-bit window took about 40 s here
    system = gen_random(10, 30, 10, 2, 3)
    start = time.perf_counter()
    values = ResidueCache(system).max_coverable(10**5)
    assert time.perf_counter() - start < 1.0
    assert values == [10**5] * 10


def test_coverable_at_5000_is_fast():
    # about 0.3 s with the per-bit sumset
    system = gen_random(15, 45, 15, 2, 5)
    start = time.perf_counter()
    assert coverable(system, 0, 5000)
    assert time.perf_counter() - start < 1.0
