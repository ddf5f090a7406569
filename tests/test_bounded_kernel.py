"""The bounded-reach kernel behind S, the reach core and expansion's witness."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvass1.gen import gen_binary_constant, gen_doubling, gen_random
from bvass1.check import check_certificate_report
from bvass1.model import Bvass1, Certificate, Config, PartialTree, is_reachability_tree, parse_bvass
from bvass1.oracle import bounded_reach_set
from bvass1.reach import (
    ExpandOverflow,
    ReachQuery,
    _cyclic_states,
    _replay,
    _ReplayOverLimit,
    _witness_value_scan,
    expand_certificate,
    extract_certificate,
    run_batch,
    run_query,
)
from bvass1.residue import BoundedReach, _shift_parent, _sumset

from helpers import loop_gadget, naive_replay, random_instances
from test_max_coverable import _family_systems as _gen_systems
from test_reach import SHARED_SIDE, _side_pump

# a fills both ways from the one value c hands it; b adds c's value to a's
BOTH_LOOPS = """
state a  state b  state c  state f
final f
unary a +1 a
unary a -1 a
unary a 0 c
unary c -1 f
branch b a c
unary b +1 f
"""


def _both_loops() -> Bvass1:
    return parse_bvass(BOTH_LOOPS)


def _family_systems() -> list[Bvass1]:
    return _gen_systems() + [loop_gadget(), _both_loops()]


def _has_self_loop(system: Bvass1) -> bool:
    return any(t.source == t.target for t in system.unary)


def _pairs(masks: list[int]) -> frozenset[tuple[int, int]]:
    return frozenset((q, m) for q, mask in enumerate(masks) for m in range(mask.bit_length()) if (mask >> m) & 1)


def _kernel(system: Bvass1, cap: int, justify: bool) -> BoundedReach:
    kernel = BoundedReach(system, cap, justify=justify)
    kernel.run()
    return kernel


def test_kernel_matches_oracle():
    systems = random_instances() + _family_systems()
    for system in systems:
        for cap in (0, 3, 10):
            expected = bounded_reach_set(system, cap).reachable
            for justify in (False, True):
                assert _pairs(_kernel(system, cap, justify).masks) == expected, (system, cap, justify)


class _EveryRuleKernel(BoundedReach):
    """The kernel with a step that applies every rule to every delta."""

    def step(self, q: int) -> int:
        delta = self._pending[q]
        if delta:
            self._pending[q] = 0
            for (src, z, rule) in self.up[q]:
                self.add(src, _shift_parent(delta, z), rule)
            for (src, right, rule) in self.by_left[q]:
                self.add(src, _sumset(delta, self.masks[right]), rule)
            for (src, left, rule) in self.by_right[q]:
                self.add(src, _sumset(self.masks[left], delta), rule)
        return delta


def test_live_rule_steps_keep_masks_logs_and_ticks():
    systems = random_instances() + _family_systems()
    for system in systems:
        for cap in (0, 5, 17):
            live, every = BoundedReach(system, cap, justify=True), _EveryRuleKernel(system, cap, justify=True)
            live.run()
            every.run()
            assert (live.masks, live.log, live.tick) == (every.masks, every.log, every.tick), (system, cap)


def _goals(kernel: BoundedReach) -> list[tuple[int, int, int, bool]]:
    """Goals (state, base, rel, met) for a saturated justified kernel: the
    top bits its first, middle and last add events set, a residue-style
    goal on every other bit from four below each, and goals it never
    meets, each state's lowest missing bit and a bit past the cap."""
    events = sorted((tick, q, bits) for q, entries in enumerate(kernel.log) for tick, _, bits in entries)
    goals = []
    for _, q, bits in (events[0], events[len(events) // 2], events[-1]) if events else ():
        m = bits.bit_length() - 1
        goals += [(q, m, 1, True), (q, max(0, m - 4), 0b10101, bool(kernel.masks[q] >> max(0, m - 4) & 0b10101))]
    for q, mask in enumerate(kernel.masks):
        missing = ~mask & kernel.full
        if missing:
            goals.append((q, (missing & -missing).bit_length() - 1, 1, False))
    goals.append((0, kernel.cap + 1, 1, False))  # past the cap
    return goals


def _stop_and_drain(system: Bvass1, cap: int) -> tuple[int, int]:
    """Each goal of ``_goals``: a run stopped at it, then drained, ends as the
    saturating run; returns (runs that stopped with work left, goals)."""
    full = _kernel(system, cap, True)
    stopped = 0
    goals = _goals(full)
    for state, base, rel, met in goals:
        for justify in (True, False):
            kernel = BoundedReach(system, cap, justify=justify)
            kernel.run(state, base, rel)
            assert bool(kernel.masks[state] >> base & rel) == met, (state, base, rel)
            assert all(m & ~f == 0 for m, f in zip(kernel.masks, full.masks))
            if justify:
                # the stopped run's log is the start of the saturating run's
                assert all(part == whole[: len(part)] for part, whole in zip(kernel.log, full.log))
                assert kernel.tick <= full.tick
            stopped += bool(kernel.queue)
            assert met or not kernel.queue  # only a met goal stops the run
            kernel.run()
            assert kernel.masks == full.masks and not kernel.queue, (state, base, rel)
            if justify:
                assert (kernel.log, kernel.tick) == (full.log, full.tick), (state, base, rel)
    return stopped, len(goals)


def test_stopped_then_drained_run_equals_the_saturating_run():
    stopped = goals = 0
    for system in _family_systems():
        for cap in (0, 4, 13):
            s, g = _stop_and_drain(system, cap)
            stopped, goals = stopped + s, goals + g
    assert stopped > 1000 and goals > 1500, (stopped, goals)


def test_goal_met_by_the_finals_stops_before_the_first_step():
    system = parse_bvass("state q  state f\nfinal f\nunary q 0 f\n")
    f = system.state_id("f")
    kernel = BoundedReach(system, 5, justify=True)
    kernel.run(f, 0, 1)
    assert list(kernel.queue) == [f] and kernel.masks == [0, 1] and kernel.tick == 1
    kernel.run()
    assert kernel.masks == [1, 1] and not kernel.queue


def test_both_loops_fill_every_value():
    system = _both_loops()
    a, b = system.state_id("a"), system.state_id("b")
    for cap in (1, 2, 7, 40):
        masks = _kernel(system, cap, True).masks
        assert masks[a] == (1 << (cap + 1)) - 1
        assert masks[b] == ((1 << (cap + 1)) - 1) & ~1
        assert _pairs(masks) == bounded_reach_set(system, cap).reachable


def test_every_kernel_bit_replays_into_a_derivation():
    # self-loop fills must point at the neighbour toward the bit that
    # started them: the loop gadget's a(m) comes down its -1 loop to a(0),
    # the doubling hub's q(m) climbs its +1 loop to q(2^n), and the
    # both-loops state does both
    systems = _family_systems() + [s for s in random_instances() if _has_self_loop(s)]
    replayed = 0
    for system in systems:
        kernel = _kernel(system, 12, True)
        for q, mask in enumerate(kernel.masks):
            for m in range(13):
                if (mask >> m) & 1:
                    defs, labels, grafts, pumps = _replay_matching_naive(kernel, [], q, m)
                    # without pump contexts the whole derivation is one def
                    assert not pumps and list(grafts) == [""]
                    tree = Certificate(PartialTree(labels), {}, defs, grafts).unfold()
                    assert tree.labels[""] == Config(q, m)
                    assert is_reachability_tree(system, tree), (system, q, m)
                    replayed += 1
    assert replayed > 3000, replayed


def _replay_matching_naive(reach: BoundedReach, contexts: list, state: int, n: int) -> tuple:
    """``_replay`` of state(n), checked against the key-by-key reference.

    Returns (defs, labels, grafts, pumps).
    """
    defs, labels, grafts, pumps = _replay(reach, contexts, state, n)
    assert (defs, labels, grafts, pumps) == naive_replay(reach, contexts, state, n), (state, n)
    return defs, labels, grafts, pumps


@st.composite
def _loop_systems(draw) -> Bvass1:
    """Small systems with a +1 and a -1 self-loop, so both fill directions occur.

    The +1 loop's state also jumps to the top of a -1 chain out of a final
    state, so its first value is high and the loop fills down below it in
    one event.
    """
    names = [f"s{i}" for i in range(draw(st.integers(2, 5)))]
    state = st.sampled_from(names)
    lines = [f"state {name}" for name in names]
    finals = sorted(draw(st.sets(state, min_size=1, max_size=2)))
    lines += [f"final {f}" for f in finals]
    climber = draw(state)
    chain = [finals[0]] + [f"c{i}" for i in range(draw(st.integers(2, 6)))]
    lines += [f"state {c}" for c in chain[1:]]
    lines += [f"unary {c} -1 {below}" for below, c in zip(chain, chain[1:])]
    lines.append(f"unary {climber} 0 {chain[-1]}")
    loops = [(climber, "+1"), (draw(state), "-1")]
    loops += draw(st.lists(st.tuples(state, st.sampled_from(["+1", "-1"])), max_size=2))
    lines += [f"unary {q} {z} {q}" for q, z in loops]
    unary = draw(st.lists(st.tuples(state, st.sampled_from(["-1", "0", "+1"]), state), min_size=1, max_size=6))
    lines += [f"unary {p} {z} {q}" for p, z, q in unary]
    branch = draw(st.lists(st.tuples(state, state, state), max_size=3))
    lines += [f"branch {p} {left} {right}" for p, left, right in branch]
    return parse_bvass("\n".join(lines))


@given(
    system=st.one_of(
        _loop_systems(),
        st.builds(
            gen_random,
            st.integers(1, 6),
            st.integers(0, 9),
            st.integers(0, 4),
            st.integers(1, 2),
            st.integers(0, 10**9),
        ),
    ),
    cap=st.integers(0, 20),
)
@settings(max_examples=80, deadline=None)
def test_stopped_then_drained_run_equals_the_saturating_run_on_drawn_systems(system, cap):
    _stop_and_drain(system, cap)


@given(system=_loop_systems(), cap=st.integers(1, 24))
@settings(max_examples=80, deadline=None)
def test_run_replay_matches_key_by_key_replay(system, cap):
    kernel = _kernel(system, cap, True)
    for q, mask in enumerate(kernel.masks):
        for m in range(cap + 1):
            if (mask >> m) & 1:
                defs, labels, grafts, _ = _replay_matching_naive(kernel, [], q, m)
                tree = Certificate(PartialTree(labels), {}, defs, grafts).unfold()
                assert is_reachability_tree(system, tree), (q, m)


def _certify_against_naive(system: Bvass1, state: int, n: int) -> PartialTree:
    """Certify and expand state(n), every replay checked against the reference."""
    query = ReachQuery(system, state, n)
    tables = run_query(query)
    assert tables.holds(state, n)
    _replay_matching_naive(tables.reach, tables.contexts, state, n)
    certificate = extract_certificate(query, tables)
    for leaf, rec in certificate.pumps.items():
        cfg = certificate.tree.labels[leaf]
        value, witness, _ = _witness_value_scan(system, cfg.state, cfg.counter, rec.modulus, 1 << 20)
        _replay_matching_naive(witness, [], cfg.state, value)
    tree = expand_certificate(system, certificate, max_nodes=100_000)
    assert tree.labels[""] == Config(state, n)
    assert is_reachability_tree(system, tree), (state, n)
    return tree


def test_run_replay_matches_on_doubling_hubs():
    for k in range(11):
        system = gen_doubling(k)
        for n in range(min(4, 2**k + 1)):
            tree = _certify_against_naive(system, system.state_id("q"), n)
            assert len(tree) == 2 ** (k + 2) - n  # the hub climbs from n to 2^k


def test_run_replay_matches_on_binary_constants():
    for m in (1, 2, 7, 64, 100, 1000, 4097):
        system, entry = gen_binary_constant(m)
        _certify_against_naive(system, entry, m)


def _hub_certificate(k: int, n: int = 0) -> tuple[Bvass1, Certificate]:
    system = gen_doubling(k)
    query = ReachQuery(system, system.state_id("q"), n)
    return system, extract_certificate(query, run_query(query))


@pytest.mark.parametrize(
    "system, state, n, size",
    [
        (gen_doubling(10), "q", 0, 4096),
        (parse_bvass(_side_pump("u t")), "s", 0, 5280),  # two nested pumps
        (parse_bvass(SHARED_SIDE), "s", 0, 224),
        (parse_bvass(SHARED_SIDE), "s", 3, 212),
    ],
    ids=["hub", "nested-pumps", "shared-side", "shared-side-n3"],
)
def test_expansion_overflow_boundary_on_the_hub(system, state, n, size):
    # every raise names a lower bound on the tree's size, so one node short
    # of the allowance it names the size exactly
    query = ReachQuery(system, system.state_id(state), n)
    certificate = extract_certificate(query, run_query(query))
    tree = expand_certificate(system, certificate, max_nodes=10**6)
    assert len(tree) == size and is_reachability_tree(system, tree)
    assert expand_certificate(system, certificate, max_nodes=size) == tree
    with pytest.raises(ExpandOverflow) as err:
        expand_certificate(system, certificate, max_nodes=size - 1)
    assert (err.value.needed, err.value.allowed) == (size, size - 1)


def test_key_limit_inside_a_self_loop_run():
    # q(1) climbs its +1 loop to q(1023) in one fill event, then q(1024)
    # enters the cascade: 1,023 run keys, then q(1024), q_10 .. q_0, q_f
    system = gen_doubling(10)
    q = system.state_id("q")
    kernel = _kernel(system, 2048, True)
    defs, *_ = _replay(kernel, [], q, 1)
    keys = len(defs)  # without pump contexts every key is a def
    assert keys == 1023 + 1 + 11 + 1
    for limit in (1, 500, 1022, 1023, keys - 1):
        with pytest.raises(_ReplayOverLimit):
            _replay(kernel, [], q, 1, key_limit=limit)
    assert _replay(kernel, [], q, 1, key_limit=keys)[0] == defs


# b(m) splits into a(0), down a's +1 loop, and a(m), down its -1 loop to
# the a(1) that the first run already replayed: the last keys are a run
TWO_RUNS = BOTH_LOOPS.replace("branch b a c", "branch b a a")


def test_key_limit_is_exactly_the_distinct_key_count():
    for system in (_both_loops(), parse_bvass(TWO_RUNS), gen_doubling(3)):
        kernel = _kernel(system, 12, True)
        for q, mask in enumerate(kernel.masks):
            for m in range(13):
                if not (mask >> m) & 1:
                    continue
                defs, *_ = _replay(kernel, [], q, m)
                assert _replay(kernel, [], q, m, key_limit=len(defs))[0] == defs
                for limit in range(len(defs)):
                    with pytest.raises(_ReplayOverLimit):
                        _replay(kernel, [], q, m, key_limit=limit)


def test_hub_expansion_looks_up_the_log_a_few_times(monkeypatch):
    # the +1 climb of the witness is one log entry and one lookup; the
    # cascade below it takes one per level
    k = 12
    system, certificate = _hub_certificate(k)
    lookups = 0
    entry_of = BoundedReach.entry_of

    def counted(self, q, m):
        nonlocal lookups
        lookups += 1
        return entry_of(self, q, m)

    monkeypatch.setattr(BoundedReach, "entry_of", counted)
    tree = expand_certificate(system, certificate, max_nodes=100_000)
    assert len(tree) == 2 ** (k + 2)
    assert lookups <= 8 * k, lookups


def _check_log(table, masks: list[int]) -> int:
    """One justified table's log against its masks; returns the bits checked."""
    bits_checked = 0
    for q, entries in enumerate(table.log):
        ticks = [tick for tick, _, _ in entries]
        assert all(a < b for a, b in zip(ticks, ticks[1:])), (q, ticks)
        union = 0
        for _, _, bits in entries:
            assert bits and not bits & union  # one entry per bit
            union |= bits
        assert union == masks[q]
        for m in range(union.bit_length()):
            if (union >> m) & 1:
                assert (table.entry_of(q, m)[2] >> m) & 1
                bits_checked += 1
    return bits_checked


def test_log_ticks_order_premises_before_conclusions():
    for system in _family_systems():
        kernel = _kernel(system, 12, True)
        _check_log(kernel, kernel.masks)
        for q, entries in enumerate(kernel.log):
            for tick, rule, bits in entries:
                if rule[0] != "branch":
                    continue
                t = system.branching[rule[1]]
                left, right = kernel.as_of(t.left, tick), kernel.as_of(t.right, tick)
                for m in range(bits.bit_length()):
                    if (bits >> m) & 1:
                        assert any((left >> m0) & 1 and (right >> (m - m0)) & 1 for m0 in range(m + 1))


def test_kernel_and_path_logs_partition_their_masks():
    # the reach kernel and every packed block log one entry per add event,
    # each on a fresh tick of the one clock, and so does each row view of a
    # pump context, read off its block
    kernel_bits = path_bits = shared = 0
    for system in random_instances() + _family_systems():
        tables = run_batch(system, 6)
        kernel_bits += _check_log(tables.reach, tables.reach_masks)
        blocks = {id(ctx.block): ctx.block for ctx in tables.contexts}
        for block in blocks.values():
            _check_log(block, block.masks)
        shared += len(tables.contexts) - len(blocks)
        for ctx in tables.contexts:
            path_bits += _check_log(ctx, ctx.masks)
    assert kernel_bits > 5000 and path_bits > 50_000, (kernel_bits, path_bits)
    assert shared > 1000, shared


def _certify(system: Bvass1, state: int, n: int) -> bool:
    query = ReachQuery(system, state, n)
    tables = run_query(query)
    if not tables.holds(state, n):
        return False
    certificate = extract_certificate(query, tables)
    ok, why = check_certificate_report(system, certificate, Config(state, n))
    assert ok, (system, state, n, why)
    tree = expand_certificate(system, certificate, max_nodes=200_000)
    assert tree.labels[""] == Config(state, n)
    assert is_reachability_tree(system, tree), (system, state, n)
    return True


def test_certificates_on_self_loop_systems():
    certified = 0
    systems = [loop_gadget(), _both_loops()] + [gen_doubling(n) for n in range(5)]
    systems += [s for s in random_instances() if _has_self_loop(s)][:120]
    for system in systems:
        for state in range(system.num_states):
            for n in range(9):
                certified += _certify(system, state, n)
    assert certified > 500, certified


def test_reach_core_is_the_kernel_on_acyclic_systems():
    compared = 0
    for system in random_instances():
        if _cyclic_states(system, range(system.num_states)):
            continue
        tables = run_batch(system, 6)
        assert not tables.contexts
        assert tables.reach_masks == _kernel(system, tables.bound, False).masks
        compared += 1
    assert compared >= 40, compared  # 43 of the 500 are acyclic
