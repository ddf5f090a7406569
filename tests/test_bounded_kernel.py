"""The bounded-reach kernel behind S, the reach core and expansion's witness."""
from __future__ import annotations

from bvass1.gen import gen_doubling
from bvass1.model import Bvass1, Config, PartialTree, is_reachability_tree, parse_bvass
from bvass1.oracle import bounded_reach_set
from bvass1.reach import (
    Certificate,
    ReachQuery,
    _cyclic_states,
    _replay,
    check_certificate_report,
    expand_certificate,
    extract_certificate,
    run_batch,
    run_query,
)
from bvass1.residue import BoundedReach

from helpers import loop_gadget, random_instances
from test_max_coverable import _family_systems as _gen_systems

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
                    defs, labels, grafts, pumps = _replay(kernel, [], q, m)
                    # without pump contexts the whole derivation is one def
                    assert not pumps and list(grafts) == [""]
                    tree = Certificate(PartialTree(labels), {}, defs, grafts).unfold()
                    assert tree.labels[""] == Config(q, m)
                    assert is_reachability_tree(system, tree), (system, q, m)
                    replayed += 1
    assert replayed > 3000, replayed


def test_log_ticks_order_premises_before_conclusions():
    for system in _family_systems():
        kernel = _kernel(system, 12, True)
        for q, entries in enumerate(kernel.log):
            assert [tick for tick, _, _ in entries] == sorted(tick for tick, _, _ in entries)
            union = 0
            for _, _, bits in entries:
                assert bits and not bits & union  # one entry per bit
                union |= bits
            assert union == kernel.masks[q]
            for tick, rule, bits in entries:
                if rule[0] != "branch":
                    continue
                t = system.branching[rule[1]]
                left, right = kernel.as_of(t.left, tick), kernel.as_of(t.right, tick)
                for m in range(bits.bit_length()):
                    if (bits >> m) & 1:
                        assert any((left >> m0) & 1 and (right >> (m - m0)) & 1 for m0 in range(m + 1))


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
        if _cyclic_states(system):
            continue
        tables = run_batch(system, 6)
        assert not tables.contexts
        assert tables.reach_masks == _kernel(system, tables.bound, False).masks
        compared += 1
    assert compared >= 40, compared  # 43 of the 500 are acyclic
