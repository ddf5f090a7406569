"""Reachability decisions, certificates, checking, and expansion."""
from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import replace

from bvass1 import residue
from bvass1.gen import gen_binary_constant, gen_doubling, gen_random, gen_subset_sum
from bvass1.check import _profile_values, check_certificate, check_certificate_report, check_profile_report
from bvass1.model import (
    Budget,
    BudgetExceeded,
    Certificate,
    Config,
    PartialTree,
    Profile,
    PumpRecord,
    certificate_from_text,
    certificate_to_text,
    classify_nodes,
    format_bvass,
    is_exclusive,
    is_reachability_tree,
    parse_bvass,
)
from bvass1.oracle import bounded_reach_set
from bvass1.reach import (
    KERNEL,
    PUMP_FIXPOINT,
    ExpandOverflow,
    ReachQuery,
    _closed,
    _closure,
    _cyclic_states,
    decide_reach,
    expand_certificate,
    extract_certificate,
    reach_profile,
    run_batch,
    run_query,
)

import pytest

from helpers import (
    BEYOND_WINDOW_TEXT,
    PARITY_TEXT,
    PUMP_TEXT,
    b2,
    disjoint_union,
    loop_gadget,
    metamorphic_variants,
    random_instances,
    tree_of,
)
from test_max_coverable import _family_systems


def _query(system, name, n) -> ReachQuery:
    return ReachQuery(system, system.state_id(name), n)


def _decide_extract(system, name, n):
    query = _query(system, name, n)
    tables = run_query(query)
    assert tables.holds(query.state, query.n)
    return query, extract_certificate(query, tables)


# ---------------------------------------------------------------------------
# pinned decisions


def test_doubling_level_value_pins():
    system = b2()
    assert not decide_reach(_query(system, "q_2", 3))
    assert decide_reach(_query(system, "q_2", 4))
    assert decide_reach(_query(system, "q_f", 0))
    assert not decide_reach(_query(system, "q_f", 1))


def test_deep_doubling_hub_reaches_zero():
    system = gen_doubling(8)
    assert decide_reach(_query(system, "q", 0))
    assert decide_reach(_query(system, "q", 2**8))
    assert not decide_reach(_query(system, "q", 2**8 + 1))


def test_loop_values():
    system = loop_gadget()
    assert decide_reach(_query(system, "a", 3))
    assert not decide_reach(_query(system, "f", 2))


def test_query_validation():
    system = b2()
    with pytest.raises(ValueError):
        ReachQuery(system, 0, -1)
    with pytest.raises(ValueError):
        ReachQuery(system, 99, 0)


def test_budget_refusal():
    with pytest.raises(BudgetExceeded):
        decide_reach(_query(gen_doubling(6), "q", 0), budget=Budget(10))


# ---------------------------------------------------------------------------
# certificates


def test_loop_certificate_is_plain_chain():
    system = loop_gadget()
    _, cert = _decide_extract(system, "a", 3)
    assert cert.pumps == {}
    a, f = system.state_id("a"), system.state_id("f")
    # pump-free, so the whole chain is shared: one def per label, one graft
    assert cert.grafts == {"": 4}
    assert cert.defs == {
        0: (Config(f, 0), ()),
        1: (Config(a, 0), (0,)),
        2: (Config(a, 1), (1,)),
        3: (Config(a, 2), (2,)),
        4: (Config(a, 3), (3,)),
    }
    assert cert.unfold().labels == {
        "": Config(a, 3),
        "0": Config(a, 2),
        "00": Config(a, 1),
        "000": Config(a, 0),
        "0000": Config(f, 0),
    }


def test_unfold_writes_a_def_shared_by_grafts_and_parents_everywhere():
    # q_1(2) is grafted twice and is both children of q_2(4), itself grafted;
    # unfolding reads the grafts only, so the spine needs no root here
    system = b2()
    q2, q1, q0, qf = (system.state_id(n) for n in ("q_2", "q_1", "q_0", "q_f"))
    defs = {
        0: (Config(qf, 0), ()),
        1: (Config(q0, 1), (0,)),
        2: (Config(q1, 2), (1, 1)),
        3: (Config(q2, 4), (2, 2)),
    }
    spine = {"0": Config(q1, 2), "10": Config(q1, 2), "11": Config(q2, 4)}
    cert = Certificate(PartialTree(spine), {}, defs, {"0": 2, "10": 2, "11": 3})

    def subtree(i: int, addr: str) -> dict:
        cfg, kids = defs[i]
        out = {addr: cfg}
        for suffix, c in zip("01", kids):
            out.update(subtree(c, addr + suffix))
        return out

    expected = {**subtree(2, "0"), **subtree(2, "10"), **subtree(3, "11")}
    assert cert.unfold().labels == expected
    assert len(expected) == 5 + 5 + 11


def test_certificate_round_trip_through_check():
    system = gen_doubling(4)
    query, cert = _decide_extract(system, "q", 0)
    ok, why = check_certificate_report(system, cert, Config(query.state, query.n))
    assert (ok, why) == (True, "ok")
    # a pump is required here: the plain climb to 16 exceeds the counter bound
    assert cert.pumps


def test_checker_rejects_wrong_root():
    system = loop_gadget()
    query, cert = _decide_extract(system, "a", 3)
    ok, why = check_certificate_report(system, cert, Config(query.state, 5))
    assert not ok and "root label" in why


# the doubling-5 hub beside a leaf: r(n) splits into q(n-1) and a(1), and
# for n < 12 q needs its pump, since the climb to 32 lies above B = 20 + n
HUB_BESIDE_LEAF = format_bvass(gen_doubling(5)) + "state r  state a\nunary a -1 q_f\nbranch r q a\n"


def _certificate_shapes():
    """Two pumped two-node spines, a pure DAG grafted at the root, and a
    pumped spine with a graft beside the pump: (system, claim, certificate).

    A pumped certificate comes only from a query that needs its pump: the
    kernel saturates before any pump context, in run_query and run_batch
    alike, so a query it answers gets a pump-free certificate.  Here the
    bound 2|Q| + n lies below the hub's climb to 2^k.
    """
    cases = [
        (gen_doubling(4), "q", 1),
        (gen_doubling(4), "q", 0),
        (gen_doubling(4), "q_4", 16),
        (parse_bvass(HUB_BESIDE_LEAF), "r", 1),
    ]
    out = []
    for system, name, n in cases:
        query, cert = _decide_extract(system, name, n)
        out.append((system, Config(query.state, query.n), cert))
    shapes = [(len(cert.tree) > 1, bool(cert.defs), bool(cert.pumps)) for _, _, cert in out]
    assert shapes == [(True, False, True), (True, False, True), (False, True, False), (True, True, True)]
    return out


def test_checker_rejects_tampered_counter():
    for system, claimed, cert in _certificate_shapes():
        assert check_certificate(system, cert, claimed)
        for addr in cert.tree.addresses():
            if addr == "":
                continue
            labels = dict(cert.tree.labels)
            labels[addr] = Config(labels[addr].state, labels[addr].counter + 1)
            bad = replace(cert, tree=PartialTree(labels))
            assert not check_certificate(system, bad, claimed), addr
        for i, (cfg, kids) in cert.defs.items():
            defs = dict(cert.defs)
            defs[i] = (Config(cfg.state, cfg.counter + 1), kids)
            assert not check_certificate(system, replace(cert, defs=defs), claimed), i
        for addr, i in cert.grafts.items():
            for j in cert.defs:
                if j != i:
                    grafts = dict(cert.grafts)
                    grafts[addr] = j
                    assert not check_certificate(system, replace(cert, grafts=grafts), claimed), (addr, j)


def test_checker_rejects_negative_residue_pump():
    # structurally clean pump whose residue query (q, 5, d=1) has no witness:
    # the hub never exceeds 4, so the checker's own re-decision must say no
    system = b2()
    tree = tree_of(system, {"": ("q", 4), "0": ("q", 5)})
    cert = Certificate(tree=tree, pumps={"0": PumpRecord(anchor="", modulus=1)})
    ok, why = check_certificate_report(system, cert, Config(system.state_id("q"), 4))
    assert not ok
    assert "residue query" in why and "negative" in why


def test_checker_charges_a_default_budget():
    # a pump at a huge counter asks for a residue table that the default
    # budget refuses before its 10^20-bit window is built
    system = parse_bvass("state q\nfinal q\nunary q +1 q\n")

    def pumped(n: int) -> Certificate:
        return certificate_from_text(system, f"e q {n}\n0 q {n + 1}\npump 0 e 1\n")

    with pytest.raises(BudgetExceeded):
        check_certificate_report(system, pumped(10**20), Config(0, 10**20))
    budget = Budget(None)  # unlimited, and charged all the same
    ok, why = check_certificate_report(system, pumped(1000), Config(0, 1000), budget)
    assert not ok and "residue query" in why
    assert budget.used == 3 + 1002 + 1  # |Q|·(3d + cap + 1), one table at cap n + 2|Q|


def test_checker_names_a_pumped_root():
    system = parse_bvass("state q\nfinal q\n")
    cert = certificate_from_text(system, "e q 0\npump e e 1\n")
    ok, why = check_certificate_report(system, cert, Config(0, 0))
    assert not ok and why == "pumped leaf root is not increasing"


def test_checker_rejects_non_leaf_pump_source():
    system = loop_gadget()
    query, cert = _decide_extract(system, "a", 2)
    bad = Certificate(tree=cert.unfold(), pumps={"0": PumpRecord(anchor="", modulus=1)})
    ok, why = check_certificate_report(system, bad, Config(query.state, query.n))
    assert not ok and "not a leaf" in why


def test_certificate_text_round_trip():
    for system, claimed, cert in _certificate_shapes():
        text = certificate_to_text(system, cert)
        again = certificate_from_text(system, text)
        assert again == cert
        assert certificate_to_text(system, again) == text
        # the tree form of the same certificate reads back without defs
        tree_form = Certificate(cert.unfold(), cert.pumps)
        tree_text = certificate_to_text(system, tree_form)
        assert not tree_text.startswith("def ") and " = " not in tree_text
        back = certificate_from_text(system, tree_text)
        assert back == tree_form and not back.defs and not back.grafts
        assert certificate_to_text(system, back) == tree_text
        for form in (again, back):
            assert check_certificate_report(system, form, claimed) == (True, "ok")


def test_shared_certificates_stay_small():
    # the tree format wrote these as 230 kB and 311 kB of node lines
    system = gen_doubling(12)
    _, cert = _decide_extract(system, "q_12", 4096)
    assert (len(cert.defs), len(cert.tree), len(cert.unfold())) == (14, 1, 12_287)
    assert len(certificate_to_text(system, cert)) < 1_000
    system, entry = gen_binary_constant(5000)
    _, cert = _decide_extract(system, system.state_name(entry), 5000)
    assert len(cert.unfold()) == 15_010
    assert len(certificate_to_text(system, cert)) < 1_000


def test_decisions_are_deterministic():
    system = gen_doubling(5)
    first = certificate_to_text(system, _decide_extract(system, "q", 3)[1])
    second = certificate_to_text(system, _decide_extract(system, "q", 3)[1])
    assert first == second


def test_grafted_leaf_is_not_counted_for_exclusivity():
    # s(0) -> s(1) -> s(2) splits into the pumped leaf s(1) and a graft of
    # s(1); both sit below the root s(0), but only the pumped one is a leaf
    # of the derivation, so the pumping segments are exclusive
    system = parse_bvass(PUMP_TEXT)
    s, f = system.state_id("s"), system.state_id("f")
    tree = PartialTree({"": Config(s, 0), "0": Config(s, 1), "00": Config(s, 2), "000": Config(s, 1), "001": Config(s, 1)})
    defs = {0: (Config(f, 0), ()), 1: (Config(s, 0), (0,)), 2: (Config(s, 1), (1,))}
    cert = Certificate(tree, {"000": PumpRecord("", 1)}, defs, {"001": 2})
    assert not is_exclusive(cert.tree)  # read as a plain tree, 001 would pump from the root too
    assert check_certificate_report(system, cert, Config(s, 0)) == (True, "ok")
    assert is_exclusive(cert.unfold())
    expanded = expand_certificate(system, cert, max_nodes=1000)
    assert is_reachability_tree(system, expanded)


def test_checker_shares_residue_tables_across_pumps(monkeypatch):
    # two pumps with the same modulus and window: one residue table
    system = parse_bvass(PUMP_TEXT)
    s = system.state_id("s")
    tree = PartialTree({"": Config(s, 0), "0": Config(s, 0), "1": Config(s, 0), "00": Config(s, 1), "10": Config(s, 1)})
    cert = Certificate(tree, {"00": PumpRecord("0", 1), "10": PumpRecord("1", 1)})
    built = []
    real = residue.compute_table

    def counting(query, budget=None):
        built.append((query.d, query.n0))
        return real(query, budget)

    monkeypatch.setattr(residue, "compute_table", counting)
    assert check_certificate_report(system, cert, Config(s, 0)) == (True, "ok")
    assert built == [(1, 1)]
    budget = Budget(None)
    assert check_certificate_report(system, cert, Config(s, 0), budget) == (True, "ok")
    assert budget.used == system.num_states * (3 + 1 + system.num_states + 1)  # the table at 1
    with pytest.raises(BudgetExceeded):
        check_certificate_report(system, cert, Config(s, 0), Budget(5))


# ---------------------------------------------------------------------------
# structural discipline of extracted certificates


def _assert_certificate_shape(system, cert, claimed_n):
    bound = 2 * system.num_states + claimed_n
    tree = cert.unfold()
    assert all(c.counter <= bound for c in tree.labels.values())
    assert is_exclusive(tree)
    cls = classify_nodes(tree)
    for leaf, rec in cert.pumps.items():
        assert leaf in cls.increasing
        assert cls.anchor_of[leaf] == rec.anchor
        assert tree.is_leaf(leaf)


def test_extracted_certificates_respect_bounds():
    cases = [
        (gen_doubling(3), "q", 0),
        (gen_doubling(4), "q", 7),
        (gen_subset_sum([2, 5, 9], 11)[0], "q_c1", 11),
        (loop_gadget(), "a", 6),
    ]
    for system, name, n in cases:
        query, cert = _decide_extract(system, name, n)
        _assert_certificate_shape(system, cert, n)
        assert check_certificate(system, cert, Config(query.state, query.n))


def test_random_positive_queries_yield_checkable_certificates():
    produced = 0
    for seed in range(120):
        system = gen_random(2 + seed % 4, 2 + seed % 6, seed % 3, 1, seed)
        tables = run_batch(system, 6)
        for state in range(system.num_states):
            for n in range(7):
                if not tables.holds(state, n):
                    continue
                query = ReachQuery(system, state, n)
                cert = extract_certificate(query, run_query(query))
                assert check_certificate(system, cert, Config(state, n)), (seed, state, n)
                _assert_certificate_shape(system, cert, n)
                produced += 1
    assert produced > 200


# ---------------------------------------------------------------------------
# batch decisions vs single queries


def test_batch_agrees_with_single_queries():
    for seed in range(40):
        system = gen_random(2 + seed % 3, 2 + seed % 5, seed % 3, 1, seed)
        nmax = 5
        tables = run_batch(system, nmax)
        for state in range(system.num_states):
            for n in range(nmax + 1):
                assert tables.holds(state, n) == decide_reach(ReachQuery(system, state, n))


def test_engine_matches_oracle_exactly():
    # reachable n is derivable with counters <= 2|Q|+n, so the capped oracle
    # is exact for values at least 2|Q| below its cap
    for seed in range(60):
        system = gen_random(2 + seed % 3, 2 + seed % 5, seed % 3, 1, seed)
        margin = 2 * system.num_states
        reach = bounded_reach_set(system, 8 + margin)
        tables = run_batch(system, 8)
        for state in range(system.num_states):
            for n in range(9):
                assert tables.holds(state, n) == reach.contains(state, n), (seed, state, n)


# ---------------------------------------------------------------------------
# kernel-first decisions


def _differential_systems():
    """(system, largest n): the 500 C3 systems, every ``gen`` family and some
    larger random systems at n <= 2|Q|+2, and doubling hubs at n <= 20."""
    systems = random_instances() + _family_systems() + [parse_bvass(HUB_BESIDE_LEAF)]
    systems += [gen_random(6 + seed % 3, 12 + seed % 7, 4 + seed % 5, 1 + seed % 2, 900 + seed) for seed in range(12)]
    out = [(system, 2 * system.num_states + 2) for system in systems]
    return out + [(gen_doubling(k), 20) for k in range(7)]


# the steps run_query decides at, as ``_reason_kind`` names them
REASONS = {"kernel", "above largest coverable", "no cyclic state in cone", "profile", "pump fixpoint"}


def _reason_kind(reason: str) -> str:
    """The step a reason names, without its numbers."""
    return " ".join(word for word in reason.split() if not word.lstrip("-").isdigit()).removesuffix(" value")


def test_query_verdicts_equal_the_complete_fixpoint():
    # every state at every n, whichever step run_query decided at
    reasons = set()
    for system, nmax in _differential_systems():
        tables = run_batch(system, nmax)
        for state in range(system.num_states):
            for n in range(nmax + 1):
                single = run_query(ReachQuery(system, state, n))
                assert single.holds(state, n) == tables.holds(state, n), (system, state, n, single.reason)
                reasons.add(_reason_kind(single.reason))
    assert reasons == REASONS


def test_run_query_is_invariant_under_renaming_reordering_and_union():
    # renaming and reordering keep the verdict and the step that decided it;
    # the union's B grows with |Q|, so its kernel may decide what pumped
    # before, and so may that of the added states, which enter back sets
    rng = random.Random(16)
    instances = random_instances()
    reasons, certified = set(), 0
    for i, (system, nmax) in enumerate(_differential_systems()):
        other = instances[(7 * i + 3) % len(instances)]
        variants = metamorphic_variants(system, other, rng)
        for state in range(system.num_states):
            for n in range(nmax + 1):
                base = run_query(ReachQuery(system, state, n))
                verdict = base.holds(state, n)
                reasons.add(_reason_kind(base.reason))
                for kind, variant, where in variants:
                    query = ReachQuery(variant, where[state], n)
                    tables = run_query(query)
                    assert tables.holds(query.state, n) == verdict, (kind, system, state, n)
                    moved = kind in ("union", "added") and verdict and tables.reason == KERNEL
                    assert tables.reason == base.reason or moved, (kind, system, state, n)
                    if verdict:
                        cert = extract_certificate(query, tables)
                        assert check_certificate_report(variant, cert, Config(query.state, n)) == (True, "ok")
                        certified += 1
    assert reasons == REASONS
    assert certified > 3000, certified


def _batch_verdicts(tables, states: list[int], nmax: int) -> list[list[bool]]:
    return [[tables.holds(q, n) for n in range(nmax + 1)] for q in states]


def test_run_batch_is_invariant_under_renaming_reordering_and_union():
    # the complete fixpoint keeps every verdict under each variant.  A
    # certificate read off batch tables keeps its counters under the batch's
    # bound B(nmax), which the checker's bound B(n) admits at n = nmax
    rng = random.Random(17)
    instances = random_instances()
    certified = 0
    for i, (system, nmax) in enumerate(_differential_systems()):
        other = instances[(7 * i + 3) % len(instances)]
        states = list(range(system.num_states))
        verdicts = _batch_verdicts(run_batch(system, nmax), states, nmax)
        for kind, variant, where in metamorphic_variants(system, other, rng):
            tables = run_batch(variant, nmax)
            assert _batch_verdicts(tables, [where[q] for q in states], nmax) == verdicts, (kind, system)
            for q in states:
                if verdicts[q][nmax]:
                    query = ReachQuery(variant, where[q], nmax)
                    cert = extract_certificate(query, tables)
                    assert check_certificate_report(variant, cert, Config(query.state, nmax)) == (True, "ok")
                    certified += 1
    assert certified > 1000, certified


def test_one_row_blocks_decide_as_packed_blocks(monkeypatch):
    # a block of packed rows answers as one table per pump context does
    cases = [(system, 2 * system.num_states + 2) for system in random_instances() + _family_systems()]
    cases += [(gen_doubling(k), 20) for k in range(9)]
    packed, shared = [], 0
    for system, nmax in cases:
        tables = run_batch(system, nmax)
        shared += len(tables.contexts) - len({id(c.block) for c in tables.contexts})
        packed.append(_batch_verdicts(tables, list(range(system.num_states)), nmax))
    assert shared > 5000, shared  # rows do share blocks by default
    monkeypatch.setattr("bvass1.reach._BLOCK_BITS", 1)
    certified = 0
    for (system, nmax), verdicts in zip(cases, packed):
        tables = run_batch(system, nmax)
        assert len({id(c.block) for c in tables.contexts}) == len(tables.contexts)
        assert _batch_verdicts(tables, list(range(system.num_states)), nmax) == verdicts, system
        for q in range(system.num_states):
            for n in range(nmax + 1):
                if not verdicts[q][n]:
                    continue
                query = ReachQuery(system, q, n)
                single = run_query(query)
                if single.reason == PUMP_FIXPOINT:
                    cert = extract_certificate(query, single)
                    assert check_certificate_report(system, cert, Config(q, n)) == (True, "ok"), (system, q, n)
                    certified += 1
    assert certified > 100, certified


def test_no_path_node_sits_below_the_leaf_counter():
    # at the pumped state a path bit below m* would be a smaller ancestor
    # between the anchor and the leaf, moving the leaf's anchor off the node
    # the path starts under
    rows = 0
    for system in random_instances():
        for ctx in run_batch(system, 6).contexts:
            assert ctx.masks[ctx.state] & ((1 << ctx.m_star) - 1) == 0, (system, ctx.state, ctx.m_star)
            rows += 1
    assert rows > 4000, rows


def test_largest_reachable_value_is_a_kernel_answer():
    # run_query's docstring: a shortest derivation of q at its largest value
    # repeats no state on a path, so step 2's boundary n > m could be n >= m
    systems = [system for system, _ in _differential_systems()] + [gen_doubling(k) for k in (8, 10)]
    queries = 0
    for system in systems:
        clamp = 4 * system.num_states + 2**10 + 2
        for q, m in enumerate(residue.ResidueCache(system).max_coverable(clamp)):
            if 0 <= m < clamp:
                tables = run_query(ReachQuery(system, q, m))
                assert tables.holds(q, m) and tables.reason == KERNEL, (system, q, m, tables.reason)
                queries += 1
    assert queries > 500, queries


def test_kernel_answers_and_refutations_build_no_context():
    system = gen_doubling(4)  # q lies on a cycle, so every query's cone has one
    yes = run_query(ReachQuery(system, 0, 7))  # the climb to 16 fits under B = 21
    no = run_query(ReachQuery(system, 0, 17))  # q covers nothing above 16
    assert yes.holds(0, 7) and not no.holds(0, 17)
    assert (yes.reason, no.reason) == ("kernel", "above largest coverable value 16")
    assert yes.contexts == no.contexts == []
    assert not extract_certificate(ReachQuery(system, 0, 7), yes).pumps
    # the kernel YES reads no largest coverable values, so builds no table;
    # the refutation reads them, one table, and stops there
    assert yes.residue_cache.tables_built == 0 and no.residue_cache.tables_built == 1
    assert no.residue_cache.max_coverable(no.bound + 1)[0] == 16 and no.residue_cache.tables_built == 1
    assert yes.profile is None and no.profile is None
    acyclic = run_query(ReachQuery(system, system.state_id("q_4"), 15))  # no cycle below q_4
    assert not acyclic.holds(system.state_id("q_4"), 15)
    assert acyclic.reason == "no cyclic state in cone" and acyclic.contexts == []
    assert acyclic.residue_cache.tables_built == 0
    pumped = run_query(ReachQuery(system, 0, 0))  # the climb to 16 does not fit under B = 14
    assert pumped.holds(0, 0) and pumped.reason == "pump fixpoint" and pumped.contexts


def test_kernel_stopped_at_the_query_bit_gives_the_saturated_certificate():
    # run_query stops its kernel once the query bit is set; a replay reads
    # only log entries older than that bit, so draining the kernel afterwards
    # changes no certificate
    stopped = certified = 0
    for system, nmax in _differential_systems():
        for state in range(system.num_states):
            for n in range(nmax + 1):
                query = ReachQuery(system, state, n)
                tables = run_query(query)
                if not tables.holds(state, n):
                    continue
                cert = extract_certificate(query, tables)
                stopped += bool(tables.reach.queue)
                assert not tables.reach.queue or tables.reason == KERNEL
                tables.reach.run()
                assert extract_certificate(query, tables) == cert, (system, state, n)
                certified += 1
    assert stopped > 5000 and certified > 5500, (stopped, certified)


def test_pump_needs_a_saturated_kernel():
    system = gen_doubling(4)
    f = system.state_id("q_f")
    tables = run_query(ReachQuery(system, f, 0))  # the final state answers before any step
    assert tables.holds(f, 0) and tables.reason == KERNEL and tables.reach.queue
    cyclic = _cyclic_states(system, range(system.num_states))
    with pytest.raises(AssertionError, match="saturated kernel"):
        tables.pump(cyclic)
    tables.reach.run()
    tables.pump(cyclic)
    assert tables.contexts and tables.reason == PUMP_FIXPOINT


# ---------------------------------------------------------------------------
# reach profiles


def _profile_nos():
    """(system, state, n, tables) per query of ``_differential_systems`` that
    a reach profile refutes, with the batch's verdict on it."""
    for system, nmax in _differential_systems():
        batch = run_batch(system, nmax)
        for state in range(system.num_states):
            for n in range(nmax + 1):
                tables = run_query(ReachQuery(system, state, n))
                if tables.profile is not None:
                    yield system, state, n, tables, batch.holds(state, n)


def test_profile_refutations_pass_the_checker_and_agree_with_the_batch():
    refuted = 0
    for system, state, n, tables, batch_verdict in _profile_nos():
        profile = tables.profile
        assert tables.reason == f"profile {profile.threshold} {profile.period}"
        assert not tables.holds(state, n) and not batch_verdict, (system, state, n)
        assert tables.contexts == []
        assert check_profile_report(system, profile, state, n) == (True, "ok"), (system, state, n)
        refuted += 1
    assert refuted > 150, refuted


def test_engine_closure_agrees_with_the_checker_on_tampered_profiles():
    # every bit of every mask of every distinct profile, flipped one at a time
    seen, clauses, kept = set(), Counter(), 0
    for system, state, n, tables, _ in _profile_nos():
        t, p, masks = tables.profile.threshold, tables.profile.period, tables.profile.masks
        key = (id(system), t, p, tuple(sorted(masks.items())))
        if key in seen:
            continue
        seen.add(key)
        for q in masks:
            for bit in range(t + p):
                tampered = Profile(t, p, {**masks, q: masks[q] ^ (1 << bit)})
                ok, why = check_profile_report(system, tampered, state, n)
                closed = ok or why.startswith("the profile holds")
                assert _closed(system, tampered) == closed, (system, tampered, why)
                if closed:
                    kept += 1
                else:
                    clauses[why.split()[0]] += 1
    assert set(clauses) == {"final", "unary", "branch"}, clauses
    assert kept > 0 and len(seen) > 20, (kept, len(seen))


def test_profile_membership_reads_through_the_period():
    # values {1, 2, 4} below T + P = 5, then bits [2, 5) again and again
    profile = Profile(2, 3, {0: 0b10110})
    assert [n for n in range(12) if profile.holds(0, n)] == [1, 2, 4, 5, 7, 8, 10, 11]
    # the checker's own reading agrees on random profiles
    rng = random.Random(5)
    for _ in range(300):
        t, p = rng.randrange(6), rng.randrange(1, 5)
        profile = Profile(t, p, {0: rng.getrandbits(t + p)})
        top = profile.window
        assert _profile_values(profile, 0, top) == {n for n in range(top + 1) if profile.holds(0, n)}, profile


# s sums two odd values of p, so it reaches the even values from 2 on
BRANCH_PARITY_TEXT = PARITY_TEXT + "state s\nbranch s p p\n"


@pytest.mark.parametrize(
    "text, masks, threshold, state, n, reason",
    [
        (PARITY_TEXT, {"q": 0b01, "p": 0b10}, 0, "q", 5, "ok"),
        (PARITY_TEXT, {"q": 0b01, "p": 0b10}, 0, "q", 4, "the profile holds q(4), so it refutes nothing"),
        (PARITY_TEXT, {"q": 0b00, "p": 0b10}, 0, "q", 5, "final state q lacks the value 0"),
        (PARITY_TEXT, {"q": 0b11, "p": 0b10}, 0, "q", 5, "unary p -1 q: p(2) over q(1) lies outside the profile"),
        (BRANCH_PARITY_TEXT, {"q": 0b0101, "p": 0b1010, "s": 0b0100}, 2, "s", 3, "ok"),
        (BRANCH_PARITY_TEXT, {"q": 0b0101, "p": 0b1010, "s": 0b0100}, 2, "s", 0, "ok"),
        (
            BRANCH_PARITY_TEXT,
            {"q": 0b0101, "p": 0b1010, "s": 0b0000},
            2,
            "s",
            3,
            "branch s p p: s(2) over p(1) and p(1) lies outside the profile",
        ),
        (PARITY_TEXT, {"p": 0b10}, 0, "q", 5, "no mask for the queried state q"),
        (PARITY_TEXT, {"q": 0b01}, 0, "q", 5, "state p has no mask, though unary q -1 p enters it"),
        (PARITY_TEXT, {"q": 0b101, "p": 0b10}, 0, "q", 5, "mask of state q is not a set of values below T + P = 2"),
        (PARITY_TEXT, {"q": 0b01, "p": 0b10}, -1, "q", 5, "threshold -1 or period 2 is not a natural number resp. a positive one"),
    ],
    ids=[
        "parity", "claim", "final", "unary", "branch-system", "branch-system-at-0", "branch",
        "no-queried-mask", "no-successor-mask", "wide-mask", "negative-threshold",
    ],
)
def test_checker_names_the_failed_clause_of_a_profile(text, masks, threshold, state, n, reason):
    system = parse_bvass(text)
    profile = Profile(threshold, 2, {system.state_id(name): bits for name, bits in masks.items()})
    assert check_profile_report(system, profile, system.state_id(state), n) == (reason == "ok", reason)
    if reason.split()[0] in ("ok", "the", "final", "unary", "branch"):
        assert _closed(system, profile) == (reason.split()[0] in ("ok", "the"))


def test_budget_counts_the_profile_window():
    # the window's charge, |cone| x (cap + 1), does not grow with n
    system = parse_bvass(PARITY_TEXT)
    nq = system.num_states  # the cone of q is both states
    window = nq * (2 * 16 + 4 * nq + 1)
    for n in (5, 1001, 3001):
        tables = run_query(ReachQuery(system, 0, n))
        assert tables.reason == "profile 0 2" and tables.contexts == []
        bound = 2 * nq + n
        kernel = nq * (bound + 1)
        table = nq * (3 + bound + 1 + nq + 1)  # the modulus-1 table of the largest coverable values
        assert tables.budget.used == kernel + table + window


def test_a_profile_inside_a_larger_system_is_built_and_charged_over_its_cone():
    # beside a doubling-10 hub, the parity pair's profile is the one it has
    # alone, and the hub's states add nothing to its charge
    alone = parse_bvass(PARITY_TEXT)
    union = disjoint_union(alone, gen_doubling(10))
    cone = {0, 1}
    charged = len(cone) * (2 * 16 + 4 * len(cone) + 1)
    profiles = []
    for system in (alone, union):
        budget = Budget()
        profiles.append(reach_profile(system, cone, budget))
        assert budget.used == charged
    assert profiles[0] == profiles[1] == Profile(0, 2, {0: 0b01, 1: 0b10})


def test_a_small_budget_refuses_the_profile_step():
    # at n = 3001 the pump fixpoint this step stands before took 72 s and
    # 3.5 GB; the profile is refused before its kernel runs, or answers in
    # well under a second
    system = parse_bvass(PARITY_TEXT)
    query = ReachQuery(system, 0, 3001)
    start = time.perf_counter()
    tables = run_query(query)
    assert time.perf_counter() - start < 1.0
    assert tables.reason == "profile 0 2"
    used = tables.budget.used
    with pytest.raises(BudgetExceeded):
        run_query(query, Budget(used - 1))
    assert run_query(query, Budget(used)).reason == "profile 0 2"


def test_a_threshold_beyond_the_window_leaves_the_no_to_the_pump_fixpoint():
    system = parse_bvass(BEYOND_WINDOW_TEXT)
    a = system.state_id("a")
    assert reach_profile(system, _closure(system.state_graph[0], a), Budget()) is None
    tables = run_query(ReachQuery(system, a, 5))
    assert not tables.holds(a, 5) and tables.reason == PUMP_FIXPOINT and tables.contexts
    assert tables.profile is None
    batch = run_batch(system, 5)
    assert [batch.holds(a, n) for n in range(6)] == [True, False, True, False, True, False]
    reach = bounded_reach_set(system, 300)
    assert [n for n in range(120, 134) if reach.contains(a, n)] == [120, 122, 124, 126, 128, 129, 130, 131, 132, 133]


# ---------------------------------------------------------------------------
# expansion


def test_expand_without_pumps_returns_same_tree():
    system = loop_gadget()
    _, cert = _decide_extract(system, "a", 3)
    expanded = expand_certificate(system, cert, max_nodes=100)
    assert expanded.labels == cert.unfold().labels


def test_expand_overflow_without_pumps():
    # the size of the tree a DAG stands for is read off its defs up front
    system = loop_gadget()
    _, cert = _decide_extract(system, "a", 3)
    assert not cert.pumps and len(cert.tree) == 1
    with pytest.raises(ExpandOverflow) as info:
        expand_certificate(system, cert, max_nodes=4)
    assert (info.value.needed, info.value.allowed) == (5, 4)
    assert len(expand_certificate(system, cert, max_nodes=5)) == 5


def test_expand_pumped_certificate_to_full_tree():
    system = gen_doubling(5)  # the bound 16 lies below the climb to 32
    query, cert = _decide_extract(system, "q", 0)
    assert cert.pumps
    expanded = expand_certificate(system, cert, max_nodes=10_000)
    assert is_reachability_tree(system, expanded)
    assert expanded.labels[""] == Config(query.state, 0)


# s climbs by 2 through p, and leaves for the hub only at s(32); B = 20 + n
# lies below 32 for n < 12, so s(n) needs a pump of gap 2 (at gen_doubling(4)
# the climb to 16 fits under B and the kernel answers instead)
EVEN_CLIMB = format_bvass(gen_doubling(5)) + "state s\nstate p\nunary s +1 p\nunary p +1 s\nunary s 0 q_5\n"


def test_modulus_two_pump_from_the_engine():
    # the pump's residue query (s, m*, 2) goes through the residue cache;
    # a gap of 1 would read the max-coverable profile instead
    system = parse_bvass(EVEN_CLIMB)
    s = system.state_id("s")
    for n in (0, 2, 4):
        query = ReachQuery(system, s, n)
        tables = run_query(query)
        assert tables.holds(s, n) and tables.reason == PUMP_FIXPOINT
        text = certificate_to_text(system, extract_certificate(query, tables))
        assert [line for line in text.splitlines() if line.startswith("pump ")] == ["pump 00 e 2"]
        cert = certificate_from_text(system, text)
        assert check_certificate_report(system, cert, Config(s, n)) == (True, "ok")
        expanded = expand_certificate(system, cert, max_nodes=10_000)
        assert is_reachability_tree(system, expanded)
        assert expanded.labels[""] == Config(s, n)
    assert not decide_reach(ReachQuery(system, s, 1))
    batch = run_batch(system, 5)
    assert [batch.holds(s, n) for n in range(6)] == [True, False, True, False, True, False]


# s's path runs through u, one child of ``branch s u t``; its side branch
# t(0) is a reach bit only once t's own pump (t climbs to t1 and back) has
# fired, so the path rule on a reach delta has to add s's path bits after
# the fact, with the path on either side of the branch
def _side_pump(children: str) -> str:
    return format_bvass(gen_doubling(5)) + (
        f"state s\nstate u\nstate t\nstate t1\nunary s 0 q_5\nbranch s {children}\n"
        "unary u +1 s\nunary t +1 t1\nunary t1 0 t\nunary t 0 q_5\n"
    )


@pytest.mark.parametrize(
    "children, pumps_at_zero",
    [("u t", ["pump 00 e 1", "pump 100 1 1"]), ("t u", ["pump 000 0 1", "pump 10 e 1"])],
    ids=["path-left", "path-right"],
)
def test_side_branch_pump_reaches_the_path_through_a_reach_delta(children, pumps_at_zero):
    system = parse_bvass(_side_pump(children))
    s = system.state_id("s")
    for n in (0, 1):
        query = ReachQuery(system, s, n)
        tables = run_query(query)
        assert tables.holds(s, n) and tables.reason == PUMP_FIXPOINT
        text = certificate_to_text(system, extract_certificate(query, tables))
        pumps = [line for line in text.splitlines() if line.startswith("pump ")]
        assert len(pumps) == 2
        if n == 0:
            assert pumps == pumps_at_zero
        cert = certificate_from_text(system, text)
        assert check_certificate_report(system, cert, Config(s, n)) == (True, "ok")
        expanded = expand_certificate(system, cert, max_nodes=10_000)
        assert is_reachability_tree(system, expanded)
        assert expanded.labels[""] == Config(s, n)
    # the oracle is exact 2|Q| below its cap
    nmax = 40 - 2 * system.num_states
    batch = run_batch(system, nmax)
    reach = bounded_reach_set(system, 40)
    for q in range(system.num_states):
        assert [batch.holds(q, n) for n in range(nmax + 1)] == [reach.contains(q, n) for n in range(nmax + 1)], q


# s's path runs through u, the left child of ``branch s u c``; the side
# child c(0) comes down c's -1 loop, so it is one def, and every copy of the
# pumped path hangs that one def beside it
SHARED_SIDE = format_bvass(gen_doubling(5)) + (
    "state s\nstate u\nstate c\nunary s 0 q_5\nbranch s u c\nunary u +1 s\nunary c 0 q_f\nunary c -1 c\n"
)


def _renumber_defs(text: str, new_id) -> str:
    """The certificate text with every def id i written as ``new_id(i)``."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "def":
            tokens[1] = str(new_id(int(tokens[1])))
            tokens[4:] = [str(new_id(int(c))) for c in tokens[4:]]
        elif tokens[1] == "=":
            tokens[2] = str(new_id(int(tokens[2])))
        lines.append(" ".join(tokens))
    return "".join(line + "\n" for line in lines)


def test_expansion_of_sparse_def_ids_shares_the_side_def():
    system = parse_bvass(SHARED_SIDE)
    s, c = system.state_id("s"), system.state_id("c")
    _, cert = _decide_extract(system, "s", 0)
    assert sorted(cert.defs) == [0, 1] and cert.grafts == {"1": 1}
    assert cert.pumps == {"00": PumpRecord(anchor="", modulus=1)}
    sparse = certificate_from_text(system, _renumber_defs(certificate_to_text(system, cert), lambda i: 3 * i + 7))
    assert sorted(sparse.defs) == [7, 10] and sparse.grafts == {"1": 10}
    assert check_certificate_report(system, sparse, Config(s, 0)) == (True, "ok")
    tree = expand_certificate(system, cert, max_nodes=10_000)
    assert len(tree) == 224 and is_reachability_tree(system, tree)
    assert expand_certificate(system, sparse, max_nodes=10_000) == tree
    # s(1) .. s(32) climb to the hub's entry, each copy of the path beside c(0)
    sides = [a + "1" for a, cfg in tree.labels.items() if cfg.state == s and a + "1" in tree.labels]
    assert len(sides) == 32 and {tree.labels[a] for a in sides} == {Config(c, 0)}


def test_expand_preserves_root_on_nonzero_query():
    system = gen_doubling(4)
    query, cert = _decide_extract(system, "q", 5)
    expanded = expand_certificate(system, cert, max_nodes=100_000)
    assert is_reachability_tree(system, expanded)
    assert expanded.labels[""] == Config(query.state, 5)


def test_expand_overflow_on_tiny_allowance():
    system = gen_doubling(4)
    _, cert = _decide_extract(system, "q", 0)
    assert cert.pumps
    with pytest.raises(ExpandOverflow):
        expand_certificate(system, cert, max_nodes=1)


def test_expand_overflow_reports_need_and_allowance():
    system = gen_doubling(12)
    _, cert = _decide_extract(system, "q", 0)
    with pytest.raises(ExpandOverflow) as info:
        expand_certificate(system, cert, max_nodes=100)
    assert info.value.needed > info.value.allowed == 100
