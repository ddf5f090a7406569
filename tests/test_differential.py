"""The linear checker and parser against the naive references in helpers.

Seeded random trees (some not prefix-closed, some with deep same-state
chains), mutated valid trees and mutated engine certificates must get the
same classification, exclusivity, validation report and checker verdict
(address and reason included) from the library as from the quadratic
transcriptions of the definitions.
"""
from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from bvass1.gen import gen_binary_constant, gen_doubling, gen_mcvp, gen_random, gen_random_circuit, gen_subset_sum
from bvass1.check import check_certificate_report
from bvass1.model import (
    Certificate,
    Config,
    FormatError,
    PartialTree,
    PumpRecord,
    SemanticError,
    certificate_from_text,
    certificate_to_text,
    classify_nodes,
    format_bvass,
    is_exclusive,
    parse_bvass,
    raw_tree_from_text,
    tree_from_text,
    validate_partial_tree_report,
)
from bvass1.reach import ReachQuery, _closure, _cyclic_states, extract_certificate, run_batch, run_query

from helpers import (
    B2_TEXT,
    PUMP_TEXT,
    b2,
    naive_check_certificate_report,
    naive_classify_nodes,
    naive_cyclic_states,
    naive_is_exclusive,
    naive_validate_partial_tree_report,
    random_instances,
    random_valid_tree,
)


def _random_tree(rng: random.Random) -> PartialTree:
    """A random labelled tree of one of three shapes.

    Bushy trees over a few states; deep chains over one or two states
    whose counters wander in a narrow band, so same-state ancestors are
    many and often equal, or climb with rare drops, so an anchor can sit
    far up a long run of smaller ancestors; any kind with nodes dropped
    (not prefix-closed) or with an address outside 0/1.
    """
    deep = rng.random() < 0.4
    steps = (1, 1, 1, 0, -5) if rng.random() < 0.5 else (-1, 0, 1)
    num_states = rng.randint(1, 2) if deep else rng.randint(1, 4)
    size = rng.randint(1, 150 if deep else 50)
    root = Config(rng.randrange(num_states), rng.randint(0, 4))
    labels = {"": root}
    frontier = [""]
    while frontier and len(labels) < size:
        addr = frontier.pop() if deep else frontier.pop(rng.randrange(len(frontier)))
        r = rng.random()
        kids = "0" if r < (0.8 if deep else 0.4) else "01" if r < 0.95 else "1"
        for c in kids:
            counter = max(0, labels[addr].counter + (rng.choice(steps) if deep else rng.randint(-1, 2)))
            labels[addr + c] = Config(rng.randrange(num_states), counter)
            frontier.append(addr + c)
    if rng.random() < 0.3:
        for addr in rng.sample(sorted(labels), k=rng.randint(1, max(1, len(labels) // 5))):
            del labels[addr]
    if rng.random() < 0.05 and labels:
        addr = rng.choice(sorted(labels))
        labels[addr + "2"] = Config(0, rng.randint(0, 4))
    return PartialTree(labels)


@pytest.mark.parametrize("seed", range(4))
def test_classification_and_exclusivity_match_naive(seed):
    rng = random.Random(seed)
    for _ in range(1000):
        tree = _random_tree(rng)
        assert classify_nodes(tree) == naive_classify_nodes(tree), tree.labels
        assert is_exclusive(tree) == naive_is_exclusive(tree), tree.labels


def test_random_trees_cover_every_case():
    rng = random.Random(0)
    trees = [_random_tree(rng) for _ in range(1000)]
    assert any(not naive_is_exclusive(t) for t in trees)
    assert any(naive_classify_nodes(t).decreasing for t in trees)
    assert any(max(map(len, t.labels), default=0) >= 100 for t in trees)
    assert any(t.labels and naive_validate_partial_tree_report(b2(), t)[2] == "domain is not prefix-closed" for t in trees)


def _mutate_tree(tree: PartialTree, rng: random.Random, num_states: int) -> PartialTree:
    labels = dict(tree.labels)
    for _ in range(rng.randint(1, 2)):
        addr = rng.choice(sorted(labels))
        cfg = labels[addr]
        kind = rng.randrange(5)
        if kind == 0:
            labels[addr] = Config(cfg.state, max(0, cfg.counter + rng.choice((-1, 1))))
        elif kind == 1:
            labels[addr] = Config(rng.randrange(num_states), cfg.counter)
        elif kind == 2 and addr:
            del labels[addr]
        elif kind == 3:
            labels[addr + "1"] = Config(rng.randrange(num_states), rng.randint(0, 3))
        else:
            labels[addr + rng.choice("01")] = Config(rng.randrange(num_states), rng.randint(0, 3))
    return PartialTree(labels)


@pytest.mark.parametrize("seed", range(3))
def test_validator_report_matches_naive(seed):
    rng = random.Random(100 + seed)
    kinds = set()
    for i in range(600):
        system = gen_random(1 + i % 4, 2 + i % 6, i % 3, 1, 1000 * seed + i)
        tree = random_valid_tree(system, rng, max_nodes=40)
        if rng.random() < 0.8:
            tree = _mutate_tree(tree, rng, system.num_states)
        expected = naive_validate_partial_tree_report(system, tree)
        assert validate_partial_tree_report(system, tree) == expected, tree.labels
        kinds.add(expected[2])
    assert len(kinds) >= 6, kinds


def _mutate_certificate(cert: Certificate, rng: random.Random, num_states: int) -> tuple[Certificate, int]:
    """A tree-format certificate with one clause possibly broken, and a claimed-counter shift."""
    tree, pumps = cert.unfold(), dict(cert.pumps)
    kind = rng.randrange(6)
    if kind == 0:
        tree = _mutate_tree(tree, rng, num_states)
    elif kind == 1 and pumps:
        del pumps[rng.choice(sorted(pumps))]
    elif kind == 2 and pumps:
        leaf = rng.choice(sorted(pumps))
        rec = pumps[leaf]
        pumps[leaf] = PumpRecord(rng.choice(sorted(tree.labels)), rec.modulus)
    elif kind == 3 and pumps:
        leaf = rng.choice(sorted(pumps))
        pumps[leaf] = PumpRecord(pumps[leaf].anchor, pumps[leaf].modulus + rng.choice((-1, 1)))
    elif kind == 4:
        addr = rng.choice(sorted(tree.labels))
        pumps[addr] = PumpRecord(addr[: rng.randint(0, len(addr))], rng.randint(1, 3))
    return Certificate(tree, pumps), rng.choice((0, 0, 0, 1))


def test_checker_report_matches_naive_on_mutated_certificates():
    rng = random.Random(7)
    reasons = set()
    for seed, system in enumerate(random_instances()[:150]):
        for state in range(system.num_states):
            n = (seed + state) % 4
            query = ReachQuery(system, state, n)
            tables = run_query(query)
            if not tables.holds(state, n):
                continue
            cert = extract_certificate(query, tables)
            for _ in range(4):
                bad, shift = _mutate_certificate(cert, rng, system.num_states)
                claimed = Config(state, n + shift)
                expected = naive_check_certificate_report(system, bad, claimed)
                assert check_certificate_report(system, bad, claimed) == expected, (seed, state, n)
                reasons.add(expected[1].split(" ")[0])
    assert len(reasons) >= 6, reasons


def test_checker_report_matches_naive_on_deep_pumped_chain():
    # a long valid path whose counter wanders in [0, 4]; of the many smaller
    # ancestors of the pumped leaf, only the deepest is accepted as anchor
    system = parse_bvass("state q state f\nfinal f\nunary q +1 q\nunary q -1 q\nunary q 0 f\n")
    rng = random.Random(5)
    counters = [0]
    while len(counters) < 120 or counters[-1] < 3:
        c = counters[-1]
        counters.append(1 if c == 0 else 3 if c == 4 else c + rng.choice((-1, 1)))
    labels = {"0" * k: Config(0, c) for k, c in enumerate(counters)}
    leaf = "0" * (len(counters) - 1)
    claimed = Config(0, 0)
    verdicts = set()
    for anchor in labels:
        gap = labels[leaf].counter - labels[anchor].counter
        cert = Certificate(PartialTree(labels), {leaf: PumpRecord(anchor, max(gap, 1))})
        expected = naive_check_certificate_report(system, cert, claimed)
        assert check_certificate_report(system, cert, claimed) == expected, anchor
        verdicts.add(expected[1].split(" ")[0])
    assert verdicts == {"ok", "recorded"}


def test_checker_refuses_clashing_pumps_that_pass_every_other_clause():
    # s(0) climbs to s(2), which splits into two s(1) leaves; both are
    # pumped from the root, so their pumping segments share the climb
    system = parse_bvass(PUMP_TEXT)
    s = system.state_id("s")
    labels = {"": Config(s, 0), "0": Config(s, 1), "00": Config(s, 2), "000": Config(s, 1), "001": Config(s, 1)}
    cert = Certificate(PartialTree(labels), {leaf: PumpRecord("", 1) for leaf in ("000", "001")})
    expected = (False, "pumping segments are not exclusive")
    assert naive_check_certificate_report(system, cert, Config(s, 0)) == expected
    assert check_certificate_report(system, cert, Config(s, 0)) == expected


def test_checker_refuses_a_graft_labelled_unlike_its_def():
    # the text format labels a graft from its def, so only a certificate
    # built in memory can disagree: q_2 reaches 4 alone, and 5 is claimed
    system = parse_bvass(B2_TEXT)
    cert = certificate_from_text(system, "def 0 q_f 0\ndef 1 q_0 1 0\ndef 2 q_1 2 1 1\ndef 3 q_2 4 2 2\ne = 3\n")
    lying = replace(cert, tree=PartialTree({"": Config(system.state_id("q_2"), 5)}))
    assert check_certificate_report(system, cert, Config(system.state_id("q_2"), 4)) == (True, "ok")
    assert check_certificate_report(system, lying, Config(system.state_id("q_2"), 5)) == (
        False, "graft at root is labelled unlike def 3"
    )


def test_deep_path_certificate_checks_fast():
    # a 0-shift self-loop admits valid certificates of any depth; the
    # ancestor-walking checker needed about 15 s at this depth
    system = parse_bvass("state q\nfinal q\nunary q +0 q\n")
    tree = PartialTree({"0" * k: Config(0, 0) for k in range(3001)})
    cert = certificate_from_text(system, certificate_to_text(system, Certificate(tree, {})))
    start = time.perf_counter()
    assert check_certificate_report(system, cert, Config(0, 0)) == (True, "ok")
    assert time.perf_counter() - start < 2.0


def test_large_dag_certificate_checks_fast():
    # a chain of 10^5 defs q(m) -> q(m-1) ... q(0) -> f(0), grafted at the root
    system = parse_bvass("state q state f\nfinal f\nunary q -1 q\nunary q 0 f\n")
    size = 10**5
    lines = ["def 0 f 0", "def 1 q 0 0"] + [f"def {i} q {i - 1} {i - 1}" for i in range(2, size)]
    text = "\n".join(lines + [f"e = {size - 1}"]) + "\n"
    cert = certificate_from_text(system, text)
    assert len(cert.defs) == size
    start = time.perf_counter()
    assert check_certificate_report(system, cert, Config(0, size - 2)) == (True, "ok")
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# text formats: one parser, same errors


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", FormatError, "line 1: empty tree"),
        ("pump 0 e 1\n", FormatError, "line 1: empty tree"),
        ("pump 0 e x\nfoo q 1\n", FormatError, "line 2: bad node address 'foo'"),
        ("e q 1\npump 0 e\n0 q 1 1\n", FormatError, "line 3: expected <address> <state> <counter>"),
        ("e q 1\npump 0 e 0\n0 nope 1\n", SemanticError, "line 3: unknown state 'nope'"),
        ("e q 1\npump 0 e 1\npump 0 e 1\npump 2 e 1\n", SemanticError, "line 3: duplicate pump for leaf '0'"),
        ("e q 1\npump 0 e x\npump 0 e 0\n", FormatError, "line 2: bad modulus 'x'"),
        ("e q 1\npump 0 e 0\n", SemanticError, "line 2: modulus must be at least 1"),
        ("e q 1\npump 0 e2 1\n", FormatError, "line 2: bad node address 'e2'"),
        ("e q 1\npump 0 e\n", FormatError, "line 2: expected pump <leaf> <anchor> <modulus>"),
        ("e q 1\ne q 2\n", SemanticError, "line 2: duplicate address 'e'"),
        ("e q x\n", FormatError, "line 1: bad counter 'x'"),
        ("e q -1\n", SemanticError, "line 1: negative counter"),
    ],
)
def test_certificate_parse_errors_keep_line_and_order(text, error, message):
    with pytest.raises(error) as exc:
        certificate_from_text(b2(), text)
    assert str(exc.value) == message


def test_tree_readers_skip_pump_lines():
    text = "e q 1 # root\n\npump 0 e x\n0 q 2\n"
    assert tree_from_text(b2(), text).labels == {"": Config(0, 1), "0": Config(0, 2)}
    assert raw_tree_from_text(text) == {"": ("q", 1), "0": ("q", 2)}
    with pytest.raises(FormatError, match="line 1: bad counter"):
        raw_tree_from_text("e nope x\n")


# ---------------------------------------------------------------------------
# cyclic states


def _family_systems():
    yield from random_instances()
    for n in range(6):
        yield gen_doubling(n)
    for m in (1, 2, 5, 13, 100):
        yield gen_binary_constant(m)[0]
    for seed in range(20):
        yield gen_mcvp(gen_random_circuit(seed, num_gates=12))[0]
    yield gen_subset_sum([3, 5, 7], 12)[0]
    for seed in range(30):
        yield gen_random(6 + seed % 20, 10 + seed, seed % 5, 2, 9000 + seed)


def test_cyclic_states_match_naive_on_every_family():
    for system in _family_systems():
        cyclic = naive_cyclic_states(system)
        assert _cyclic_states(system, range(system.num_states)) == sorted(cyclic)
        # run_query's call: the cyclic states of one state's cone
        cone = _closure(system.state_graph[0], 0)
        assert _cyclic_states(system, cone) == sorted(cyclic & cone)


def test_state_graph_and_pump_context_backward_sets_match_naive():
    # the rule index lists each rule under its premise states, in transition
    # order; a pump context's path bits lie only at states that can reach
    # its state.  Each system is checked as built and as parsed back from
    # its text, so the index is compared on both constructors' systems.
    checked = 0
    for system in _family_systems():
        nq = system.num_states
        succ: list[set[int]] = [set() for _ in range(nq)]
        for t in system.unary:
            succ[t.source].add(t.target)
        for t in system.branching:
            succ[t.source].update((t.left, t.right))
        unary = list(enumerate(system.unary))
        branching = list(enumerate(system.branching))
        for instance in (system, parse_bvass(format_bvass(system))):
            assert list(instance.state_graph[0]) == succ
            assert list(instance.state_graph[1]) == [{q for q in range(nq) if p in succ[q]} for p in range(nq)]
            assert instance.transition_sets == (set(system.unary), set(system.branching))
            assert instance.transition_sets is instance.transition_sets  # built once, read by both checkers
            up, by_left, by_right, loops = instance.rule_index
            for p in range(nq):
                assert list(up[p]) == [(t.source, t.delta, ("unary", i)) for i, t in unary if t.target == p]
                assert list(by_left[p]) == [(t.source, t.right, ("branch", i)) for i, t in branching if t.left == p]
                assert list(by_right[p]) == [(t.source, t.left, ("branch", i)) for i, t in branching if t.right == p]
                plus = [("unary", i) for i, t in unary if t.source == t.target == p and t.delta == 1]
                minus = [("unary", i) for i, t in unary if t.source == t.target == p and t.delta == -1]
                assert loops[p] == ((plus or [None])[-1], (minus or [None])[-1])
        if nq > 5:
            continue

        def reaches(q: int, s: int) -> bool:
            seen, stack = {q}, [q]
            while stack:
                for r in succ[stack.pop()]:
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
            return q == s or s in seen

        back = [{q for q in range(nq) if reaches(q, s)} for s in range(nq)]
        for ctx in run_batch(system, 2).contexts:
            # a row view's path bits lie at states with a path to its state
            assert {q for q, mask in enumerate(ctx.masks) if mask} <= back[ctx.state]
            checked += 1
    assert checked > 1000, checked
