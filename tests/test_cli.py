"""End-to-end command line coverage, driven in-process."""
from __future__ import annotations

import json

from bvass1.cli import _witness_lines, main
from bvass1.cover_bound import unbounded_report
from bvass1.gen import (
    gen_binary_constant,
    gen_doubling,
    gen_mcvp,
    gen_random,
    gen_random_circuit,
    gen_subset_sum,
)
from bvass1.model import format_bvass, parse_bvass, tree_from_text

import pytest

from helpers import B2_TEXT, BEYOND_WINDOW_TEXT, LOOP_TEXT, PARITY_TEXT, PUMP_TEXT


@pytest.fixture()
def b2_file(tmp_path):
    path = tmp_path / "b2.bvass"
    path.write_text(B2_TEXT)
    return str(path)


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.bvass"
    path.write_text(LOOP_TEXT)
    return str(path)


def _gen_doubling_file(tmp_path, n: int) -> str:
    path = tmp_path / f"doubling{n}.bvass"
    assert main(["gen", "doubling", "--n", str(n), "--out", str(path)]) == 0
    return str(path)


# ---------------------------------------------------------------------------
# decide


def test_decide_reach_yes(b2_file, capsys):
    assert main(["decide", "reach", "--system", b2_file, "--state", "q_2", "--n", "4"]) == 0
    assert capsys.readouterr().out == "YES\n"


def test_decide_reach_no(b2_file, capsys):
    assert main(["decide", "reach", "--system", b2_file, "--state", "q_2", "--n", "3"]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_decide_reach_requires_n(b2_file, capsys):
    assert main(["decide", "reach", "--system", b2_file, "--state", "q_2"]) == 2
    assert "--n is required" in capsys.readouterr().err


def test_decide_unknown_state(b2_file, capsys):
    assert main(["decide", "reach", "--system", b2_file, "--state", "zz", "--n", "0"]) == 2
    assert "no such state" in capsys.readouterr().err


def test_decide_missing_system(tmp_path, capsys):
    assert main(["decide", "reach", "--system", str(tmp_path / "x"), "--state", "q", "--n", "0"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_decide_bad_system_text(tmp_path, capsys):
    path = tmp_path / "bad.bvass"
    path.write_text("state a\nunary a 0 zz\n")
    assert main(["decide", "reach", "--system", str(path), "--state", "a", "--n", "0"]) == 2
    assert "unknown state" in capsys.readouterr().err


def test_non_utf8_input_names_the_line(b2_file, tmp_path, capsys):
    system = tmp_path / "latin1.bvass"
    system.write_bytes(b"state q\n# caf\xe9\nfinal q\n")
    assert main(["decide", "reach", "--system", str(system), "--state", "q", "--n", "0"]) == 2
    err = capsys.readouterr().err
    assert f"{system}: line 2: not UTF-8" in err
    certificate = tmp_path / "bad.cert"
    certificate.write_bytes(b"e q_2 4\n0 q_2 \xff\n")
    assert main(["check", "--system", b2_file, "--certificate", str(certificate), "--state", "q_2", "--n", "4"]) == 2
    assert f"{certificate}: line 2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("system_text", ["state q\nfinal q\n", "state q\nfinal q\nunary q -1 q\n"])
def test_decide_reach_huge_n_is_a_budget_refusal(tmp_path, capsys, system_text):
    # the reach masks' window is charged before a mask of 10^20 bits is built
    path = tmp_path / "one.bvass"
    path.write_text(system_text)
    assert main(["decide", "reach", "--system", str(path), "--state", "q", "--n", str(10**20)]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_decide_cover(b2_file, capsys):
    assert main(["decide", "cover", "--system", b2_file, "--state", "q_2", "--n", "4"]) == 0
    assert main(["decide", "cover", "--system", b2_file, "--state", "q_2", "--n", "5"]) == 1


def test_decide_residue(b2_file):
    assert main(["decide", "residue", "--system", b2_file, "--state", "q", "--n", "1", "--d", "2"]) == 0
    assert main(["decide", "residue", "--system", b2_file, "--state", "q_2", "--n", "5", "--d", "1"]) == 1


def test_decide_residue_requires_d(b2_file, capsys):
    assert main(["decide", "residue", "--system", b2_file, "--state", "q", "--n", "1"]) == 2
    assert "--d is required" in capsys.readouterr().err
    assert main(["decide", "residue", "--system", b2_file, "--state", "q", "--n", "1", "--d", "0"]) == 2


def test_decide_bounded_verdicts(b2_file, loop_file, capsys):
    assert main(["decide", "bounded", "--system", b2_file, "--state", "q"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "YES\n"
    assert captured.err.startswith("bounded:")

    assert main(["decide", "bounded", "--system", loop_file, "--state", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "NO\n"
    assert captured.err.startswith("unbounded: cycle of length 1 at a gains 1")


def test_decide_bounded_witness_lines(loop_file, capsys):
    assert main(["decide", "bounded", "--system", loop_file, "--state", "a", "--witness"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "NO"
    assert out[1] == "witness re-entry 0"
    assert out[2] == "witness states a a"
    assert out[3] == "witness step 1 unary a -1 a n_i=0"


# a cycle through a branch whose side c feeds on the lap's counter
_BRANCH_GADGET = "state ga\nstate gc\nstate gf\nfinal gf\nbranch ga gc ga\nunary ga 0 gf\nunary gc -1 gf\n"


def test_witness_step_lines_write_transitions_as_the_system_format_does():
    # the gen families are bounded everywhere, so each is joined to a gadget
    # whose cycle runs through a branch
    families = [
        gen_doubling(3),
        gen_binary_constant(5)[0],
        gen_subset_sum([2, 3, 5], 7)[0],
        gen_mcvp(gen_random_circuit(1, 10))[0],
    ]
    systems = [parse_bvass(format_bvass(s) + _BRANCH_GADGET) for s in families]
    systems += [gen_random(2 + seed % 4, 2 + seed % 6, seed % 3, 1, seed) for seed in range(60)]
    kinds = {"unary": 0, "branch": 0}
    for system in systems:
        # format_bvass writes the states, the finals, the unary and then the branch lines
        written = format_bvass(system).splitlines()
        first = {"unary": system.num_states + len(system.finals)}
        first["branch"] = first["unary"] + len(system.unary)
        for state in range(system.num_states):
            verdict, _, witness = unbounded_report(system, state)
            if not verdict:
                continue
            steps = _witness_lines(system, witness)[2:]
            assert len(steps) == len(witness.transitions)
            for i, (line, (kind, idx)) in enumerate(zip(steps, witness.transitions), start=1):
                directive = line.removeprefix(f"witness step {i} ").partition(" n_i=")[0]
                assert directive == written[first[kind] + idx], (system, state, i)
                kinds[kind] += 1
    assert kinds["unary"] > 20 and kinds["branch"] > 20, kinds


def test_witness_flag_limited_to_bounded(b2_file, capsys):
    assert main(["decide", "reach", "--system", b2_file, "--state", "q", "--n", "0", "--witness"]) == 2
    assert "--witness applies only" in capsys.readouterr().err


def test_certificate_flag_limited_to_reach(b2_file, tmp_path, capsys):
    cert = str(tmp_path / "c.cert")
    args = ["decide", "cover", "--system", b2_file, "--state", "q", "--n", "0", "--certificate", cert]
    assert main(args) == 2
    assert "applies only to problem reach" in capsys.readouterr().err


def test_json_report(b2_file, capsys):
    assert main(["decide", "reach", "--system", b2_file, "--state", "q_2", "--n", "4", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "yes"
    assert report["problem"] == "reach"
    assert report["query"] == {"system": b2_file, "state": "q_2", "n": 4}
    assert report["certificatePath"] is None
    assert "decide" in report["timings"]


@pytest.mark.parametrize(
    "state, n, code, reason",
    [
        ("q", 7, 0, "kernel"),
        ("q", 17, 1, "above largest coverable value 16"),
        ("q_4", 15, 1, "no cyclic state in cone"),
        ("q", 0, 0, "pump fixpoint"),
    ],
)
def test_json_reports_the_step_that_decided_reach(tmp_path, capsys, state, n, code, reason):
    system = _gen_doubling_file(tmp_path, 4)
    assert main(["decide", "reach", "--system", system, "--state", state, "--n", str(n), "--json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["reason"]) == (("yes", "no")[code], reason)


def test_json_reason_of_a_pump_fixpoint_no(tmp_path, capsys):
    # a covers 5, and the thresholds of its cone lie beyond the profile
    # window, so the pump fixpoint says NO
    path = tmp_path / "beyond.bvass"
    path.write_text(BEYOND_WINDOW_TEXT)
    assert main(["decide", "reach", "--system", str(path), "--state", "a", "--n", "5", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "pump fixpoint"


@pytest.mark.parametrize("n", [5, 3001])
def test_json_reason_of_a_profile_no(tmp_path, capsys, n):
    # the parity pair: q reaches exactly the even values, so it covers every
    # n, and the reach profile with threshold 0 and period 2 refutes the odd
    path = tmp_path / "parity.bvass"
    path.write_text(PARITY_TEXT)
    assert main(["decide", "reach", "--system", str(path), "--state", "q", "--n", str(n), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "profile 0 2"


def test_budget_flag_refusal(tmp_path, capsys):
    system = _gen_doubling_file(tmp_path, 6)
    assert main(["decide", "reach", "--system", system, "--state", "q", "--n", "0", "--budget", "10"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_budget_env(tmp_path, monkeypatch, capsys):
    system = _gen_doubling_file(tmp_path, 6)
    monkeypatch.setenv("BVASS1_BUDGET", "10")
    assert main(["decide", "reach", "--system", system, "--state", "q", "--n", "0"]) == 2
    assert "budget exceeded" in capsys.readouterr().err
    monkeypatch.setenv("BVASS1_BUDGET", "plenty")
    assert main(["decide", "reach", "--system", system, "--state", "q", "--n", "0"]) == 2
    assert "not an integer" in capsys.readouterr().err


def test_budget_flag_overrides_env(tmp_path, monkeypatch, capsys):
    system = _gen_doubling_file(tmp_path, 6)
    monkeypatch.setenv("BVASS1_BUDGET", "10")
    args = ["decide", "reach", "--system", system, "--state", "q", "--n", "0"]
    assert main(args) == 2
    assert "budget exceeded" in capsys.readouterr().err
    assert main(args + ["--budget", "1000000"]) == 0
    assert capsys.readouterr().out == "YES\n"


@pytest.mark.parametrize(
    "problem, query", [("bounded", []), ("cover", ["--n", "16"]), ("residue", ["--n", "16", "--d", "3"])]
)
def test_budget_flag_refuses_every_problem(tmp_path, capsys, problem, query):
    system = _gen_doubling_file(tmp_path, 4)
    args = ["decide", problem, "--system", system, "--state", "q", *query]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exceeded" in captured.err


# ---------------------------------------------------------------------------
# certificates through the CLI


def test_decide_check_round_trip(tmp_path, capsys):
    system = _gen_doubling_file(tmp_path, 4)
    cert = str(tmp_path / "q0.cert")
    args = ["decide", "reach", "--system", system, "--state", "q", "--n", "0", "--certificate", cert]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["check", "--system", system, "--certificate", cert, "--state", "q", "--n", "0"]) == 0
    assert capsys.readouterr().out == "YES\n"
    # a wrong claim is rejected with a reason on stderr
    assert main(["check", "--system", system, "--certificate", cert, "--state", "q", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "NO\n"
    assert "root label" in captured.err


def test_check_tampered_certificate(tmp_path, capsys):
    system = _gen_doubling_file(tmp_path, 4)
    cert = tmp_path / "q0.cert"
    args = ["decide", "reach", "--system", system, "--state", "q", "--n", "0", "--certificate", str(cert)]
    assert main(args) == 0
    lines = cert.read_text().splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("pump"):
            tokens = line.split()
            tokens[2] = str(int(tokens[2]) + 1)
            lines[i] = " ".join(tokens)
            break
    cert.write_text("\n".join(lines) + "\n")
    assert main(["check", "--system", system, "--certificate", str(cert), "--state", "q", "--n", "0"]) == 1


# q_2(4) of the doubling system at n = 2, as the engine writes it
B2_DAG = "def 0 q_f 0\ndef 1 q_0 1 0\ndef 2 q_1 2 1 1\ndef 3 q_2 4 2 2\ne = 3\n"

def test_decide_writes_the_dag_form(b2_file, tmp_path, capsys):
    cert = tmp_path / "q2.cert"
    args = ["decide", "reach", "--system", b2_file, "--state", "q_2", "--n", "4", "--certificate", str(cert)]
    assert main(args) == 0
    assert cert.read_text() == B2_DAG
    # the tree form of the same derivation checks too
    legacy = tmp_path / "q2.tree"
    legacy.write_text("e q_2 4\n0 q_1 2\n1 q_1 2\n00 q_0 1\n01 q_0 1\n10 q_0 1\n11 q_0 1\n"
                      "000 q_f 0\n010 q_f 0\n100 q_f 0\n110 q_f 0\n")
    for path in (cert, legacy):
        assert main(["check", "--system", b2_file, "--certificate", str(path), "--state", "q_2", "--n", "4"]) == 0


@pytest.mark.parametrize(
    "system_text, cert_text, claim, reason",
    [
        (B2_TEXT, B2_DAG.replace("def 1 q_0 1 0", "def 1 q_0 1 2"), ("q_2", 4),
         "def 1 references id 2, a forward reference"),
        # a 0-shift loop would accept a def that derives itself
        ("state q\nfinal q\nunary q +0 q\n", "def 0 q 0 0\ne = 0\n", ("q", 0),
         "def 0 references id 0, a forward reference"),
        (B2_TEXT, B2_DAG.replace("def 2 q_1 2 1 1", "def 2 q_1 2 1 7"), ("q_2", 4),
         "def 2 references unknown id 7"),
        (B2_TEXT, B2_DAG.replace("e = 3", "e = 9"), ("q_2", 4), "graft at root references unknown id 9"),
        (B2_TEXT, B2_DAG.replace("def 0 q_f 0", "def 0 q_0 0"), ("q_2", 4),
         "def 0 is a leaf that is not accepting"),
        (B2_TEXT, B2_DAG + "def 4 q_f 15\n", ("q_2", 4), "counter 15 of def 4 exceeds the bound 14"),
        (B2_TEXT, B2_DAG.replace("def 1 q_0 1 0", "def 1 q_0 2 0"), ("q_2", 4),
         "def 1: no unary transition matches the child"),
        (B2_TEXT, B2_DAG.replace("def 2 q_1 2 1 1", "def 2 q_1 2 0 0"), ("q_2", 4),
         "def 2: no branching transition matches the children"),
        # q_0 -1 q_f and q_2 -> (q_1, q_1) exist, but not from q_1
        (B2_TEXT, "def 0 q_f 0\ndef 1 q_1 1 0\ne = 1\n", ("q_1", 1),
         "def 1: no unary transition matches the child"),
        (B2_TEXT, B2_DAG.replace("def 3 q_2 4", "def 3 q_1 4"), ("q_1", 4),
         "def 3: no branching transition matches the children"),
        (PUMP_TEXT, "def 0 f 0\ndef 1 s 0 0\ndef 2 s 1 1\ne s 0\n0 = 2\npump 0 e 1\n", ("s", 0),
         "graft at 0 sits on a pumped leaf"),
    ],
    ids=["forward", "self", "unknown-def", "unknown-graft", "leaf", "bound", "unary", "branch",
         "unary-other-source", "branch-other-source", "pumped-graft"],
)
def test_check_rejects_tampered_dag(tmp_path, capsys, system_text, cert_text, claim, reason):
    system = tmp_path / "s.bvass"
    system.write_text(system_text)
    cert = tmp_path / "bad.cert"
    cert.write_text(cert_text)
    state, n = claim
    assert main(["check", "--system", str(system), "--certificate", str(cert), "--state", state, "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "NO\n"
    assert captured.err.strip() == reason


def test_check_accepts_pumped_spine_with_graft(tmp_path, capsys):
    system = tmp_path / "s.bvass"
    system.write_text(PUMP_TEXT)
    cert = tmp_path / "ok.cert"
    cert.write_text("def 0 f 0\ndef 1 s 0 0\ne s 0\n0 s 1\n00 s 1\n01 = 1\npump 00 e 1\n")
    assert main(["check", "--system", str(system), "--certificate", str(cert), "--state", "s", "--n", "0"]) == 0


def test_check_huge_counter_is_a_budget_refusal(tmp_path, monkeypatch, capsys):
    # the pump's residue table at 10^20 is charged before its masks exist
    system = tmp_path / "up.bvass"
    system.write_text("state q\nfinal q\nunary q +1 q\n")
    cert = tmp_path / "huge.cert"
    cert.write_text(f"e q {10**20}\n0 q {10**20 + 1}\npump 0 e 1\n")
    args = ["check", "--system", str(system), "--certificate", str(cert), "--state", "q", "--n", str(10**20)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exceeded" in captured.err
    assert main(args + ["--budget", "10"]) == 2
    assert "needs more than 10 table entries" in capsys.readouterr().err
    monkeypatch.setenv("BVASS1_BUDGET", "plenty")
    assert main(args) == 2
    assert "not an integer" in capsys.readouterr().err


def test_check_rejects_empty_certificate(b2_file, tmp_path, capsys):
    cert = tmp_path / "empty.cert"
    cert.write_text("")
    assert main(["check", "--system", b2_file, "--certificate", str(cert), "--state", "q", "--n", "0"]) == 2
    assert "empty tree" in capsys.readouterr().err


def test_check_unknown_state_names_the_line(b2_file, tmp_path, capsys):
    cert = tmp_path / "bad.cert"
    cert.write_text("e q 0\n0 q_2 0\n00 nope 0\n")
    assert main(["check", "--system", b2_file, "--certificate", str(cert), "--state", "q", "--n", "0"]) == 2
    assert "line 3: unknown state 'nope'" in capsys.readouterr().err


def test_decide_no_certificate_on_negative(b2_file, tmp_path, capsys):
    cert = tmp_path / "no.cert"
    args = ["decide", "reach", "--system", b2_file, "--state", "q_2", "--n", "3",
            "--certificate", str(cert)]
    assert main(args) == 1
    assert not cert.exists()


def test_expand_writes_full_tree(tmp_path, capsys):
    system_path = _gen_doubling_file(tmp_path, 3)
    cert = tmp_path / "q0.cert"
    args = [
        "decide", "reach", "--system", system_path, "--state", "q", "--n", "0",
        "--certificate", str(cert), "--expand", "10000",
    ]
    assert main(args) == 0
    expanded = cert.with_name(cert.name + ".expanded")
    assert expanded.exists()
    system = parse_bvass(open(system_path).read())
    tree = tree_from_text(system, expanded.read_text())
    assert tree.labels[""].counter == 0
    assert len(tree.labels) > 8


def test_expand_requires_certificate(b2_file, capsys):
    assert main(["decide", "reach", "--system", b2_file, "--state", "q", "--n", "0", "--expand", "10"]) == 2
    assert "--expand requires --certificate" in capsys.readouterr().err


def test_expand_overflow_keeps_verdict(tmp_path, capsys):
    system = _gen_doubling_file(tmp_path, 12)
    cert = tmp_path / "q0.cert"
    args = [
        "decide", "reach", "--system", system, "--state", "q", "--n", "0",
        "--certificate", str(cert), "--expand", "100",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == "YES\n"
    assert "expansion overflow" in captured.err
    assert cert.exists()
    assert not cert.with_name(cert.name + ".expanded").exists()


# ---------------------------------------------------------------------------
# export-dot


def test_export_dot_single_node(tmp_path, capsys):
    tree = tmp_path / "one.tree"
    tree.write_text("e q 0\n")
    assert main(["export-dot", "--tree", str(tree)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph tree {")
    assert out.count("label=") == 1
    assert "->" not in out


def test_export_dot_chain(tmp_path, capsys):
    tree = tmp_path / "chain.tree"
    tree.write_text("e a 3\n0 a 2\n00 a 1\n000 a 0\n0000 f 0\n")
    assert main(["export-dot", "--tree", str(tree)]) == 0
    out = capsys.readouterr().out
    assert out.count("label=") == 5
    assert out.count("->") == 4
    assert "dashed" not in out


def test_export_dot_marks_anchors(tmp_path, capsys):
    system = _gen_doubling_file(tmp_path, 4)
    cert = tmp_path / "q0.cert"
    args = ["decide", "reach", "--system", system, "--state", "q", "--n", "0", "--certificate", str(cert)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["export-dot", "--tree", str(cert), "--mark-anchors"]) == 0
    out = capsys.readouterr().out
    assert out.count("[style=dashed]") == 1


def test_export_dot_marks_anchor_across_missing_nodes(tmp_path, capsys):
    # the tree need not be prefix-closed: the anchor is the nearest present
    # same-state ancestor with a smaller counter
    tree = tmp_path / "gappy.tree"
    tree.write_text("e q 0\n000 q 1\n")
    assert main(["export-dot", "--tree", str(tree), "--mark-anchors"]) == 0
    out = capsys.readouterr().out
    assert '"e" -> "000" [style=dashed]' in out
    assert out.count("->") == 1


def test_export_dot_draws_each_def_once(tmp_path, capsys):
    cert = tmp_path / "q2.cert"
    cert.write_text(B2_DAG)
    assert main(["export-dot", "--tree", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.count("label=") == 4
    assert '"d3" [label="q_2(4)"];' in out
    # q_1 and q_2 reach the shared def of each half by two edges
    assert out.count('"d2" -> "d1";') == 2 and out.count('"d3" -> "d2";') == 2
    assert out.count("->") == 5


def test_export_dot_grafts_and_anchors_on_the_spine(tmp_path, capsys):
    # the graft leaf 01 = s(1) sits below s(0) but is no pumped leaf
    cert = tmp_path / "s0.cert"
    cert.write_text("def 0 f 0\ndef 1 s 0 0\ndef 2 s 1 1\ne s 0\n0 s 2\n00 s 1\n01 = 2\npump 00 e 1\n")
    assert main(["export-dot", "--tree", str(cert), "--mark-anchors"]) == 0
    out = capsys.readouterr().out
    assert out.count("label=") == 6
    assert '"0" -> "d2";' in out
    assert out.count("[style=dashed]") == 1
    assert '"e" -> "00" [style=dashed];' in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("def 0 q_f 0\ndef 1 q_0 1 3\ne = 1\n", "line 2: def id 3 is not defined on an earlier line"),
        ("def 0 q_f 0\ne = 4\n", "line 2: def id 4 is not defined on an earlier line"),
        ("def x q 0\n", "line 1: bad def id 'x'"),
        ("def 0 q_f 0\ndef 0 q_f 0\n", "line 2: duplicate def id 0"),
        ("def 0 q_f\n", "line 1: expected def <id> <state> <counter> [<child-id> [<child-id>]]"),
        ("def 0 q_f 0\ne = 0\ne q 1\n", "line 3: duplicate address 'e'"),
    ],
)
def test_export_dot_rejects_malformed_dag(tmp_path, capsys, text, message):
    cert = tmp_path / "bad.cert"
    cert.write_text(text)
    assert main(["export-dot", "--tree", str(cert)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_export_dot_rejects_rootless_tree(tmp_path, capsys):
    tree = tmp_path / "bad.tree"
    tree.write_text("0 q 0\n")
    assert main(["export-dot", "--tree", str(tree)]) == 2
    assert "no root" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen


def test_gen_doubling_stdout_parses(capsys):
    assert main(["gen", "doubling", "--n", "2"]) == 0
    system = parse_bvass(capsys.readouterr().out)
    assert system.state_names == ("q", "q_f", "q_0", "q_1", "q_2")


def test_gen_const_entry_comment(capsys):
    assert main(["gen", "const", "--m", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# entry q_m\n")
    parse_bvass(out)


def test_gen_const_rejects_zero(capsys):
    assert main(["gen", "const", "--m", "0"]) == 2
    assert "constant must be >= 1" in capsys.readouterr().err


def test_gen_mcvp_from_circuit_file(tmp_path, capsys):
    circuit = tmp_path / "c.cvp"
    circuit.write_text("T\nF\nOR 1 2\nAND 3 1\n")
    assert main(["gen", "mcvp", "--circuit", str(circuit)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# entry g4\n")
    system = parse_bvass(out)
    assert system.num_states == 4


def test_gen_subsetsum(capsys):
    assert main(["gen", "subsetsum", "--values", "2,5,9", "--target", "11"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# entry q_c1\n")
    parse_bvass(out)


def test_gen_subsetsum_rejects_bad_values(capsys):
    assert main(["gen", "subsetsum", "--values", "2,x", "--target", "3"]) == 2
    capsys.readouterr()
    assert main(["gen", "subsetsum", "--values", "0", "--target", "3"]) == 2
    assert "values must be >= 1" in capsys.readouterr().err


def test_gen_random_rejects_zero_states(capsys):
    argv = ["gen", "random", "--states", "0", "--unary", "1", "--branch", "0", "--finals", "0", "--seed", "1"]
    assert main(argv) == 2
    assert "at least one state" in capsys.readouterr().err


def test_gen_random_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.bvass"
    b = tmp_path / "b.bvass"
    args = ["gen", "random", "--states", "5", "--unary", "8", "--branch", "3", "--finals", "2", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_reach_labels_cap(b2_file, capsys):
    assert main(["oracle", "reach", "--system", b2_file, "--state", "q_2", "--n", "4", "--cap", "8"]) == 0
    assert capsys.readouterr().out == "YES (up to cap 8)\n"
    assert main(["oracle", "reach", "--system", b2_file, "--state", "q_2", "--n", "3", "--cap", "8"]) == 1
    assert capsys.readouterr().out == "NO (up to cap 8)\n"


def test_oracle_residue_and_cover(b2_file, capsys):
    assert main(["oracle", "residue", "--system", b2_file, "--state", "q", "--n", "1", "--d", "2", "--cap", "10"]) == 0
    capsys.readouterr()
    assert main(["oracle", "cover", "--system", b2_file, "--state", "q_2", "--n", "5", "--cap", "40"]) == 1


def test_oracle_unbounded_hint(loop_file, b2_file, capsys):
    assert main(["oracle", "unbounded-hint", "--system", loop_file, "--state", "a", "--cap", "10"]) == 0
    assert capsys.readouterr().out == "unbounded-proven (up to cap 10)\n"
    assert main(["oracle", "unbounded-hint", "--system", b2_file, "--state", "q", "--cap", "3"]) == 1
    assert capsys.readouterr().out == "inconclusive (up to cap 3)\n"


def test_oracle_cap_exceeding_memory_budget(b2_file, capsys):
    assert main(["oracle", "reach", "--system", b2_file, "--state", "q", "--n", "0", "--cap", str(10**9)]) == 2
    assert "memory budget" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["decide", "nonsense", "--system", "x", "--state", "q"]) == 2
    assert main([]) == 2
