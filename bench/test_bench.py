"""Tests of the benchmark itself; run with ``python3 -m pytest bench -q``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from speed import REFERENCE_S, Speed

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny_run(workload: str, trace: int, cwd: Path = BENCH_DIR.parent, script: Path = BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _tiny_run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split() for line in lines[:-1]}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][2] == m["unit"], printed[m["name"]]
    assert printed["failed_ratio"][1] == "0.000000"


def test_wrong_expected_verdict_is_counted_as_failed(monkeypatch, capsys):
    assert run.load_library() is not None
    import workloads

    class WrongReferee(workloads.Referee):
        def expected(self, op):
            answer = super().expected(op)
            return None if answer is None else not answer

    monkeypatch.setattr(workloads, "Referee", WrongReferee)
    code = run.main(["--workload", "big-certificate", "--seed", "1", "--seconds", "0.1", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "workloads.py", "speed.py"):
        shutil.copy(BENCH_DIR / name, tmp_path / "bench" / name)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _tiny_run("dense-random", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_child_spans():
    spans = [
        run.Span("op", 0.0, 1.0, -1, 0),
        run.Span("run_query", 0.1, 0.5, 0, 0),
        run.Span("parse_bvass", 0.5, 0.6, 0, 0),
    ]
    assert [round(x, 6) for x in run.self_times_ms(spans)] == [500.0, 400.0, 100.0]


def test_timed_set_up_leaves_the_run_its_own_modules():
    assert run.load_library() is not None
    import workloads

    before = {name: m for name, m in sys.modules.items() if name.startswith("bvass1")}
    assert run.timed_set_up(workloads, "dense-random", 1, True) > 0
    after = {name: m for name, m in sys.modules.items() if name.startswith("bvass1")}
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)


def test_scale_follows_the_reference_loop_near_each_moment():
    speed = Speed()
    # the loop takes the reference time for ten seconds, then twice as long
    speed.times = [float(t) for t in range(20)]
    speed.durations = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert speed.scale(1.0) == 1.0
    assert speed.scale(18.0) == 0.5
    speed.probe()
    assert speed.durations[-1] > 0 and speed.times[-1] > speed.times[-2]
