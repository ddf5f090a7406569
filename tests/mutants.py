#!/usr/bin/env python3
"""Mutation check: do the tests kill deliberate bugs in the engine and the checker?

Run from the repository root:

    python tests/mutants.py

Each mutant replaces one exact string, which must occur exactly once, in
one file of a temporary copy of ``src/``, and runs the tests named for it
against that copy.  One line per mutant says whether an assertion killed
it, an exception killed it, or it survived.  A mutant marked equivalent
carries the argument why no test can tell it from the original.  The exit
status is nonzero when an unmarked mutant survives, or when a mutant's
string does not occur exactly once.

The file's name does not match ``test_*.py``, so pytest does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it


MUTANTS = (
    Mutant(
        "modulus-1 reading is strict",
        "bvass1/residue.py",
        "return n0 <= self._coverable[state]",
        "return n0 < self._coverable[state]",
        (
            "tests/test_max_coverable.py::test_cache_reads_modulus_1_questions_off_the_kept_values",
            "tests/test_max_coverable.py::test_engine_probe_matches_coverable",
        ),
    ),
    Mutant(
        "kept values read for any modulus",
        "bvass1/residue.py",
        "if d == 1 and n0 <= self._clamp:",
        "if n0 <= self._clamp:",
        ("tests/test_max_coverable.py::test_cache_reads_modulus_1_questions_off_the_kept_values",),
    ),
    Mutant(
        "a narrower clamp narrows the reading",
        "bvass1/residue.py",
        "if clamp > self._clamp:",
        "if clamp >= 0:",
        ("tests/test_max_coverable.py::test_cache_reads_modulus_1_questions_off_the_kept_values",),
    ),
    Mutant(
        "profile closure returns before the kernel runs",
        "bvass1/reach.py",
        "    kernel.run()\n    return all(",
        "    return all(",
        (
            "tests/test_reach.py::test_engine_closure_agrees_with_the_checker_on_tampered_profiles",
            "tests/test_reach.py::test_checker_names_the_failed_clause_of_a_profile",
        ),
    ),
    Mutant(
        "residue fold base off by one",
        "bvass1/residue.py",
        "g = mask << (base % d)",
        "g = mask << ((base + 1) % d)",
        (
            "tests/test_residue.py::test_answer_pins",
            "tests/test_residue.py::test_cache_matches_fresh_on_random_systems",
        ),
    ),
    Mutant(
        "R0 accepts a -1 child at cap + 1",
        "bvass1/residue.py",
        "for m in (cap - 1, cap):",
        "for m in (cap - 1, cap, cap + 1):",
        ("tests/test_residue.py", "tests/test_acceptance.py::test_c5_residue_differential"),
        equivalent="every S mask is clipped to [0, cap] by BoundedReach.add, so bit cap + 1 "
        "is never set and the added iteration adds no residue",
    ),
    Mutant(
        "checker drops the exclusivity clause",
        "bvass1/check.py",
        '    if not exclusive:\n        return False, "pumping segments are not exclusive"\n',
        "",
        ("tests/test_differential.py::test_checker_refuses_clashing_pumps_that_pass_every_other_clause",),
    ),
    Mutant(
        "checker drops the graft-label clause",
        "bvass1/check.py",
        '        if tree.labels[addr] != defs[i][0]:\n            return f"graft at {where} is labelled unlike def {i}"\n',
        "",
        ("tests/test_differential.py::test_checker_refuses_a_graft_labelled_unlike_its_def",),
    ),
)


def verdict(returncode: int, report: Path) -> str:
    """How the tests went: killed by an assertion, killed by an exception, or survived."""
    if returncode == 0:
        return "survived"
    raised = []
    if report.is_file():
        for case in ET.parse(report).getroot().iter("testcase"):
            for bad in list(case.findall("failure")) + list(case.findall("error")):
                message = bad.get("message") or ""
                if bad.tag == "failure" and message.startswith(("AssertionError", "assert ")):
                    return f"killed by an assertion in {case.get('classname')}::{case.get('name')}"
                raised.append(message.split(":")[0] or bad.tag)
    return f"killed by an exception ({raised[0] if raised else f'pytest exit {returncode}'})"


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(prefix="bvass1-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import bvass1; print(bvass1.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(src):
            print(f"the tests would import bvass1 from {where}, not from the copy", file=sys.stderr)
            return 2
        for i, m in enumerate(MUTANTS, 1):
            original = (ROOT / "src" / m.path).read_text()
            if original.count(m.old) != 1:
                print(f"mutant {i} {m.name}: its string occurs {original.count(m.old)} times in {m.path}")
                failed = True
                continue
            target = src / m.path
            target.write_text(original.replace(m.old, m.new))
            report = Path(tmp) / f"mutant{i}.xml"
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *m.tests],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            target.write_text(original)
            outcome = verdict(run.returncode, report)
            if outcome == "survived":
                if m.equivalent:
                    outcome += f", marked equivalent: {m.equivalent}"
                else:
                    failed = True
            print(f"mutant {i} {m.name}: {outcome}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
