"""Module boundaries and the public names, read off the sources with ``ast``.

The checkers in ``bvass1.check`` re-verify what the engine hands out, so
they may read artifacts through ``bvass1.model`` only.  The one engine
name they still import is ``residue.ResidueCache``: the certificate and
witness checkers decide their residue and coverability questions through
it.  A test that imports ``bvass1.check`` in a fresh interpreter and lists
``sys.modules`` would show nothing, since importing ``bvass1.check`` runs
``bvass1/__init__``, which loads every engine module.  The system's rules
are resolved, written and checked in ``bvass1.model`` alone.
"""
from __future__ import annotations

import ast
from pathlib import Path

import bvass1
import bvass1.cover_bound

PACKAGE = Path(bvass1.__file__).parent

# bvass1.__all__ as it stands; a change to it is a change to the public contract
PUBLIC_NAMES = [
    "Bvass1",
    "BranchTransition",
    "BudgetExceeded",
    "Certificate",
    "Config",
    "ExpandOverflow",
    "FormatError",
    "NodeClassification",
    "PartialTree",
    "ReachQuery",
    "ResidueCache",
    "ResidueQuery",
    "ResidueTable",
    "SemanticError",
    "UnaryTransition",
    "Witness",
    "WitnessSearchFailed",
    "certificate_from_text",
    "certificate_to_text",
    "check_certificate",
    "check_certificate_report",
    "check_unbounded_witness",
    "classify_nodes",
    "coverable",
    "decide_reach",
    "expand_certificate",
    "extract_certificate",
    "format_bvass",
    "is_exclusive",
    "is_reachability_tree",
    "parse_bvass",
    "residue_reachable",
    "run_batch",
    "run_query",
    "tree_from_text",
    "tree_to_text",
    "unbounded",
    "unbounded_report",
    "validate_bvass",
    "validate_partial_tree",
    "validate_partial_tree_report",
]


def _package_imports(module: str) -> set[tuple[str, str]]:
    """(module, name) for each name the module imports from the package.

    A relative import names its module as written, ".model"; an absolute
    one as "bvass1.model"; ``import bvass1.x`` gives ("bvass1.x", "").
    """
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if node.level or source == "bvass1" or source.startswith("bvass1."):
                found |= {(source, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name, "") for a in node.names if a.name == "bvass1" or a.name.startswith("bvass1.")}
    return found


def test_check_imports_only_the_model_and_the_residue_cache():
    imports = _package_imports("check")
    engine = {(source, name) for source, name in imports if source != ".model"}
    assert engine == {(".residue", "ResidueCache")}
    assert any(source == ".model" for source, _ in imports)


def test_model_imports_nothing_from_the_package():
    assert _package_imports("model") == set()


def _defining_modules(names: set[str]) -> dict[str, list[str]]:
    """Per name, the modules that define it: by a def, or by an assignment
    that would alias it."""
    defined: dict[str, list[str]] = {name: [] for name in names}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                defined[node.name].append(path.stem)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in names:
                        defined[target.id].append(path.stem)
    return defined


def test_checkers_are_defined_in_check_alone():
    checkers = {"check_certificate_report", "_shared_parts_report", "check_unbounded_witness", "check_profile_report"}
    assert _defining_modules(checkers) == {name: ["check"] for name in checkers}


def test_rules_are_resolved_written_and_checked_in_model_alone():
    rules = {"_transition", "_transition_line", "_step_fault"}
    assert _defining_modules(rules) == {name: ["model"] for name in rules}


def test_check_reads_no_transition_table_of_its_own():
    # a step is resolved by model._transition and tested by model._step_fault
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "check.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "transition_sets":
            found.append(("transition_sets", node.lineno))
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("unary", "branching")
        ):
            found.append((node.value.attr, node.lineno))
    assert found == []


def test_public_names_are_pinned_and_resolve():
    assert bvass1.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(bvass1, name) is not None, name
    # the benchmark reads the gain graph builder off its module
    assert callable(bvass1.cover_bound.build_gain_graph)
