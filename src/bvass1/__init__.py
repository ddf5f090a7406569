"""Decision procedures for one-dimensional branching counter systems.

The package decides reachability, coverability and boundedness for
systems whose configurations pair a control state with one natural
counter and whose branching transitions split the counter between two
subderivations.  Positive reachability answers come with certificates
that a separate checker (``check``) validates without rerunning the
solver.
"""
from __future__ import annotations

from .model import (
    Bvass1,
    BranchTransition,
    BudgetExceeded,
    Certificate,
    Config,
    FormatError,
    NodeClassification,
    PartialTree,
    SemanticError,
    UnaryTransition,
    Witness,
    certificate_from_text,
    certificate_to_text,
    classify_nodes,
    format_bvass,
    is_exclusive,
    is_reachability_tree,
    parse_bvass,
    tree_from_text,
    tree_to_text,
    validate_bvass,
    validate_partial_tree,
    validate_partial_tree_report,
)
from .residue import ResidueCache, ResidueQuery, ResidueTable, residue_reachable
from .reach import (
    ExpandOverflow,
    ReachQuery,
    WitnessSearchFailed,
    decide_reach,
    expand_certificate,
    extract_certificate,
    run_batch,
    run_query,
)
from .cover_bound import coverable, unbounded, unbounded_report
from .check import check_certificate, check_certificate_report, check_unbounded_witness

__all__ = [
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

__version__ = "0.1.0"
