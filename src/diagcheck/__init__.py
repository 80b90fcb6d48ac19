"""Commutativity verification for monoid-labeled oriented graphs.

A diagram is an oriented multigraph whose edges carry elements of one monoid;
it commutes when any two same-endpoint paths have equal label products.  The
package verifies this with exact counts of every monoid operation, provides a
brute-force oracle for cross-checking, and generates the worst-case graph
families and adversarial labelings that make the operation counts tight.

Every name in ``__all__`` is exported lazily: its module is imported on the
name's first use (PEP 562), so importing the package, or one of its modules
such as ``diagcheck.cli``, loads no module that the caller does not use.
"""

_EXPORTS = {
    "adversarial": (
        "LabelingPreconditionError", "loop_indicator_labeling", "loop_kernel_labeling", "nz_edge_labeling",
        "nz_pair_labeling", "rhomboid_gap_labeling",
    ),
    "constructions": (
        "LOWER_BOUND_SCALE", "Rhomboid", "TriploidParams", "are_disjoint", "choose_triploid",
        "explicit_rhomboid_family", "greedy_disjoint_rhomboids", "is_rhomboid", "rank_bounds", "triploid",
        "verify_nu_ge",
    ),
    "diagram": (
        "Diagram", "DiagramFormatError", "label_of_sequence", "parse_diagram", "parse_graph", "serialize_diagram",
        "serialize_graph",
    ),
    "errors": ("BudgetExceededError",),
    "graph": (
        "OrientedGraph", "Path", "build", "has_multiple_edges", "has_triangle", "is_2_path_bounded",
        "is_quasi_acyclic", "is_valid_path", "loop_count", "strip_loops",
    ),
    "monoid": (
        "ADDITIVE", "FREE", "AdditiveNumber", "FreeWord", "IntMatrix", "MonoidMismatchError", "eq", "identity",
        "identity_matrix", "matrix", "matrix_monoid", "matrix_unit", "number", "op", "upper_unitriangular", "word",
        "zero_matrix",
    ),
    "oracle": ("oracle_verify", "validate_witness"),
    "verifier": (
        "Counters", "MultiEdgeMismatch", "NonIdentityLoop", "PathMismatch", "RelationTrace", "VerificationReport",
        "bound_eq_checks", "bound_mults", "verify",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:  # a submodule, as ``diagcheck.oracle``
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
