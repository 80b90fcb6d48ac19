"""Commutativity verification for monoid-labeled oriented graphs.

A diagram is an oriented multigraph whose edges carry elements of one monoid;
it commutes when any two same-endpoint paths have equal label products.  The
package verifies this with exact counts of every monoid operation, provides a
brute-force oracle for cross-checking, and generates the worst-case graph
families and adversarial labelings that make the operation counts tight.
"""

from .adversarial import (
    LabelingPreconditionError,
    loop_indicator_labeling,
    loop_kernel_labeling,
    nz_edge_labeling,
    nz_pair_labeling,
    rhomboid_gap_labeling,
)
from .constructions import (
    LOWER_BOUND_SCALE,
    Rhomboid,
    TriploidParams,
    are_disjoint,
    choose_triploid,
    explicit_rhomboid_family,
    greedy_disjoint_rhomboids,
    is_rhomboid,
    rank_bounds,
    triploid,
    verify_nu_ge,
)
from .diagram import (
    Diagram,
    DiagramFormatError,
    label_of_sequence,
    parse_diagram,
    parse_graph,
    serialize_diagram,
    serialize_graph,
)
from .errors import BudgetExceededError
from .graph import (
    OrientedGraph,
    Path,
    build,
    has_multiple_edges,
    has_triangle,
    is_2_path_bounded,
    is_quasi_acyclic,
    is_valid_path,
    loop_count,
    strip_loops,
)
from .monoid import (
    ADDITIVE,
    FREE,
    AdditiveNumber,
    FreeWord,
    IntMatrix,
    MonoidMismatchError,
    eq,
    identity,
    identity_matrix,
    matrix,
    matrix_monoid,
    matrix_unit,
    number,
    op,
    upper_unitriangular,
    word,
    zero_matrix,
)
from .oracle import oracle_verify, validate_witness
from .verifier import (
    Counters,
    MultiEdgeMismatch,
    NonIdentityLoop,
    PathMismatch,
    RelationTrace,
    VerificationReport,
    bound_eq_checks,
    bound_mults,
    verify,
)

__version__ = "0.1.0"
