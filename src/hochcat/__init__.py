"""Exact cohomology engine for finite category algebras.

Validates finite categories, decides the structural predicates (cancellative,
deterministic, rr-transitive), builds the adjoint category, and certifies by
explicit exact matrices that Hochschild cohomology of the category algebra
agrees with the simplicial cohomology of the adjoint category's nerve, along
with the degree-one refinement relating graded derivations to characters.
"""

from .category import (
    AdjointCategory,
    FiniteCategory,
    PredicateReport,
    RawCategory,
    adjoint_category,
    is_left_cancellative,
    is_left_deterministic,
    is_right_cancellative,
    is_right_deterministic,
    is_rr_transitive,
    predicate_reports,
    validate_category,
)
from .catformat import category_to_text, load_category, parse_category, parse_category_text
from .comparison import (
    TheoremAReport,
    t_map_matrix,
    theorem_a_report,
    verify_section,
    verify_t_chain_identity,
    verify_two_sided_on_relative,
    verify_x_chain_identity,
    x_map_matrix,
)
from .derivations import (
    TheoremBReport,
    character_space,
    graded_derivation_space,
    theorem_b_report,
)
from .fields import FieldSpec
from .fixtures import builtin, group_from_table, poset_from_relation
from .hochschild import (
    hochschild_basis,
    hochschild_cohomology_dims,
    hochschild_differential_matrix,
    relative_basis,
    relative_cohomology_dims,
)
from .matrix import Matrix, Subspace, quotient_dim, restricted_map
from .nerve import (
    simplicial_coboundary_matrix,
    simplicial_cocycle_space,
    simplicial_cohomology_dims,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointCategory",
    "FieldSpec",
    "FiniteCategory",
    "Matrix",
    "PredicateReport",
    "RawCategory",
    "Subspace",
    "TheoremAReport",
    "TheoremBReport",
    "adjoint_category",
    "builtin",
    "category_to_text",
    "character_space",
    "graded_derivation_space",
    "group_from_table",
    "hochschild_basis",
    "hochschild_cohomology_dims",
    "hochschild_differential_matrix",
    "is_left_cancellative",
    "is_left_deterministic",
    "is_right_cancellative",
    "is_right_deterministic",
    "is_rr_transitive",
    "load_category",
    "parse_category",
    "parse_category_text",
    "poset_from_relation",
    "predicate_reports",
    "quotient_dim",
    "relative_basis",
    "relative_cohomology_dims",
    "restricted_map",
    "simplicial_coboundary_matrix",
    "simplicial_cocycle_space",
    "simplicial_cohomology_dims",
    "t_map_matrix",
    "theorem_a_report",
    "theorem_b_report",
    "validate_category",
    "verify_section",
    "verify_t_chain_identity",
    "verify_two_sided_on_relative",
    "verify_x_chain_identity",
    "x_map_matrix",
]
