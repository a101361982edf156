"""Exact computational algebra for Plesken Lie algebras of finite groups:
second cohomology, one-dimensional central extensions, and projective
representations, all over the Gaussian rationals."""

from .scalars import I, ONE, ZERO, Scalar
from .groups import (
    FiniteGroup,
    from_cayley_table,
    from_matrix_generators_mod_p,
    from_permutation_generators,
    group_from_json,
    group_to_json,
    preset,
    self_inverse_count,
)
from .liealg import (
    GroupAlgebraElement,
    LieAlgebra,
    PleskenBasis,
    algebra_from_json,
    algebra_to_json,
    bracket,
    center,
    derived_subalgebra,
    from_structure_constants,
    group_algebra_commutator,
    hat_element,
    is_semisimple,
    killing_form,
    plesken_algebra,
    verify_lie_axioms,
)
from .linalg import Subspace
from .cohomology import (
    BilinearForm,
    H2Result,
    LinearFunctional,
    are_cohomologous,
    b2_basis,
    coboundary,
    cocycle_residual,
    form_from_json,
    form_to_json,
    functional_from_json,
    functional_to_json,
    h2,
    is_cocycle,
    z2_basis,
)
from .extensions import (
    CentralExtension,
    SplitResult,
    cocycle_from_extension,
    equivalence_map,
    extension_from_cocycle,
    extension_from_json,
    extension_to_json,
    find_section,
    is_split,
    verify_central_extension,
    verify_equivalence_map,
)
from .projreps import (
    EquivalenceReport,
    ProjectiveRep,
    cocycle_from_rep,
    cohomologous_witness_from_equivalence,
    lift_linear,
    projective_rep,
    rep_from_json,
    rep_to_json,
    twist,
    validate_alpha_rep,
    verify_projective_equivalence,
)
from . import errors

__version__ = "0.1.0"
