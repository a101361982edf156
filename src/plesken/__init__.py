"""Exact computational algebra for Plesken Lie algebras of finite groups:
second cohomology, one-dimensional central extensions, and projective
representations, all over the Gaussian rationals.

``import plesken`` loads no submodule.  An exported name is looked up on its
first access (PEP 562) in the submodule that defines it, which that access
imports, and is then kept in this namespace, so ``from plesken import X`` and
``plesken.X`` load only what X needs.
"""

import sys

__version__ = "0.1.0"

# submodule -> the names the package exports from it; ``errors`` is exported
# as the module itself
_EXPORTS = {
    "scalars": ("I", "ONE", "ZERO", "Scalar"),
    "groups": (
        "FiniteGroup",
        "from_cayley_table",
        "from_permutation_generators",
        "group_from_json",
        "group_to_json",
        "preset",
        "self_inverse_count",
    ),
    "liealg": (
        "GroupAlgebraElement",
        "LieAlgebra",
        "PleskenBasis",
        "algebra_from_json",
        "algebra_to_json",
        "bracket",
        "center",
        "derived_subalgebra",
        "from_structure_constants",
        "group_algebra_commutator",
        "hat_element",
        "is_semisimple",
        "killing_form",
        "plesken_algebra",
        "verify_lie_axioms",
    ),
    "linalg": ("Subspace",),
    "cohomology": (
        "BilinearForm",
        "H2Result",
        "LinearFunctional",
        "are_cohomologous",
        "b2_basis",
        "coboundary",
        "form_from_json",
        "form_to_json",
        "functional_from_json",
        "h2",
        "is_cocycle",
        "z2_basis",
    ),
    "extensions": (
        "CentralExtension",
        "SplitResult",
        "cocycle_from_extension",
        "equivalence_map",
        "extension_from_cocycle",
        "extension_from_json",
        "extension_to_json",
        "find_section",
        "is_split",
        "verify_central_extension",
        "verify_equivalence_map",
    ),
    "projreps": (
        "EquivalenceReport",
        "ProjectiveRep",
        "cocycle_from_rep",
        "cohomologous_witness_from_equivalence",
        "lift_linear",
        "projective_rep",
        "rep_from_json",
        "rep_to_json",
        "twist",
        "verify_projective_equivalence",
    ),
    "errors": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "errors"]


def __getattr__(name: str):
    # a submodule holding exported names (``errors`` among them) or a name from
    # one, loaded by ``__import__`` as ``import`` does, which ``-X importtime`` times
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
