"""One-dimensional central extensions of a Lie algebra.

A :class:`CentralExtension` bundles a total algebra e of dim n+1 over a base
of dim n with the injection vector f (image of 1 in the scalar kernel), the
projection matrix g, and an optional section s with g s = I.  The two
directions of the cocycle/extension correspondence are:

* :func:`extension_from_cocycle` builds e = base + scalar line with bracket
  [(x,c),(y,d)] = ([x,y], alpha(x,y));
* :func:`cocycle_from_extension` recovers alpha(x,y) = [s x, s y] - s [x,y]
  from any section s.

Equivalence of two extensions over the same base is decided through
cohomology of the extracted cocycles and realized by an explicit commuting
isomorphism, never by a generic isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .cohomology import BilinearForm, are_cohomologous, is_cocycle
from .errors import (
    BaseMismatch,
    DefectNotInKernel,
    NoSection,
    NotACocycle,
)
from .liealg import (
    LieAlgebra,
    _bracket_with_basis,
    algebra_from_json,
    algebra_to_json,
    bracket,
    from_structure_constants,
)
from .linalg import Matrix, Vector
from .scalars import ONE, ZERO, Scalar


@dataclass(frozen=True, eq=False)
class CentralExtension:
    """Total algebra e with injection f, projection g, optional section s."""

    total: LieAlgebra
    base: LieAlgebra
    injection_f: tuple[Scalar, ...]
    projection_g: tuple[tuple[Scalar, ...], ...]
    section_s: Optional[tuple[tuple[Scalar, ...], ...]] = None


def extension_from_cocycle(base: LieAlgebra, alpha: BilinearForm) -> CentralExtension:
    """Central extension of ``base`` by the scalar line along a cocycle.

    The total algebra is base + one central coordinate (last index) with
    [(x,c),(y,d)] = ([x,y], alpha(x,y)); f(c) = (0,c), g(x,c) = x, and the
    canonical section s(x) = (x,0) is stored.
    """
    n = base.dim
    ok, witness = is_cocycle(base, alpha)
    if not ok:
        raise NotACocycle("form fails the cocycle condition", witness=list(witness))
    table: dict[tuple[int, int], list[Scalar]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = list(base.structure(i, j)) + [alpha.entry(i, j)]
            if any(vec):
                table[(i, j)] = vec
    total = from_structure_constants(
        n + 1, table, labels=tuple(base.basis_labels) + ("z",), force=True)
    injection = tuple([ZERO] * n + [ONE])
    projection = tuple(tuple(ONE if r == c else ZERO for c in range(n + 1))
                       for r in range(n))
    section = tuple(tuple(ONE if r == c else ZERO for c in range(n))
                    for r in range(n + 1))
    return CentralExtension(total=total, base=base, injection_f=injection,
                            projection_g=projection, section_s=section)


def verify_central_extension(ext: CentralExtension) -> list[str]:
    """Exactness, homomorphism, and centrality checks; empty list means valid."""
    failures = []
    n = ext.base.dim
    total = ext.total
    if total.dim != n + 1:
        return [f"total dim {total.dim} is not base dim {n} + 1"]
    f = ext.injection_f
    g = ext.projection_g
    if linalg.vec_is_zero(f):
        failures.append("injection vector is zero")
    # f is a homomorphism from the abelian line: [f, f] = 0
    if any(bracket(total, f, f)):
        failures.append("injection bracket [f,f] is nonzero")
    # g is a homomorphism on all total basis pairs
    for i, j, defect in _homomorphism_defects(g, total, ext.base):
        if any(defect):
            failures.append(f"projection is not a homomorphism at ({i},{j})")
    # exactness: g f = 0 and rank g = n, so ker g = span f
    if any(linalg.mat_vec(g, f)):
        failures.append("g(f) is nonzero; image of f is not in ker g")
    if linalg.rank(g, n + 1) != n:
        failures.append("projection is not surjective")
    # centrality of the kernel line inside the total algebra
    for j in range(n + 1):
        if any(_bracket_with_basis(total, f, j)):
            failures.append(f"kernel line is not central: [f, x_{j}] != 0")
    if ext.section_s is not None:
        gs = linalg.mat_mul(g, ext.section_s)
        if not linalg.mat_eq(gs, linalg.identity_matrix(n)):
            failures.append("stored section does not satisfy g s = I")
    return failures


def _homomorphism_defects(m: Matrix, source: LieAlgebra, target: LieAlgebra):
    """(i, j, [M e_i, M e_j] - M [e_i, e_j]) for i < j, M mapping source to target.

    M is a homomorphism exactly when every defect is zero.
    """
    cols = [[row[c] for row in m] for c in range(source.dim)]
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            yield i, j, linalg.vec_sub(bracket(target, cols[i], cols[j]),
                                       linalg.mat_vec(m, source.structure(i, j)))


def find_section(ext: CentralExtension) -> list[list[Scalar]]:
    """Deterministic linear right-inverse of the projection.

    Solves g s = I column by column, taking the RREF-canonical solution each
    time; for extensions built from a cocycle this reproduces s(x) = (x, 0).
    """
    n = ext.base.dim
    cols = []
    for j, e_j in enumerate(linalg.identity_matrix(n)):
        col = linalg.solve(ext.projection_g, e_j, n + 1)
        if col is None:
            raise NoSection(f"projection has no right inverse at column {j}",
                            witness=j)
        cols.append(col)
    return [[cols[j][r] for j in range(n)] for r in range(n + 1)]


def _kernel_coefficient(ext: CentralExtension, vector: Vector) -> Scalar:
    """Coefficient c with vector = c * injection_f; error when not a multiple."""
    f = ext.injection_f
    lead = next((t for t, x in enumerate(f) if x), None)
    if lead is None:
        raise DefectNotInKernel("injection vector is zero")
    c = vector[lead] / f[lead]
    if not linalg.vec_eq(list(vector), linalg.vec_scale(c, f)):
        raise DefectNotInKernel(
            "vector is not a scalar multiple of the injection",
            witness=[str(x) for x in vector])
    return c


def cocycle_from_extension(ext: CentralExtension,
                           section: Matrix) -> BilinearForm:
    """alpha(x_i, x_j) = [s x_i, s x_j] - s [x_i, x_j], read off the kernel line."""
    n = ext.base.dim
    gs = linalg.mat_mul(ext.projection_g, section)
    if not linalg.mat_eq(gs, linalg.identity_matrix(n)):
        raise NoSection("given map is not a section: g s != I")
    entries = {(i, j): _kernel_coefficient(ext, defect)
               for i, j, defect in _homomorphism_defects(section, ext.base, ext.total)}
    alpha = BilinearForm.from_entries(n, entries)
    ok, witness = is_cocycle(ext.base, alpha)
    if not ok:
        raise NotACocycle(
            "extracted form is not a cocycle; the input is not a valid "
            "central extension", witness=list(witness))
    return alpha


def equivalence_map(ext1: CentralExtension,
                    ext2: CentralExtension) -> Optional[list[list[Scalar]]]:
    """Commuting isomorphism between two extensions of the same base, or None.

    Extracts both cocycles through canonical sections; when they are
    cohomologous via sigma, maps c*f1 + s1(y) to c*f2 + s2(y) + sigma(y)*f2.
    """
    base = ext1.base
    if (base.dim != ext2.base.dim or base.brackets != ext2.base.brackets):
        raise BaseMismatch("extensions are not over the same base algebra")
    s1 = find_section(ext1)
    s2 = find_section(ext2)
    alpha = cocycle_from_extension(ext1, s1)
    beta = cocycle_from_extension(ext2, s2)
    sigma = are_cohomologous(base, alpha, beta)
    if sigma is None:
        return None
    n = base.dim
    f2 = ext2.injection_f
    phi_cols = []
    for ek in linalg.identity_matrix(n + 1):
        y = linalg.mat_vec(ext1.projection_g, ek)
        residue = linalg.vec_sub(ek, linalg.mat_vec(s1, y))
        c = _kernel_coefficient(ext1, residue)
        col = linalg.mat_vec(s2, y)
        shift = c + sigma.value(y)
        if shift:
            col = linalg.vec_add(col, linalg.vec_scale(shift, f2))
        phi_cols.append(col)
    return [[phi_cols[k][r] for k in range(n + 1)] for r in range(n + 1)]


def verify_equivalence_map(ext1: CentralExtension, ext2: CentralExtension,
                           phi: Matrix) -> list[str]:
    """Check phi: homomorphism, phi f1 = f2, g2 phi = g1, invertible."""
    failures = []
    n1 = ext1.total.dim
    if len(phi) != n1 or any(len(row) != n1 for row in phi):
        return [f"phi must be {n1} x {n1}"]
    for i, j, defect in _homomorphism_defects(phi, ext1.total, ext2.total):
        if any(defect):
            failures.append(f"phi is not a homomorphism at ({i},{j})")
    if not linalg.vec_eq(linalg.mat_vec(phi, ext1.injection_f),
                         list(ext2.injection_f)):
        failures.append("phi does not carry the first injection to the second")
    if not linalg.mat_eq(linalg.mat_mul(ext2.projection_g, phi),
                         [list(r) for r in ext1.projection_g]):
        failures.append("g2 phi differs from g1")
    if linalg.rank(phi, n1) != n1:
        failures.append("phi is not invertible")
    return failures


@dataclass(frozen=True)
class SplitResult:
    """Split decision with a verified homomorphic section when split."""

    split: bool
    section: Optional[tuple[tuple[Scalar, ...], ...]]

    def __bool__(self) -> bool:
        return self.split


def is_split(ext: CentralExtension) -> SplitResult:
    """True iff the extracted cocycle is a coboundary.

    When split, returns the homomorphic section s'(x) = s(x) - sigma(x) f,
    where sigma trivializes the cocycle; the witness is re-verified to be a
    homomorphism before being returned.
    """
    base = ext.base
    section = find_section(ext)
    alpha = cocycle_from_extension(ext, section)
    sigma = are_cohomologous(base, alpha, BilinearForm.zero(base.dim))
    if sigma is None:
        return SplitResult(split=False, section=None)
    n = base.dim
    f = ext.injection_f
    witness = [[section[r][j] - sigma.vector[j] * f[r] for j in range(n)]
               for r in range(n + 1)]
    for i, j, defect in _homomorphism_defects(witness, base, ext.total):
        if any(defect):
            raise DefectNotInKernel(
                "split witness failed the homomorphism check; "
                "extension data is inconsistent", witness=[i, j])
    return SplitResult(split=True, section=linalg.freeze_matrix(witness))


# -- serialization -----------------------------------------------------------------


def extension_to_json(ext: CentralExtension) -> dict:
    doc = {
        "base": algebra_to_json(ext.base),
        "total": algebra_to_json(ext.total),
        "f": [str(x) for x in ext.injection_f],
        "g": [[str(x) for x in row] for row in ext.projection_g],
        "s": None,
    }
    if ext.section_s is not None:
        doc["s"] = [[str(x) for x in row] for row in ext.section_s]
    return doc


def extension_from_json(doc: dict) -> CentralExtension:
    base = algebra_from_json(doc["base"])
    total = algebra_from_json(doc["total"])
    f = tuple(Scalar.parse(s) for s in doc["f"])
    g = tuple(tuple(Scalar.parse(s) for s in row) for row in doc["g"])
    s = None
    if doc.get("s") is not None:
        s = tuple(tuple(Scalar.parse(x) for x in row) for row in doc["s"])
    ext = CentralExtension(total=total, base=base, injection_f=f,
                           projection_g=g, section_s=s)
    failures = verify_central_extension(ext)
    if failures:
        raise DefectNotInKernel(
            "document is not a valid central extension: " + failures[0],
            witness=failures)
    return ext
