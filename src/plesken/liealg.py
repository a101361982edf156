"""Exact Lie algebra core.

A :class:`LieAlgebra` is a dimension plus structure constants over Q(i): for
each basis pair i < j a vector c(i,j) with [x_i, x_j] = sum_k c(i,j)_k x_k.
Antisymmetry is built into the representation; the Jacobi identity is checked
on construction (or on demand via :func:`verify_lie_axioms`).

The Plesken algebra of a finite group G is the span of the elements
g_hat = g - g^-1 inside the group algebra, closed under the commutator.  Its
structure constants are obtained by evaluating the group-algebra commutator
and re-expressing the result in the hat basis; no closed bracket formula is
hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import linalg
from .errors import BadParameter, DimensionMismatch, JacobiViolation
from .groups import FiniteGroup
from .linalg import Vector
from .scalars import ONE, ZERO, Scalar


@dataclass(frozen=True)
class PleskenBasis:
    """Inverse pairs (g, g^-1), one per basis vector g_hat, g the smaller index."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class GroupAlgebraElement:
    """Sparse group-algebra element: element index -> nonzero coefficient."""

    coefficients: dict[int, Scalar]

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.coefficients == other.coefficients


@dataclass(frozen=True)
class Subspace:
    """Subspace given by an RREF basis; the canonical form of a span."""

    ambient_dim: int
    basis: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        rows, _ = linalg.rref(vectors, ambient_dim)
        return cls(ambient_dim, linalg.freeze_matrix(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x) for row in self.basis]

    def contains(self, vector: Vector) -> bool:
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(vector)} in ambient dim {self.ambient_dim}")
        residue = linalg.reduce_against(vector, self.basis, self.pivots())
        return linalg.vec_is_zero(residue)


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Finite-dimensional Lie algebra with exact structure constants."""

    dim: int
    brackets: dict[tuple[int, int], tuple[Scalar, ...]]
    basis_labels: tuple[str, ...]
    provenance: Optional[tuple[FiniteGroup, PleskenBasis]] = field(
        default=None, compare=False)

    def structure(self, i: int, j: int) -> tuple[Scalar, ...]:
        """Bracket [x_i, x_j] as a coordinate vector, any index order."""
        if i == j:
            return tuple([ZERO] * self.dim)
        if i < j:
            vec = self.brackets.get((i, j))
            return vec if vec is not None else tuple([ZERO] * self.dim)
        vec = self.brackets.get((j, i))
        if vec is None:
            return tuple([ZERO] * self.dim)
        return tuple(-x for x in vec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.dim == other.dim and self.brackets == other.brackets
                and self.basis_labels == other.basis_labels)


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


def _normalize_table(dim: int, table) -> dict[tuple[int, int], tuple[Scalar, ...]]:
    brackets: dict[tuple[int, int], tuple[Scalar, ...]] = {}
    for (i, j), vec in table.items():
        if not (0 <= i < j < dim):
            raise BadParameter(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
        v = tuple(x if isinstance(x, Scalar) else Scalar(x) for x in vec)
        if len(v) != dim:
            raise BadParameter(f"bracket vector for ({i},{j}) has length {len(v)}")
        if any(v):
            brackets[(i, j)] = v
    return brackets


def from_structure_constants(dim: int, table,
                             labels: Optional[Sequence[str]] = None,
                             force: bool = False) -> LieAlgebra:
    """Build an algebra from a bracket table, refusing non-Jacobi data.

    ``table`` maps (i, j) with i < j to length-``dim`` coefficient vectors;
    missing pairs mean zero bracket.  ``force=True`` skips the Jacobi check.
    """
    if dim < 0:
        raise BadParameter(f"dimension must be non-negative, got {dim}")
    brackets = _normalize_table(dim, table)
    lab = tuple(labels) if labels is not None else _default_labels(dim)
    if len(lab) != dim:
        raise BadParameter(f"{len(lab)} labels for dimension {dim}")
    algebra = LieAlgebra(dim=dim, brackets=brackets, basis_labels=lab)
    if not force:
        failures = verify_lie_axioms(algebra)
        if failures:
            i, j, k, residual = failures[0]
            raise JacobiViolation(
                f"Jacobi identity fails on basis triple ({i},{j},{k})",
                witness=[i, j, k, [str(x) for x in residual]])
    return algebra


def bracket(algebra: LieAlgebra, u: Vector, v: Vector) -> list[Scalar]:
    """Bilinear extension of the structure constants to coordinate vectors."""
    n = algebra.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatch(
            f"expected vectors of length {n}, got {len(u)} and {len(v)}")
    out = linalg.zeros(n)
    for (i, j), c in algebra.brackets.items():
        coeff = u[i] * v[j] - u[j] * v[i]
        if coeff:
            for k, ck in enumerate(c):
                if ck:
                    out[k] = out[k] + coeff * ck
    return out


def _bracket_with_basis(algebra: LieAlgebra, u: Vector, k: int) -> list[Scalar]:
    # [u, x_k] without building a basis vector
    out = linalg.zeros(algebra.dim)
    for i, ui in enumerate(u):
        if not ui:
            continue
        c = algebra.structure(i, k)
        for t, ct in enumerate(c):
            if ct:
                out[t] = out[t] + ui * ct
    return out


def jacobi_residual(algebra: LieAlgebra, i: int, j: int, k: int) -> list[Scalar]:
    """[[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j] as a vector."""
    total = linalg.zeros(algebra.dim)
    for (a, b, t) in ((i, j, k), (j, k, i), (k, i, j)):
        term = _bracket_with_basis(algebra, algebra.structure(a, b), t)
        total = linalg.vec_add(total, term)
    return total


def verify_lie_axioms(algebra: LieAlgebra) -> list[tuple[int, int, int, tuple[Scalar, ...]]]:
    """All basis triples violating Jacobi; empty means the data is a Lie algebra."""
    failures = []
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                residual = jacobi_residual(algebra, i, j, k)
                if any(residual):
                    failures.append((i, j, k, tuple(residual)))
    return failures


# -- group algebra ------------------------------------------------------------


def hat_element(group: FiniteGroup, g: int) -> GroupAlgebraElement:
    """g_hat = g - g^-1; the zero element when g is self-inverse."""
    gi = group.inverse[g]
    if gi == g:
        return GroupAlgebraElement({})
    return GroupAlgebraElement({g: ONE, gi: -ONE})


def group_algebra_commutator(group: FiniteGroup, u: GroupAlgebraElement,
                             v: GroupAlgebraElement) -> GroupAlgebraElement:
    """u v - v u by convolution over the Cayley table.

    This is the definition the Plesken construction is checked against.
    """
    table = group.table
    out: dict[int, Scalar] = {}
    for a, ca in u.coefficients.items():
        for b, cb in v.coefficients.items():
            coeff = ca * cb
            k = table[a][b]
            out[k] = out.get(k, ZERO) + coeff
            k = table[b][a]
            out[k] = out.get(k, ZERO) - coeff
    return GroupAlgebraElement({g: c for g, c in out.items() if c})


def plesken_pairs(group: FiniteGroup) -> tuple[tuple[int, int], ...]:
    pairs = []
    seen = set()
    for g in group.elements():
        gi = group.inverse[g]
        if gi == g or g in seen:
            continue
        seen.add(g)
        seen.add(gi)
        pairs.append((g, gi))
    return tuple(pairs)


def hat_coordinates(group: FiniteGroup, element: GroupAlgebraElement,
                    basis: PleskenBasis) -> list[Scalar]:
    """Express a group-algebra element in the hat basis.

    Raises ValueError when the element is outside the span: nonzero weight on
    a self-inverse element, or pair weights that are not opposite.
    """
    coords = []
    coeffs = element.coefficients
    for g, gi in basis.pairs:
        cg = coeffs.get(g, ZERO)
        if coeffs.get(gi, ZERO) != -cg:
            raise ValueError(
                f"element is not in the hat span: pair ({g},{gi}) weights differ")
        coords.append(cg)
    pair_members = {g for pair in basis.pairs for g in pair}
    for g in coeffs:
        if g not in pair_members:
            raise ValueError(
                f"element is not in the hat span: weight on self-inverse element {g}")
    return coords


def plesken_algebra(group: FiniteGroup) -> tuple[LieAlgebra, PleskenBasis]:
    """Plesken Lie algebra of a finite group, with its hat basis.

    Structure constants come from evaluating the group-algebra commutator of
    hat elements and re-expressing it in the hat basis; every commutator of
    hat elements lies in their span, so the coordinates always exist.
    """
    pairs = plesken_pairs(group)
    basis = PleskenBasis(pairs)
    n = len(pairs)
    brackets: dict[tuple[int, int], tuple[Scalar, ...]] = {}
    for i in range(n):
        ui = hat_element(group, pairs[i][0])
        for j in range(i + 1, n):
            w = group_algebra_commutator(group, ui, hat_element(group, pairs[j][0]))
            vec = hat_coordinates(group, w, basis)
            if any(vec):
                brackets[(i, j)] = tuple(vec)
    labels = tuple(f"hat({group.label(g)})" for g, _ in pairs)
    algebra = LieAlgebra(dim=n, brackets=brackets, basis_labels=labels,
                         provenance=(group, basis))
    return algebra, basis


# -- structural probes ---------------------------------------------------------


def center(algebra: LieAlgebra) -> Subspace:
    """{v : [v, x_j] = 0 for all j}, as the nullspace of the stacked adjoints."""
    n = algebra.dim
    rows = []
    for j in range(n):
        for k in range(n):
            row = [algebra.structure(i, j)[k] for i in range(n)]
            if any(row):
                rows.append(row)
    if not rows:
        return Subspace.from_spanning(n, linalg.identity_matrix(n))
    null = linalg.nullspace(rows, n)
    return Subspace(n, linalg.freeze_matrix(null))


def derived_subalgebra(algebra: LieAlgebra) -> Subspace:
    """Span of all basis brackets [x_i, x_j], i < j."""
    vectors = [list(v) for v in algebra.brackets.values()]
    return Subspace.from_spanning(algebra.dim, vectors)


def ad_matrix(algebra: LieAlgebra, i: int) -> list[list[Scalar]]:
    """Matrix of ad x_i: column j holds the coordinates of [x_i, x_j]."""
    n = algebra.dim
    mat = linalg.zero_matrix(n, n)
    for j in range(n):
        c = algebra.structure(i, j)
        for k in range(n):
            if c[k]:
                mat[k][j] = c[k]
    return mat


def killing_form(algebra: LieAlgebra) -> list[list[Scalar]]:
    """K(i,j) = trace(ad x_i composed with ad x_j); always symmetric."""
    n = algebra.dim
    ads = [ad_matrix(algebra, i) for i in range(n)]
    out = linalg.zero_matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            acc = ZERO
            a, b = ads[i], ads[j]
            for r in range(n):
                for s in range(n):
                    if a[r][s] and b[s][r]:
                        acc = acc + a[r][s] * b[s][r]
            out[i][j] = acc
            out[j][i] = acc
    return out


def is_semisimple(algebra: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    return bool(linalg.det(killing_form(algebra)))


# -- serialization --------------------------------------------------------------


def algebra_to_json(algebra: LieAlgebra) -> dict:
    entries = []
    for (i, j) in sorted(algebra.brackets):
        entries.append({"i": i, "j": j,
                        "c": [str(x) for x in algebra.brackets[(i, j)]]})
    return {"dim": algebra.dim, "labels": list(algebra.basis_labels),
            "brackets": entries}


def algebra_from_json(doc: dict, force: bool = False) -> LieAlgebra:
    dim = int(doc["dim"])
    table = {}
    for entry in doc.get("brackets", []):
        i, j = int(entry["i"]), int(entry["j"])
        table[(i, j)] = [Scalar.parse(s) for s in entry["c"]]
    return from_structure_constants(dim, table, labels=doc.get("labels"),
                                    force=force)
