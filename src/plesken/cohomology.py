"""Second cohomology of a Lie algebra with scalar coefficients.

Cocycles are alternating bilinear forms alpha with
alpha([x,y],z) + alpha([y,z],x) + alpha([z,x],y) = 0; coboundaries are the
forms (x,y) -> -sigma([x,y]) for linear functionals sigma.  Both live inside
the space of alternating forms, flattened over the strict upper triangle in
row-major order (0,1), (0,2), ..., (n-2,n-1), so that subspace computations
are canonical.

Sign convention, used consistently by the extension and representation
modules: :func:`are_cohomologous` (alpha, beta) returns sigma with

    alpha(x, y) - beta(x, y) = -sigma([x, y]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalInclusionViolation,
    NotACocycle,
)
from .liealg import LieAlgebra, Subspace
from .linalg import Vector
from .scalars import ONE, ZERO, Scalar


def flat_dim(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the (i, j) entry, i < j, in the flattened upper triangle."""
    if not 0 <= i < j < n:
        raise IndexOutOfRange(f"pair ({i},{j}) out of range for dim {n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """Alternating bilinear form stored by its strict upper triangle.

    ``upper[i]`` holds the entries (i, i+1), ..., (i, n-1); alternation is
    therefore structural, not a runtime invariant to re-check.
    """

    dim: int
    upper: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def zero(cls, dim: int) -> "BilinearForm":
        return cls(dim, tuple(tuple([ZERO] * (dim - 1 - i)) for i in range(max(dim - 1, 0))))

    @classmethod
    def from_entries(cls, dim: int, entries: dict[tuple[int, int], Scalar]) -> "BilinearForm":
        rows = [[ZERO] * (dim - 1 - i) for i in range(max(dim - 1, 0))]
        for (i, j), value in entries.items():
            if not 0 <= i < j < dim:
                raise IndexOutOfRange(f"entry ({i},{j}) out of range for dim {dim}")
            v = value if isinstance(value, Scalar) else Scalar(value)
            rows[i][j - i - 1] = v
        return cls(dim, tuple(tuple(r) for r in rows))

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[Scalar]]) -> "BilinearForm":
        n = len(matrix)
        for i in range(n):
            if matrix[i][i]:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(i + 1, n):
                if matrix[i][j] != -matrix[j][i]:
                    raise ValueError(f"matrix is not alternating at ({i},{j})")
        return cls.from_entries(
            n, {(i, j): matrix[i][j] for i in range(n) for j in range(i + 1, n)})

    @classmethod
    def from_flat(cls, dim: int, flat: Vector) -> "BilinearForm":
        if len(flat) != flat_dim(dim):
            raise DimensionMismatch(
                f"flat vector of length {len(flat)} for dim {dim}")
        rows = []
        pos = 0
        for i in range(max(dim - 1, 0)):
            width = dim - 1 - i
            rows.append(tuple(flat[pos:pos + width]))
            pos += width
        return cls(dim, tuple(rows))

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"entry ({i},{j}) out of range for dim {self.dim}")
        if i == j:
            return ZERO
        if i < j:
            return self.upper[i][j - i - 1]
        return -self.upper[j][i - j - 1]

    def flatten(self) -> list[Scalar]:
        return [x for row in self.upper for x in row]

    def value(self, u: Vector, v: Vector) -> Scalar:
        """alpha(u, v) by bilinear extension."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}")
        acc = ZERO
        for i in range(self.dim):
            row = self.upper[i] if i < self.dim - 1 else ()
            for off, m in enumerate(row):
                if not m:
                    continue
                j = i + 1 + off
                coeff = u[i] * v[j] - u[j] * v[i]
                if coeff:
                    acc = acc + m * coeff
        return acc

    def add(self, other: "BilinearForm") -> "BilinearForm":
        if other.dim != self.dim:
            raise DimensionMismatch(f"forms of dim {self.dim} and {other.dim}")
        return BilinearForm(self.dim, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.upper, other.upper)))

    def sub(self, other: "BilinearForm") -> "BilinearForm":
        return self.add(other.scale(-ONE))

    def scale(self, c: Scalar) -> "BilinearForm":
        return BilinearForm(self.dim, tuple(
            tuple(c * a for a in row) for row in self.upper))

    def is_zero(self) -> bool:
        return not any(x for row in self.upper for x in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return self.dim == other.dim and self.upper == other.upper


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """Linear map into scalars, given by its values on the basis."""

    vector: tuple[Scalar, ...]

    @classmethod
    def zero(cls, dim: int) -> "LinearFunctional":
        return cls(tuple([ZERO] * dim))

    @classmethod
    def of(cls, values: Sequence) -> "LinearFunctional":
        return cls(tuple(x if isinstance(x, Scalar) else Scalar(x) for x in values))

    @property
    def dim(self) -> int:
        return len(self.vector)

    def value(self, u: Vector) -> Scalar:
        acc = ZERO
        for s, x in zip(self.vector, u):
            if s and x:
                acc = acc + s * x
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearFunctional):
            return NotImplemented
        return self.vector == other.vector


@dataclass(frozen=True)
class H2Result:
    """dim H^2 with a canonical set of class representatives."""

    dimension: int
    representatives: tuple[BilinearForm, ...]
    z2: Subspace
    b2: Subspace


def coboundary(algebra: LieAlgebra, sigma: LinearFunctional) -> BilinearForm:
    """The form (x, y) -> -sigma([x, y])."""
    n = algebra.dim
    entries = {}
    for (i, j), c in algebra.brackets.items():
        entries[(i, j)] = -sigma.value(c)
    return BilinearForm.from_entries(n, entries)


def _cocycle_terms(algebra: LieAlgebra, i: int, j: int, k: int):
    """(flat index, coefficient) terms of the cocycle condition on (i, j, k).

    alpha([x_i,x_j],x_k) + alpha([x_j,x_k],x_i) + alpha([x_k,x_i],x_j) is the
    sum of coefficient * flat[index] over the yielded terms; an index may
    repeat.
    """
    n = algebra.dim
    for (a, b, t) in ((i, j, k), (j, k, i), (k, i, j)):
        if a == b:
            continue
        c = algebra.brackets.get((a, b) if a < b else (b, a))
        if c is None:
            continue
        flip = a > b
        for m, cm in enumerate(c):
            if not cm or m == t:
                continue
            if m < t:
                yield pair_index(n, m, t), (-cm if flip else cm)
            else:
                yield pair_index(n, t, m), (cm if flip else -cm)


def _flat_over(algebra: LieAlgebra, alpha: BilinearForm) -> list[Scalar]:
    if alpha.dim != algebra.dim:
        raise DimensionMismatch(
            f"form of dim {alpha.dim} over algebra of dim {algebra.dim}")
    return alpha.flatten()


def _residual(algebra: LieAlgebra, flat: Vector, i: int, j: int, k: int) -> Scalar:
    acc = ZERO
    for idx, c in _cocycle_terms(algebra, i, j, k):
        if flat[idx]:
            acc = acc + c * flat[idx]
    return acc


def cocycle_residual(algebra: LieAlgebra, alpha: BilinearForm,
                     i: int, j: int, k: int) -> Scalar:
    """alpha([x_i,x_j],x_k) + alpha([x_j,x_k],x_i) + alpha([x_k,x_i],x_j)."""
    n = algebra.dim
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"index {idx} out of range for dim {n}")
    return _residual(algebra, _flat_over(algebra, alpha), i, j, k)


def is_cocycle(algebra: LieAlgebra, alpha: BilinearForm
               ) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """True iff all residuals vanish; otherwise the first violating triple."""
    n = algebra.dim
    flat = _flat_over(algebra, alpha)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if _residual(algebra, flat, i, j, k):
                    return False, (i, j, k)
    return True, None


def _constraint_rows(algebra: LieAlgebra) -> list[list[Scalar]]:
    """One linear constraint over the flattened form per basis triple."""
    n = algebra.dim
    nflat = flat_dim(n)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row = None
                for idx, c in _cocycle_terms(algebra, i, j, k):
                    if row is None:
                        row = linalg.zeros(nflat)
                    row[idx] = row[idx] + c
                if row is not None:
                    rows.append(row)
    return rows


def z2_basis(algebra: LieAlgebra) -> Subspace:
    """Cocycle space as a subspace of flattened alternating forms."""
    nflat = flat_dim(algebra.dim)
    rows = _constraint_rows(algebra)
    if not rows:
        return Subspace.from_spanning(nflat, linalg.identity_matrix(nflat))
    return Subspace(nflat, linalg.freeze_matrix(linalg.nullspace(rows, nflat)))


def b2_basis(algebra: LieAlgebra) -> Subspace:
    """Coboundary space: the span of the flattened :func:`coboundary` of each
    basis functional, that is the image of sigma -> (x,y) -> -sigma([x,y])."""
    n = algebra.dim
    generators = [coboundary(algebra, LinearFunctional(tuple(row))).flatten()
                  for row in linalg.identity_matrix(n)]
    return Subspace.from_spanning(flat_dim(n), generators)


def h2(algebra: LieAlgebra) -> H2Result:
    """dim H^2 = dim Z^2 - dim B^2, with canonical class representatives.

    The inclusion B^2 within Z^2 is asserted, not assumed.  Representatives
    are the Z^2 basis vectors reduced, in order, against the B^2 RREF basis
    and the representatives found so far, normalized to lead 1.  Each residue
    is zero on every earlier pivot, so it joins the basis as it stands:
    re-reducing the basis to RREF would give the same residues.
    """
    z2 = z2_basis(algebra)
    b2 = b2_basis(algebra)
    if not all(z2.contains(row) for row in b2.basis):
        raise InternalInclusionViolation(
            "a coboundary fell outside the cocycle space; "
            "the algebra data is inconsistent")
    work = [list(r) for r in b2.basis]
    work_pivots = list(b2.pivots())
    reps = []
    for row in z2.basis:
        residue = linalg.reduce_against(row, work, work_pivots)
        lead = next((t for t, x in enumerate(residue) if x), None)
        if lead is None:
            continue
        piv = residue[lead]
        if piv != ONE:
            residue = [x / piv for x in residue]
        reps.append(BilinearForm.from_flat(algebra.dim, residue))
        work.append(residue)
        work_pivots.append(lead)
    dimension = z2.dim - b2.dim
    if len(reps) != dimension:
        raise InternalInclusionViolation(
            f"representative count {len(reps)} does not match dim H^2 {dimension}")
    return H2Result(dimension=dimension, representatives=tuple(reps),
                    z2=z2, b2=b2)


def are_cohomologous(algebra: LieAlgebra, alpha: BilinearForm,
                     beta: BilinearForm) -> Optional[LinearFunctional]:
    """Return sigma with alpha(x,y) - beta(x,y) = -sigma([x,y]), or None.

    Both inputs must be cocycles.  The solution is the RREF-canonical one
    (free coordinates zero), so equal inputs give the zero functional.
    """
    n = algebra.dim
    for name, form in (("first", alpha), ("second", beta)):
        ok, witness = is_cocycle(algebra, form)
        if not ok:
            raise NotACocycle(f"{name} form is not a cocycle", witness=list(witness))
    rows = []
    rhs = []
    for (i, j), c in sorted(algebra.brackets.items()):
        rows.append(list(c))
        rhs.append(beta.entry(i, j) - alpha.entry(i, j))
    # pairs with zero bracket force nothing; alpha and beta must already agree
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in algebra.brackets:
                if alpha.entry(i, j) != beta.entry(i, j):
                    return None
    if not rows:
        return LinearFunctional.zero(n)
    solution = linalg.solve(rows, rhs, n)
    if solution is None:
        return None
    return LinearFunctional(tuple(solution))


# -- serialization ---------------------------------------------------------------


def form_to_json(form: BilinearForm) -> dict:
    return {"dim": form.dim,
            "upper": [[str(x) for x in row] for row in form.upper]}


def form_from_json(doc: dict) -> BilinearForm:
    dim = int(doc["dim"])
    rows = [tuple(Scalar.parse(s) for s in row) for row in doc.get("upper", [])]
    expected = [dim - 1 - i for i in range(max(dim - 1, 0))]
    if [len(r) for r in rows] != expected:
        raise DimensionMismatch(f"upper-triangle shape does not match dim {dim}")
    return BilinearForm(dim, tuple(rows))


def functional_to_json(sigma: LinearFunctional) -> dict:
    return {"v": [str(x) for x in sigma.vector]}


def functional_from_json(doc: dict) -> LinearFunctional:
    return LinearFunctional(tuple(Scalar.parse(s) for s in doc["v"]))
