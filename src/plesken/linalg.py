"""Exact linear algebra over Q(i).

Vectors are sequences of :class:`~plesken.scalars.Scalar`; matrices are
row-major sequences of such rows.  The one exact elimination path is
:func:`rref`, which works on sparse ``{column: entry}`` rows and takes them
fewest nonzeros first.  Its output is still canonical because the reduced
row echelon form of a matrix is unique, whatever order produced it; ranks,
nullspace bases, solutions, inverses and :class:`Subspace` are read off it.
The one other path, :func:`rank_reversed`, is a deliberately different, dense
ordering (right-to-left columns, bottom-up pivots) kept as an independent
cross-check; callers that need a verified rank run both and compare.

There is no matrix product here: the structure maps of an extension are
multiplied on the sparse-column kernel of :mod:`plesken.extensions`, and
representation matrices on the Gaussian-integer kernel of
:mod:`plesken.projreps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch
from .scalars import ONE, ZERO, Scalar

Vector = Sequence[Scalar]
Matrix = Sequence[Sequence[Scalar]]


def zeros(n: int) -> list[Scalar]:
    return [ZERO] * n


def zero_matrix(rows: int, cols: int) -> list[list[Scalar]]:
    return [[ZERO] * cols for _ in range(rows)]


def identity_matrix(n: int) -> list[list[Scalar]]:
    m = zero_matrix(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def vec_is_zero(u: Vector) -> bool:
    return not any(u)


def freeze_matrix(m: Matrix) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in m)


def rref(rows: Iterable[Vector], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Rows are eliminated as ``{column: nonzero entry}`` maps, so the work
    follows the nonzeros.  They are taken fewest nonzeros first (ties go to
    the lowest input index), and each is reduced against the rows kept so
    far, which are always the RREF of the rows taken.  A nonzero residue is
    scaled to lead 1 at its first column and cleared from the kept rows that
    hold that column; a dependent row costs one pass against sparse reduced
    rows.  The RREF of a matrix is unique, so the order changes only the
    work, never the result.
    """
    work = [{j: x for j, x in enumerate(row) if x} for row in rows]
    order = sorted((i for i, row in enumerate(work) if row),
                   key=lambda i: (len(work[i]), i))
    kept: dict[int, dict[int, Scalar]] = {}
    for i in order:
        row = work[i]
        for p in [c for c in row if c in kept]:
            _subtract_multiple(row, row[p], kept[p])
        if not row:
            continue
        lead = min(row)
        piv = row[lead]
        if piv != ONE:
            inv = ONE / piv
            for j in row:
                row[j] = row[j] * inv
        for other in kept.values():
            if lead in other:
                _subtract_multiple(other, other[lead], row)
        kept[lead] = row
    pivots = sorted(kept)
    return [[kept[p].get(j, ZERO) for j in range(ncols)] for p in pivots], pivots


def _subtract_multiple(row: dict[int, Scalar], f: Scalar, other: dict[int, Scalar]) -> None:
    # row -= f * other on sparse rows, dropping entries that cancel
    for j, x in other.items():
        v = row.get(j)
        if v is None:
            row[j] = -(f * x)
        else:
            v = v - f * x
            if v:
                row[j] = v
            else:
                del row[j]


def rank(rows: Iterable[Vector], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def rank_reversed(rows: Iterable[Vector], ncols: int) -> int:
    """Rank by an independent ordering: right-to-left columns, bottom-up pivots.

    Forward elimination only, no pivot normalization.  Exists solely as a
    second opinion for :func:`rank`; do not fold the two together.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    hi = len(m) - 1
    count = 0
    for c in range(ncols - 1, -1, -1):
        pr = next((i for i in range(hi, -1, -1) if m[i][c]), None)
        if pr is None:
            continue
        if pr != hi:
            m[pr], m[hi] = m[hi], m[pr]
        piv_row = m[hi]
        piv = piv_row[c]
        for i in range(hi):
            f = m[i][c]
            if not f:
                continue
            scale = f / piv
            row = m[i]
            for j in range(ncols):
                if piv_row[j]:
                    row[j] = row[j] - scale * piv_row[j]
        count += 1
        hi -= 1
        if hi < 0:
            break
    return count


def nullspace(rows: Iterable[Vector], ncols: int) -> list[list[Scalar]]:
    """Canonical nullspace basis (RREF of the standard free-column vectors)."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = zeros(ncols)
        v[free] = ONE
        for row, pc in zip(red, pivots):
            if row[free]:
                v[pc] = -row[free]
        basis.append(v)
    if not basis:
        return []
    canon, _ = rref(basis, ncols)
    return canon


def solve(a_rows: Iterable[Vector], b: Vector, ncols: int) -> Optional[list[Scalar]]:
    """Canonical solution of A x = b (free variables zero), or None."""
    aug = [list(row) + [bi] for row, bi in zip(a_rows, b)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = zeros(ncols)
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


def invert(m: Matrix) -> Optional[list[list[Scalar]]]:
    n = len(m)
    aug = [list(row) + ident_row for row, ident_row in zip(m, identity_matrix(n))]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        return None
    return [row[n:] for row in red]


def reduce_against(v: Vector, rref_rows: Sequence[Vector], pivots: Sequence[int]) -> list[Scalar]:
    """Subtract the projection of v onto the row space of an RREF basis."""
    out = list(v)
    for row, pc in zip(rref_rows, pivots):
        f = out[pc]
        if not f:
            continue
        for j, x in enumerate(row):
            if x:
                out[j] = out[j] - f * x
    return out


@dataclass(frozen=True)
class Subspace:
    """Subspace given by an RREF basis; the canonical form of a span."""

    ambient_dim: int
    basis: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        rows, _ = rref(vectors, ambient_dim)
        return cls(ambient_dim, freeze_matrix(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x) for row in self.basis]

    def contains(self, vector: Vector) -> bool:
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(vector)} in ambient dim {self.ambient_dim}")
        residue = reduce_against(vector, self.basis, self.pivots())
        return vec_is_zero(residue)
