"""Exact linear algebra over Q(i).

Vectors are sequences of :class:`~plesken.scalars.Scalar`; matrices are
row-major sequences of such rows.  The primary elimination path is
division-based Gauss-Jordan choosing the lexicographically earliest nonzero
pivot (first eligible row, left-to-right columns), which makes every reduced
object canonical.  :func:`rank_reversed` is a deliberately different
elimination ordering kept as an independent cross-check path; callers that
need a verified rank run both and compare.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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


def vec_add(u: Vector, v: Vector) -> list[Scalar]:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Vector, v: Vector) -> list[Scalar]:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Scalar, u: Vector) -> list[Scalar]:
    return [c * a for a in u]


def vec_is_zero(u: Vector) -> bool:
    return not any(u)


def vec_eq(u: Vector, v: Vector) -> bool:
    return len(u) == len(v) and all(a == b for a, b in zip(u, v))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(vec_eq(x, y) for x, y in zip(a, b))


def mat_vec(m: Matrix, v: Vector) -> list[Scalar]:
    out = []
    for row in m:
        acc = ZERO
        for c, x in zip(row, v):
            if c and x:
                acc = acc + c * x
        out.append(acc)
    return out


def mat_mul(a: Matrix, b: Matrix) -> list[list[Scalar]]:
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            orow.append(acc)
        out.append(orow)
    return out


def freeze_matrix(m: Matrix) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in m)


def rref(rows: Iterable[Vector], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv != ONE:
            m[r] = [x / piv for x in m[r]]
        pivot_row = m[r]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if not f:
                continue
            row = m[i]
            for j in range(c, ncols):
                if pivot_row[j]:
                    row[j] = row[j] - f * pivot_row[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


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


def det(m: Matrix) -> Scalar:
    n = len(m)
    work = [list(row) for row in m]
    sign = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        piv = work[c][c]
        for i in range(c + 1, n):
            f = work[i][c]
            if not f:
                continue
            scale = f / piv
            row = work[i]
            prow = work[c]
            for j in range(c, n):
                if prow[j]:
                    row[j] = row[j] - scale * prow[j]
    result = ONE if sign > 0 else -ONE
    for i in range(n):
        result = result * work[i][i]
    return result


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
