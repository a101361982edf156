"""Exact linear algebra over Q(i).

Vectors are sequences of :class:`~plesken.scalars.Scalar`; matrices are
row-major sequences of such rows.  The one exact elimination path,
:func:`_eliminate`, runs in Gaussian integers on sparse rows (:data:`Row`).
A scalar row is cleared once to Gaussian-integer numerators over its own
denominator; :func:`_kernel` takes such rows directly, as
:func:`~plesken.cohomology.z2_basis` and :func:`~plesken.liealg.center`
build them.  Rows are taken fewest nonzeros first against the rows kept so
far, which each carry a positive integer pivot, with their integer content
divided out, and no imaginary product is formed between two real rows.  A
column -> kept-rows index names the kept rows that may hold a new pivot, so
only those are cleared.  The pivot rule is the one difference between the
two uses: :func:`rref` and :meth:`Subspace.from_spanning` take the leftmost
column, so the kept rows are the RREF, which is unique whatever order
produced it.  The one exact solve, :func:`_solve_columns`, reads A X = B
off the RREF of [A | B]; :func:`solve`, :func:`invert` and
:func:`~plesken.extensions.find_section` call it.  :func:`rank` and
the kernels take the column with the fewest kept rows in the index, which
clears less, and :func:`_kernel` then puts the kernel in its canonical
RREF.  Every caller passes the column count, and the elimination stops as
soon as every column holds a pivot: each row left would reduce to zero, so
a tall matrix of full column rank (the brackets spanning [L, L] of a
semisimple L, the center's rows) costs only the rows taken before that.
Only the final rows become scalars, and a
:class:`Subspace` does not even do that: it keeps the kept rows of its RREF
as the elimination leaves them, :meth:`Subspace.contains` and
:meth:`Subspace.complement_rows` reduce on them, visiting only the pivots a
row holds, and its ``Scalar`` basis is made when it is first read.  The one
other path, :func:`rank_reversed`, is a deliberately different, dense
``Scalar`` ordering (right-to-left columns, bottom-up pivots) kept as an
independent cross-check; callers that need a verified rank run both and
compare.

There is no dense matrix product here: :func:`_combine` sums Gaussian-integer
columns for the bracket and for the structure maps of an extension, and
representation matrices are multiplied on the packed kernel of
:mod:`plesken.projreps`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import lshift

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


def freeze_matrix(m: Matrix) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in m)


def rref(rows: Iterable[Vector], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows are eliminated in Gaussian integers by :func:`_eliminate`; only
    the final rows become scalars.
    """
    return _dense(_eliminate(_integer_rows(rows), ncols), ncols)


# -- packed integer vectors -----------------------------------------------------
# Kronecker substitution: a vector of integers is one integer with w-bit slots.


def _width(bound: int) -> int:
    """The least w with every integer of absolute value at most bound inside
    [-2^(w-1), 2^(w-1)), where balanced base-2^w digits are unique."""
    return bound.bit_length() + 1


def _slots(xs: Sequence[int], step: int) -> int:
    """xs packed step bits apart: sum_s xs[s] 2^(step s)."""
    return sum(map(lshift, xs, range(0, step * len(xs), step)))


def _digit(v: int, w: int) -> int:
    """The balanced residue of v modulo 2^w, in [-2^(w-1), 2^(w-1))."""
    x = v & ((1 << w) - 1)
    return x - (1 << w) if x >> (w - 1) else x


def _digits(v: int, count: int, w: int) -> list[int]:
    """The first ``count`` balanced base-2^w digits of v, slot 0 first: the
    integers packed in v, exact when each lies in [-2^(w-1), 2^(w-1))."""
    out = []
    for _ in range(count):
        x = _digit(v, w)
        out.append(x)
        v = (v - x) >> w
    return out


# -- the Gaussian-integer core ---------------------------------------------------
#
# A row is a pair (re, im) of {column: nonzero int} maps, the real and
# imaginary parts of Gaussian-integer numerators over a denominator that the
# row does not keep: elimination needs a row only up to a nonzero multiple.
# A real row has an empty ``im``, and no imaginary product is formed against
# it.  A kept row of an elimination has a positive integer L at its pivot and
# zero at every other pivot; it stands for itself divided by L.

Row = tuple[dict[int, int], dict[int, int]]


def _cleared(row: Vector) -> Row:
    """Numerators of a scalar row over the common denominator of its entries,
    without the zero parts.  Most zeros are the ZERO singleton and are
    skipped by identity; any other zero has zero parts and is dropped."""
    re, im, den = {}, {}, 1
    for j, x in enumerate(row):
        if x is not ZERO:
            d = x.d
            if den % d:
                k = lcm(den, d) // den
                re = {i: k * v for i, v in re.items()}
                im = {i: k * v for i, v in im.items()}
                den *= k
            k = den // d
            if x.a:
                re[j] = k * x.a
            if x.b:
                im[j] = k * x.b
    return re, im


def _combine(pairs) -> dict[int, list[int]]:
    """The nonzero entries {index: [Re, Im]} of the sum of (x + i y) column over
    the (x, y, column) of ``pairs``, a column being (index, Re, Im) triples."""
    acc: dict[int, list[int]] = {}
    for x, y, column in pairs:
        for r, a, b in column:
            s = acc.get(r)
            if s is None:
                acc[r] = [x * a - y * b, x * b + y * a]
            else:
                s[0] += x * a - y * b
                s[1] += x * b + y * a
    return {r: s for r, s in acc.items() if s[0] or s[1]}


def _sums_row(sums: dict[int, list[int]]) -> Row:
    """The row of the {column: [Re, Im]} sums of :func:`_combine`."""
    return ({k: x for k, (x, _) in sums.items() if x},
            {k: y for k, (_, y) in sums.items() if y})


def _integer_rows(rows: Iterable[Vector]) -> list[Row]:
    return [row for row in map(_cleared, rows) if row[0] or row[1]]


def _subtract(target: dict[int, int], c: int, source: dict[int, int]) -> None:
    # target -= c * source, dropping entries that cancel
    get = target.get
    for j, x in source.items():
        v = get(j, 0) - c * x
        if v:
            target[j] = v
        else:
            del target[j]


def _reduce(re: dict[int, int], im: dict[int, int],
            against: Iterable[tuple[int, Row]]) -> Row:
    """Clear the pivot of each (pivot, row) in order from the row (re, im).

    Each step is w <- a w - b r with a = L / g, b = w[p] / g and g the gcd of
    L = r[p] and w[p], so the result is a positive integer times the exact
    residue w - sum w[p] / L r.  Rows must be zero at the pivots before them.
    The maps passed in may be updated in place; use the ones returned.
    """
    for p, (rre, rim) in against:
        fr = re.get(p, 0)
        fi = im.get(p, 0) if im else 0
        if not (fr or fi):
            continue
        lead = rre[p]
        g = gcd(lead, fr, fi)
        a = lead // g
        if a != 1:
            re = {j: a * x for j, x in re.items()}
            if im:
                im = {j: a * x for j, x in im.items()}
        if fr:
            fr //= g
            _subtract(re, fr, rre)
            if rim:
                _subtract(im, fr, rim)
        if fi:
            fi //= g
            _subtract(im, fi, rre)
            if rim:
                _subtract(re, -fi, rim)
    return re, im


def _lead_real(re: dict[int, int], im: dict[int, int], lead: int) -> Row:
    """The nonzero row rescaled to a positive integer at column ``lead``,
    times the conjugate of a complex lead, with its content divided out."""
    a = re.get(lead, 0)
    b = im.get(lead, 0) if im else 0
    if b:
        cre, cim = {}, {}
        for j in re.keys() | im.keys():
            x = re.get(j, 0)
            y = im.get(j, 0)
            u = a * x + b * y
            v = a * y - b * x
            if u:
                cre[j] = u
            if v:
                cim[j] = v
        re, im = cre, cim
    elif a == 1:
        return re, im  # a lead of 1 leaves content 1
    return _primitive(re, im, -1 if a < 0 and not b else 1)


def _primitive(re: dict[int, int], im: dict[int, int], sign: int = 1) -> Row:
    """The row divided by sign times the gcd of its entries."""
    g = sign * gcd(*re.values(), *im.values())
    if g == 1:
        return re, im
    return {j: x // g for j, x in re.items()}, {j: x // g for j, x in im.items()}


def _columns(re: dict[int, int], im: dict[int, int]):
    """The columns where the row (re, im) is nonzero."""
    return re.keys() | im.keys() if im else re.keys()


def _eliminate(rows: list[Row], ncols: int, free: bool = False) -> dict[int, Row]:
    """A reduced form of the rows, whose columns lie below ``ncols``, as
    {pivot: row}: each row is zero at every other pivot, and the rows span
    the row space.

    Rows are taken fewest nonzeros first (ties go to the lowest input index).
    Each is reduced against the rows kept so far; a nonzero residue gets a
    positive integer at its pivot and is cleared from the kept rows that hold
    that column.  A column -> kept pivots index names them without a scan.
    It only grows until its column becomes a pivot, so it may still list rows
    that have lost the column since; those are skipped.  The pivot is the
    residue's leftmost column, so the kept rows are always the RREF of the
    rows taken, which is unique whatever the order.  With ``free`` it is
    instead the residue's column with the fewest rows in the index (ties to
    the lowest column), which clears less but gives a reduced form that
    depends on the order; it serves only the rank and the kernel, which do
    not.  Once every column holds a pivot, every row left would reduce to
    zero, so the elimination stops there with the same kept rows.  The input
    rows taken are updated in place.
    """
    sizes = [len(_columns(re, im)) for re, im in rows]
    order = sorted(range(len(rows)), key=sizes.__getitem__)
    kept: dict[int, Row] = {}
    holders: dict[int, set[int]] = {}
    for i in order:
        re, im = rows[i]
        against = [(p, kept[p]) for p in _columns(re, im) if p in kept]
        if against:
            re, im = _reduce(re, im, against)
            if not (re or im):
                continue
        cols = _columns(re, im)
        if free:
            lead = min(cols, key=lambda c: (len(holders.get(c, ())), c))
        else:
            lead = min(cols)
        row = _lead_real(re, im, lead)  # on the same columns
        touched = {lead}
        for p in holders.pop(lead, ()):
            ore, oim = kept[p]
            if lead in ore or lead in oim:
                kept[p] = _primitive(*_reduce(ore, oim, ((lead, row),)))
                touched.add(p)
        # a cleared row can gain any column of ``row`` and no other
        for c in cols:
            holders.setdefault(c, set()).update(touched)
        kept[lead] = row
        if len(kept) == ncols:
            break
    return kept


def _scalars(row: Row, den: int, ncols: int) -> list[Scalar]:
    """The dense scalar row of ``row`` over the denominator ``den``."""
    re, im = row
    out = [ZERO] * ncols
    if not im:
        for j, x in re.items():
            out[j] = ONE if x == den else Scalar._make(x, 0, den)
        return out
    for j in re.keys() | im.keys():
        x = re.get(j, 0)
        y = im.get(j, 0)
        out[j] = ONE if x == den and not y else Scalar._make(x, y, den)
    return out


def _dense(kept: dict[int, Row], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    pivots = sorted(kept)
    return [_scalars(kept[p], kept[p][0][p], ncols) for p in pivots], pivots


def rank(rows: Iterable[Vector], ncols: int) -> int:
    return len(_eliminate(_integer_rows(rows), ncols, free=True))


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


def _kernel(rows: list[Row], ncols: int) -> dict[int, Row]:
    """Canonical nullspace of nonzero Gaussian-integer rows, which may be
    updated in place, as the kept rows of its RREF: the RREF of the vectors
    L e_f - sum r_p[f] e_p (L/L_p scaling each r_p to the common lead L), one
    per free column f of a free-pivot reduced form of the rows."""
    kept = _eliminate(rows, ncols, free=True)
    users: dict[int, list[int]] = {}
    for p, row in kept.items():
        for j in _columns(*row):
            if j != p:
                users.setdefault(j, []).append(p)
    basis = []
    for free in range(ncols):
        if free in kept:
            continue
        ps = users.get(free, ())
        lead = lcm(*(kept[p][0][p] for p in ps))
        re, im = {free: lead}, {}
        for p in ps:
            pre, pim = kept[p]
            k = lead // pre[p]
            if free in pre:
                re[p] = -k * pre[free]
            if free in pim:
                im[p] = -k * pim[free]
        basis.append((re, im))
    return _eliminate(basis, ncols)


def _solve_columns(a_rows: Iterable[Vector], b_rows: Iterable[Vector], ncols: int,
                   width: int) -> list[list[Scalar]] | int:
    """The canonical X with A X = B (free variables zero), ``ncols`` rows of
    ``width`` entries, from the RREF of [A | B]; or, when there is none, the
    first column of B outside the span of A's, where that RREF first pivots.
    A must have ``ncols`` columns and B ``width``, on equally many rows."""
    a_rows, b_rows = list(a_rows), list(b_rows)
    if (len(a_rows) != len(b_rows) or any(len(a) != ncols for a in a_rows)
            or any(len(b) != width for b in b_rows)):
        raise DimensionMismatch(f"A X = B needs A with {ncols} columns and B with {width}, "
                                f"on equally many rows; got {len(a_rows)} and {len(b_rows)} rows")
    red, pivots = rref([[*a, *b] for a, b in zip(a_rows, b_rows)], ncols + width)
    x = [[ZERO] * width for _ in range(ncols)]
    for row, pc in zip(red, pivots):
        if pc >= ncols:
            return pc - ncols
        x[pc] = row[ncols:]
    return x


def solve(a_rows: Iterable[Vector], b: Vector, ncols: int) -> list[Scalar] | None:
    """Canonical solution of A x = b (free variables zero), or None."""
    x = _solve_columns(a_rows, ([bi] for bi in b), ncols, 1)
    return None if isinstance(x, int) else [xi for xi, in x]


def invert(m: Matrix) -> list[list[Scalar]] | None:
    x = _solve_columns(m, identity_matrix(len(m)), len(m), len(m))
    return None if isinstance(x, int) else x


def _residue(row: Row, rows: dict[int, Row]) -> Row:
    """A new row, a positive multiple of ``row`` less the combination of
    ``rows`` {pivot: row} that clears all their pivots (:func:`_reduce`).
    Each of ``rows`` is zero left of its pivot, so clearing it adds columns
    only to its right: the pivots the row holds are visited leftmost first
    from a heap, which takes each pivot a reduction adds when it appears."""
    re, im = dict(row[0]), dict(row[1])
    heap = [c for c in _columns(re, im) if c in rows]
    heapify(heap)
    queued = set(heap)
    while heap:
        p = heappop(heap)
        if p in re or p in im:
            pivot_row = rows[p]
            re, im = _reduce(re, im, ((p, pivot_row),))
            for c in _columns(*pivot_row):
                if c in rows and c not in queued:
                    queued.add(c)
                    heappush(heap, c)
    return re, im


class Subspace:
    """A subspace of Q(i)^ambient_dim, kept once as its RREF in Gaussian
    integers: {pivot: row} in pivot order, as a leftmost-pivot
    :func:`_eliminate` keeps them.  A row is primitive, L times its RREF row
    for a positive integer L at its pivot, so equal subspaces have equal
    rows.  :attr:`basis`, the RREF of ``Scalar`` rows, is made when first
    read.  :meth:`from_spanning`, :meth:`from_reduced` and :meth:`full`
    build one."""

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        return cls.from_reduced(ambient_dim, _eliminate(_integer_rows(vectors), ambient_dim))

    @classmethod
    def from_reduced(cls, ambient_dim: int, kept: dict[int, Row]) -> "Subspace":
        """The span of the kept rows of a leftmost-pivot :func:`_eliminate`
        or of :func:`_kernel`, its RREF already, stored as they are."""
        space = cls.__new__(cls)
        space.ambient_dim = ambient_dim
        space._kept = dict(sorted(kept.items()))
        return space

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """The whole space; its RREF basis is the identity."""
        return cls.from_reduced(ambient_dim, {j: ({j: 1}, {}) for j in range(ambient_dim)})

    @cached_property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        return freeze_matrix(_dense(self._kept, self.ambient_dim)[0])

    @property
    def dim(self) -> int:
        return len(self._kept)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._kept == other._kept

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def _holds(self, row: Row) -> bool:
        """Whether the Gaussian-integer row lies in the span."""
        return not any(_residue(row, self._kept))

    def contains(self, vector: Vector) -> bool:
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(vector)} in ambient dim {self.ambient_dim}")
        return self._holds(_cleared(vector))

    def complement_rows(self, space: "Subspace") -> list[list[Scalar]]:
        """Rows extending this basis to one of the sum with ``space``: the
        basis vectors of ``space``, in order, reduced against this basis and
        the rows found so far, kept when nonzero and scaled to lead 1.  Each
        is zero on every earlier pivot, so it joins the basis as it stands."""
        rows = dict(self._kept)
        out = []
        for row in space._kept.values():
            re, im = _residue(row, rows)
            if re or im:
                lead = min(_columns(re, im))
                rows[lead] = row = _lead_real(re, im, lead)
                out.append(_scalars(row, row[0][lead], self.ambient_dim))
        return out
