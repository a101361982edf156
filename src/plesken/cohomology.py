"""Second cohomology of a Lie algebra with scalar coefficients.

Cocycles are alternating bilinear forms alpha with
alpha([x,y],z) + alpha([y,z],x) + alpha([z,x],y) = 0; coboundaries are the
forms (x,y) -> -sigma([x,y]) for linear functionals sigma.  Both live inside
the space of alternating forms, flattened over the strict upper triangle in
row-major order (0,1), (0,2), ..., (n-2,n-1), so that subspace computations
are canonical.  A :class:`BilinearForm` stores that flat vector too, so forms
and subspaces share one layout.  The cocycle condition on a triple is the sum
over :func:`~plesken.liealg._rotations` of c alpha(x_m, x_t), c the
Gaussian-integer terms of :attr:`~plesken.liealg.LieAlgebra.integer_terms`;
:func:`is_cocycle` walks the triples of
:func:`~plesken.liealg._linked_triples`, as Jacobi does, over the entries
alpha(x_m, x_t) it can read, m in the image of a bracket, cleared once by
:func:`~plesken.scalars.clear` into signed integer rows
(:func:`~plesken.liealg._cyclic_sums`), so no ``Scalar`` is multiplied.  On
an algebra certified Lie by
:attr:`~plesken.liealg.LieAlgebra.lie_generators` it walks only the triples
holding a generator, and every linked triple only to name the first failure.
Z^2 is the kernel of the same terms: one sparse Gaussian-integer row per
linked triple goes straight to :func:`~plesken.linalg._kernel`, and the
:class:`~plesken.linalg.Subspace` keeps the kernel's integer RREF rows, so
no dense row and no ``Scalar`` is made unless its basis is read.  Those rows
are every linked triple's even on a certified algebra: the generator triples
cut out the same kernel, but without the sparse rows of the other triples
the free-pivot elimination fills in, and took longer on most basis orders of
the Takiff algebras T(L(A5)) and T(L(S5)).

:func:`h2` takes that kernel only when L has no semisimple ideal to split
off.  Let P be the first term of the derived series, from [L, L] down, on
which the Killing form of L has full rank (:func:`~plesken.liealg._split_ideal`).
The form restricted to an ideal is the ideal's own Killing form, so P is
semisimple by Cartan's criterion, and L = P + R as ideals with R = C_L(P),
isomorphic to L/P.  By Whitehead's lemmas H^1(P) = H^2(P) = 0, so by the
Kunneth formula of Hochschild and Serre (Ann. Math. 1953) the projection
pi_R along P induces H^2(R) = H^2(L), that is

    Z^2(L) = B^2(L) + pi_R^* Z^2(R)

as subspaces (:func:`_split_z2`).  Its canonical RREF is the kernel's, byte
for byte, and the certificate is the exact Gaussian-integer rank of the
Killing form on P.  Z^2(R) is the kernel of R's own constraints, small since
R is: for every L(G), R is the center, so Z^2(R) is every form on it.  The
kernel of L's constraints is the fallback when the series reaches 0 (abelian,
nilpotent and other solvable L) or stops at a perfect P whose Killing form
is degenerate (sl2 + C^2, the Takiff algebras g + g_ad).

Sign convention, used consistently by the extension and representation
modules: :func:`are_cohomologous` (alpha, beta) returns sigma with

    alpha(x, y) - beta(x, y) = -sigma([x, y]).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from math import lcm

from . import linalg
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalInclusionViolation,
    NotACocycle,
    Record,
    _json_int,
)
from .liealg import (
    LieAlgebra,
    _cyclic_sums,
    _default_labels,
    _json_matrix,
    _json_scalars,
    _linked_triples,
    _read_rows,
    _rotations,
    _split_ideal,
)
from .linalg import Subspace, Vector
from .scalars import ONE, ZERO, Scalar, clear


def flat_dim(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the (i, j) entry, i < j, in the flattened upper triangle."""
    if not 0 <= i < j < n:
        raise IndexOutOfRange(f"pair ({i},{j}) out of range for dim {n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _pairs(n: int):
    """The pairs (i, j), i < j, in :func:`pair_index` order."""
    return ((i, j) for i in range(n) for j in range(i + 1, n))


class BilinearForm(Record, eq=True, hashable=False):
    """Alternating bilinear form stored by its strict upper triangle.

    ``flat`` holds entry (i, j), i < j, at :func:`pair_index` (i, j); alternation
    is therefore structural, not a runtime invariant to re-check.
    """

    dim: int
    flat: tuple[Scalar, ...]

    @classmethod
    def zero(cls, dim: int) -> "BilinearForm":
        return cls(dim, tuple([ZERO] * flat_dim(max(dim, 0))))

    @classmethod
    def from_entries(cls, dim: int, entries: dict[tuple[int, int], Scalar]) -> "BilinearForm":
        flat = [ZERO] * flat_dim(max(dim, 0))
        for (i, j), value in entries.items():
            if not 0 <= i < j < dim:
                raise IndexOutOfRange(f"entry ({i},{j}) out of range for dim {dim}")
            flat[pair_index(dim, i, j)] = value if isinstance(value, Scalar) else Scalar(value)
        return cls(dim, tuple(flat))

    @classmethod
    def from_flat(cls, dim: int, flat: Vector) -> "BilinearForm":
        if len(flat) != flat_dim(dim):
            raise DimensionMismatch(
                f"flat vector of length {len(flat)} for dim {dim}")
        return cls(dim, tuple(flat))

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"entry ({i},{j}) out of range for dim {self.dim}")
        if i == j:
            return ZERO
        if i < j:
            return self.flat[pair_index(self.dim, i, j)]
        return -self.flat[pair_index(self.dim, j, i)]

    def value(self, u: Vector, v: Vector) -> Scalar:
        """alpha(u, v) by bilinear extension."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}")
        acc = ZERO
        for (i, j), m in zip(_pairs(self.dim), self.flat):
            if m:
                coeff = u[i] * v[j] - u[j] * v[i]
                if coeff:
                    acc = acc + m * coeff
        return acc

    def add(self, other: "BilinearForm") -> "BilinearForm":
        if other.dim != self.dim:
            raise DimensionMismatch(f"forms of dim {self.dim} and {other.dim}")
        return BilinearForm(self.dim, tuple(a + b for a, b in zip(self.flat, other.flat)))

    def sub(self, other: "BilinearForm") -> "BilinearForm":
        return self.add(other.scale(-ONE))

    def scale(self, c: Scalar) -> "BilinearForm":
        return BilinearForm(self.dim, tuple(c * a for a in self.flat))

    def is_zero(self) -> bool:
        return not any(self.flat)


class LinearFunctional(Record, eq=True, hashable=False):
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


class H2Result(Record, eq=True):
    """dim H^2 with a canonical set of class representatives."""

    dimension: int
    representatives: tuple[BilinearForm, ...]
    z2: Subspace
    b2: Subspace


def coboundary(algebra: LieAlgebra, sigma: LinearFunctional) -> BilinearForm:
    """The form (x, y) -> -sigma([x, y]).  sigma's support is read once into
    a dict, and each entry sums the products over the stored terms of its
    bracket that meet it, in the order of :meth:`LinearFunctional.value`; a
    zero sum leaves the entry the ``ZERO`` of an empty one."""
    n = algebra.dim
    support = {k: s for k, s in zip(range(n), sigma.vector) if s}
    entries = {}
    for pair, ts in algebra.brackets.items():
        acc = ZERO
        for k, c in ts:
            s = support.get(k)
            if s is not None:
                acc = acc + s * c
        if acc:
            entries[pair] = -acc
    return BilinearForm.from_entries(n, entries)


def _signed_index(n: int, m: int, t: int) -> tuple[int, int]:
    """(flat index, sign) with alpha(x_m, x_t) = sign * flat[index], m != t."""
    return (pair_index(n, m, t), 1) if m < t else (pair_index(n, t, m), -1)


def _cleared_rows(algebra: LieAlgebra, flat: Vector) -> tuple[list, list | None]:
    """Signed rows D alpha(x_m, x_t) = re_rows[m][t] + i im_rows[m][t], D the
    common denominator of the entries read, for the rows m of
    :func:`~plesken.liealg._read_rows` only, so a zero-bracket algebra reads
    nothing; ``im_rows`` is None when those entries and the algebra are real."""
    n = algebra.dim
    re_rows = _read_rows(algebra)
    read = []
    for m, row in enumerate(re_rows):
        if row is not None:
            for t in range(n):
                if t != m:
                    idx, sign = _signed_index(n, m, t)
                    if flat[idx]:
                        read.append((m, t, sign, flat[idx]))
    _, re, im = clear([x for _, _, _, x in read])
    real = algebra.integer_terms.real and not any(im)
    im_rows = None if real else _read_rows(algebra)
    for (m, t, sign, _), a, b in zip(read, re, im):
        re_rows[m][t] = sign * a
        if im_rows is not None:
            im_rows[m][t] = sign * b
    return re_rows, im_rows


def is_cocycle(algebra: LieAlgebra, alpha: BilinearForm
               ) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff all residuals vanish; otherwise the first violating triple,
    in lexicographic order.

    Each residual is summed in Gaussian integers, E D times its true value.
    On an algebra certified Lie by
    :attr:`~plesken.liealg.LieAlgebra.lie_generators` the linked triples
    holding a generator carry the whole condition; every linked triple is
    walked only on an algebra without that certificate, or to name the first
    failure."""
    if alpha.dim != algebra.dim:
        raise DimensionMismatch(
            f"form of dim {alpha.dim} over algebra of dim {algebra.dim}")
    if algebra.integer_terms.terms:
        re_rows, im_rows = _cleared_rows(algebra, alpha.flat)
        generators = algebra.lie_generators
        if generators is not None and next(_cyclic_sums(
                algebra, _linked_triples(algebra, generators), re_rows, im_rows), None) is None:
            return True, None
        for i, j, k, _, _ in _cyclic_sums(algebra, _linked_triples(algebra), re_rows, im_rows):
            return False, (i, j, k)
    return True, None


def _constraint_rows(algebra: LieAlgebra) -> list[linalg.Row]:
    """One linear constraint over the flattened form per linked basis triple,
    its cocycle condition (see :func:`~plesken.liealg._rotations`), as the
    sparse Gaussian-integer row ({flat index: E Re c}, {flat index: E Im c}),
    summed per index with zero sums dropped; no row if all terms cancel."""
    n, terms = algebra.dim, algebra.integer_terms.terms
    index = _read_rows(algebra)
    for m, row in enumerate(index):
        if row is not None:
            row[:] = [_signed_index(n, m, t) if t != m else None for t in range(n)]
    rows = []
    for i, j, k in _linked_triples(algebra):
        re: dict[int, int] = {}
        im: dict[int, int] = {}
        for ts, t in _rotations(terms, i, j, k):
            for m, cr, ci in ts:
                entry = index[m][t]
                if entry is not None:
                    idx, sign = entry
                    re[idx] = re.get(idx, 0) + sign * cr
                    if ci:
                        im[idx] = im.get(idx, 0) + sign * ci
        re = {idx: x for idx, x in re.items() if x}
        if im:
            im = {idx: x for idx, x in im.items() if x}
        if re or im:
            rows.append((re, im))
    return rows


def z2_basis(algebra: LieAlgebra) -> Subspace:
    """Cocycle space as a subspace of flattened alternating forms: the kernel
    of the constraint rows, taken in Gaussian integers with no ``Scalar``."""
    nflat = flat_dim(algebra.dim)
    rows = _constraint_rows(algebra)
    if not rows:
        return Subspace.full(nflat)
    return Subspace.from_reduced(nflat, linalg._kernel(rows, nflat))


def b2_basis(algebra: LieAlgebra) -> Subspace:
    """Coboundary space: the span of the flattened :func:`coboundary` of each
    basis functional, that is the image of sigma -> (x,y) -> -sigma([x,y])."""
    n = algebra.dim
    generators = [coboundary(algebra, LinearFunctional(tuple(row))).flat
                  for row in linalg.identity_matrix(n)]
    return Subspace.from_spanning(flat_dim(n), generators)


def _wedge(n: int, phi, psi) -> list[tuple[int, int, int]]:
    """phi ^ psi flattened, (x, y) -> phi(x) psi(y) - psi(x) phi(y), as
    (flat index, Re, Im) terms; phi and psi are (index, Re, Im) terms."""
    def column(a):
        for b, u, v in psi:
            if b != a:
                idx, sign = _signed_index(n, a, b)
                yield idx, sign * u, sign * v

    sums = linalg._combine((x, y, column(a)) for a, x, y in phi)
    return [(idx, x, y) for idx, (x, y) in sums.items()]


def _split_z2(algebra: LieAlgebra, b2: Subspace) -> Subspace | None:
    """Z^2(L) = B^2(L) + pi_R^* Z^2(R) when L = P + R with P semisimple (see
    the module docstring), or None when :func:`~plesken.liealg._split_ideal`
    finds no such P.  R is read as L/P at the columns J off the pivots of P's
    RREF: x_j maps to e_j for j in J, and a pivot p to minus the J-part of
    P's row at p, all scaled by the least common lead D.  Its brackets, its
    pull-backs and the spanning rows are Gaussian integers; Z^2(R) comes from
    :func:`z2_basis`, and the result keeps its RREF rows as integers too."""
    ideal, semisimple = _split_ideal(algebra)
    if not semisimple:
        return None
    n = algebra.dim
    free = [j for j in range(n) if j not in ideal]
    r = len(free)
    if r < 2:
        return b2  # no nonzero form on R
    lead = lcm(*(row[0][p] for p, row in ideal.items()))
    quotient: list = [None] * n  # D times the image of x_a in R, as (k, Re, Im)
    for k, j in enumerate(free):
        quotient[j] = [(k, lead, 0)]
    for p, (re, im) in ideal.items():
        s = -lead // re[p]
        quotient[p] = [(k, s * re.get(j, 0), s * im.get(j, 0))
                       for k, j in enumerate(free) if j in re or j in im]
    den, _, terms = algebra.integer_terms
    brackets = {}
    for k, a in enumerate(free):
        for l in range(k + 1, r):
            sums = linalg._combine((x, y, quotient[m])
                                   for m, x, y in terms.get((a, free[l]), ()))
            if sums:
                brackets[(k, l)] = tuple([(t, Scalar._make(x, y, den * lead))
                                          for t, (x, y) in sorted(sums.items())])
    z2r = z2_basis(LieAlgebra(r, brackets, _default_labels(r)))
    phi: list[list] = [[] for _ in range(r)]
    for a, terms_a in enumerate(quotient):
        for k, x, y in terms_a:
            phi[k].append((a, x, y))
    pairs_r = list(_pairs(r))
    wedges: dict[int, list] = {}
    rows = [(dict(re), dict(im)) for re, im in b2._kept.values()]
    for re, im in z2r._kept.values():
        for idx in linalg._columns(re, im):
            if idx not in wedges:
                wedges[idx] = _wedge(n, *(phi[k] for k in pairs_r[idx]))
        rows.append(linalg._sums_row(linalg._combine(
            (re.get(idx, 0), im.get(idx, 0), wedges[idx])
            for idx in linalg._columns(re, im))))
    return Subspace.from_reduced(flat_dim(n), linalg._eliminate(rows, flat_dim(n)))


def h2(algebra: LieAlgebra) -> H2Result:
    """dim H^2 = dim Z^2 - dim B^2, with canonical class representatives.

    Z^2 is :func:`_split_z2` when L splits off a semisimple ideal, else
    :func:`z2_basis`; both give the same canonical basis.  The inclusion B^2
    within Z^2 is asserted, not assumed, on the Gaussian-integer rows of both.
    Representatives are the Z^2 basis vectors reduced, in order, against the
    B^2 RREF basis and the representatives found so far, normalized to lead 1
    (:meth:`~plesken.linalg.Subspace.complement_rows`, in Gaussian integers);
    only they become scalars and forms.
    """
    b2 = b2_basis(algebra)
    z2 = _split_z2(algebra, b2)
    if z2 is None:
        z2 = z2_basis(algebra)
    if not all(z2._holds(row) for row in b2._kept.values()):
        raise InternalInclusionViolation(
            "a coboundary fell outside the cocycle space; "
            "the algebra data is inconsistent")
    reps = [BilinearForm.from_flat(algebra.dim, row) for row in b2.complement_rows(z2)]
    dimension = z2.dim - b2.dim
    if len(reps) != dimension:
        raise InternalInclusionViolation(
            f"representative count {len(reps)} does not match dim H^2 {dimension}")
    return H2Result(dimension=dimension, representatives=tuple(reps),
                    z2=z2, b2=b2)


def are_cohomologous(algebra: LieAlgebra, alpha: BilinearForm,
                     beta: BilinearForm) -> LinearFunctional | None:
    """Return sigma with alpha(x,y) - beta(x,y) = -sigma([x,y]), or None.

    Both inputs must be cocycles, and are checked here.  The solution is the
    RREF-canonical one (free coordinates zero), so equal inputs give the zero
    functional.
    """
    for name, form in (("first", alpha), ("second", beta)):
        ok, witness = is_cocycle(algebra, form)
        if not ok:
            raise NotACocycle(f"{name} form is not a cocycle", witness=list(witness))
    return _cohomologous(algebra, alpha, beta)


def _cohomologous(algebra: LieAlgebra, alpha: BilinearForm,
                  beta: BilinearForm) -> LinearFunctional | None:
    """:func:`are_cohomologous` for two cocycles the caller has certified."""
    n = algebra.dim
    pairs = sorted(algebra.brackets)
    rows = [algebra.structure(i, j) for i, j in pairs]
    rhs = [beta.entry(i, j) - alpha.entry(i, j) for i, j in pairs]
    # pairs with zero bracket force nothing; alpha and beta must already agree
    for pair, a, b in zip(_pairs(n), alpha.flat, beta.flat):
        if a != b and pair not in algebra.brackets:
            return None
    if not rows:
        return LinearFunctional.zero(n)
    solution = linalg.solve(rows, rhs, n)
    return None if solution is None else LinearFunctional(tuple(solution))


# -- serialization ---------------------------------------------------------------


def form_to_json(form: BilinearForm) -> dict:
    """``upper[i]`` holds the entries (i, i+1), ..., (i, n-1) of the form."""
    n = form.dim
    text = ["0" if x is ZERO else str(x) for x in form.flat]
    starts = list(accumulate(range(n - 1, 0, -1), initial=0))
    return {"dim": n, "upper": [text[a:b] for a, b in zip(starts, starts[1:])]}


def form_from_json(doc: dict) -> BilinearForm:
    dim = _json_int(doc, "dim")
    rows = _json_matrix(doc.get("upper", []), "upper")
    expected = [dim - 1 - i for i in range(max(dim - 1, 0))]
    if [len(r) for r in rows] != expected:
        raise DimensionMismatch(f"upper-triangle shape does not match dim {dim}")
    return BilinearForm(dim, tuple(x for row in rows for x in row))


def functional_from_json(doc: dict) -> LinearFunctional:
    return LinearFunctional(tuple(_json_scalars(doc["v"], "v")))
