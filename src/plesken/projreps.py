"""Projective (alpha-)representations by concrete matrix tuples.

A :class:`ProjectiveRep` stores images Phi(x_i) as d x d matrices over Q(i)
together with the defect cocycle alpha, defined by

    [Phi(x), Phi(y)] = alpha(x, y) I + Phi([x, y]).

Defects are formed in Gaussian-integer arithmetic on packed integers.  The
matrices are cleared once (:func:`~plesken.scalars.clear`) to real and
imaginary numerators N_k over one denominator D, and each row of each part
is packed into one integer with w-bit slots (Kronecker substitution): row k
of X is sum_c X_kc 2^(w c), so row r of X Y is sum_k X_rk row_k(Y).  (A
packed column times a packed row would also multiply the d^2 - d empty slots
of the column.)  The defect of a pair, E [N_i, N_j] - D sum (E c_k) N_k over
the terms E c_k of :attr:`~plesken.liealg.LieAlgebra.integer_terms`, is
D^2 E times its true value, one packed integer per part with entry (r, c) in
slot r d + c.  Each representation takes one width w from a bound on every
entry of such a numerator,

    |entry| <= 4 d E M^2 + D C M < 2^(w - 1),

M the largest |Re| or |Im| of a cleared entry and C the largest
sum_k |E Re c_k| + |E Im c_k| over the pairs.  In [-2^(w-1), 2^(w-1)) balanced
base-2^w digits are unique, so a packed integer determines its entries: a
defect part is scalar iff it equals its slot-0 digit times the packed
identity, one comparison, exact and not probabilistic.  Only a failing
defect is unpacked, and only alpha(x_i, x_j) goes back to a
:class:`~plesken.scalars.Scalar`.  Each representation forms
each defect once: :attr:`ProjectiveRep.defects` keeps the outcome of every
basis pair, and validation against a stored cocycle, :func:`cocycle_from_rep`
and :func:`cohomologous_witness_from_equivalence` all read it.

Scalar-defect detection is exact: a defect is rejected at its first entry, in
row-major order, that is off the diagonal and nonzero or on the diagonal and
unequal to the (0, 0) entry.  Twisting by a linear functional sigma sends Phi
to Phi - sigma I and shifts the cocycle by sigma composed with the bracket;
projective equivalence against a witness (f, delta) is verified as
(Phi_2(x_i) - delta(x_i) I) f D_1 = f Phi_1(x_i) D_2 on the same packed
integers, f packed once, one comparison per part and basis vector.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import islice
from operator import mul

from . import linalg
from .cohomology import (
    BilinearForm,
    LinearFunctional,
    _pairs,
    coboundary,
    form_from_json,
    form_to_json,
    is_cocycle,
)
from .errors import (
    BadParameter,
    DefectNotScalar,
    DimensionMismatch,
    NotACocycle,
    NotAHomomorphism,
    NotEquivalent,
    Record,
    SingularF,
    _json_array,
    _json_int,
)
from .liealg import LieAlgebra, _json_matrix
from .linalg import Matrix, _digit, _digits, _slots, _width
from .scalars import Scalar, clear


# A defect's outcome: alpha(i, j) when the defect is alpha(i, j) I, else its
# first entry off that form as (r, s, the entry's text).
Outcome = Scalar | tuple[int, int, str]


class ProjectiveRep(Record):
    """Linear map into d x d matrices with its defect cocycle."""

    algebra: LieAlgebra
    degree: int
    matrices: tuple[tuple[tuple[Scalar, ...], ...], ...]
    cocycle: BilinearForm | None = None

    @cached_property
    def defects(self) -> tuple[Outcome, ...]:
        """The outcome of [Phi(x_i), Phi(x_j)] - Phi([x_i, x_j]) for every pair
        i < j, in :func:`~plesken.cohomology.pair_index` order, formed once
        from :attr:`matrices` (never from the stored cocycle)."""
        return tuple(_defect(self._packed, self.algebra, i, j)
                     for i, j in _pairs(self.algebra.dim))

    @cached_property
    def _packed(self) -> "_Packed":
        return _pack_rep(self.matrices, self.algebra)


def _freeze(matrices: Sequence[Matrix]) -> tuple:
    return tuple(linalg.freeze_matrix(m) for m in matrices)


def _failing_pairs(rep: ProjectiveRep, alpha: BilinearForm):
    """The pairs (i, j) whose defect is not alpha(i, j) I, in order."""
    for (i, j), outcome in zip(_pairs(rep.algebra.dim), rep.defects):
        if not isinstance(outcome, Scalar) or outcome != alpha.entry(i, j):
            yield i, j


def projective_rep(algebra: LieAlgebra, matrices: Sequence[Matrix],
                   cocycle: BilinearForm | None = None) -> ProjectiveRep:
    """Bundle matrices into a representation, validating shapes and, when a
    cocycle is supplied, the defining identity."""
    n = algebra.dim
    if len(matrices) != n:
        raise DimensionMismatch(f"{len(matrices)} matrices for algebra of dim {n}")
    if n == 0:
        raise DimensionMismatch("degree is undefined for a zero-dimensional algebra "
                                "with no matrices; supply at least dim 1")
    d = len(matrices[0])
    for m in matrices:
        if len(m) != d or any(len(row) != d for row in m):
            raise DimensionMismatch("all matrices must be square of equal size")
    if d < 1:
        raise DimensionMismatch("degree must be at least 1")
    if cocycle is not None and cocycle.dim != n:
        raise DimensionMismatch(f"cocycle of dim {cocycle.dim} for algebra of dim {n}")
    rep = ProjectiveRep(algebra=algebra, degree=d, matrices=_freeze(matrices),
                        cocycle=cocycle)
    if cocycle is not None:
        failure = next(_failing_pairs(rep, cocycle), None)
        if failure is not None:
            i, j = failure
            raise BadParameter(
                f"matrices do not satisfy the identity for the given cocycle "
                f"at pair ({i},{j})", witness=[i, j])
    return rep


# -- the packed Gaussian-integer kernel -------------------------------------------


# A matrix times a common denominator: the real and imaginary numerators of its
# entries, each part a tuple of rows.
_Cleared = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def _clear(matrices: Sequence[Matrix]) -> tuple[int, list[_Cleared]]:
    """The common denominator D of every entry, and D times each matrix."""
    den, re, im = clear([x for m in matrices for row in m for x in row])
    re, im = iter(re), iter(im)
    return den, [(tuple([tuple(islice(re, len(row))) for row in m]),
                  tuple([tuple(islice(im, len(row))) for row in m]))
                 for m in matrices]


def _magnitude(cleared: Sequence[_Cleared]) -> int:
    """The largest |Re| or |Im| of a cleared entry."""
    return max(max(map(abs, row)) for pair in cleared for part in pair for row in part)


class _Part(namedtuple("_Part", "entries rows whole")):
    """One integer part X of a d x d matrix, as its rows of entries and packed
    with slot width w: ``rows[k]`` is row k, sum_c X_kc 2^(w c), and
    ``whole`` holds every entry, (r, c) in slot r d + c."""

    __slots__ = ()


class _Gaussian(namedtuple("_Gaussian", "re im")):
    """A packed Gaussian-integer matrix, its real and imaginary :class:`_Part`;
    ``im`` is None when it is zero, so products with it are skipped."""

    __slots__ = ()


def _part(entries: tuple[tuple[int, ...], ...], w: int) -> _Part:
    rows = tuple(_slots(row, w) for row in entries)
    return _Part(entries, rows, _slots(rows, w * len(rows)))


def _pack(matrix: _Cleared, w: int) -> _Gaussian:
    re, im = matrix
    return _Gaussian(_part(re, w), _part(im, w) if any(map(any, im)) else None)


def _mul(x: _Part, y: _Part, w: int) -> int:
    """X Y packed: its row r is sum_k X_rk row_k(Y), d products of an entry
    and a packed row."""
    return _slots([sum(map(mul, row, y.rows)) for row in x.entries], w * len(x.rows))


def _times(a: _Gaussian, b: _Gaussian, w: int) -> tuple[int, int]:
    """The real and imaginary parts of A B, packed."""
    re, im = _mul(a.re, b.re, w), 0
    if a.im is not None:
        im = _mul(a.im, b.re, w)
        if b.im is not None:
            re -= _mul(a.im, b.im, w)
    if b.im is not None:
        im += _mul(a.re, b.im, w)
    return re, im


def _unpack(v: int, d: int, w: int) -> list[list[int]]:
    """The rows of the d x d matrix packed in v, slot 0 first."""
    digits = _digits(v, d * d, w)
    return [digits[r * d:(r + 1) * d] for r in range(d)]


class _Packed(namedtuple("_Packed", "den width degree identity mats")):
    """The images D Phi(x_k) of a representation over one common denominator
    D, packed with one slot width w wide enough for every defect numerator;
    ``identity`` is the d x d identity matrix packed, sum_r 2^(w r (d + 1))."""

    __slots__ = ()


def _pack_rep(matrices: Sequence[Matrix], algebra: LieAlgebra) -> _Packed:
    """Clear the matrices to D N_k, then pack them with the width of the
    bound 4 d E M^2 + D C M on every defect numerator: M bounds |Re| and |Im|
    of the cleared entries, E is the denominator of the bracket terms, and C
    the largest sum_k |E Re c_k| + |E Im c_k| over the pairs."""
    d = len(matrices[0])
    den, cleared = _clear(matrices)
    e, _, terms = algebra.integer_terms
    m = _magnitude(cleared)
    c = max((sum(abs(a) + abs(b) for _, a, b in ts) for ts in terms.values()), default=0)
    w = _width(4 * d * e * m * m + den * c * m)
    return _Packed(den, w, d, _slots([1] * d, w * (d + 1)),
                   tuple(_pack(x, w) for x in cleared))


def _defect(packed: _Packed, algebra: LieAlgebra, i: int, j: int) -> Outcome:
    """The outcome of [Phi(x_i), Phi(x_j)] - Phi([x_i, x_j]), formed as packed
    real and imaginary numerators E [N_i, N_j] - D sum (E c_k) N_k over
    D^2 E, E the denominator of the bracket terms.  It is scalar iff each
    part equals its slot-0 digit times the packed identity; only a failing
    defect is unpacked, to find its first entry off that form."""
    den, w, d, identity, mats = packed
    a, b = mats[i], mats[j]
    (re, im), (re2, im2) = _times(a, b, w), _times(b, a, w)
    re, im = re - re2, im - im2
    e, _, terms = algebra.integer_terms
    if e > 1:
        re, im = re * e, im * e
    for k, ca, cb in terms.get((i, j), ()):
        # subtract D (E c) N_k, with E c = ca + cb i a Gaussian integer
        x = mats[k]
        x_re, x_im = x.re.whole, x.im.whole if x.im is not None else 0
        re -= den * (ca * x_re - cb * x_im)
        im -= den * (ca * x_im + cb * x_re)
    total = den * den * e
    c, ci = _digit(re, w), _digit(im, w)
    if re == c * identity and im == ci * identity:
        return Scalar._make(c, ci, total)
    for r, rows in enumerate(zip(_unpack(re, d, w), _unpack(im, d, w))):
        for s, (x, y) in enumerate(zip(*rows)):
            if (x != c or y != ci) if r == s else (x or y):
                return r, s, str(Scalar._make(x, y, total))
    raise AssertionError(f"defect of pair ({i},{j}) exceeds its slot width")


def _multiply(x: _Cleared, y: _Cleared) -> _Cleared:
    """X Y by the packed kernel; each part of an entry is at most 2 d M_X M_Y
    in absolute value."""
    d = len(x[0])
    w = _width(2 * d * _magnitude([x]) * _magnitude([y]))
    re, im = _times(_pack(x, w), _pack(y, w), w)
    return _unpack(re, d, w), _unpack(im, d, w)


def _conjugation_residual(shifted: Matrix, f: Matrix, m: Matrix,
                          f_inv: Matrix) -> tuple:
    """shifted - f m f^-1, formed in Gaussian integers over one denominator D:
    D^2 shifted and (D f)(D m)(D f^-1) are both D^3 times their true values."""
    den, (s, a, b, c) = _clear([shifted, f, m, f_inv])
    re, im = _multiply(_multiply(a, b), c)
    d2 = den * den
    return tuple(tuple(Scalar._make(d2 * x - u, d2 * y - v, d2 * den)
                       for x, y, u, v in zip(*rows))
                 for rows in zip(*s, re, im))


def _shift_diagonal(m: Matrix, s: Scalar) -> list[list[Scalar]]:
    """m - s I, as a fresh list of rows."""
    out = [list(row) for row in m]
    if s:
        for t in range(len(out)):
            out[t][t] = out[t][t] - s
    return out


def cocycle_from_rep(rep: ProjectiveRep) -> BilinearForm:
    """Extract the defect cocycle; every defect must be an exact scalar matrix."""
    n = rep.algebra.dim
    for (i, j), outcome in zip(_pairs(n), rep.defects):
        if not isinstance(outcome, Scalar):
            raise DefectNotScalar(
                f"defect of pair ({i},{j}) is not a scalar matrix",
                witness=[i, j, list(outcome)])
    alpha = BilinearForm(n, rep.defects)
    ok, witness = is_cocycle(rep.algebra, alpha)
    if not ok:
        # unreachable for scalar defects; guards bugs in the bracket data
        raise NotACocycle("extracted defect form fails the cocycle condition",
                          witness=list(witness))
    return alpha


def lift_linear(algebra: LieAlgebra, matrices: Sequence[Matrix]) -> ProjectiveRep:
    """Wrap a Lie homomorphism as a representation with zero cocycle."""
    try:
        return projective_rep(algebra, matrices, cocycle=BilinearForm.zero(algebra.dim))
    except BadParameter as err:
        i, j = err.witness
        raise NotAHomomorphism(
            f"images of pair ({i},{j}) do not commute with the bracket",
            witness=[i, j]) from None


def twist(rep: ProjectiveRep, sigma: LinearFunctional) -> ProjectiveRep:
    """Phi - sigma I; the cocycle moves within its class by sigma o bracket."""
    n = rep.algebra.dim
    if sigma.dim != n:
        raise DimensionMismatch(f"functional of dim {sigma.dim} for algebra of dim {n}")
    new_matrices = [_shift_diagonal(m, s) for m, s in zip(rep.matrices, sigma.vector)]
    alpha = rep.cocycle if rep.cocycle is not None else cocycle_from_rep(rep)
    # alpha_2(x,y) = alpha_1(x,y) + sigma([x,y]), i.e. alpha_1 - alpha_2 = -sigma o [,]
    shifted = alpha.sub(coboundary(rep.algebra, sigma))
    return ProjectiveRep(algebra=rep.algebra, degree=rep.degree,
                         matrices=_freeze(new_matrices), cocycle=shifted)


class EquivalenceReport(Record, eq=True):
    """Outcome of a projective-equivalence check against a witness (f, delta)."""

    failures: tuple[tuple[int, tuple], ...]
    delta_is_zero: bool

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def linearly_equivalent(self) -> bool:
        return self.ok and self.delta_is_zero


def verify_projective_equivalence(rep1: ProjectiveRep, rep2: ProjectiveRep,
                                  f: Matrix, delta: LinearFunctional
                                  ) -> EquivalenceReport:
    """Check Phi_2(x_i) = f Phi_1(x_i) f^-1 + delta(x_i) I for every i.

    For invertible f this is (Phi_2(x_i) - delta(x_i) I) f = f Phi_1(x_i),
    which is tested on integer numerators once f has full rank; f^-1 and the
    residual Phi_2(x_i) - delta(x_i) I - f Phi_1(x_i) f^-1 are built for
    failures only.
    """
    if rep1.degree != rep2.degree:
        raise DimensionMismatch(
            f"degrees differ: {rep1.degree} vs {rep2.degree}")
    n = rep1.algebra.dim
    if rep2.algebra.dim != n or delta.dim != n:
        raise DimensionMismatch("algebra dimensions and delta must agree")
    d = rep1.degree
    if len(f) != d or any(len(row) != d for row in f):
        raise DimensionMismatch(f"f must be {d} x {d}")
    if linalg.rank(f, d) < d:
        raise SingularF("witness matrix f is not invertible")
    shifted = [_shift_diagonal(m, s) for m, s in zip(rep2.matrices, delta.vector)]
    den1, phi1 = _clear(rep1.matrices)
    den2, phi2 = _clear(shifted)
    _, (f_int,) = _clear([f])
    # both sides carry the denominator of f; the left carries D_2 and is scaled
    # by D_1, the right the reverse, and each is at most 2 d M_f M D in size
    w = _width(2 * d * _magnitude([f_int])
               * max(_magnitude(phi1) * den2, _magnitude(phi2) * den1))
    f_packed = _pack(f_int, w)
    failures = []
    f_inv = None  # read only by a failure's residual
    for i, (x1, x2) in enumerate(zip(phi1, phi2)):
        left = _times(_pack(x2, w), f_packed, w)
        right = _times(f_packed, _pack(x1, w), w)
        if any(x * den1 != y * den2 for x, y in zip(left, right)):
            if f_inv is None:
                f_inv = linalg.invert(f)
            residual = _conjugation_residual(shifted[i], f, rep1.matrices[i], f_inv)
            failures.append((i, residual))
    return EquivalenceReport(failures=tuple(failures),
                             delta_is_zero=not any(delta.vector))


def cohomologous_witness_from_equivalence(rep1: ProjectiveRep, rep2: ProjectiveRep,
                                          f: Matrix, delta: LinearFunctional
                                          ) -> LinearFunctional:
    """The functional relating the two defect cocycles of an equivalent pair.

    For a verified witness (f, delta) the cocycles satisfy
    alpha_1 - alpha_2 = delta o bracket, so sigma = -delta satisfies the
    are_cohomologous convention alpha_1 - alpha_2 = -sigma o bracket.  The
    relation is re-checked exactly before returning.
    """
    report = verify_projective_equivalence(rep1, rep2, f, delta)
    if not report.ok:
        raise NotEquivalent(
            "witness does not verify; representations are not known equivalent",
            witness=[i for i, _ in report.failures])
    algebra = rep1.algebra
    alpha1 = rep1.cocycle if rep1.cocycle is not None else cocycle_from_rep(rep1)
    alpha2 = rep2.cocycle if rep2.cocycle is not None else cocycle_from_rep(rep2)
    sigma = LinearFunctional(tuple(-x for x in delta.vector))
    expected = alpha1.sub(coboundary(algebra, sigma))
    if expected != alpha2:
        raise NotEquivalent(
            "cocycle difference is not the coboundary of -delta; "
            "stored cocycles are inconsistent with the matrices")
    return sigma


# -- serialization -------------------------------------------------------------------


def rep_to_json(rep: ProjectiveRep) -> dict:
    doc = {
        "dim": rep.algebra.dim,
        "degree": rep.degree,
        "matrices": [[[str(x) for x in row] for row in m] for m in rep.matrices],
        "alpha": None,
    }
    if rep.cocycle is not None:
        doc["alpha"] = form_to_json(rep.cocycle)
    return doc


def rep_from_json(algebra: LieAlgebra, doc: dict) -> ProjectiveRep:
    if _json_int(doc, "dim") != algebra.dim:
        raise DimensionMismatch(
            f"document dim {doc['dim']} does not match algebra dim {algebra.dim}")
    matrices = [_json_matrix(m, "matrix") for m in _json_array(doc["matrices"], "matrices")]
    cocycle = None
    if doc.get("alpha") is not None:
        cocycle = form_from_json(doc["alpha"])
    rep = projective_rep(algebra, matrices, cocycle=cocycle)
    if "degree" in doc and _json_int(doc, "degree") != rep.degree:
        raise DimensionMismatch(
            f"document degree {doc['degree']} does not match {rep.degree} x "
            f"{rep.degree} matrices")
    return rep
