"""Projective (alpha-)representations by concrete matrix tuples.

A :class:`ProjectiveRep` stores images Phi(x_i) as d x d matrices over Q(i)
together with the defect cocycle alpha, defined by

    [Phi(x), Phi(y)] = alpha(x, y) I + Phi([x, y]).

Defects are formed in Gaussian-integer arithmetic: the matrices are cleared
once to integer real and imaginary numerators over one common denominator D,
each defect is D^2 E times its true value (E clears the bracket coefficients
of the pair), and the scalar test runs on those integers.  Only alpha(x_i, x_j)
goes back to a :class:`~plesken.scalars.Scalar`.  Each representation forms
each defect once: :attr:`ProjectiveRep.defects` keeps the outcome of every
basis pair, and validation against a stored cocycle, :func:`cocycle_from_rep`
and :func:`cohomologous_witness_from_equivalence` all read it.

Scalar-defect detection is exact: a defect is rejected at its first entry, in
row-major order, that is off the diagonal and nonzero or on the diagonal and
unequal to the (0, 0) entry.  Twisting by a linear functional sigma sends Phi
to Phi - sigma I and shifts the cocycle by sigma composed with the bracket;
projective equivalence against a witness (f, delta) is verified as
(Phi_2(x_i) - delta(x_i) I) f = f Phi_1(x_i), in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence, Union

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
    SingularF,
)
from .groups import _json_int
from .liealg import LieAlgebra
from .linalg import Matrix
from .scalars import Scalar


# A defect's outcome: alpha(i, j) when the defect is alpha(i, j) I, else its
# first entry off that form as (r, s, the entry's text).
Outcome = Union[Scalar, tuple[int, int, str]]


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    """Linear map into d x d matrices with its defect cocycle."""

    algebra: LieAlgebra
    degree: int
    matrices: tuple[tuple[tuple[Scalar, ...], ...], ...]
    cocycle: Optional[BilinearForm] = None

    @cached_property
    def defects(self) -> tuple[Outcome, ...]:
        """The outcome of [Phi(x_i), Phi(x_j)] - Phi([x_i, x_j]) for every pair
        i < j, in :func:`~plesken.cohomology.pair_index` order, formed once
        from :attr:`matrices` (never from the stored cocycle)."""
        cleared = _clear(self.matrices)
        return tuple(_defect(cleared, self.algebra, i, j)
                     for i, j in _pairs(self.algebra.dim))


def _freeze(matrices: Sequence[Matrix]) -> tuple:
    return tuple(linalg.freeze_matrix(m) for m in matrices)


def _failing_pairs(rep: ProjectiveRep, alpha: BilinearForm):
    """The pairs (i, j) whose defect is not alpha(i, j) I, in order."""
    for (i, j), outcome in zip(_pairs(rep.algebra.dim), rep.defects):
        if not isinstance(outcome, Scalar) or outcome != alpha.entry(i, j):
            yield i, j


def projective_rep(algebra: LieAlgebra, matrices: Sequence[Matrix],
                   cocycle: Optional[BilinearForm] = None) -> ProjectiveRep:
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


# -- Gaussian-integer kernels -------------------------------------------------------


class _Cleared(NamedTuple):
    """A matrix times a common denominator, as Gaussian-integer numerators.

    Each part is (rows, columns) of integers; ``im`` is None when every
    imaginary part is zero, so products with it are skipped."""

    re: tuple
    im: Optional[tuple]


def _clear(matrices: Sequence[Matrix]) -> tuple[int, list[_Cleared]]:
    """The common denominator D of every entry, and D times each matrix."""
    den = lcm(*{x.d for m in matrices for row in m for x in row})
    out = []
    for m in matrices:
        re = tuple(tuple(x.a * (den // x.d) for x in row) for row in m)
        im = None
        if any(x.b for row in m for x in row):
            im_rows = tuple(tuple(x.b * (den // x.d) for x in row) for row in m)
            im = (im_rows, tuple(zip(*im_rows)))
        out.append(_Cleared((re, tuple(zip(*re))), im))
    return den, out


def _product(x: tuple, y: tuple) -> list[list[int]]:
    """X Y for integer parts (rows, columns)."""
    return [[sum(map(mul, row, col)) for col in y[1]] for row in x[0]]


def _commutator(x: tuple, y: tuple) -> list[list[int]]:
    """X Y - Y X for integer parts (rows, columns)."""
    return [[sum(map(mul, xr, yc)) - sum(map(mul, yr, xc))
             for yc, xc in zip(y[1], x[1])]
            for xr, yr in zip(x[0], y[0])]


def _combine(op, u: list, v: list) -> list[list[int]]:
    return [list(map(op, a, b)) for a, b in zip(u, v)]


def _gaussian(kernel, a: _Cleared, b: _Cleared) -> tuple[list, list]:
    """Real and imaginary numerators of a bilinear integer kernel on Gaussian
    integers: k(a, b) = k(re a, re b) - k(im a, im b)
    + i (k(re a, im b) + k(im a, re b)), without the terms of a zero side."""
    re = kernel(a.re, b.re)
    im = [[0] * len(row) for row in re]
    if a.im is not None and b.im is not None:
        re = _combine(sub, re, kernel(a.im, b.im))
    if b.im is not None:
        im = _combine(add, im, kernel(a.re, b.im))
    if a.im is not None:
        im = _combine(add, im, kernel(a.im, b.re))
    return re, im


def _defect_numerators(cleared: tuple[int, list[_Cleared]], algebra: LieAlgebra,
                       i: int, j: int) -> tuple[list, list, int]:
    """[Phi(x_i), Phi(x_j)] - Phi([x_i, x_j]) as real and imaginary integer
    numerators over one denominator: [N_i, N_j] / D^2 - sum c_k N_k / D,
    taken over D^2 E, E the common denominator of the bracket coefficients."""
    den, mats = cleared
    re, im = _gaussian(_commutator, mats[i], mats[j])
    terms = algebra.bracket_terms.get((i, j), ())
    e = lcm(*(c.d for _, c in terms))
    if e > 1:
        re = [[x * e for x in row] for row in re]
        im = [[x * e for x in row] for row in im]
    for k, c in terms:
        # subtract D (E c) N_k, with E c = ca + cb i a Gaussian integer
        ca, cb = c.a * (e // c.d) * den, c.b * (e // c.d) * den
        m = mats[k]
        m_im = m.im[0] if m.im is not None else [(0,) * len(row) for row in re]
        for re_row, im_row, x_row, y_row in zip(re, im, m.re[0], m_im):
            for s, (x, y) in enumerate(zip(x_row, y_row)):
                if x or y:
                    re_row[s] -= ca * x - cb * y
                    im_row[s] -= ca * y + cb * x
    return re, im, den * den * e


def _defect(cleared: tuple[int, list[_Cleared]], algebra: LieAlgebra,
            i: int, j: int) -> Outcome:
    """The outcome of the defect of pair (i, j), tested for a scalar in ints."""
    re, im, total = _defect_numerators(cleared, algebra, i, j)
    c, ci = re[0][0], im[0][0]
    for r, (re_row, im_row) in enumerate(zip(re, im)):
        for s, (x, y) in enumerate(zip(re_row, im_row)):
            if (x != c or y != ci) if r == s else (x or y):
                return r, s, str(Scalar._make(x, y, total))
    return Scalar._make(c, ci, total)


def _conjugation_residual(shifted: Matrix, f: Matrix, m: Matrix,
                          f_inv: Matrix) -> tuple:
    """shifted - f m f^-1, formed in Gaussian integers over one denominator D:
    D^2 shifted and (D f)(D m)(D f^-1) are both D^3 times their true values."""
    den, (s, a, b, c) = _clear([shifted, f, m, f_inv])
    re, im = _gaussian(_product, a, b)
    fm = _Cleared((re, None), (im, None) if any(map(any, im)) else None)
    re, im = _gaussian(_product, fm, c)
    d2 = den * den
    s_im = s.im[0] if s.im is not None else [(0,) * len(row) for row in re]
    return tuple(tuple(Scalar._make(d2 * x - u, d2 * y - v, d2 * den)
                       for x, y, u, v in zip(*rows))
                 for rows in zip(s.re[0], s_im, re, im))


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


def validate_alpha_rep(algebra: LieAlgebra, matrices, alpha: BilinearForm
                       ) -> list[tuple[int, int, tuple]]:
    """Failures of [Phi(x_i),Phi(x_j)] = alpha(i,j) I + Phi([x_i,x_j]);
    each failure carries (i, j, residual matrix)."""
    rep = projective_rep(algebra, matrices)
    cleared = _clear(rep.matrices)
    failures = []
    for i, j in _failing_pairs(rep, alpha):
        re, im, total = _defect_numerators(cleared, algebra, i, j)
        defect = [[Scalar._make(x, y, total) for x, y in zip(re_row, im_row)]
                  for re_row, im_row in zip(re, im)]
        residual = _shift_diagonal(defect, alpha.entry(i, j))
        failures.append((i, j, linalg.freeze_matrix(residual)))
    return failures


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


@dataclass(frozen=True)
class EquivalenceReport:
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
    which is tested on integer numerators; the residual
    Phi_2(x_i) - delta(x_i) I - f Phi_1(x_i) f^-1 is built for failures only.
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
    f_inv = linalg.invert(f)
    if f_inv is None:
        raise SingularF("witness matrix f is not invertible")
    _, (f_int,) = _clear([f])
    failures = []
    for i in range(n):
        den1, (phi1,) = _clear([rep1.matrices[i]])
        shifted = _shift_diagonal(rep2.matrices[i], delta.vector[i])
        den2, (phi2,) = _clear([shifted])
        # both sides carry the denominator of f once; each carries its own rep's
        left = _gaussian(_product, phi2, f_int)
        right = _gaussian(_product, f_int, phi1)
        if any(x * den1 != y * den2 for lpart, rpart in zip(left, right)
               for lrow, rrow in zip(lpart, rpart) for x, y in zip(lrow, rrow)):
            residual = _conjugation_residual(shifted, f, rep1.matrices[i], f_inv)
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
    matrices = [[[Scalar.parse(x) for x in row] for row in m]
                for m in doc["matrices"]]
    cocycle = None
    if doc.get("alpha") is not None:
        cocycle = form_from_json(doc["alpha"])
    rep = projective_rep(algebra, matrices, cocycle=cocycle)
    if "degree" in doc and _json_int(doc, "degree") != rep.degree:
        raise DimensionMismatch(
            f"document degree {doc['degree']} does not match {rep.degree} x "
            f"{rep.degree} matrices")
    return rep
