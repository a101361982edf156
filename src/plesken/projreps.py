"""Projective (alpha-)representations by concrete matrix tuples.

A :class:`ProjectiveRep` stores images Phi(x_i) as d x d matrices over Q(i)
together with the defect cocycle alpha, defined by

    [Phi(x), Phi(y)] = alpha(x, y) I + Phi([x, y]).

Scalar-defect detection is exact: a defect matrix is rejected as soon as one
off-diagonal entry is nonzero or two diagonal entries differ.  Twisting by a
linear functional sigma sends Phi to Phi - sigma I and shifts the cocycle by
sigma composed with the bracket; projective equivalence against a witness
(f, delta) is verified entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .cohomology import (
    BilinearForm,
    LinearFunctional,
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


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    """Linear map into d x d matrices with its defect cocycle."""

    algebra: LieAlgebra
    degree: int
    matrices: tuple[tuple[tuple[Scalar, ...], ...], ...]
    cocycle: Optional[BilinearForm] = None


def _freeze(matrices: Sequence[Matrix]) -> tuple:
    return tuple(linalg.freeze_matrix(m) for m in matrices)


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
        failures = validate_alpha_rep(algebra, rep.matrices, cocycle)
        if failures:
            i, j, _ = failures[0]
            raise BadParameter(
                f"matrices do not satisfy the identity for the given cocycle "
                f"at pair ({i},{j})", witness=[i, j])
    return rep


def _commutator(a: Matrix, b: Matrix) -> list[list[Scalar]]:
    return [linalg.vec_sub(r1, r2)
            for r1, r2 in zip(linalg.mat_mul(a, b), linalg.mat_mul(b, a))]


def _defect(rep: ProjectiveRep, i: int, j: int) -> list[list[Scalar]]:
    """[Phi(x_i), Phi(x_j)] - Phi([x_i, x_j])."""
    out = _commutator(rep.matrices[i], rep.matrices[j])
    for k, c in rep.algebra.bracket_terms.get((i, j), ()):
        for row, image_row in zip(out, rep.matrices[k]):
            for s, x in enumerate(image_row):
                if x:
                    row[s] = row[s] - c * x
    return out


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
    entries: dict[tuple[int, int], Scalar] = {}
    for i in range(n):
        for j in range(i + 1, n):
            defect = _defect(rep, i, j)
            c = defect[0][0]
            off = _shift_diagonal(defect, c)
            bad = next(((r, s) for r in range(rep.degree)
                        for s in range(rep.degree) if off[r][s]), None)
            if bad is not None:
                raise DefectNotScalar(
                    f"defect of pair ({i},{j}) is not a scalar matrix",
                    witness=[i, j, [bad[0], bad[1], str(defect[bad[0]][bad[1]])]])
            entries[(i, j)] = c
    alpha = BilinearForm.from_entries(n, entries)
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
    rep = projective_rep(algebra, matrices, cocycle=None)
    failures = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            residual = _shift_diagonal(_defect(rep, i, j), alpha.entry(i, j))
            if any(x for row in residual for x in row):
                failures.append((i, j, linalg.freeze_matrix(residual)))
    return failures


def lift_linear(algebra: LieAlgebra, matrices: Sequence[Matrix]) -> ProjectiveRep:
    """Wrap a Lie homomorphism as a representation with zero cocycle."""
    zero = BilinearForm.zero(algebra.dim)
    failures = validate_alpha_rep(algebra, matrices, zero)
    if failures:
        i, j, _ = failures[0]
        raise NotAHomomorphism(
            f"images of pair ({i},{j}) do not commute with the bracket",
            witness=[i, j])
    return ProjectiveRep(algebra=algebra, degree=len(matrices[0]),
                         matrices=_freeze(matrices), cocycle=zero)


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
    """Check Phi_2(x_i) = f Phi_1(x_i) f^-1 + delta(x_i) I for every i."""
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
    failures = []
    for i in range(n):
        conj = linalg.mat_mul(linalg.mat_mul(f, rep1.matrices[i]), f_inv)
        # Phi_2(x_i) - delta(x_i) I - f Phi_1(x_i) f^-1
        residual = [linalg.vec_sub(r1, r2) for r1, r2 in
                    zip(_shift_diagonal(rep2.matrices[i], delta.vector[i]), conj)]
        if any(x for row in residual for x in row):
            failures.append((i, linalg.freeze_matrix(residual)))
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
