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

The maps f, g, s and phi are multiplied on the one sparse kernel of the
library, :func:`~plesken.linalg._combine`: a matrix M is read once by
:func:`_cleared_columns` as its common denominator D and the Gaussian-integer
terms (r, Re, Im) of each nonzero column of D M, and every product and check
is one sum of (x + i y) * column, scaled so that it is empty exactly when the
check holds; the cost follows the nonzeros rather than (n+1)^2 per vector.
An extension caches this form of f and g; a section is read once for both
the check g s = I and the extraction, and phi once for all of its checks.
The checks that read the bracket sum the columns against the Gaussian-integer
:attr:`~plesken.liealg.LieAlgebra.integer_terms` through the one bracket of
term lists, :func:`~plesken.liealg._bracket_pairs`.  A defect stays integer
sums: only a coefficient alpha(i, j), a witness string and the entries of
phi become ``Scalar``.  A section is found by the one exact solve of
:mod:`plesken.linalg`, applied to g s = I, so it is not checked again; every
extracted cocycle is certified once, by :func:`_cocycle`, and compared by
:func:`~plesken.cohomology._cohomologous` with no re-check.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .cohomology import BilinearForm, _cohomologous, _pairs, is_cocycle
from .errors import (
    BaseMismatch,
    DefectNotInKernel,
    NoSection,
    NotACocycle,
    Record,
)
from .liealg import (LieAlgebra, _bracket_pairs, _json_matrix, _json_scalars, algebra_from_json,
                     algebra_to_json)
from .linalg import Matrix
from .scalars import ONE, ZERO, Scalar, clear


class CentralExtension(Record):
    """Total algebra e with injection f, projection g, optional section s."""

    total: LieAlgebra
    base: LieAlgebra
    injection_f: tuple[Scalar, ...]
    projection_g: tuple[tuple[Scalar, ...], ...]
    section_s: tuple[tuple[Scalar, ...], ...] | None = None

    @cached_property
    def injection_terms(self) -> tuple[int, list[tuple[int, int, int]]]:
        """(D, the terms (t, Re, Im) of D f) of the injection vector f."""
        den, cols = _cleared_columns([[x] for x in self.injection_f])
        return den, cols.get(0, [])

    @cached_property
    def projection_columns(self) -> tuple[int, dict[int, list[tuple[int, int, int]]]]:
        """:func:`_cleared_columns` of the projection g."""
        return _cleared_columns(self.projection_g)


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
    brackets = dict(base.brackets)
    for key, a in zip(_pairs(n), alpha.flat):
        if a:
            brackets[key] = brackets.get(key, ()) + ((n, a),)
    # alpha is a cocycle on a Lie algebra, so the total satisfies Jacobi
    total = LieAlgebra(dim=n + 1, brackets=dict(sorted(brackets.items())),
                       basis_labels=tuple(base.basis_labels) + ("z",))
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
    f, g, s = ext.injection_f, ext.projection_g, ext.section_s
    if len(f) != n + 1:
        failures.append(f"injection has length {len(f)}, not {n + 1}")
    if len(g) != n or any(len(row) != n + 1 for row in g):
        failures.append(f"projection is not {n} x {n + 1}")
    if s is not None and (len(s) != n + 1 or any(len(row) != n for row in s)):
        failures.append(f"stored section is not {n + 1} x {n}")
    if failures:
        return failures
    _, f_terms = ext.injection_terms
    if not f_terms:
        failures.append("injection vector is zero")
    # g is a homomorphism on all total basis pairs
    for i, j, defect, _ in _homomorphism_defects(ext.projection_columns, total, ext.base):
        if defect:
            failures.append(f"projection is not a homomorphism at ({i},{j})")
    # exactness: g f = 0 and rank g = n, so ker g = span f
    g_cols = ext.projection_columns[1]
    if linalg._combine((a, b, g_cols.get(t, ())) for t, a, b in f_terms):
        failures.append("g(f) is nonzero; image of f is not in ker g")
    if linalg.rank(g, n + 1) != n:
        failures.append("projection is not surjective")
    # centrality of the kernel line; [f, f] = 0 needs no check of its own
    terms = total.integer_terms.terms
    for j in range(n + 1):
        if linalg._combine(_bracket_pairs(terms, f_terms, ((j, 1, 0),))):
            failures.append(f"kernel line is not central: [f, x_{j}] != 0")
    if s is not None and not _is_right_inverse(ext, s, _cleared_columns(s)):
        failures.append("stored section does not satisfy g s = I")
    return failures


def _cleared_columns(m: Matrix) -> tuple[int, dict[int, list[tuple[int, int, int]]]]:
    """(D, {c: the terms (r, Re, Im) of column c of D m}) over the nonzero
    columns of a row-major matrix m, D the common denominator of its entries;
    a zero column is read as ``()``."""
    entries = [(r, c, x) for r, row in enumerate(m) for c, x in enumerate(row) if x]
    den, re, im = clear([x for _, _, x in entries])
    cols: dict[int, list[tuple[int, int, int]]] = {}
    for (r, c, _), a, b in zip(entries, re, im):
        cols.setdefault(c, []).append((r, a, b))
    return den, cols


def _is_right_inverse(ext: CentralExtension, s: Matrix, s_cleared) -> bool:
    """g s = I_n for an n-column s read as ``s_cleared``, column by column as
    D_g g s - D_g D_s I = 0; every row of g must have ``len(s)`` entries."""
    n, g = ext.base.dim, ext.projection_g
    if any(len(row) != n for row in s) or any(len(row) != len(s) for row in g):
        return False
    (g_den, g_cols), (s_den, s_cols) = ext.projection_columns, s_cleared
    return not any(linalg._combine([(a, b, g_cols.get(t, ())) for t, a, b in s_cols.get(c, ())]
                                   + [(-g_den * s_den, 0, ((c, 1, 0),))]) for c in range(n))


def _homomorphism_defects(cleared, source: LieAlgebra, target: LieAlgebra):
    """(i, j, sums, den) for i < j, M mapping source to target read as its
    :func:`_cleared_columns` (D, D M), where the Gaussian-integer sums
    {r: [Re, Im]} over ``den`` are the nonzero entries of the defect
    [M e_i, M e_j] - M [e_i, e_j]; M is a homomorphism exactly when every sum
    is empty.  With E and F the denominators of the source and target terms,
    den is D^2 E F, and the sums are [E (D M) e_i, (D M) e_j] over the terms
    F c minus D F (E c_ijk) (D M) e_k."""
    den, cols = cleared
    e, _, source_terms = source.integer_terms
    f, _, target_terms = target.integer_terms
    left = {c: [(r, e * a, e * b) for r, a, b in col] for c, col in cols.items()}
    total, shift = den * den * e * f, -den * f
    for i in range(source.dim):
        left_i = left.get(i, ())
        for j in range(i + 1, source.dim):
            pairs = _bracket_pairs(target_terms, left_i, cols.get(j, ()))
            pairs += [(shift * a, shift * b, cols.get(k, ()))
                      for k, a, b in source_terms.get((i, j), ())]
            yield i, j, linalg._combine(pairs), total


def find_section(ext: CentralExtension) -> list[list[Scalar]]:
    """Deterministic linear right-inverse of the projection: the canonical
    solution of g s = I (free variables zero) by :func:`linalg._solve_columns`,
    whose column j a separate solve of g x = e_j would give too; for an
    extension built from a cocycle it is s(x) = (x, 0)."""
    n = ext.base.dim
    section = linalg._solve_columns(ext.projection_g, linalg.identity_matrix(n), n + 1, n)
    if isinstance(section, int):
        raise NoSection(f"projection has no right inverse at column {section}", witness=section)
    return section


def _kernel_coefficient(ext: CentralExtension, sums: dict[int, list[int]], den: int) -> Scalar:
    """Coefficient c with w = c * injection_f, for the vector w of nonzero
    entries {t: (Re + i Im) / den} given by the Gaussian-integer ``sums``;
    error when not a multiple.  With a + i b the lead entry of D_f f and
    u + i v that of den w, w is a multiple exactly when (a + i b) den w -
    (u + i v) D_f f is zero, and then c = D_f (u + i v) / (den (a + i b))."""
    f_den, f_terms = ext.injection_terms
    if not f_terms:
        raise DefectNotInKernel("injection vector is zero")
    if not sums:
        return ZERO
    lead, a, b = f_terms[0]
    u, v = sums.get(lead, (0, 0))
    if linalg._combine([(a, b, [(t, x, y) for t, (x, y) in sums.items()]), (-u, -v, f_terms)]):
        raise DefectNotInKernel(
            "vector is not a scalar multiple of the injection",
            witness=[str(Scalar._make(*sums[t], den)) if t in sums else "0"
                     for t in range(len(ext.injection_f))])
    return Scalar._make(f_den * (u * a + v * b), f_den * (v * a - u * b), den * (a * a + b * b))


def cocycle_from_extension(ext: CentralExtension, section: Matrix) -> BilinearForm:
    """alpha(x_i, x_j) = [s x_i, s x_j] - s [x_i, x_j], read off the kernel line."""
    cleared = _cleared_columns(section)
    if not _is_right_inverse(ext, section, cleared):
        raise NoSection("given map is not a section: g s != I")
    return _cocycle(ext, cleared)


def _cocycle(ext: CentralExtension, cleared) -> BilinearForm:
    """The cocycle of a section with g s = I read as ``cleared``, certified
    by :func:`~plesken.cohomology.is_cocycle`."""
    n = ext.base.dim
    entries = {(i, j): _kernel_coefficient(ext, sums, den)
               for i, j, sums, den in _homomorphism_defects(cleared, ext.base, ext.total)}
    alpha = BilinearForm.from_entries(n, entries)
    ok, witness = is_cocycle(ext.base, alpha)
    if not ok:
        raise NotACocycle(
            "extracted form is not a cocycle; the input is not a valid "
            "central extension", witness=list(witness))
    return alpha


def equivalence_map(ext1: CentralExtension,
                    ext2: CentralExtension) -> list[list[Scalar]] | None:
    """Commuting isomorphism between two extensions of the same base, or None.

    Extracts both cocycles through canonical sections; when they are
    cohomologous via sigma, maps c*f1 + s1(y) to c*f2 + s2(y) + sigma(y)*f2.
    """
    base = ext1.base
    if (base.dim != ext2.base.dim or base.brackets != ext2.base.brackets):
        raise BaseMismatch("extensions are not over the same base algebra")
    s1, s2 = find_section(ext1), find_section(ext2)
    read1, read2 = _cleared_columns(s1), _cleared_columns(s2)
    sigma = _cohomologous(base, _cocycle(ext1, read1), _cocycle(ext2, read2))
    if sigma is None:
        return None
    n = base.dim
    # column k of phi is s2 y + (kappa1(e_k - s1 y) + sigma(y)) f2, y = g1 e_k,
    # where D_g1 y is column k of the cleared g1
    (d1, s1_cols), (d2, s2_cols) = read1, read2
    g1, (dg, g1_cols) = ext1.projection_g, ext1.projection_columns
    f2, f2_terms = ext2.injection_f, ext2.injection_terms[1]
    phi_cols = []
    for k in range(n + 1):
        y = g1_cols.get(k, ())
        residue = linalg._combine([(dg * d1, 0, ((k, 1, 0),))]
                                  + [(-a, -b, s1_cols.get(c, ())) for c, a, b in y])
        shift = sum((sigma.vector[c] * g1[c][k] for c, _, _ in y),
                    _kernel_coefficient(ext1, residue, dg * d1))
        col = {r: Scalar._make(u, v, dg * d2) for r, (u, v)
               in linalg._combine([(a, b, s2_cols.get(c, ())) for c, a, b in y]).items()}
        for t, _, _ in f2_terms:
            col[t] = col.get(t, ZERO) + shift * f2[t]
        phi_cols.append(col)
    return [[col.get(r, ZERO) for col in phi_cols] for r in range(n + 1)]


def verify_equivalence_map(ext1: CentralExtension, ext2: CentralExtension,
                           phi: Matrix) -> list[str]:
    """Check phi: homomorphism, phi f1 = f2, g2 phi = g1, invertible."""
    failures = []
    n1 = ext1.total.dim
    if len(phi) != n1 or any(len(row) != n1 for row in phi):
        return [f"phi must be {n1} x {n1}"]
    cleared = _cleared_columns(phi)
    dp, phi_cols = cleared
    for i, j, defect, _ in _homomorphism_defects(cleared, ext1.total, ext2.total):
        if defect:
            failures.append(f"phi is not a homomorphism at ({i},{j})")
    # D_f2 phi (D_f1 f1) - D_phi D_f1 (D_f2 f2) = 0 and, column by column,
    # D_g1 g2 (D_phi phi) - D_g2 D_phi (D_g1 g1) = 0
    (df1, f1), (df2, f2) = ext1.injection_terms, ext2.injection_terms
    if linalg._combine([(df2 * a, df2 * b, phi_cols.get(t, ())) for t, a, b in f1]
                       + [(-dp * df1, 0, f2)]):
        failures.append("phi does not carry the first injection to the second")
    (dg1, g1_cols), (dg2, g2_cols) = ext1.projection_columns, ext2.projection_columns
    if any(linalg._combine([(dg1 * a, dg1 * b, g2_cols.get(t, ()))
                            for t, a, b in phi_cols.get(k, ())]
                           + [(-dg2 * dp, 0, g1_cols.get(k, ()))]) for k in range(n1)):
        failures.append("g2 phi differs from g1")
    if linalg.rank(phi, n1) != n1:
        failures.append("phi is not invertible")
    return failures


class SplitResult(Record, eq=True):
    """Split decision with a verified homomorphic section when split."""

    split: bool
    section: tuple[tuple[Scalar, ...], ...] | None

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
    alpha = _cocycle(ext, _cleared_columns(section))
    sigma = _cohomologous(base, alpha, BilinearForm.zero(base.dim))
    if sigma is None:
        return SplitResult(split=False, section=None)
    n = base.dim
    f = ext.injection_f
    witness = [[section[r][j] - sigma.vector[j] * f[r] for j in range(n)]
               for r in range(n + 1)]
    for i, j, defect, _ in _homomorphism_defects(_cleared_columns(witness), base, ext.total):
        if defect:
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
    f = tuple(_json_scalars(doc["f"], "f"))
    g = linalg.freeze_matrix(_json_matrix(doc["g"], "g"))
    s = None
    if doc.get("s") is not None:
        s = linalg.freeze_matrix(_json_matrix(doc["s"], "s"))
    ext = CentralExtension(total=total, base=base, injection_f=f,
                           projection_g=g, section_s=s)
    failures = verify_central_extension(ext)
    if failures:
        raise DefectNotInKernel(
            "document is not a valid central extension: " + failures[0],
            witness=failures)
    return ext
