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

The maps f, g, s and phi are multiplied on one sparse kernel: a matrix is
read as the nonzero entries (r, x) of each nonzero column, and every product
and check is a sum of x * column into its nonzero entries {r: value}, so the
cost follows the nonzeros rather than (n+1)^2 per vector.  Each map is read
into columns once: an extension caches the columns of its stored g and s
beside the terms of f, a section found or given is read once for both the
check g s = I and the extraction, and phi once for all of its checks.  The
checks that read the bracket sum cleared columns against the Gaussian-integer
:attr:`~plesken.liealg.LieAlgebra.integer_terms` through the one bracket of
term lists, :func:`~plesken.liealg._bracket_pairs`.  A section is found by
the one exact solve of :mod:`plesken.linalg`, applied to g s = I.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .cohomology import BilinearForm, _pairs, are_cohomologous, is_cocycle
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
    def injection_terms(self) -> tuple[tuple[int, Scalar], ...]:
        """Nonzero entries (t, f_t) of the injection vector."""
        return tuple((t, x) for t, x in enumerate(self.injection_f) if x)

    @cached_property
    def projection_columns(self) -> dict[int, list[tuple[int, Scalar]]]:
        """:func:`_columns` of the projection g."""
        return _columns(self.projection_g)

    @cached_property
    def section_columns(self) -> dict[int, list[tuple[int, Scalar]]] | None:
        """:func:`_columns` of the stored section s, None without one."""
        return None if self.section_s is None else _columns(self.section_s)


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
    f_terms = ext.injection_terms
    if not f_terms:
        failures.append("injection vector is zero")
    g_cols = ext.projection_columns
    # g is a homomorphism on all total basis pairs
    for i, j, defect in _homomorphism_defects(g_cols, total, ext.base):
        if defect:
            failures.append(f"projection is not a homomorphism at ({i},{j})")
    # exactness: g f = 0 and rank g = n, so ker g = span f
    if _combination((x, g_cols.get(t, ())) for t, x in f_terms):
        failures.append("g(f) is nonzero; image of f is not in ker g")
    if linalg.rank(g, n + 1) != n:
        failures.append("projection is not surjective")
    # centrality of the kernel line; [f, f] = 0 needs no check of its own
    terms = total.integer_terms.terms
    _, f_re, f_im = clear([x for _, x in f_terms])
    f_cleared = [(t, a, b) for (t, _), a, b in zip(f_terms, f_re, f_im)]
    for j in range(n + 1):
        if linalg._combine(_bracket_pairs(terms, f_cleared, ((j, 1, 0),))):
            failures.append(f"kernel line is not central: [f, x_{j}] != 0")
    if s is not None and not _is_right_inverse(ext, s, ext.section_columns):
        failures.append("stored section does not satisfy g s = I")
    return failures


def _columns(m: Matrix) -> dict[int, list[tuple[int, Scalar]]]:
    """{c: the nonzero entries (r, x) of column c} over the nonzero columns
    of a row-major matrix; a zero column is read as ``()``."""
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for r, row in enumerate(m):
        for c, x in enumerate(row):
            if x:
                cols.setdefault(c, []).append((r, x))
    return cols


def _combination(terms) -> dict[int, Scalar]:
    """Sum of x * column over the pairs (x, column), each column given by its
    nonzero entries (r, y), as the nonzero entries {r: value} of the sum."""
    acc: dict[int, Scalar] = {}
    for x, column in terms:
        for r, y in column:
            v = x * y
            acc[r] = acc[r] + v if r in acc else v
    return {r: v for r, v in acc.items() if v}


def _is_right_inverse(ext: CentralExtension, s: Matrix, s_cols) -> bool:
    """g s = I_n for an n-column s with columns ``s_cols``, column by column;
    every row of g must have ``len(s)`` entries."""
    n, g = ext.base.dim, ext.projection_g
    if any(len(row) != n for row in s) or any(len(row) != len(s) for row in g):
        return False
    g_cols = ext.projection_columns
    return all(_combination((x, g_cols.get(t, ())) for t, x in s_cols.get(c, ()))
               == {c: ONE} for c in range(n))


def _homomorphism_defects(cols, source: LieAlgebra, target: LieAlgebra):
    """(i, j, [M e_i, M e_j] - M [e_i, e_j]) for i < j, M mapping source to
    target given by its :func:`_columns`, each defect as its nonzero entries
    {r: value}; M is a homomorphism exactly when every defect is empty.  M is
    cleared once to D M, and D^2 E F times a defect, E and F the denominators
    of the source and target terms, is summed in Gaussian integers:
    [E (D M) e_i, (D M) e_j] over the terms F c minus D F (E c_ijk) (D M) e_k."""
    den, re, im = clear([x for col in cols.values() for _, x in col])
    parts = iter(zip(re, im))
    cols = {c: [(r, *next(parts)) for r, _ in col] for c, col in cols.items()}
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
            yield i, j, {r: Scalar._make(u, v, total)
                         for r, (u, v) in linalg._combine(pairs).items()}


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


def _kernel_coefficient(ext: CentralExtension, vector: dict[int, Scalar]) -> Scalar:
    """Coefficient c with vector = c * injection_f, for a vector given by its
    nonzero entries {t: value}; error when not a multiple."""
    f_terms = ext.injection_terms
    if not f_terms:
        raise DefectNotInKernel("injection vector is zero")
    if not vector:
        return ZERO
    lead, f_lead = f_terms[0]
    c = vector.get(lead, ZERO) / f_lead
    if vector != ({t: c * x for t, x in f_terms} if c else {}):
        raise DefectNotInKernel(
            "vector is not a scalar multiple of the injection",
            witness=[str(vector.get(t, ZERO)) for t in range(len(ext.injection_f))])
    return c


def cocycle_from_extension(ext: CentralExtension,
                           section: Matrix) -> BilinearForm:
    """alpha(x_i, x_j) = [s x_i, s x_j] - s [x_i, x_j], read off the kernel line."""
    cols = ext.section_columns if section is ext.section_s else _columns(section)
    return _cocycle(ext, section, cols)


def _cocycle(ext: CentralExtension, section: Matrix, cols) -> BilinearForm:
    """:func:`cocycle_from_extension` for a section given with its columns."""
    n = ext.base.dim
    if not _is_right_inverse(ext, section, cols):
        raise NoSection("given map is not a section: g s != I")
    entries = {(i, j): _kernel_coefficient(ext, defect)
               for i, j, defect in _homomorphism_defects(cols, ext.base, ext.total)}
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
    s1 = find_section(ext1)
    s2 = find_section(ext2)
    s1_cols, s2_cols = _columns(s1), _columns(s2)
    alpha = _cocycle(ext1, s1, s1_cols)
    beta = _cocycle(ext2, s2, s2_cols)
    sigma = are_cohomologous(base, alpha, beta)
    if sigma is None:
        return None
    n = base.dim
    # column k of phi is s2 y + (kappa1(e_k - s1 y) + sigma(y)) f2, y = g1 e_k
    g1_cols = ext1.projection_columns
    f2 = ext2.injection_terms
    phi_cols = []
    for k in range(n + 1):
        y = g1_cols.get(k, ())
        residue = _combination([(ONE, ((k, ONE),))]
                               + [(-x, s1_cols.get(c, ())) for c, x in y])
        shift = sum((sigma.vector[c] * x for c, x in y),
                    _kernel_coefficient(ext1, residue))
        phi_cols.append(_combination([(x, s2_cols.get(c, ())) for c, x in y]
                                     + [(shift, f2)]))
    return [[col.get(r, ZERO) for col in phi_cols] for r in range(n + 1)]


def verify_equivalence_map(ext1: CentralExtension, ext2: CentralExtension,
                           phi: Matrix) -> list[str]:
    """Check phi: homomorphism, phi f1 = f2, g2 phi = g1, invertible."""
    failures = []
    n1 = ext1.total.dim
    if len(phi) != n1 or any(len(row) != n1 for row in phi):
        return [f"phi must be {n1} x {n1}"]
    phi_cols = _columns(phi)
    for i, j, defect in _homomorphism_defects(phi_cols, ext1.total, ext2.total):
        if defect:
            failures.append(f"phi is not a homomorphism at ({i},{j})")
    if (_combination((x, phi_cols.get(t, ())) for t, x in ext1.injection_terms)
            != dict(ext2.injection_terms)):
        failures.append("phi does not carry the first injection to the second")
    g1_cols, g2_cols = ext1.projection_columns, ext2.projection_columns
    if any(_combination((x, g2_cols.get(t, ())) for t, x in phi_cols.get(k, ()))
           != dict(g1_cols.get(k, ())) for k in range(n1)):
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
    alpha = _cocycle(ext, section, _columns(section))
    sigma = are_cohomologous(base, alpha, BilinearForm.zero(base.dim))
    if sigma is None:
        return SplitResult(split=False, section=None)
    n = base.dim
    f = ext.injection_f
    witness = [[section[r][j] - sigma.vector[j] * f[r] for j in range(n)]
               for r in range(n + 1)]
    for i, j, defect in _homomorphism_defects(_columns(witness), base, ext.total):
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
