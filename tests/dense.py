"""Dense Scalar oracles for the tests.

The library multiplies matrices on Gaussian-integer kernels only: sparse
columns for the structure maps of an extension and packed rows for
representation matrices.  The plain row-by-column products below are the
independent slow path the tests compare both against, together with dense
restatements of the extension checks that read every entry of every map and
of the kernel coefficient, r[lead] / f[lead] in ``Scalar``.
Every oracle here reads the structure constants through the dense view
``structure`` (directly or through :func:`dense_bracket`), never the table the
library derives from the stored terms.  The Jacobi and cocycle checks run
in Gaussian integers; :func:`scalar_cocycle_terms` and
:func:`scalar_residual` are their term-by-term ``Scalar`` walk, and
:func:`gaussian_table` makes the sparse tables with Gaussian-rational
coefficients both are compared on, and :func:`scalar_constraint_rows` sums
the walk's terms into constraint rows over any set of triples.
:func:`relabelled_table` restates an algebra in a seeded basis order.  :func:`dense_rows` spells out the sparse
Gaussian-integer rows of the library as ``Scalar`` rows, for the dense
Gauss-Jordan oracles :func:`dense_rref` and :func:`dense_nullspace` and for
:func:`~plesken.linalg.rank_reversed`.  :func:`equivalence_map` finds its
sigma by :func:`dense_solve` over the structure constants of every basis
pair.  :func:`dense_hat_coordinates` scans every basis pair of a Plesken
basis, where the library reads only the nonzero coefficients of the element.
The seeded draws of :mod:`plesken.verify` are restated through ``Fraction``
and, for a cocycle, as a dense sum of ``Scalar`` basis rows, where the
library draws integers and sums Gaussian-integer rows.
"""

from __future__ import annotations

from fractions import Fraction

from plesken import linalg
from plesken.cohomology import BilinearForm, LinearFunctional, pair_index
from plesken.errors import BaseMismatch, DefectNotInKernel
from plesken.extensions import cocycle_from_extension, find_section
from plesken.scalars import ONE, ZERO, I, Scalar, clear


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def functional_value(sigma, u):
    """sigma(u) for a :class:`~plesken.cohomology.LinearFunctional` sigma."""
    return sum((s * x for s, x in zip(sigma.vector, u)), ZERO)


def vec_eq(u, v):
    return len(u) == len(v) and all(a == b for a, b in zip(u, v))


def mat_eq(a, b):
    return len(a) == len(b) and all(vec_eq(x, y) for x, y in zip(a, b))


def mat_vec(m, v):
    out = []
    for row in m:
        acc = ZERO
        for c, x in zip(row, v):
            if c and x:
                acc = acc + c * x
        out.append(acc)
    return out


def mat_mul(a, b):
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


def column(m, k):
    return [row[k] for row in m]


def dense_bracket(algebra, u, v):
    """[u, v] summed over the dense ``structure`` of every basis pair i < j
    with a stored bracket."""
    out = [ZERO] * algebra.dim
    for i, j in algebra.brackets:
        coeff = u[i] * v[j] - u[j] * v[i]
        if coeff:
            for k, ck in enumerate(algebra.structure(i, j)):
                if ck:
                    out[k] = out[k] + coeff * ck
    return out


def dense_hat_coordinates(group, element, basis):
    """Hat coordinates by a scan of every basis pair, then of every
    coefficient for weight outside the pairs; the same ValueErrors as
    :func:`~plesken.liealg._hat_terms`."""
    coords = []
    coeffs = element.coefficients
    for g, gi in basis.pairs:
        cg = coeffs.get(g, ZERO)
        if coeffs.get(gi, ZERO) != -cg:
            raise ValueError(
                f"element is not in the hat span: pair ({g},{gi}) weights differ")
        coords.append(cg)
    pair_members = {g for pair in basis.pairs for g in pair}
    for g in coeffs:
        if g not in pair_members:
            raise ValueError(
                f"element is not in the hat span: weight on self-inverse element {g}")
    return coords


def homomorphism_failures(m, source, target, name):
    """"<name> is not a homomorphism at (i,j)" wherever
    [M e_i, M e_j] != M [e_i, e_j], from whole columns of M."""
    return [f"{name} is not a homomorphism at ({i},{j})"
            for i in range(source.dim) for j in range(i + 1, source.dim)
            if any(vec_sub(dense_bracket(target, column(m, i), column(m, j)),
                           mat_vec(m, source.structure(i, j))))]


def verify_central_extension(ext):
    """The checks of :func:`plesken.extensions.verify_central_extension`,
    stated on dense vectors and products, in the same order and words."""
    n = ext.base.dim
    total = ext.total
    if total.dim != n + 1:
        return [f"total dim {total.dim} is not base dim {n} + 1"]
    f, g, s = ext.injection_f, ext.projection_g, ext.section_s
    failures = []
    if len(f) != n + 1:
        failures.append(f"injection has length {len(f)}, not {n + 1}")
    if len(g) != n or any(len(row) != n + 1 for row in g):
        failures.append(f"projection is not {n} x {n + 1}")
    if s is not None and (len(s) != n + 1 or any(len(row) != n for row in s)):
        failures.append(f"stored section is not {n + 1} x {n}")
    if failures:
        return failures
    if not any(f):
        failures.append("injection vector is zero")
    if any(dense_bracket(total, f, f)):
        failures.append("injection bracket [f,f] is nonzero")
    failures += homomorphism_failures(g, total, ext.base, "projection")
    if any(mat_vec(g, f)):
        failures.append("g(f) is nonzero; image of f is not in ker g")
    if linalg.rank(g, n + 1) != n:
        failures.append("projection is not surjective")
    for j, e_j in enumerate(linalg.identity_matrix(n + 1)):
        if any(dense_bracket(total, f, e_j)):
            failures.append(f"kernel line is not central: [f, x_{j}] != 0")
    if s is not None and not mat_eq(mat_mul(g, s), linalg.identity_matrix(n)):
        failures.append("stored section does not satisfy g s = I")
    return failures


def equivalence_map(ext1, ext2):
    """phi(e_k) = s2 y + (kappa1(e_k - s1 y) + sigma(y)) f2 with y = g1 e_k,
    every product dense."""
    base = ext1.base
    if base.dim != ext2.base.dim or base.brackets != ext2.base.brackets:
        raise BaseMismatch("extensions are not over the same base algebra")
    s1 = find_section(ext1)
    s2 = find_section(ext2)
    alpha = cocycle_from_extension(ext1, s1)
    beta = cocycle_from_extension(ext2, s2)
    # sigma([x_i, x_j]) = beta(x_i, x_j) - alpha(x_i, x_j) over every pair
    n = base.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sigma = dense_solve([base.structure(i, j) for i, j in pairs],
                        [beta.entry(i, j) - alpha.entry(i, j) for i, j in pairs], n)
    if sigma is None:
        return None
    sigma = LinearFunctional(tuple(sigma))
    phi_cols = []
    for ek in linalg.identity_matrix(n + 1):
        y = mat_vec(ext1.projection_g, ek)
        residue = vec_sub(ek, mat_vec(s1, y))
        shift = kernel_coefficient(ext1.injection_f, residue) + functional_value(sigma, y)
        phi_cols.append(vec_add(mat_vec(s2, y), vec_scale(shift, ext2.injection_f)))
    return [[phi_cols[k][r] for k in range(n + 1)] for r in range(n + 1)]


def kernel_coefficient(f, r):
    """c with r = c f, read densely as r[lead] / f[lead] at the first nonzero
    entry of f, with the errors of the library's kernel coefficient."""
    lead = next((t for t, x in enumerate(f) if x), None)
    if lead is None:
        raise DefectNotInKernel("injection vector is zero")
    c = r[lead] / f[lead]
    if not vec_eq(r, vec_scale(c, f)):
        raise DefectNotInKernel("vector is not a scalar multiple of the injection",
                                witness=[str(x) for x in r])
    return c


def verify_equivalence_map(ext1, ext2, phi):
    """The checks of :func:`plesken.extensions.verify_equivalence_map` on
    dense products."""
    n1 = ext1.total.dim
    if len(phi) != n1 or any(len(row) != n1 for row in phi):
        return [f"phi must be {n1} x {n1}"]
    failures = homomorphism_failures(phi, ext1.total, ext2.total, "phi")
    if not vec_eq(mat_vec(phi, ext1.injection_f), list(ext2.injection_f)):
        failures.append("phi does not carry the first injection to the second")
    if not mat_eq(mat_mul(ext2.projection_g, phi), [list(r) for r in ext1.projection_g]):
        failures.append("g2 phi differs from g1")
    if linalg.rank(phi, n1) != n1:
        failures.append("phi is not invertible")
    return failures


# -- Gaussian-rational tables and the Scalar cocycle walk ---------------------------

REAL_COEFFICIENTS = [Scalar(c) for c in (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2),
                                         Fraction(2, 3), Fraction(-1, 3))]
GAUSSIAN_COEFFICIENTS = REAL_COEFFICIENTS + [
    I, -I, Scalar(Fraction(1, 2), Fraction(1, 3)), Scalar(-1, Fraction(2, 3)),
    Scalar(0, Fraction(-3, 2)), Scalar(Fraction(2, 3), 1)]


def gaussian_table(rng, n, real):
    """A sparse bracket table, Lie or not, with coefficients of denominator 2
    and 3, and with i unless ``real``."""
    coefficients = REAL_COEFFICIENTS if real else GAUSSIAN_COEFFICIENTS
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {}
    for i, j in rng.sample(pairs, rng.randint(1, min(5, len(pairs)))):
        vec = [ZERO] * n
        for k in rng.sample(range(n), rng.randint(1, 2)):
            vec[k] = rng.choice(coefficients)
        table[(i, j)] = vec
    return table


def gaussian_form(rng, n, count):
    """A form with ``count`` random Gaussian-rational entries."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = rng.sample(pairs, min(count, len(pairs)))
    return BilinearForm.from_entries(n, {p: rng.choice(GAUSSIAN_COEFFICIENTS) for p in picked})


def rescaled_table(algebra, scales):
    """The structure constants of ``algebra`` in the basis scales[i] x_i:
    [y_i, y_j] = sum_k scales[i] scales[j] / scales[k] c(i,j)_k y_k."""
    return {(i, j): [scales[i] * scales[j] / scales[k] * c
                     for k, c in enumerate(algebra.structure(i, j))]
            for i, j in algebra.brackets}


def relabelled_table(algebra, rng):
    """The bracket table of ``algebra`` in the basis y_a = x_p(a), p a seeded
    permutation: the same algebra in another basis order, as a relabelled
    group gives its L(G)."""
    n = algebra.dim
    order = list(range(n))
    rng.shuffle(order)
    position = {x: a for a, x in enumerate(order)}
    table = {}
    for i, j in algebra.brackets:
        a, b = sorted((position[i], position[j]))
        vec = algebra.structure(order[a], order[b])
        table[(a, b)] = [vec[x] for x in order]
    return table


def scalar_constraint_rows(algebra, triples):
    """The cocycle condition on each of ``triples`` as a sparse
    Gaussian-integer row (re, im) over one common denominator, from the
    ``Scalar`` terms of :func:`scalar_cocycle_terms`; zero rows are dropped."""
    sums = []
    for i, j, k in triples:
        row = {}
        for idx, c in scalar_cocycle_terms(algebra, i, j, k):
            row[idx] = row.get(idx, ZERO) + c
        sums.append({idx: c for idx, c in row.items() if c})
    den, re, im = clear([c for row in sums for c in row.values()])
    parts = iter(zip(re, im))
    rows = []
    for row in sums:
        if row:
            cleared = [(idx, *next(parts)) for idx in row]
            rows.append(({idx: a for idx, a, _ in cleared if a},
                         {idx: b for idx, _, b in cleared if b}))
    return rows


def scalar_cocycle_terms(algebra, i, j, k):
    """(flat index, coefficient) terms of the cocycle condition on (i, j, k),
    read from the stored structure vectors."""
    n = algebra.dim
    for (a, b, t) in ((i, j, k), (j, k, i), (k, i, j)):
        for m, cm in enumerate(algebra.structure(a, b)):
            if cm and m < t:
                yield pair_index(n, m, t), cm
            elif cm and m > t:
                yield pair_index(n, t, m), -cm


def scalar_residual(algebra, flat, i, j, k):
    """The cocycle residual on (i, j, k), summed term by term in ``Scalar``s."""
    acc = ZERO
    for idx, c in scalar_cocycle_terms(algebra, i, j, k):
        if flat[idx]:
            acc = acc + c * flat[idx]
    return acc


def dense_rows(rows, ncols, den=1):
    """Sparse Gaussian-integer rows (re, im) over the denominator ``den`` as
    dense ``Scalar`` rows."""
    return [[Scalar(Fraction(re.get(t, 0), den), Fraction(im.get(t, 0), den))
             if t in re or t in im else ZERO for t in range(ncols)] for re, im in rows]


# -- seeded draws ---------------------------------------------------------------------


def random_rational(rng):
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def random_scalar(rng):
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 2)))


def random_vector(rng, n):
    return [random_scalar(rng) for _ in range(n)]


def random_functional(rng, n):
    return LinearFunctional.of([random_rational(rng) for _ in range(n)])


def random_cocycle(rng, algebra, z2):
    """A seeded rational times each dense basis row of z2, summed in ``Scalar``s."""
    flat = [ZERO] * z2.ambient_dim
    for row in z2.basis:
        coeff = random_rational(rng)
        if coeff:
            flat = vec_add(flat, vec_scale(coeff, row))
    return BilinearForm.from_flat(algebra.dim, flat)


# -- dense Gauss-Jordan ---------------------------------------------------------------


def dense_rref(rows, ncols):
    """Reference oracle: dense Gauss-Jordan, first nonzero row as pivot."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
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


def dense_solve(rows, b, ncols):
    """The solution of rows x = b with free variables zero, or None."""
    red, pivots = dense_rref([list(r) + [x] for r, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


def dense_nullspace(rows, ncols):
    """The RREF of the standard free-column vectors, all on dense_rref."""
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[free] = ONE
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return dense_rref(basis, ncols)[0]
