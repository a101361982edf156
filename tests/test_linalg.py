from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from dense import mat_eq, mat_mul, mat_vec
from plesken import linalg
from plesken.cohomology import _constraint_rows, flat_dim
from plesken.scalars import ONE, ZERO, Scalar


def _mat(rows):
    return [[Scalar(x) for x in row] for row in rows]


def _rand_matrix(rng, rows, cols):
    return [[Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(cols)] for _ in range(rows)]


def leibniz_det(m):
    """Independent determinant oracle: signed permutation expansion."""
    n = len(m)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ONE if sign > 0 else -ONE
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


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


def _rand_complex_matrix(rng, rows, cols, density):
    """Sparse-ish Q(i) matrix with some zero rows and duplicated rows."""
    m = []
    for _ in range(rows):
        roll = rng.random()
        if m and roll < 0.15:
            m.append(list(rng.choice(m)))
        elif roll < 0.25:
            m.append([ZERO] * cols)
        else:
            m.append([Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                             Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                      if rng.random() < density else ZERO for _ in range(cols)])
    return m


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
def test_rref_matches_dense_oracle_on_random_complex(shape):
    rng = random.Random(f"rref-{shape}")
    for _ in range(40):
        small, large = rng.randint(1, 5), rng.randint(5, 12)
        rows, cols = {"tall": (large, small), "wide": (small, large),
                      "square": (small, small)}[shape]
        m = _rand_complex_matrix(rng, rows, cols, rng.choice([0.2, 0.5, 0.9]))
        assert linalg.rref(m, cols) == dense_rref(m, cols)


def test_rref_matches_dense_oracle_on_empty_shapes():
    for rows, ncols in (([], 0), ([], 3), ([[], []], 0), ([[ZERO] * 4] * 3, 4)):
        assert linalg.rref(rows, ncols) == dense_rref(rows, ncols)


def test_rref_matches_dense_oracle_on_fixture_constraints(fixture_set):
    for name, algebra in fixture_set.algebras:
        nflat = flat_dim(algebra.dim)
        rows = _constraint_rows(algebra)
        assert linalg.rref(rows, nflat) == dense_rref(rows, nflat), name


def test_rref_canonical_shape():
    m = _mat([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    red, pivots = linalg.rref(m, 3)
    assert pivots == [0, 1]
    assert red[0][0] == ONE and red[1][1] == ONE
    assert red[0][1] == ZERO
    again, pivots2 = linalg.rref(red, 3)
    assert again == red and pivots2 == pivots


def test_rref_is_fixed_point_on_random_input():
    rng = random.Random(11)
    for _ in range(20):
        m = _rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, piv = linalg.rref(m, len(m[0]))
        red2, piv2 = linalg.rref(red, len(m[0]))
        assert red2 == red and piv2 == piv


def test_nullspace_annihilates_rows():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = _rand_matrix(rng, rows, cols)
        basis = linalg.nullspace(m, cols)
        assert len(basis) == cols - linalg.rank(m, cols)
        for v in basis:
            assert linalg.vec_is_zero(mat_vec(m, v))


def test_solve_canonical_and_inconsistent():
    m = _mat([[1, 2], [2, 4]])
    assert linalg.solve(m, [Scalar(1), Scalar(2)], 2) == [Scalar(1), ZERO]
    assert linalg.solve(m, [Scalar(1), Scalar(3)], 2) is None


def test_solve_free_variables_are_zero():
    # one equation, two unknowns: canonical solution zeroes the free column
    m = _mat([[0, 3]])
    assert linalg.solve(m, [Scalar(6)], 2) == [ZERO, Scalar(2)]


def test_full_rank_iff_leibniz_det_nonzero():
    rng = random.Random(5)
    singular = 0
    for n in (1, 2, 3, 4):
        for _ in range(8):
            m = _rand_matrix(rng, n, n)
            # the same matrix with its first row repeated last is singular
            for a in (m, m[:-1] + m[:1]):
                full = linalg.rank(a, n) == n
                assert full == (leibniz_det(a) != ZERO)
                singular += not full
    assert singular >= 24


def test_invert_roundtrip_and_singular():
    m = _mat([[1, 1], [0, 2]])
    inv = linalg.invert(m)
    assert mat_eq(mat_mul(m, inv), linalg.identity_matrix(2))
    assert linalg.invert(_mat([[1, 2], [2, 4]])) is None


def test_rank_agrees_with_reversed_ordering():
    rng = random.Random(31)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _rand_matrix(rng, rows, cols)
        assert linalg.rank(m, cols) == linalg.rank_reversed(m, cols)


def test_reduce_against_rref_basis():
    red, piv = linalg.rref(_mat([[1, 0, 2], [0, 1, 3]]), 3)
    v = [Scalar(2), Scalar(1), Scalar(7)]
    residue = linalg.reduce_against(v, red, piv)
    assert residue == [ZERO, ZERO, ZERO]
    w = [Scalar(0), Scalar(0), Scalar(1)]
    assert linalg.reduce_against(w, red, piv) == w
