from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from dense import dense_nullspace, dense_rows, dense_rref, dense_solve, mat_eq, mat_mul, mat_vec
from plesken import linalg
from plesken.cohomology import _constraint_rows, flat_dim
from plesken.errors import DimensionMismatch, NoSection
from plesken.extensions import CentralExtension, find_section
from plesken.liealg import from_structure_constants
from plesken.scalars import I, ONE, ZERO, Scalar


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
        rows = dense_rows(_constraint_rows(algebra), nflat, algebra.integer_terms.den)
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


def kernel_basis(m, cols):
    """The canonical nullspace of the scalar rows m, as dense scalar rows."""
    kept = linalg._kernel(linalg._integer_rows(m), cols)
    return [list(row) for row in linalg.Subspace.from_reduced(cols, kept).basis]


def test_nullspace_annihilates_rows():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = _rand_matrix(rng, rows, cols)
        basis = kernel_basis(m, cols)
        assert len(basis) == cols - linalg.rank(m, cols)
        for v in basis:
            assert not any(mat_vec(m, v))


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


@pytest.mark.parametrize("call", [
    # non-square matrices, which the RREF of [m | I] would misread
    lambda: linalg.invert(_mat([[1], [2]])),
    lambda: linalg.invert(_mat([[1, 2, 3], [4, 5, 6]])),
    # a row of A shorter than ncols, and a b with more rows than A
    lambda: linalg.solve(_mat([[1]]), [ONE], 2),
    lambda: linalg.solve(_mat([[1, 0]]), [ONE, Scalar(2)], 2),
], ids=["invert-2x1", "invert-2x3", "solve-short-row", "solve-long-b"])
def test_solve_and_invert_check_shapes(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_rank_agrees_with_reversed_ordering():
    # rank takes the free pivot: real rows with a combination that cancels,
    # sparse complex rows with zero and repeated rows, and complex pivots with
    # cancelling Gaussian combinations, where it often leaves the leftmost one
    rng = random.Random(31)
    moved = 0
    for trial in range(90):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        if trial % 3 == 0:
            m = _rand_matrix(rng, rows, cols)
            c, d = Scalar(Fraction(rng.randint(-4, 4), 3)), Scalar(rng.randint(1, 3))
            m.append([c * x + d * y for x, y in zip(m[0], m[-1])])
        elif trial % 3 == 1:
            m = _rand_complex_matrix(rng, rows, cols, rng.choice([0.2, 0.5]))
        else:
            m = _hard_matrix(rng, rows, cols, big=False)
        assert linalg.rank(m, cols) == linalg.rank_reversed(m, cols)
        free = linalg._eliminate(linalg._integer_rows(m), cols, free=True)
        moved += sorted(free) != dense_rref(m, cols)[1]
    assert moved


# -- the Gaussian-integer core against dense Scalar oracles ------------------------


def dense_invert(m):
    n = len(m)
    red, pivots = dense_rref(
        [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)],
        2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def dense_right_inverse(g, ncols):
    """The right inverse of g whose column j is :func:`dense_solve` of
    g x = e_j, or the first j with no solution."""
    n = len(g)
    columns = []
    for j in range(n):
        x = dense_solve(g, [ONE if i == j else ZERO for i in range(n)], ncols)
        if x is None:
            return j
        columns.append(x)
    return [[x[r] for x in columns] for r in range(ncols)]


def dense_reduce_against(v, rows, pivots):
    out = list(v)
    for row, pc in zip(rows, pivots):
        f = out[pc]
        out = [x - f * y for x, y in zip(out, row)]
    return out


def dense_complement_rows(base, space):
    """Rows of space reduced in order against base and the rows found so far,
    as tuples."""
    work, pivots, out = [list(r) for r in base], dense_rref(base, len(space[0]))[1], []
    for row in space:
        residue = dense_reduce_against(row, work, pivots)
        lead = next((t for t, x in enumerate(residue) if x), None)
        if lead is not None:
            residue = tuple(x / residue[lead] for x in residue)
            out.append(residue)
            work.append(residue)
            pivots.append(lead)
    return out


NONSINGLETON_ZEROS = (Scalar(0), -ZERO, Scalar._make(0, 0, 7), Scalar(1) - Scalar(1))
TWO_MINUS_I = Scalar(2, -1)
COMPLEX_PIVOTS = (I, ONE + I, TWO_MINUS_I, -I, Scalar(Fraction(3, 5), Fraction(-7, 2)))


def _gaussian(rng, big):
    hi, den = (10 ** 9, 10 ** 6) if big else (4, 3)
    re = Fraction(rng.randint(-hi, hi), rng.randint(1, den))
    im = Fraction(rng.randint(-hi, hi), rng.randint(1, den)) if rng.random() < 0.5 else 0
    return Scalar(re, im)


def _hard_matrix(rng, rows, cols, big):
    """Rows led by a complex pivot, rows of zeros that are not the ZERO
    singleton, and Gaussian combinations of two earlier rows, which cancel
    to zero against them."""
    m = []
    for _ in range(rows):
        roll = rng.random()
        if len(m) >= 2 and roll < 0.3:
            a, b = rng.sample(m, 2)
            c, d = _gaussian(rng, big), rng.choice(COMPLEX_PIVOTS)
            m.append([c * x + d * y for x, y in zip(a, b)])
        elif roll < 0.4:
            m.append([rng.choice(NONSINGLETON_ZEROS) for _ in range(cols)])
        else:
            lead = rng.randrange(cols)
            row = [ZERO] * lead + [rng.choice(COMPLEX_PIVOTS)]
            row += [_gaussian(rng, big) if rng.random() < 0.6 else rng.choice(NONSINGLETON_ZEROS)
                    for _ in range(cols - lead - 1)]
            m.append(row)
    return m


def _unit(n, *entries):
    """The row of length n with the given (column, scalar) entries."""
    row = [ZERO] * n
    for j, x in entries:
        row[j] = x
    return row


@pytest.mark.parametrize("big", [False, True])
def test_find_section_matches_the_dense_right_inverse(big):
    # find_section reads only the base dimension and g, so the algebras are abelian
    rng = random.Random(f"find-section-{big}")
    outcomes = set()
    for trial in range(30):
        n = rng.randint(1, 5)
        if trial % 2:
            g = _hard_matrix(rng, n, n + 1, big)
        else:
            g = [[_gaussian(rng, big) for _ in range(n + 1)] for _ in range(n)]
        ext = CentralExtension(total=from_structure_constants(n + 1, {}),
                               base=from_structure_constants(n, {}),
                               injection_f=(ZERO,) * n + (ONE,), projection_g=g)
        expected = dense_right_inverse(g, n + 1)
        try:
            got = find_section(ext)
        except NoSection as err:
            got = err.witness
            assert str(err) == f"projection has no right inverse at column {got}"
        assert got == expected
        outcomes.add(isinstance(got, int))
    assert outcomes == {True, False}


@pytest.mark.parametrize("big", [False, True])
def test_integer_core_matches_dense_oracles(big, monkeypatch):
    rng = random.Random(f"integer-core-{big}")
    invertible = 0
    # the whole space makes no Scalar until its basis is read
    made = []
    make, init = Scalar.__dict__["_make"].__func__, Scalar.__init__
    with monkeypatch.context() as patch:
        patch.setattr(Scalar, "_make", classmethod(
            lambda cls, *args: made.append(args) or make(cls, *args)))
        patch.setattr(Scalar, "__init__", lambda self, *args: made.append(args) or init(self, *args))
        full = linalg.Subspace.full(6)
        assert full.dim == 6 and full.complement_rows(full) == []
        assert "basis" not in vars(full) and made == []
    assert full.basis == linalg.freeze_matrix(linalg.identity_matrix(6))
    assert "basis" in vars(full)
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = _hard_matrix(rng, rows, cols, big)
        red, pivots = linalg.rref(m, cols)
        assert (red, pivots) == dense_rref(m, cols)
        assert all(red[k][p] == ONE for k, p in enumerate(pivots))
        assert linalg.rank(m, cols) == len(pivots) == linalg.rank_reversed(m, cols)
        assert kernel_basis(m, cols) == dense_nullspace(m, cols)
        x = [_gaussian(rng, big) for _ in range(cols)]
        image = [sum((a * b for a, b in zip(row, x)), ZERO) for row in m]
        other = [_gaussian(rng, big) for _ in range(rows)]
        for b in (image, other):
            assert linalg.solve(m, b, cols) == dense_solve(m, b, cols)
        assert linalg.solve(m, image, cols) is not None
        if rows >= cols:
            inverse = linalg.invert(m[:cols])
            assert inverse == dense_invert(m[:cols])
            invertible += inverse is not None
        space = linalg.Subspace.from_spanning(cols, m)
        given = linalg.Subspace.from_spanning(cols, red)
        assert given == space
        assert given.basis == space.basis == linalg.freeze_matrix(red)
        assert hash(given) == hash(space)
        inside = [_gaussian(rng, big) * y for y in red[0]] if red else x
        for v in (x, inside):
            assert space.contains(v) == (len(dense_rref(list(m) + [v], cols)[1]) == len(pivots))
        extra = linalg.Subspace.from_spanning(cols, _hard_matrix(rng, rows, cols, big))
        if space.dim and extra.dim:
            assert space.complement_rows(extra) == dense_complement_rows(
                [list(r) for r in space.basis], [list(r) for r in extra.basis])
    assert invertible
    # clearing the base row at pivot 2 from e1 + e2 adds column 4, the pivot
    # of the row found before it, which must then be cleared too
    base = [_unit(5, (0, ONE), (4, ONE)), _unit(5, (2, ONE), (4, ONE))]
    space = [_unit(5, (0, ONE)), _unit(5, (1, ONE), (2, ONE))]
    found = linalg.Subspace.from_spanning(5, base).complement_rows(
        linalg.Subspace.from_spanning(5, space))
    assert found == dense_complement_rows(base, space) == [tuple(_unit(5, (4, ONE))),
                                                           tuple(_unit(5, (1, ONE)))]
    # complex leads and zeros that are not the singleton, on both sides
    for z in NONSINGLETON_ZEROS:
        m = [[TWO_MINUS_I, z, I, z], [z, ONE + I, z, Scalar(3, 2)], [z, z, z, z]]
        extra = [[I, ONE, z, z], [z, z, -I, Scalar(Fraction(3, 5), Fraction(-7, 2))],
                 [z, Scalar(2, 1), z, I]]
        space = linalg.Subspace.from_spanning(4, m)
        other = linalg.Subspace.from_spanning(4, extra)
        assert [list(r) for r in space.basis] == dense_rref(m, 4)[0]
        assert space.complement_rows(other) == dense_complement_rows(
            dense_rref(m, 4)[0], dense_rref(extra, 4)[0])
        assert space.contains([z, z, z, z]) and space.contains(m[0])
        assert not space.contains([z, z, z, I])


def test_integer_core_on_zeros_that_are_not_the_singleton():
    for z in NONSINGLETON_ZEROS:
        assert z == ZERO and z is not ZERO
        m = [[z, z, z], [z, TWO_MINUS_I, z], [z, z, z]]
        assert linalg.rref(m, 3) == ([[ZERO, ONE, ZERO]], [1])
        assert linalg.rank(m, 3) == 1
        assert kernel_basis([[z, z]], 2) == [[ONE, ZERO], [ZERO, ONE]]
        assert linalg.solve([[z, I]], [z], 2) == [ZERO, ZERO]
        assert linalg.Subspace.from_spanning(2, [[z, z]]).dim == 0
        assert linalg.Subspace.from_spanning(2, [[ONE, z]]).contains([I, z])


def test_integer_core_on_empty_shapes():
    assert kernel_basis([], 0) == []
    assert kernel_basis([], 2) == [[ONE, ZERO], [ZERO, ONE]]
    assert linalg.solve([], [], 0) == []
    assert linalg.invert([]) == []
    empty = linalg.Subspace.from_spanning(3, [])
    assert empty.dim == 0 and not empty.contains([I, ZERO, ZERO])
    assert empty.contains([ZERO, -ZERO, Scalar(0)])
    assert empty.complement_rows(empty) == []
    assert linalg.Subspace.full(0).dim == 0
    assert linalg.Subspace.full(3) == linalg.Subspace.from_spanning(3, linalg.identity_matrix(3))


def test_running_rref_rows_are_primitive_with_positive_real_pivots():
    # each kept row is its RREF row times the least common denominator of its
    # entries: the pivot is that denominator and the parts have gcd 1, so the
    # integers never grow past the output's
    rng = random.Random(97)
    grew = 0
    for _ in range(30):
        cols = rng.randint(2, 6)
        m = _hard_matrix(rng, rng.randint(2, 6), cols, big=True)
        kept = linalg._eliminate(linalg._integer_rows(m), cols)
        red, pivots = dense_rref(m, cols)
        assert sorted(kept) == pivots
        for p, row in zip(pivots, red):
            re, im = kept[p]
            den = lcm(*(x.d for x in row))
            assert re[p] == den > 0 and p not in im
            assert gcd(*re.values(), *im.values()) == 1
            assert linalg._scalars((re, im), den, cols) == row
            grew += den > 10 ** 6
    assert grew


# -- the stop at full rank ------------------------------------------------------------


def _full_rank_then_dependent(rng, cols, extra, complex_entries):
    """cols independent rows, row i led at column i by a nonzero pivot, then
    ``extra`` combinations of two or three of them."""
    def entry():
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if complex_entries else 0
        return Scalar(re, im)

    top = []
    for i in range(cols):
        lead = rng.choice(COMPLEX_PIVOTS) if complex_entries else Scalar(rng.choice([1, -2, 3]))
        top.append([ZERO] * i + [lead] + [entry() if rng.random() < 0.5 else ZERO
                                          for _ in range(cols - i - 1)])
    rest = []
    for _ in range(extra):
        acc = [ZERO] * cols
        for row in rng.sample(top, min(cols, rng.randint(2, 3))):
            c = entry() or ONE
            acc = [a + c * x for a, x in zip(acc, row)]
        rest.append(acc)
    return top + rest


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_full_rank_stop_matches_dense_oracles(complex_entries):
    rng = random.Random(f"full-rank-{complex_entries}")
    for trial in range(12):
        cols = rng.randint(1, 7)
        m = _full_rank_then_dependent(rng, cols, rng.randint(cols, 6 * cols), complex_entries)
        if trial % 2:
            rng.shuffle(m)
        red, pivots = dense_rref(m, cols)
        assert pivots == list(range(cols))
        assert linalg.rref(m, cols) == (red, pivots)
        assert linalg.rank(m, cols) == cols == linalg.rank_reversed(m, cols)
        assert kernel_basis(m, cols) == dense_nullspace(m, cols) == []
        assert linalg.Subspace.from_spanning(cols, m).basis == linalg.freeze_matrix(red)
        x = [Scalar(rng.randint(-3, 3), rng.randint(-2, 2) if complex_entries else 0)
             for _ in range(cols)]
        image = [sum((a * b for a, b in zip(row, x)), ZERO) for row in m]
        assert linalg.solve(m, image, cols) == dense_solve(m, image, cols) == x
        # with this many dependent rows, one changed right-hand side entry
        # leaves no solution: the augmented matrix reaches full rank
        other = image[:-1] + [image[-1] + ONE]
        assert linalg.solve(m, other, cols) is dense_solve(m, other, cols) is None


@pytest.mark.parametrize("free", [False, True], ids=["leftmost", "free"])
def test_elimination_never_reduces_the_rows_after_full_rank(monkeypatch, free):
    # row i of the triangle has cols - i nonzeros, and each row after it has
    # cols, so the triangle is taken first (ties go to the lower index); once
    # it is, every column holds a pivot and each later row would reduce to 0
    rng = random.Random(f"stop-{free}")
    cols = 6

    def nonzero():
        return Scalar(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)),
                      rng.randint(-2, 2))

    top = [[ZERO] * i + [nonzero() for _ in range(cols - i)] for i in range(cols)]
    m = top + [[nonzero() for _ in range(cols)] for _ in range(40)]
    rows = linalg._integer_rows(m)
    after = rows[cols:]
    before = [(dict(re), dict(im)) for re, im in after]
    reduced = []
    original = linalg._reduce

    def counted(re, im, against):
        reduced.append(re)
        return original(re, im, against)

    monkeypatch.setattr(linalg, "_reduce", counted)
    kept = linalg._eliminate(rows, cols, free=free)
    assert sorted(kept) == list(range(cols)) and reduced
    assert not any(re is row_re for re in reduced for row_re, _ in after)
    assert after == before
    assert linalg._dense(kept, cols)[0] == dense_rref(m, cols)[0]
