from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plesken import errors, linalg
from plesken.cohomology import (
    BilinearForm,
    LinearFunctional,
    _constraint_rows,
    are_cohomologous,
    b2_basis,
    coboundary,
    cocycle_residual,
    flat_dim,
    form_from_json,
    form_to_json,
    functional_from_json,
    functional_to_json,
    h2,
    is_cocycle,
    pair_index,
    z2_basis,
)
from plesken.liealg import derived_subalgebra, from_structure_constants
from plesken.scalars import ONE, ZERO, I, Scalar

S = Scalar

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _random_cocycle(rng, algebra, z2):
    flat = [ZERO] * z2.ambient_dim
    for row in z2.basis:
        c = S(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        if c:
            flat = [a + c * b for a, b in zip(flat, row)]
    return BilinearForm.from_flat(algebra.dim, flat)


def test_pair_index_enumeration():
    n = 4
    expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert [pair_index(n, i, j) for i, j in expected] == list(range(6))
    with pytest.raises(errors.IndexOutOfRange):
        pair_index(4, 2, 2)


def test_form_representation_is_alternating():
    form = BilinearForm.from_entries(3, {(0, 1): S(2), (1, 2): I})
    assert form.entry(1, 0) == S(-2)
    assert form.entry(2, 1) == -I
    assert all(form.entry(i, i) == ZERO for i in range(3))
    matrix = [[form.entry(i, j) for j in range(3)] for i in range(3)]
    assert BilinearForm.from_matrix(matrix) == form


def test_from_matrix_rejects_non_alternating():
    with pytest.raises(ValueError):
        BilinearForm.from_matrix([[ZERO, ONE], [ONE, ZERO]])
    with pytest.raises(ValueError):
        BilinearForm.from_matrix([[ONE]])


def test_residual_abelian_always_zero():
    algebra = from_structure_constants(3, {})
    form = BilinearForm.from_entries(3, {(0, 1): S(5), (0, 2): I, (1, 2): S(-2)})
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert cocycle_residual(algebra, form, i, j, k) == ZERO


def test_residual_equal_indices_vanish(heis3):
    form = BilinearForm.from_entries(3, {(0, 1): ONE})
    assert cocycle_residual(heis3, form, 1, 1, 1) == ZERO
    assert cocycle_residual(heis3, form, 0, 1, 2) == ZERO


def test_residual_index_error(heis3):
    with pytest.raises(errors.IndexOutOfRange):
        cocycle_residual(heis3, BilinearForm.zero(3), 0, 1, 3)


def test_is_cocycle_witness(sl2, heis3):
    ok, witness = is_cocycle(heis3, BilinearForm.from_entries(3, {(0, 2): ONE}))
    assert ok and witness is None
    # on sl2 every alternating form is a cocycle: the single triple constraint
    # collapses because each bracket lands back on the third basis vector
    ok, witness = is_cocycle(sl2, BilinearForm.from_entries(3, {(0, 1): ONE}))
    assert ok
    # a genuinely failing form needs an algebra whose constraint row is nonzero
    algebra = from_structure_constants(
        4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 0], (1, 2): [0, 0, 0, 0]})
    bad = BilinearForm.from_entries(4, {(2, 3): ONE})
    ok, witness = is_cocycle(algebra, bad)
    assert not ok and witness == (0, 1, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_z2_abelian_full(n):
    algebra = from_structure_constants(n, {})
    assert z2_basis(algebra).dim == n * (n - 1) // 2


def test_z2_dims_on_fixtures(sl2, heis3, q8_algebra):
    # derived with the independent elimination ordering below
    assert z2_basis(heis3).dim == 3
    assert z2_basis(sl2).dim == 3
    assert z2_basis(q8_algebra).dim == 3
    for algebra in (sl2, heis3, q8_algebra):
        nflat = flat_dim(algebra.dim)
        rows = _constraint_rows(algebra)
        indep = nflat - linalg.rank_reversed(rows, nflat)
        assert z2_basis(algebra).dim == indep


def test_b2_dims(heis3, q8_algebra, abelian2, sl2):
    assert b2_basis(abelian2).dim == 0
    assert b2_basis(heis3).dim == 1
    assert b2_basis(q8_algebra).dim == 3
    # dim B^2 always equals the derived subalgebra dimension
    for algebra in (heis3, q8_algebra, abelian2, sl2):
        assert b2_basis(algebra).dim == derived_subalgebra(algebra).dim


def test_b2_heis3_spanning_form(heis3):
    sub = b2_basis(heis3)
    # the only coboundary direction is alpha(X,Y) = -sigma(Z)
    assert sub.basis == ((ONE, ZERO, ZERO),)
    sigma = LinearFunctional.of([0, 0, -1])
    assert coboundary(heis3, sigma) == BilinearForm.from_entries(3, {(0, 1): ONE})


def test_b2_inside_z2(heis3, sl2, q8_algebra):
    for algebra in (heis3, sl2, q8_algebra):
        z2 = z2_basis(algebra)
        for row in b2_basis(algebra).basis:
            assert z2.contains(list(row))
            ok, _ = is_cocycle(algebra, BilinearForm.from_flat(algebra.dim, row))
            assert ok


def test_h2_dimensions(heis3, q8_algebra, sl2):
    abelian = from_structure_constants(2, {})
    assert h2(abelian).dimension == 1
    result = h2(heis3)
    assert (result.z2.dim, result.b2.dim, result.dimension) == (3, 1, 2)
    assert h2(q8_algebra).dimension == 0
    assert h2(sl2).dimension == 0


def test_h2_heisenberg27_frozen_dims(fixture_set):
    # dim-13 algebra of the order-27 Heisenberg group; values pinned after
    # both elimination orderings agreed on them
    algebra = fixture_set.algebra("L(Heis27)")
    result = fixture_set.h2_of("L(Heis27)")
    assert (result.z2.dim, result.b2.dim, result.dimension) == (18, 8, 10)
    nflat = flat_dim(algebra.dim)
    rows = _constraint_rows(algebra)
    assert nflat - linalg.rank_reversed(rows, nflat) == 18
    b2_rows = [list(r) for r in result.b2.basis]
    assert linalg.rank_reversed(b2_rows, nflat) == 8
    assert derived_subalgebra(algebra).dim == 8


def test_h2_representatives_are_cocycles_outside_b2(heis3):
    result = h2(heis3)
    assert len(result.representatives) == 2
    for rep in result.representatives:
        ok, _ = is_cocycle(heis3, rep)
        assert ok
        assert not result.b2.contains(rep.flatten())
    # deterministic: rebuilding gives identical representatives
    again = h2(heis3)
    assert again.representatives == result.representatives


def test_are_cohomologous_identical(heis3):
    alpha = BilinearForm.from_entries(3, {(0, 1): S(3)})
    sigma = are_cohomologous(heis3, alpha, alpha)
    assert sigma == LinearFunctional.zero(3)


def test_are_cohomologous_heis3_xy(heis3):
    # alpha(X,Y) = 1 vs zero: solve sigma(Z) = -1
    alpha = BilinearForm.from_entries(3, {(0, 1): ONE})
    sigma = are_cohomologous(heis3, alpha, BilinearForm.zero(3))
    assert sigma == LinearFunctional.of([0, 0, -1])
    # convention: alpha - beta equals the coboundary of sigma
    assert alpha.sub(BilinearForm.zero(3)) == coboundary(heis3, sigma)


def test_are_cohomologous_heis3_xz_not(heis3):
    alpha = BilinearForm.from_entries(3, {(0, 2): ONE})
    assert are_cohomologous(heis3, alpha, BilinearForm.zero(3)) is None


def test_are_cohomologous_rejects_non_cocycle():
    algebra = from_structure_constants(
        4, {(0, 1): [0, 0, 1, 0]})
    bad = BilinearForm.from_entries(4, {(2, 3): ONE})
    ok, _ = is_cocycle(algebra, bad)
    assert not ok
    with pytest.raises(errors.NotACocycle):
        are_cohomologous(algebra, bad, BilinearForm.zero(4))


def test_are_cohomologous_equivalence_relation(heis3):
    rng = random.Random(17)
    z2 = z2_basis(heis3)
    for _ in range(10):
        a = _random_cocycle(rng, heis3, z2)
        b = _random_cocycle(rng, heis3, z2)
        c = _random_cocycle(rng, heis3, z2)
        assert are_cohomologous(heis3, a, a) is not None
        ab = are_cohomologous(heis3, a, b)
        ba = are_cohomologous(heis3, b, a)
        assert (ab is None) == (ba is None)
        bc = are_cohomologous(heis3, b, c)
        ac = are_cohomologous(heis3, a, c)
        if ab is not None and bc is not None:
            assert ac is not None


def test_degeneracy_on_sampled_cocycles(heis3, q8_algebra):
    rng = random.Random(29)
    for algebra in (heis3, q8_algebra):
        z2 = z2_basis(algebra)
        zero_vec = [ZERO] * algebra.dim
        for _ in range(25):
            alpha = _random_cocycle(rng, algebra, z2)
            x = [S(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                   Fraction(rng.randint(-2, 2), 1)) for _ in range(algebra.dim)]
            assert alpha.value(x, x) == ZERO
            assert alpha.value(x, zero_vec) == ZERO
            assert alpha.value(zero_vec, x) == ZERO


@given(st.lists(rationals, min_size=3, max_size=3))
def test_coboundaries_are_cocycles_heis3(sig_values):
    heis3 = from_structure_constants(3, {(0, 1): [0, 0, 1]})
    sigma = LinearFunctional.of(sig_values)
    form = coboundary(heis3, sigma)
    ok, _ = is_cocycle(heis3, form)
    assert ok


@given(st.lists(rationals, min_size=3, max_size=3))
def test_alternating_forms_on_abelian_are_cocycles(values):
    algebra = from_structure_constants(3, {})
    form = BilinearForm.from_flat(3, [S(v) for v in values])
    ok, _ = is_cocycle(algebra, form)
    assert ok


def test_cohomology_class_membership(heis3):
    alpha = BilinearForm.from_entries(3, {(0, 1): ONE})
    assert are_cohomologous(heis3, alpha, BilinearForm.zero(3)) is not None
    other = BilinearForm.from_entries(3, {(0, 2): ONE})
    assert are_cohomologous(heis3, alpha, other) is None


def test_form_json_roundtrip():
    form = BilinearForm.from_entries(
        4, {(0, 1): S(Fraction(3, 2), Fraction(1, 2)), (2, 3): S(-1)})
    assert form_from_json(form_to_json(form)) == form
    doc = form_to_json(form)
    assert doc["upper"][0][0] == "3/2+1/2*I"


def test_form_json_rejects_bad_shape():
    with pytest.raises(errors.DimensionMismatch):
        form_from_json({"dim": 3, "upper": [["0"]]})


def test_functional_json_roundtrip():
    sigma = LinearFunctional.of([0, 0, -1])
    doc = functional_to_json(sigma)
    assert doc == {"v": ["0", "0", "-1"]}
    assert functional_from_json(doc) == sigma


def test_form_add_rejects_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        BilinearForm.zero(2).add(BilinearForm.zero(3))
    with pytest.raises(errors.DimensionMismatch):
        BilinearForm.zero(3).sub(BilinearForm.zero(2))
