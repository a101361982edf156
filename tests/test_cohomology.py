from __future__ import annotations

import hashlib
import json
import pickle
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dense import (
    dense_nullspace,
    dense_rows,
    functional_value,
    gaussian_form,
    gaussian_table,
    relabelled_table,
    rescaled_table,
    scalar_cocycle_terms,
    scalar_constraint_rows,
    scalar_residual,
)
from plesken import cli, cohomology, errors, linalg
from plesken.cohomology import (
    BilinearForm,
    LinearFunctional,
    _constraint_rows,
    are_cohomologous,
    b2_basis,
    coboundary,
    flat_dim,
    form_from_json,
    form_to_json,
    functional_from_json,
    h2,
    is_cocycle,
    pair_index,
    z2_basis,
)
from plesken.extensions import extension_from_cocycle
from plesken.groups import from_permutation_generators, preset
from plesken.liealg import (
    LieAlgebra,
    _ad_generators,
    _cyclic_sums,
    _default_labels,
    _linked_triples,
    _normalize_table,
    algebra_to_json,
    center,
    derived_subalgebra,
    from_structure_constants,
    plesken_algebra,
)
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


def test_residual_abelian_always_zero():
    algebra = from_structure_constants(3, {})
    form = BilinearForm.from_entries(3, {(0, 1): S(5), (0, 2): I, (1, 2): S(-2)})
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert scalar_residual(algebra, form.flat, i, j, k) == ZERO
    assert is_cocycle(algebra, form) == (True, None)


def test_residual_equal_indices_vanish(heis3):
    form = BilinearForm.from_entries(3, {(0, 1): ONE})
    assert scalar_residual(heis3, form.flat, 1, 1, 1) == ZERO
    assert scalar_residual(heis3, form.flat, 0, 1, 2) == ZERO


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


@pytest.mark.parametrize("entries,witness", [
    ({(0, 1): ONE}, (1, 4, 5)),
    ({(2, 5): ONE, (3, 7): S(2)}, (0, 2, 4)),
    ({(4, 9): ONE}, (0, 4, 5)),
])
def test_is_cocycle_first_witness_heis27(fixture_set, entries, witness):
    # expected triples computed by the dense-tuple cocycle check
    algebra = fixture_set.algebra("L(Heis27)")
    assert is_cocycle(algebra, BilinearForm.from_entries(13, entries)) == (False, witness)


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
        rows = dense_rows(_constraint_rows(algebra), nflat)
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
    rows = dense_rows(_constraint_rows(algebra), nflat)
    assert nflat - linalg.rank_reversed(rows, nflat) == 18
    b2_rows = [list(r) for r in result.b2.basis]
    assert linalg.rank_reversed(b2_rows, nflat) == 8
    assert derived_subalgebra(algebra).dim == 8


def test_h2_dims_agree_with_reversed_rank_on_fixtures(fixture_set):
    # nullity and coboundary rank by the independent elimination ordering
    for name, algebra in fixture_set.algebras:
        result = fixture_set.h2_of(name)
        nflat = flat_dim(algebra.dim)
        rows = dense_rows(_constraint_rows(algebra), nflat)
        assert nflat - linalg.rank_reversed(rows, nflat) == result.z2.dim, name
        generators = [coboundary(algebra, LinearFunctional(tuple(row))).flat
                      for row in linalg.identity_matrix(algebra.dim)]
        assert linalg.rank_reversed(generators, nflat) == result.b2.dim, name


def test_h2_alternating5_vanishes():
    # L(A5) is semisimple: every cocycle is a coboundary
    group = from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    assert group.order == 60
    algebra, _ = plesken_algebra(group)
    result = h2(algebra)
    assert (result.z2.dim, result.b2.dim, result.dimension) == (22, 22, 0)


def test_h2_representatives_are_cocycles_outside_b2(heis3):
    result = h2(heis3)
    assert len(result.representatives) == 2
    for rep in result.representatives:
        ok, _ = is_cocycle(heis3, rep)
        assert ok
        assert not result.b2.contains(rep.flat)
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
    assert functional_from_json({"v": ["0", "0", "-1"]}) == sigma


def test_form_add_rejects_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        BilinearForm.zero(2).add(BilinearForm.zero(3))
    with pytest.raises(errors.DimensionMismatch):
        BilinearForm.zero(3).sub(BilinearForm.zero(2))


# -- the linked-triple walk against the all-triples walk ----------------------------


def all_triples_is_cocycle(algebra, alpha):
    """Oracle: the residual on every basis triple i < j < k, first failure wins."""
    n = algebra.dim
    flat = alpha.flat
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if scalar_residual(algebra, flat, i, j, k):
                    return False, (i, j, k)
    return True, None


def all_triples_constraint_rows(algebra):
    """Oracle: one dense row per basis triple i < j < k whose cocycle terms
    do not all cancel."""
    n = algebra.dim
    nflat = flat_dim(n)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row = None
                for idx, c in scalar_cocycle_terms(algebra, i, j, k):
                    if row is None:
                        row = linalg.zeros(nflat)
                    row[idx] = row[idx] + c
                if row is not None and any(row):
                    rows.append(row)
    return rows


def _sparse_form(rng, n, count):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = rng.sample(pairs, min(count, len(pairs)))
    return BilinearForm.from_entries(n, {p: S(rng.choice([-2, -1, 1, 3])) for p in picked})


def _check_against_all_triples(algebra, forms):
    rows = dense_rows(_constraint_rows(algebra), flat_dim(algebra.dim),
                      algebra.integer_terms.den)
    assert rows == all_triples_constraint_rows(algebra)
    results = [is_cocycle(algebra, alpha) for alpha in forms]
    assert results == [all_triples_is_cocycle(algebra, alpha) for alpha in forms]
    return results


def _oracle_forms(rng, algebra):
    """Zero, a coboundary and sparse random forms, most of them not cocycles."""
    n = algebra.dim
    sigma = LinearFunctional.of([rng.randint(-3, 3) for _ in range(n)])
    return ([BilinearForm.zero(n), coboundary(algebra, sigma)]
            + [_sparse_form(rng, n, count) for count in (1, 1, 2, 3)])


def test_linked_triples_match_all_triples_on_fixtures(fixture_set):
    rng = random.Random(6203)
    failures = 0
    for name, algebra in fixture_set.algebras:
        results = _check_against_all_triples(algebra, _oracle_forms(rng, algebra))
        assert results[:2] == [(True, None), (True, None)], name
        failures += sum(1 for ok, _ in results if not ok)
    assert failures > 0


def test_linked_triples_match_all_triples_on_alternating5():
    group = from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    algebra, _ = plesken_algebra(group)
    results = _check_against_all_triples(algebra, _oracle_forms(random.Random(5), algebra))
    assert not all(ok for ok, _ in results)


def test_linked_triples_match_all_triples_on_sparse_tables():
    # sparse tables, Lie or not: cocycles come from Z^2, which needs no Jacobi
    rng = random.Random(2311)
    kinds = set()
    for _ in range(40):
        n = rng.randint(3, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        table = {}
        for i, j in rng.sample(pairs, rng.randint(1, min(4, len(pairs)))):
            vec = [0] * n
            for k in rng.sample(range(n), rng.randint(1, 2)):
                vec[k] = rng.choice([-2, -1, 1, 2])
            table[(i, j)] = vec
        algebra = LieAlgebra(n, _normalize_table(n, table), _default_labels(n))
        forms = [_sparse_form(rng, n, rng.randint(1, 4)) for _ in range(3)]
        forms += [BilinearForm.from_flat(n, row) for row in z2_basis(algebra).basis[:2]]
        for ok, _ in _check_against_all_triples(algebra, forms):
            kinds.add(ok)
    assert kinds == {True, False}


def test_z2_basis_matches_dense_nullspace_on_fixtures(fixture_set):
    # the free-pivot kernel against dense Gauss-Jordan on the Scalar walk's rows
    for name, algebra in fixture_set.algebras:
        nflat = flat_dim(algebra.dim)
        expected = dense_nullspace(all_triples_constraint_rows(algebra), nflat)
        assert [list(row) for row in z2_basis(algebra).basis] == expected, name


def test_z2_basis_matches_dense_nullspace_on_gaussian_tables():
    rng = random.Random(4409)
    kinds = set()
    for trial in range(40):
        n = rng.randint(3, 7)
        table = gaussian_table(rng, n, real=trial % 4 == 0)
        algebra = LieAlgebra(n, _normalize_table(n, table), _default_labels(n))
        nflat = flat_dim(n)
        expected = dense_nullspace(all_triples_constraint_rows(algebra), nflat)
        assert [list(row) for row in z2_basis(algebra).basis] == expected
        kinds.add((algebra.integer_terms.real, len(expected) < nflat))
    assert kinds == {(real, True) for real in (True, False)}


def test_coboundary_matches_the_functional_value_of_each_bracket(fixture_set):
    # the sparse coboundary against -sigma([x_i, x_j]) per pair, for
    # functionals from one nonzero to full support, real and Gaussian
    rng = random.Random(2718)
    algebras = [algebra for _, algebra in fixture_set.algebras]
    for trial in range(30):
        n = rng.randint(2, 7)
        table = gaussian_table(rng, n, real=trial % 3 == 0)
        algebras.append(LieAlgebra(n, _normalize_table(n, table), _default_labels(n)))
    for algebra in algebras:
        n = algebra.dim
        for support in {0, min(1, n), n // 2, n}:
            values = [ZERO] * n
            for k in rng.sample(range(n), support):
                values[k] = rng.choice([ONE, S(-2), S(Fraction(1, 3), 1), I])
            sigma = LinearFunctional(tuple(values))
            expected = {(i, j): -functional_value(sigma, algebra.structure(i, j))
                        for i, j in algebra.brackets}
            assert coboundary(algebra, sigma) == BilinearForm.from_entries(n, expected)


# -- the integer cocycle check against the Scalar walk ------------------------------


def _gaussian_cocycle(rng, algebra):
    """A random combination of the Z^2 basis with Gaussian-rational weights."""
    flat = [ZERO] * flat_dim(algebra.dim)
    for row in z2_basis(algebra).basis:
        c = rng.choice([S(Fraction(1, 2)), S(-3), S(Fraction(2, 3), -1), I / 3])
        flat = [a + c * b for a, b in zip(flat, row)]
    return BilinearForm.from_flat(algebra.dim, flat)


def test_is_cocycle_matches_scalar_walk_on_gaussian_tables():
    rng = random.Random(5309)
    kinds = set()
    for trial in range(60):
        n = rng.randint(3, 7)
        table = gaussian_table(rng, n, real=trial % 3 == 0)
        algebra = LieAlgebra(n, _normalize_table(n, table), _default_labels(n))
        forms = [gaussian_form(rng, n, count) for count in (1, 2, 4)]
        forms.append(_gaussian_cocycle(rng, algebra))
        forms.append(forms[-1].add(gaussian_form(rng, n, 1)))
        for ok, _ in _check_against_all_triples(algebra, forms):
            kinds.add((algebra.integer_terms.real, algebra.integer_terms.den > 1, ok))
    assert {(real, True, ok) for real in (True, False) for ok in (True, False)} <= kinds


def test_is_cocycle_on_complex_sl2_and_alternating5(sl2):
    rng = random.Random(77)
    scales = [S(Fraction(1, 2), 1), S(0, 3), S(Fraction(2, 3), -1)]
    complex_sl2 = from_structure_constants(3, rescaled_table(sl2, scales))
    group = from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    a5, _ = plesken_algebra(group)
    for algebra in (complex_sl2, a5):
        n = algebra.dim
        sigma = LinearFunctional(tuple(
            S(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
              Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(n)))
        alpha = coboundary(algebra, sigma)
        assert len({x.d for x in alpha.flat if x}) > 1
        broken = alpha.add(BilinearForm.from_entries(n, {(0, n - 1): S(Fraction(1, 3), 2)}))
        results = _check_against_all_triples(algebra, [alpha, broken])
        assert results[0] == (True, None)
        # every alternating form on the 3-dimensional sl2 is a cocycle
        assert results[1][0] == (algebra is complex_sl2)


def _count_scalar_products(monkeypatch):
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        original = Scalar.__dict__[name]

        def counted(self, other, _original=original, _name=name):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(Scalar, name, counted)
    return calls


def test_jacobi_and_cocycle_checks_make_no_scalar_products(monkeypatch):
    group = from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    algebra, _ = plesken_algebra(group)
    rng = random.Random(31)
    sigma = LinearFunctional.of([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(algebra.dim)])
    alpha = coboundary(algebra, sigma)
    calls = _count_scalar_products(monkeypatch)
    rebuilt = from_structure_constants(
        algebra.dim, {(i, j): algebra.structure(i, j) for i, j in algebra.brackets})
    assert is_cocycle(rebuilt, alpha) == (True, None)
    assert calls == []
    assert ONE + ONE * ONE == S(2) and calls == ["__mul__", "__add__"]


# -- the cocycle condition on the generators of a certified algebra -----------------


def full_walk_is_cocycle(algebra, alpha):
    """Oracle: the cocycle condition on every linked triple, first failure wins."""
    rows = cohomology._cleared_rows(algebra, alpha.flat)
    for i, j, k, _, _ in _cyclic_sums(algebra, _linked_triples(algebra), *rows):
        return False, (i, j, k)
    return True, None


def _wedge_cocycle(rng, algebra):
    """phi ^ psi for seeded phi, psi vanishing on [L, L]: a cocycle, and not
    a coboundary of an L(G) with a center of dimension at least 2."""
    n = algebra.dim
    annihilator = dense_nullspace([list(row) for row in derived_subalgebra(algebra).basis], n)
    phi, psi = ([sum((c * row[t] for c, row in zip(weights, annihilator)), ZERO)
                 for t in range(n)]
                for weights in [[S(rng.randint(-3, 3)) for _ in annihilator] for _ in range(2)])
    return BilinearForm.from_entries(n, {(i, j): phi[i] * psi[j] - phi[j] * psi[i]
                                         for i in range(n) for j in range(i + 1, n)})


def test_is_cocycle_on_generators_matches_the_full_walk():
    rng = random.Random(3301)
    s5 = plesken_algebra(preset("symmetric", 5))[0]
    heis125 = plesken_algebra(preset("heisenberg_p", 5))[0]
    relabel = lambda g: LieAlgebra(g.dim, _normalize_table(g.dim, relabelled_table(g, rng)),
                                   _default_labels(g.dim))
    # c [x, y] is a Lie bracket too; c = 2/3 - i makes it Gaussian with E = 3
    c = S(Fraction(2, 3), -1)
    gaussian = LieAlgebra(s5.dim, {pair: tuple((k, c * x) for k, x in ts)
                                   for pair, ts in s5.brackets.items()}, s5.basis_labels)
    cases = [s5, relabel(s5), gaussian, relabel(heis125)]
    assert all(algebra.lie_generators is not None for algebra in cases)
    for algebra in cases:
        forms = _oracle_forms(rng, algebra)[1:]
        if algebra.dim == heis125.dim:
            wedge = _wedge_cocycle(rng, algebra)
            forms += [wedge, wedge.add(_sparse_form(rng, algebra.dim, 1))]
        results = [is_cocycle(algebra, alpha) for alpha in forms]
        assert results == [full_walk_is_cocycle(algebra, alpha) for alpha in forms]
        assert results[0] == (True, None) and not all(ok for ok, _ in results)
        if algebra.dim == heis125.dim:
            assert results[-2:] == [(True, None), results[-1]] and not results[-1][0]


def test_non_lie_record_above_the_crossover_keeps_the_full_walk():
    # L(A5) + L(Heis27), dim 35, with one entry changed: Jacobi fails, so
    # the generator triples cut out more than Z^2, and no check may use them
    a5 = plesken_algebra(from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]))[0]
    heis27 = plesken_algebra(preset("heisenberg_p", 3))[0]
    n = a5.dim + heis27.dim
    table = {}
    for offset, part in ((0, a5), (a5.dim, heis27)):
        for i, j in part.brackets:
            vec = [ZERO] * n
            vec[offset:offset + part.dim] = part.structure(i, j)
            table[(offset + i, offset + j)] = vec
    table[max(table)][0] += ONE
    record = LieAlgebra(n, _normalize_table(n, table), _default_labels(n))
    generators = _ad_generators(record)
    assert generators is not None and record.lie_generators is None
    nflat = flat_dim(n)
    z2 = z2_basis(record)
    assert z2 == linalg.Subspace.from_reduced(nflat, linalg._kernel(
        scalar_constraint_rows(record, _linked_triples(record)), nflat))
    on_generators = linalg.Subspace.from_reduced(nflat, linalg._kernel(
        scalar_constraint_rows(record, _linked_triples(record, generators)), nflat))
    assert z2.dim < on_generators.dim
    alpha = next(BilinearForm.from_flat(n, row) for row in on_generators.basis
                 if not z2.contains(row))
    ok, witness = is_cocycle(record, alpha)
    assert not ok and (ok, witness) == all_triples_is_cocycle(record, alpha)


def test_zero_bracket_dim_1000_is_cheap():
    # no triple of a zero-bracket algebra is linked; walking all C(1000, 3)
    # triples, as the cocycle check once did, takes hours
    n = 1000
    algebra = from_structure_constants(n, {})
    alpha = BilinearForm.from_entries(n, {(0, 1): S(2), (3, n - 1): I})
    assert is_cocycle(algebra, alpha) == (True, None)
    ext = extension_from_cocycle(algebra, alpha)
    assert ext.total.dim == n + 1
    assert sorted(ext.total.brackets) == [(0, 1), (3, n - 1)]
    assert ext.total.structure(3, n - 1) == tuple([ZERO] * n + [I])


def test_one_bracket_dim_4000_checks_finish():
    # with one bracket [x_0, x_1] = x_(n-1), only the pair (0, 1) links
    # triples: the walk visits the linked j of each unlinked i, not C(n, 2)
    # pairs, and the cocycle check reads the one row n - 1
    n = 4000
    algebra = from_structure_constants(n, {(0, 1): [0] * (n - 1) + [1]})
    assert list(_linked_triples(algebra)) == [(0, 1, k) for k in range(2, n)]
    entries = {(0, 1): S(2), (5, 7): I, (n - 2, n - 1): ZERO}
    assert is_cocycle(algebra, BilinearForm.from_entries(n, entries)) == (True, None)
    entries[(3, n - 1)] = S(Fraction(1, 3), 1)
    assert is_cocycle(algebra, BilinearForm.from_entries(n, entries)) == (False, (0, 1, 3))


def test_is_cocycle_witness_on_complex_forms_is_the_first_scalar_residual(sl2):
    # a complex alpha that fails, over the real L(A5) and its complex rescaling
    rng = random.Random(9151)
    a5 = _a5_algebra()
    scales = [S(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-3, 3))
              for _ in range(a5.dim)]
    complex_a5 = from_structure_constants(a5.dim, rescaled_table(a5, scales))
    assert a5.integer_terms.real and not complex_a5.integer_terms.real
    n = a5.dim
    for algebra in (a5, complex_a5):
        sigma = LinearFunctional(tuple(S(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                         rng.randint(-2, 2)) for _ in range(n)))
        for p, q in [(0, 1), (4, 17), (n - 2, n - 1)]:
            alpha = coboundary(algebra, sigma).add(
                BilinearForm.from_entries(n, {(p, q): S(Fraction(2, 5), -1)}))
            flat = alpha.flat
            first = next((i, j, k) for i in range(n) for j in range(i + 1, n)
                         for k in range(j + 1, n) if scalar_residual(algebra, flat, i, j, k))
            assert is_cocycle(algebra, alpha) == (False, first)


def _a5_algebra():
    group = from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    return plesken_algebra(group)[0]


def test_h2_elimination_makes_no_scalar_arithmetic(monkeypatch):
    # every product, sum and difference that rref, nullspace, Subspace.contains
    # and complement_rows form on L(A5) is a Gaussian-integer one
    algebra = _a5_algebra()
    callers = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__neg__"):
        original = Scalar.__dict__[name]

        def counted(self, *other, _original=original):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return _original(self, *other)

        monkeypatch.setattr(Scalar, name, counted)
    result = h2(algebra)
    assert (result.z2.dim, result.b2.dim, result.dimension) == (22, 22, 0)
    assert "plesken.linalg" not in callers
    # the counter sees the Scalar sums of the coboundaries that span B^2
    assert callers.count("plesken.cohomology") > 0


@pytest.mark.parametrize("name", ["heis27", "abelian24"])
def test_h2_clears_only_the_coboundaries(name, monkeypatch):
    # h2 keeps Z^2, B^2 and the representatives as Gaussian-integer rows: the
    # only scalar rows it clears are the n coboundaries spanning B^2, and
    # linalg forms no Scalar sum, difference or product
    if name == "heis27":
        algebra = plesken_algebra(preset("heisenberg_p", 3))[0]
        dims = (18, 8, 10)
    else:
        algebra = from_structure_constants(24, {})
        dims = (276, 0, 276)
    n = algebra.dim
    generators = [coboundary(algebra, LinearFunctional(tuple(ONE if k == i else ZERO
                                                             for k in range(n)))).flat
                  for i in range(n)]
    cleared, callers = [], []
    original_cleared = linalg._cleared

    def counted_cleared(row):
        cleared.append(tuple(row))
        return original_cleared(row)

    monkeypatch.setattr(linalg, "_cleared", counted_cleared)
    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__"):
        original = Scalar.__dict__[method]

        def counted(self, *other, _original=original):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return _original(self, *other)

        monkeypatch.setattr(Scalar, method, counted)
    result = h2(algebra)
    assert (result.z2.dim, result.b2.dim, result.dimension) == dims
    assert cleared == generators
    assert "plesken.linalg" not in callers


def test_z2_basis_makes_no_scalar_before_its_basis(monkeypatch):
    # from the bracket table to the kernel the rows are Gaussian integers: no
    # Scalar arithmetic from any module, and Scalars are made only for the
    # entries of the canonical basis that z2_basis returns
    algebra = _a5_algebra()
    assert algebra.integer_terms.den == 1
    arithmetic, made = [], []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        original = Scalar.__dict__[name]

        def counted(self, *other, _original=original, _name=name):
            arithmetic.append(_name)
            return _original(self, *other)

        monkeypatch.setattr(Scalar, name, counted)
    make = Scalar.__dict__["_make"].__func__

    def counted_make(cls, *args):
        made.append(args)
        return make(cls, *args)

    monkeypatch.setattr(Scalar, "_make", classmethod(counted_make))
    z2 = z2_basis(algebra)
    assert z2.dim == 22
    assert arithmetic == []
    assert len(made) <= sum(1 for row in z2.basis for x in row if x)


def test_h2_json_on_a5_is_pinned_and_fast(tmp_path, capsys):
    path = tmp_path / "a5.json"
    path.write_text(json.dumps(algebra_to_json(_a5_algebra())))
    start = time.perf_counter()
    code = cli.main(["cohomology", "h2", "--json", "-L", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"b2":22,"h2":0,"representatives":[],"z2":22}\n'
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d38a5efe285b447ff5e0cb0060308b7aa9f3beb8d9db0a3d22740c8539082dcb")
    assert elapsed < 3.0


def test_h2_json_on_s5_is_pinned(tmp_path, capsys):
    # L(S5): dim 47, 16215 linked triples over 1081 form entries
    algebra, _ = plesken_algebra(preset("symmetric", 5))
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(algebra_to_json(algebra)))
    code = cli.main(["cohomology", "h2", "--json", "-L", str(path)])
    assert code == 0
    assert capsys.readouterr().out == '{"b2":47,"h2":0,"representatives":[],"z2":47}\n'


def test_h2_json_formats_only_what_it_prints(tmp_path, capsys, monkeypatch):
    # a zero-bracket algebra of dim 8 has 28 representatives of 28 entries,
    # each with one nonzero entry: the JSON reads no entry one by one, and
    # only nonzero entries go through Scalar.__str__
    path = tmp_path / "ab8.json"
    path.write_text(json.dumps({"dim": 8, "brackets": []}))
    calls = []
    for owner, name in ((Scalar, "__str__"), (BilinearForm, "entry")):
        original = owner.__dict__[name]

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    assert cli.main(["cohomology", "h2", "--json", "-L", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h2"] == len(doc["representatives"]) == 28
    assert calls == ["__str__"] * 28


def test_spans_of_the_whole_space_skip_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("the identity is already its own RREF")

    n = 24
    algebra = from_structure_constants(n, {})
    nflat = flat_dim(n)
    full = [linalg.Subspace.from_spanning(k, linalg.identity_matrix(k)) for k in (nflat, n)]
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    assert z2_basis(algebra) == full[0]
    assert center(algebra) == full[1]


# -- the flat layout against dense antisymmetric matrices -------------------------


def _random_antisymmetric(rng, n):
    m = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                m[i][j] = S(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                            rng.randint(-1, 1))
                m[j][i] = -m[i][j]
    return m


def _upper(m):
    """The strict upper triangle {(i, j): m[i][j]} of a square matrix."""
    return {(i, j): m[i][j] for i in range(len(m)) for j in range(i + 1, len(m))}


@pytest.mark.parametrize("n", range(7))
def test_form_matches_dense_matrix(n):
    rng = random.Random(n)
    m1, m2 = _random_antisymmetric(rng, n), _random_antisymmetric(rng, n)
    f1, f2 = BilinearForm.from_entries(n, _upper(m1)), BilinearForm.from_entries(n, _upper(m2))
    c = S(Fraction(-2, 3), 1)
    for i in range(n):
        for j in range(n):
            assert f1.entry(i, j) == m1[i][j]
            assert f1.add(f2).entry(i, j) == m1[i][j] + m2[i][j]
            assert f1.sub(f2).entry(i, j) == m1[i][j] - m2[i][j]
            assert f1.scale(c).entry(i, j) == c * m1[i][j]
    for _ in range(3):
        u = [S(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)]
        v = [S(rng.randint(-3, 3)) for _ in range(n)]
        dense = sum((u[i] * m1[i][j] * v[j] for i in range(n) for j in range(n)), ZERO)
        assert f1.value(u, v) == dense
    assert f1.is_zero() == (not any(x for row in m1 for x in row))
    assert BilinearForm.from_entries(n, _upper([[ZERO] * n for _ in range(n)])) == \
        BilinearForm.zero(n)


@pytest.mark.parametrize("n", range(7))
def test_form_json_roundtrip_by_dim(n):
    m = _random_antisymmetric(random.Random(100 + n), n)
    form = BilinearForm.from_entries(n, _upper(m))
    doc = form_to_json(form)
    assert doc["upper"] == [[str(m[i][j]) for j in range(i + 1, n)] for i in range(n - 1)]
    assert form_from_json(json.loads(json.dumps(doc))) == form
    assert list(form.flat) == [m[i][j] for i in range(n) for j in range(i + 1, n)]


def test_is_cocycle_keeps_each_algebras_own_verdict(monkeypatch):
    # the form alpha(x2, x3) = 1 fails the triple (0, 1, 3) when [x0, x1] = x2
    # and is a cocycle when [x0, x2] = x1; no verdict is kept, so every call walks
    failing = from_structure_constants(4, {(0, 1): [0, 0, 1, 0]})
    holding = from_structure_constants(4, {(0, 2): [0, 1, 0, 0]})
    twin = from_structure_constants(4, {(0, 2): [0, 1, 0, 0]})
    expected = {id(failing): (False, (0, 1, 3)), id(holding): (True, None),
                id(twin): (True, None)}
    walks = []
    original = cohomology._cyclic_sums

    def counted(algebra, *args):
        walks.append(algebra)
        return original(algebra, *args)

    monkeypatch.setattr(cohomology, "_cyclic_sums", counted)
    alpha = BilinearForm.from_entries(4, {(2, 3): ONE})
    for algebra in (failing, failing, holding, failing, twin, holding):
        del walks[:]
        assert is_cocycle(algebra, alpha) == expected[id(algebra)]
        assert walks == [algebra]
    # the dimension check comes before any walk
    del walks[:]
    with pytest.raises(errors.DimensionMismatch):
        is_cocycle(from_structure_constants(3, {}), alpha)
    assert walks == []


def test_is_cocycle_leaves_the_form_as_it_was(fixture_set):
    # a form is a value: checking it stores nothing on it, so its pickle does
    # not grow by the algebra it was checked over
    algebra = fixture_set.algebra("L(Heis27)")
    for alpha in (BilinearForm.zero(13), BilinearForm.from_entries(13, {(0, 1): ONE})):
        fields, size = dict(vars(alpha)), len(pickle.dumps(alpha))
        is_cocycle(algebra, alpha)
        assert vars(alpha) == fields and len(pickle.dumps(alpha)) == size
