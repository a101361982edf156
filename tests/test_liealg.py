from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

import pytest

from dense import (
    dense_bracket,
    dense_hat_coordinates,
    dense_nullspace,
    dense_rref,
    gaussian_table,
    relabelled_table,
    rescaled_table,
)
from plesken import errors, liealg
from plesken.cohomology import BilinearForm
from plesken.extensions import extension_from_cocycle
from plesken.groups import from_permutation_generators, preset, self_inverse_count
from plesken.liealg import (
    GroupAlgebraElement,
    LieAlgebra,
    PleskenBasis,
    Subspace,
    _ad_generators,
    _default_labels,
    _hat_terms,
    _jacobiators,
    _linked_triples,
    _normalize_table,
    ad_matrix,
    algebra_from_json,
    algebra_to_json,
    bracket,
    center,
    derived_subalgebra,
    from_structure_constants,
    group_algebra_commutator,
    hat_element,
    is_semisimple,
    killing_form,
    plesken_algebra,
    plesken_pairs,
    verify_lie_axioms,
)
from plesken.scalars import ONE, ZERO, I, Scalar

S = Scalar

# a table that genuinely breaks Jacobi: [x1,x2]=x1, [x1,x3]=x3 gives
# Jacobiator(1,2,3) = [x1,x3] = x3 != 0
BROKEN_TABLE = {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1]}


def unchecked(n, table):
    """An algebra built from a table without the Jacobi check."""
    return LieAlgebra(n, _normalize_table(n, table), _default_labels(n))

FIXTURE_GROUPS = [
    ("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5), ("cyclic", 6),
    ("cyclic", 7), ("cyclic", 8), ("dihedral", 4), ("symmetric", 3),
    ("quaternion8", 0), ("elementary_abelian_p2", 3), ("heisenberg_p", 3),
]


def test_plesken_cyclic5_abelian(q8_algebra):
    algebra, basis = plesken_algebra(preset("cyclic", 5))
    assert algebra.dim == 2
    assert algebra.brackets == {}
    assert basis.pairs == ((1, 4), (2, 3))


def test_plesken_dihedral8_line():
    algebra, basis = plesken_algebra(preset("dihedral", 4))
    assert algebra.dim == 1
    assert algebra.brackets == {}
    assert algebra.basis_labels == ("hat(a)",)


def test_plesken_q8_structure_constants(q8_algebra):
    # hand convolution: i_hat j_hat = 2k - 2(-k), so [i_hat, j_hat] = 4 k_hat
    assert q8_algebra.dim == 3
    assert {pair: q8_algebra.structure(*pair) for pair in [(0, 1), (0, 2), (1, 2)]} == {
        (0, 1): (ZERO, ZERO, S(4)),
        (0, 2): (ZERO, S(-4), ZERO),
        (1, 2): (S(4), ZERO, ZERO),
    }


def assert_one_stored_form(algebra):
    """Keys i < j, each entry a non-empty tuple of (k, c) with k strictly
    increasing and no c zero; the dense view antisymmetric, zero diagonal."""
    n = algebra.dim
    for (i, j), ts in algebra.brackets.items():
        assert 0 <= i < j < n
        assert isinstance(ts, tuple) and ts
        assert all(isinstance(t, tuple) and len(t) == 2 for t in ts)
        ks = [k for k, _ in ts]
        assert 0 <= ks[0] and ks[-1] < n
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert all(isinstance(c, Scalar) and c for _, c in ts)
    for i in range(n):
        assert algebra.structure(i, i) == tuple([ZERO] * n)
        for j in range(i + 1, n):
            assert algebra.structure(j, i) == tuple(-c for c in algebra.structure(i, j))


def test_every_constructor_stores_sorted_nonzero_terms(fixture_set, heis3):
    zero = Scalar(0)  # equal to ZERO, not the same object
    built = from_structure_constants(
        4, {(0, 1): [zero, 0, ONE, Fraction(0)], (0, 2): [0, 0, 0, 0],
            (2, 3): [ZERO, ZERO, ZERO, ZERO]})
    assert built.brackets == {(0, 1): ((2, ONE),)}
    read = algebra_from_json({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "c": ["0", "0", "1"]}, {"i": 0, "j": 2, "c": ["0", "0", "0"]},
        {"i": 1, "j": 2, "c": ["0", "0/3", "0*I"]}]})
    assert read.brackets == {(0, 1): ((2, ONE),)}
    algebras = [built, read]
    for _, group in fixture_set.groups:
        algebras.append(plesken_algebra(group)[0])
    alpha = BilinearForm.from_entries(3, {(0, 1): I, (0, 2): S(2)})  # [x0, x2] = 0
    ext = extension_from_cocycle(heis3, alpha)
    assert ext.total.brackets == {(0, 1): ((2, ONE), (3, I)), (0, 2): ((3, S(2)),)}
    algebras.append(ext.total)
    for algebra in algebras:
        assert_one_stored_form(algebra)


@pytest.mark.parametrize("name,param", FIXTURE_GROUPS)
def test_plesken_dimension_and_axioms(name, param):
    group = preset(name, param)
    algebra, basis = plesken_algebra(group)
    assert 2 * algebra.dim == group.order - self_inverse_count(group)
    assert verify_lie_axioms(algebra) == []
    # basis invariants: no self-inverse member, no repeats, full coverage
    members = [g for pair in basis.pairs for g in pair]
    assert len(members) == len(set(members)) == group.order - self_inverse_count(group)
    assert all(group.inverse[g] == gi and g < gi for g, gi in basis.pairs)


def expanded_bracket(algebra, basis, i, j):
    """The stored terms (k, c) of [x_i, x_j] expanded in the group algebra as
    sum_k c (g_k - g_k^-1), as a coefficient dict."""
    out = {}
    for k, c in algebra.brackets.get((i, j), ()):
        g, gi = basis.pairs[k]
        out[g], out[gi] = c, -c
    return out


def densified_hat_terms(group, element, basis):
    """The dense hat coordinates of ``element``, from :func:`_hat_terms`; the
    group is unused and kept for the signature of the dense oracle."""
    coords = [ZERO] * len(basis.pairs)
    for k, c in _hat_terms(element, basis):
        coords[k] = c
    return coords


@pytest.mark.parametrize("name,param", FIXTURE_GROUPS)
def test_plesken_oracle_equivalence(name, param):
    # every stored bracket, expanded in the group algebra, is the commutator
    group = preset(name, param)
    algebra, basis = plesken_algebra(group)
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            w = group_algebra_commutator(
                group, hat_element(group, basis.pairs[i][0]),
                hat_element(group, basis.pairs[j][0]))
            assert expanded_bracket(algebra, basis, i, j) == w.coefficients


@pytest.mark.parametrize("name,param", FIXTURE_GROUPS + [("symmetric", 5), ("heisenberg_p", 5)])
def test_hat_coordinates_match_dense_oracle_on_every_commutator(name, param):
    group = preset(name, param)
    basis = PleskenBasis(plesken_pairs(group))
    hats = [hat_element(group, g) for g, _ in basis.pairs]
    for i, u in enumerate(hats):
        for v in hats[i + 1:]:
            w = group_algebra_commutator(group, u, v)
            assert densified_hat_terms(group, w, basis) == dense_hat_coordinates(group, w, basis)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of its ValueError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name,param", [
    ("dihedral", 4), ("symmetric", 3), ("quaternion8", 0), ("heisenberg_p", 3),
    ("symmetric", 5)])
def test_hat_coordinates_reject_like_dense_oracle(name, param):
    # weight on an involution (or the identity), unequal pair weights, and
    # both, several of each, over hat combinations in shuffled key order: the
    # first failing pair in basis order wins, else the first loose element in
    # the element's own order
    rng = random.Random(f"hat-{name}-{param}")
    group = preset(name, param)
    basis = PleskenBasis(plesken_pairs(group))
    loose = [g for g in group.elements() if group.inverse[g] == g]
    seen = set()
    for trial in range(90):
        coeffs = {}
        for g, gi in rng.sample(basis.pairs, rng.randint(0, min(4, len(basis.pairs)))):
            c = S(rng.choice([-3, -1, 1, 2]), rng.randint(-1, 1))
            coeffs[g], coeffs[gi] = c, -c
        kind = trial % 3
        if kind != 1:
            for g in rng.sample(loose, rng.randint(1, min(3, len(loose)))):
                coeffs[g] = S(rng.choice([-2, 1, 3]), rng.randint(-1, 1))
        if kind != 0:
            for pair in rng.sample(basis.pairs, rng.randint(1, min(3, len(basis.pairs)))):
                g, gi = pair if rng.random() < 0.5 else pair[::-1]
                coeffs[g] = c = S(rng.choice([-1, 1, 2]), rng.randint(-1, 1))
                if rng.random() < 0.5:
                    coeffs[gi] = c
                else:
                    coeffs.pop(gi, None)
        items = list(coeffs.items())
        rng.shuffle(items)
        element = GroupAlgebraElement(dict(items))
        got = _outcome(densified_hat_terms, group, element, basis)
        assert got == _outcome(dense_hat_coordinates, group, element, basis)
        assert got[0] is ValueError
        seen.add((kind, got[1].split(":")[1].split()[0]))
    assert seen == {(0, "weight"), (1, "pair"), (2, "pair")}


@pytest.mark.parametrize("name,param", FIXTURE_GROUPS)
def test_plesken_bracket_closed_formula(name, param):
    # independent route: [g^, h^] = (gh)^ + (g'h')^ - (gh')^ - (g'h)^
    group = preset(name, param)
    algebra, basis = plesken_algebra(group)
    index = {}
    for idx, (g, gi) in enumerate(basis.pairs):
        index[g] = (idx, ONE)
        index[gi] = (idx, -ONE)

    def hat_vec(element):
        vec = [ZERO] * algebra.dim
        if element in index:
            idx, sign = index[element]
            vec[idx] = sign
        return vec

    for i, (g, gi) in enumerate(basis.pairs):
        for j, (h, hi) in enumerate(basis.pairs):
            if i >= j:
                continue
            expected = [ZERO] * algebra.dim
            for target, sign in ((group.table[g][h], ONE),
                                 (group.table[gi][hi], ONE),
                                 (group.table[g][hi], -ONE),
                                 (group.table[gi][h], -ONE)):
                term = hat_vec(target)
                expected = [a + sign * b for a, b in zip(expected, term)]
            assert tuple(expected) == algebra.structure(i, j)


def test_commutator_zero_cases():
    group = preset("symmetric", 3)
    u = hat_element(group, 3)
    assert group_algebra_commutator(group, u, u).is_zero()
    abelian = preset("cyclic", 6)
    v, w = hat_element(abelian, 1), hat_element(abelian, 2)
    assert group_algebra_commutator(abelian, v, w).is_zero()


def test_commutator_q8_hand_value():
    group = preset("quaternion8")
    # i at index 2, j at index 4, k at index 6, -k at index 7
    w = group_algebra_commutator(group, hat_element(group, 2), hat_element(group, 4))
    assert w.coefficients == {6: S(4), 7: S(-4)}


def test_bracket_alternation_and_bilinearity(q8_algebra):
    rng = random.Random(3)
    for _ in range(20):
        u = [S(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(3)]
        v = [S(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(3)]
        assert not any(bracket(q8_algebra, u, u))
        lhs = bracket(q8_algebra, u, v)
        rhs = [-x for x in bracket(q8_algebra, v, u)]
        assert lhs == rhs
    zero = [ZERO] * 3
    assert not any(bracket(q8_algebra, u, zero))


def test_bracket_q8_basis(q8_algebra):
    e0 = [ONE, ZERO, ZERO]
    e1 = [ZERO, ONE, ZERO]
    assert bracket(q8_algebra, e0, e1) == [ZERO, ZERO, S(4)]


def test_bracket_dimension_mismatch(q8_algebra):
    with pytest.raises(errors.DimensionMismatch):
        bracket(q8_algebra, [ONE], [ONE, ZERO, ZERO])


def test_verify_axioms_dim2_always_holds():
    algebra = from_structure_constants(2, {(0, 1): [1, 0]})
    assert verify_lie_axioms(algebra) == []


def test_verify_axioms_broken_table():
    algebra = unchecked(3, BROKEN_TABLE)
    failures = verify_lie_axioms(algebra)
    assert len(failures) == 1
    i, j, k, residual = failures[0]
    assert (i, j, k) == (0, 1, 2)
    assert residual == (ZERO, ZERO, ONE)


def test_non_jacobi_table_is_refused_at_its_first_failing_triple(monkeypatch):
    # a dense seeded table fails Jacobi on most triples; both readers name the
    # first failure of the full list and unpack no other residual
    rng = random.Random("first-failure")
    n = 12
    table = {(i, j): [rng.randint(-2, 2) for _ in range(n)]
             for i in range(n) for j in range(i + 1, n)}
    failures = verify_lie_axioms(unchecked(n, table))
    assert len(failures) > 1
    i, j, k, residual = failures[0]
    doc = algebra_to_json(unchecked(n, table))
    jacobiators, unpacked = liealg._jacobiators, []

    def counted(algebra, triples):
        for failure in jacobiators(algebra, triples):
            unpacked.append(failure[:3])
            yield failure

    monkeypatch.setattr(liealg, "_jacobiators", counted)
    for read in (lambda: from_structure_constants(n, table), lambda: algebra_from_json(doc)):
        unpacked.clear()
        with pytest.raises(errors.JacobiViolation) as exc:
            read()
        assert exc.value.witness == [i, j, k, [str(x) for x in residual]]
        assert unpacked == [(i, j, k)]


# breaks Jacobi on three of the four triples, with complex residuals;
# the expected list was computed by the dense-tuple Jacobi check
MULTI_BROKEN_TABLE = {(0, 1): [1, 0, 0, 1], (0, 2): [0, 0, 1, 0],
                      (1, 2): [0, 1, 0, 2], (1, 3): [0, 0, 0, 1],
                      (2, 3): [1, 0, I, 0]}


def test_verify_lie_axioms_lists_failures_in_order():
    algebra = unchecked(4, MULTI_BROKEN_TABLE)
    P = Scalar.parse
    assert verify_lie_axioms(algebra) == [
        (0, 1, 2, (P("-2"), ONE, P("1-1*I"), ONE)),
        (0, 2, 3, (ONE, ZERO, ZERO, ZERO)),
        (1, 2, 3, (P("2"), P("-1*I"), P("1*I"), P("2-2*I"))),
    ]
    with pytest.raises(errors.JacobiViolation) as exc:
        from_structure_constants(4, MULTI_BROKEN_TABLE)
    assert exc.value.witness == [0, 1, 2, ["-2", "1", "1-1*I", "1"]]


def all_triples_jacobi(algebra):
    """Oracle: the Jacobi sum on every basis triple i < j < k, from the
    dense structure vectors."""
    n = algebra.dim
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [ZERO] * n
                for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c in enumerate(algebra.structure(a, b)):
                        if c:
                            total = [x + c * y
                                     for x, y in zip(total, algebra.structure(m, t))]
                if any(total):
                    failures.append((i, j, k, tuple(total)))
    return failures


def test_verify_lie_axioms_matches_all_triples_on_sparse_tables():
    rng = random.Random(1861)
    for _ in range(40):
        n = rng.randint(3, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        table = {}
        for i, j in rng.sample(pairs, rng.randint(1, min(4, len(pairs)))):
            vec = [0] * n
            for k in rng.sample(range(n), rng.randint(1, 2)):
                vec[k] = rng.choice([-2, -1, 1, 2])
            table[(i, j)] = vec
        algebra = unchecked(n, table)
        assert verify_lie_axioms(algebra) == all_triples_jacobi(algebra)


def test_integer_terms_clear_stored_brackets(oracle_algebras):
    rng = random.Random(8)
    tables = [unchecked(n, gaussian_table(rng, n, real=n % 2 == 0)) for n in range(3, 9)]
    for algebra in tables + [a for _, a in oracle_algebras]:
        den, real, terms = algebra.integer_terms
        n = algebra.dim
        forward = {(i, j): ts for i in range(n) for j in range(i + 1, n)
                   if (ts := tuple((k, c) for k, c in enumerate(algebra.structure(i, j)) if c))}
        scalars = [c for ts in forward.values() for _, c in ts]
        assert den == lcm(*[c.d for c in scalars])
        assert real == all(not c.b for c in scalars)
        expected = {**forward, **{(j, i): tuple((k, -c) for k, c in ts)
                                  for (i, j), ts in forward.items()}}
        assert {pair: tuple((k, Scalar._make(re, im, den)) for k, re, im in ts)
                for pair, ts in terms.items()} == expected


def test_verify_lie_axioms_matches_all_triples_on_gaussian_tables():
    rng = random.Random(4127)
    kinds = set()
    for trial in range(60):
        n = rng.randint(3, 7)
        algebra = unchecked(n, gaussian_table(rng, n, real=trial % 3 == 0))
        failures = verify_lie_axioms(algebra)
        assert failures == all_triples_jacobi(algebra)
        kinds.add((algebra.integer_terms.real, algebra.integer_terms.den > 1, bool(failures)))
    assert {(True, True, True), (False, True, True)} <= kinds


def test_verify_lie_axioms_on_complex_rescaled_sl2(sl2):
    scales = [S(Fraction(1, 2), 1), S(0, 3), S(Fraction(2, 3), -1)]
    table = rescaled_table(sl2, scales)
    algebra = from_structure_constants(3, table)
    assert not algebra.integer_terms.real and algebra.integer_terms.den > 1
    assert verify_lie_axioms(algebra) == all_triples_jacobi(algebra) == []
    # an x_0 term added to [x_0, x_1] adds c [x_0, x_2] != 0 to the Jacobiator
    table[(0, 1)] = [table[(0, 1)][0] + S(Fraction(1, 3), 1)] + table[(0, 1)][1:]
    broken = unchecked(3, table)
    failures = verify_lie_axioms(broken)
    assert failures and failures == all_triples_jacobi(broken)


def test_large_sparse_algebras_build():
    # only triples with a nonzero pair bracket are visited, so these finish
    # at once; visiting all C(1000, 3) triples took about 20 minutes
    assert from_structure_constants(1000, {}).dim == 1000
    heis = {(0, 1): [0] * 999 + [1]}
    assert verify_lie_axioms(unchecked(1000, heis)) == []
    broken = {(0, 1): [1] + [0] * 999, (0, 2): [0, 0, 1] + [0] * 997}
    algebra = unchecked(1000, broken)
    assert [f[:3] for f in verify_lie_axioms(algebra)] == [(0, 1, 2)]


def _slot_edge_table(big, inner, outer):
    """[x_0, x_1] = [x_1, x_2] = [x_2, x_0] = inner x_3 and [x_3, x_t] = outer x_4
    for t < 3: Jacobi fails on (0, 1, 2) only, with x_4-coordinate
    3 inner outer.  With inner and outer of the form big (+-1 +-i) that is
    +-6 big^2 in one part, exactly 3 C M, the bound the slot width is made from
    (C = 2 big, M = big, over the cleared terms)."""
    def line(k, c):
        return [c if t == k else 0 for t in range(5)]
    return {(0, 1): line(3, inner), (1, 2): line(3, inner), (0, 2): line(3, -inner),
            (0, 3): line(4, -outer), (1, 3): line(4, -outer), (2, 3): line(4, -outer)}


@pytest.mark.parametrize("inner, outer", [
    (S(1, 1), S(1, 1)),                    # +6 big^2 i: the imaginary part at the edge
    (S(1, 1), S(1, -1)),                   # +6 big^2: the real part
    (S(-1, 1), S(1, 1)),                   # -6 big^2 - 0 i, reached from below
    (S(Fraction(1, 3), Fraction(-1, 3)), S(Fraction(1, 3), Fraction(-1, 3))),  # E = 3
])
def test_jacobi_residual_at_its_slot_edge(inner, outer):
    # the packed Jacobiator holds a coordinate of exactly 3 C M, so one bit
    # less of slot width reads it back wrong
    big = 10 ** 12 + 39
    algebra = unchecked(5, _slot_edge_table(big, big * inner, big * outer))
    e = algebra.integer_terms.den
    terms = algebra.integer_terms.terms
    c = max(sum(abs(a) + abs(b) for _, a, b in ts) for ts in terms.values())
    m = max(max(abs(a), abs(b)) for ts in terms.values() for _, a, b in ts)
    edge = 3 * big * big * inner * outer
    assert max(abs(edge.re), abs(edge.im)) * e * e == 3 * c * m
    assert verify_lie_axioms(algebra) == all_triples_jacobi(algebra) == [
        (0, 1, 2, (ZERO, ZERO, ZERO, ZERO, edge))]
    with pytest.raises(errors.JacobiViolation) as exc:
        from_structure_constants(5, _slot_edge_table(big, big * inner, big * outer))
    assert exc.value.witness == [0, 1, 2, ["0", "0", "0", "0", str(edge)]]


def test_jacobi_at_scale_matches_all_triples():
    # large Gaussian-rational constants, Lie (a rescaled sl2) or broken
    rng = random.Random(7717)
    for trial in range(30):
        n = rng.randint(3, 6)
        table = gaussian_table(rng, n, real=trial % 3 == 0)
        scale = S(Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 999)),
                  Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 999)))
        algebra = unchecked(n, {p: [scale * c for c in vec] for p, vec in table.items()})
        assert verify_lie_axioms(algebra) == all_triples_jacobi(algebra)


# -- the Jacobi certificate on a Lie generating set ----------------------------------


def full_walk_jacobi(algebra):
    """Oracle: the Jacobiator on every linked triple, generators or not."""
    return list(_jacobiators(algebra, _linked_triples(algebra)))


@pytest.fixture(scope="module")
def s5():
    return plesken_algebra(preset("symmetric", 5))[0]


def test_no_closure_below_its_dimension(fixture_set):
    # the gate returns before the structure constants are even cleared
    a5 = plesken_algebra(from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]))[0]
    for algebra in [a for _, a in fixture_set.algebras] + [a5]:
        assert algebra.dim <= 24
        fresh = LieAlgebra(algebra.dim, algebra.brackets, algebra.basis_labels)
        assert _ad_generators(fresh) is None and "integer_terms" not in fresh.__dict__
        assert fresh.lie_generators is None
        assert verify_lie_axioms(fresh) == full_walk_jacobi(fresh) == []


def test_closure_reaches_all_of_l_from_its_generators(s5):
    # the ad_S-closure, recomputed level by level with the bracket, spans L;
    # each x_g joins S only when the closure of those before it misses it
    generators = s5.lie_generators
    assert sorted(generators) == sorted(_ad_generators(s5)) == [0, 1, 2, 7, 8]
    n = s5.dim
    units = [[ONE if t == g else ZERO for t in range(n)] for g in sorted(generators)]
    reached, frontier = list(units), list(units)
    while frontier:
        span = Subspace.from_spanning(n, reached)
        frontier = [v for w in frontier for x in units
                    if not span.contains(v := bracket(s5, x, w))]
        reached += frontier
    assert Subspace.from_spanning(n, reached).dim == n


def test_jacobi_certificate_matches_the_full_walk(s5):
    rng = random.Random(2609)
    a5 = plesken_algebra(from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]))[0]
    heis125 = plesken_algebra(preset("heisenberg_p", 5))[0]
    cases = [s5, heis125] + [unchecked(g.dim, relabelled_table(g, rng))
                             for g in (s5, s5, a5, heis125)]
    # above the crossover over Q(i): L(S5) in a seeded Gaussian-rational basis
    scales = [rng.choice([S(Fraction(1, 2), 1), S(0, 3), S(Fraction(2, 3), -1), S(-2)])
              for _ in range(s5.dim)]
    gaussian = unchecked(s5.dim, rescaled_table(s5, scales))
    assert not gaussian.integer_terms.real and gaussian.integer_terms.den > 1
    cases.append(gaussian)
    for algebra in cases:
        assert verify_lie_axioms(algebra) == full_walk_jacobi(algebra) == []
    for algebra in cases[0], cases[2]:
        # the walk of the generators is the full walk filtered, in order
        generators = algebra.lie_generators
        assert list(_linked_triples(algebra, generators)) == [
            t for t in _linked_triples(algebra) if generators.intersection(t)]
    # which path ran: every L(S5) basis is certified on a few generators; in
    # its preset basis L(Heis125), with a 14-dimensional center, needs 3 |S|
    # past its dimension, and L(A5) is below the crossover
    assert [len(cases[i].lie_generators) < 6 for i in (0, 2, 3, -1)] == [True] * 4
    assert [cases[i].lie_generators for i in (1, 4)] == [None] * 2


def _perturbed(algebra, pair, k, delta):
    table = {p: list(algebra.structure(*p)) for p in algebra.brackets}
    vec = table.setdefault(pair, [ZERO] * algebra.dim)
    vec[k] = vec[k] + delta
    return table


def test_one_entry_perturbations_keep_their_jacobi_witness(s5):
    # a broken table is caught on the generators, then the full walk names
    # the same first triple and the same residuals as it always has
    algebra = s5
    generators = algebra.lie_generators
    rng = random.Random(4451)
    pairs = sorted(algebra.brackets)
    picks = [pair for pair in pairs if not set(pair) & generators][-2:]
    picks += rng.sample(pairs, 1) + [(39, 41)]
    assert (39, 41) not in algebra.brackets
    for pair in picks:
        table = _perturbed(algebra, pair, rng.randrange(algebra.dim), S(rng.choice([-1, 1, 2])))
        broken = unchecked(algebra.dim, table)
        assert broken.lie_generators is None
        failures = verify_lie_axioms(broken)
        assert failures and failures == full_walk_jacobi(broken)
        with pytest.raises(errors.JacobiViolation) as exc:
            from_structure_constants(algebra.dim, table)
        i, j, k, residual = failures[0]
        assert exc.value.witness == [i, j, k, [str(x) for x in residual]]


def test_killing_form_makes_no_scalar_products(monkeypatch):
    cases = []
    for generators in ([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)],   # A5
                       [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]):  # S5
        algebra, _ = plesken_algebra(from_permutation_generators(generators))
        fresh = LieAlgebra(algebra.dim, algebra.brackets, algebra.basis_labels)
        cases.append((fresh, killing_form(algebra)))
    assert [fresh.dim for fresh, _ in cases] == [22, 47]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        original = Scalar.__dict__[name]

        def counted(self, other, _original=original, _name=name):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(Scalar, name, counted)
    for fresh, expected in cases:
        assert killing_form(fresh) == expected
    assert calls == []
    assert ONE * ONE == ONE and calls == ["__mul__"]


def test_from_structure_constants_rejects_broken_table():
    with pytest.raises(errors.JacobiViolation) as exc:
        from_structure_constants(3, BROKEN_TABLE)
    assert exc.value.witness[:3] == [0, 1, 2]


def test_from_structure_constants_trivial_and_sl2(sl2):
    trivial = from_structure_constants(0, {})
    assert trivial.dim == 0
    assert verify_lie_axioms(sl2) == []


def test_center_abelian_full(abelian2):
    sub = center(abelian2)
    assert sub.dim == 2


def test_center_q8_zero(q8_algebra):
    assert center(q8_algebra).dim == 0


def test_center_heis3_is_z(heis3):
    sub = center(heis3)
    assert sub.dim == 1
    assert sub.basis == ((ZERO, ZERO, ONE),)
    # center vectors bracket to zero with every basis vector
    for j in range(3):
        ej = [ONE if t == j else ZERO for t in range(3)]
        assert not any(bracket(heis3, list(sub.basis[0]), ej))


def test_derived_subalgebra(heis3, q8_algebra, abelian2):
    assert derived_subalgebra(abelian2).dim == 0
    heis_derived = derived_subalgebra(heis3)
    assert heis_derived.dim == 1
    assert heis_derived.basis == ((ZERO, ZERO, ONE),)
    assert derived_subalgebra(q8_algebra).dim == 3


def test_subspace_rref_fixed_point(heis3, q8_algebra):
    for sub in (center(heis3), derived_subalgebra(q8_algebra)):
        again = Subspace.from_spanning(sub.ambient_dim, [list(r) for r in sub.basis])
        assert again == sub


def test_center_and_derived_are_genuine_subspaces(fixture_set):
    for name, algebra in fixture_set.algebras:
        for sub in (center(algebra), derived_subalgebra(algebra)):
            again = Subspace.from_spanning(sub.ambient_dim,
                                           [list(r) for r in sub.basis])
            assert again == sub, name
        n = algebra.dim
        for row in center(algebra).basis:
            for j in range(n):
                ej = [ONE if t == j else ZERO for t in range(n)]
                assert not any(bracket(algebra, list(row), ej)), name


def test_center_matches_dense_nullspace_on_fixtures(fixture_set):
    # center's kernel takes the free pivot; its canonical basis is still the
    # dense Gauss-Jordan one of the equations [v, x_j] = 0
    for name, algebra in fixture_set.algebras:
        n = algebra.dim
        rows = [[algebra.structure(i, j)[k] for i in range(n)]
                for j in range(n) for k in range(n)]
        assert [list(row) for row in center(algebra).basis] == dense_nullspace(rows, n), name


def test_derived_subalgebra_matches_dense_rref(fixture_set):
    # the rows eliminated are the integer terms, not the dense bracket
    # vectors; the basis is still the RREF of those vectors
    rng = random.Random("derived-rows")
    cases = list(fixture_set.algebras)
    for trial in range(12):
        n = rng.randint(2, 6)
        cases.append((f"table{trial}", unchecked(n, gaussian_table(rng, n, real=trial % 3 == 0))))
    for name, algebra in cases:
        vectors = [list(algebra.structure(i, j)) for i, j in algebra.brackets]
        expected, _ = dense_rref(vectors, algebra.dim)
        assert [list(row) for row in derived_subalgebra(algebra).basis] == expected, name


def test_killing_form_values(heis3, q8_algebra, abelian2):
    assert killing_form(abelian2) == [[ZERO, ZERO], [ZERO, ZERO]]
    assert not is_semisimple(abelian2)
    assert killing_form(heis3) == [[ZERO] * 3 for _ in range(3)]
    assert not is_semisimple(heis3)
    k = killing_form(q8_algebra)
    assert k == [[S(-32), ZERO, ZERO], [ZERO, S(-32), ZERO], [ZERO, ZERO, S(-32)]]
    assert is_semisimple(q8_algebra)


def test_killing_form_symmetry(sl2, heis3):
    for algebra in (sl2, heis3):
        k = killing_form(algebra)
        n = algebra.dim
        for i in range(n):
            for j in range(n):
                assert k[i][j] == k[j][i]


# -- oracles: the dense code the sparse kernels replaced -------------------------


def dense_ad_matrix(algebra, i):
    n = algebra.dim
    mat = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        c = algebra.structure(i, j)
        for k in range(n):
            if c[k]:
                mat[k][j] = c[k]
    return mat


def ad_killing_form(algebra):
    """trace(ad x_i ad x_j) from n dense adjoint matrices."""
    n = algebra.dim
    ads = [dense_ad_matrix(algebra, i) for i in range(n)]
    nonzeros = [[(r, s, x) for r, row in enumerate(a) for s, x in enumerate(row) if x]
                for a in ads]
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = ZERO
            b = ads[j]
            for r, s, x in nonzeros[i]:
                y = b[s][r]
                if y:
                    acc = acc + x * y
            out[i][j] = acc
            out[j][i] = acc
    return out


def gauss_det(m):
    """Determinant by forward elimination with row swaps."""
    n = len(m)
    work = [list(row) for row in m]
    sign = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        piv = work[c][c]
        for i in range(c + 1, n):
            f = work[i][c]
            if not f:
                continue
            scale = f / piv
            row = work[i]
            prow = work[c]
            for j in range(c, n):
                if prow[j]:
                    row[j] = row[j] - scale * prow[j]
    result = ONE if sign > 0 else -ONE
    for i in range(n):
        result = result * work[i][i]
    return result


@pytest.fixture(scope="module")
def oracle_algebras(fixture_set):
    group = from_permutation_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    assert group.order == 60
    return list(fixture_set.algebras) + [("L(A5)", plesken_algebra(group)[0])]


def _random_vector(rng, n):
    return [S(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            if rng.random() < 0.6 else ZERO for _ in range(n)]


def test_bracket_matches_dense_oracle(oracle_algebras):
    rng = random.Random(23)
    for name, algebra in oracle_algebras:
        n = algebra.dim
        basis = [[ONE if t == k else ZERO for t in range(n)] for k in range(n)]
        for u in basis:
            for v in basis:
                assert bracket(algebra, u, v) == dense_bracket(algebra, u, v), name
        for _ in range(6):
            u, v = _random_vector(rng, n), _random_vector(rng, n)
            assert bracket(algebra, u, v) == dense_bracket(algebra, u, v), name


def test_killing_form_and_cartan_match_dense_oracles(oracle_algebras):
    semisimple = set()
    for name, algebra in oracle_algebras:
        for i in range(algebra.dim):
            assert ad_matrix(algebra, i) == dense_ad_matrix(algebra, i), name
        k = ad_killing_form(algebra)
        assert killing_form(algebra) == k, name
        assert is_semisimple(algebra) == bool(gauss_det(k)), name
        if is_semisimple(algebra):
            semisimple.add(name)
    assert {"L(Q8)", "sl2", "L(A5)"} <= semisimple
    assert "heis3" not in semisimple


def test_json_roundtrip(q8_algebra, heis3):
    for algebra in (q8_algebra, heis3):
        doc = algebra_to_json(algebra)
        text = json.dumps(doc, sort_keys=True)
        back = algebra_from_json(json.loads(text))
        assert back == LieAlgebra(algebra.dim, algebra.brackets,
                                  algebra.basis_labels)
        assert json.dumps(algebra_to_json(back), sort_keys=True) == text


def test_json_rejects_broken_table():
    doc = {"dim": 3, "labels": ["x1", "x2", "x3"],
           "brackets": [{"i": 0, "j": 1, "c": ["1", "0", "0"]},
                        {"i": 0, "j": 2, "c": ["0", "0", "1"]}]}
    with pytest.raises(errors.JacobiViolation):
        algebra_from_json(doc)
