"""H^2 by splitting off a semisimple ideal, against the general path.

``h2`` takes Z^2(L) = B^2(L) + pi_R^* Z^2(R) whenever the derived series of L
reaches an ideal P on which the Killing form has full rank, and the general
constraint elimination of :func:`~plesken.cohomology.z2_basis` otherwise.
These tests compare the two on every algebra where the general path is
affordable, pin what it gave where it is not, check that the split is taken
and why it is not, and guard the general path with algebras whose H^2 is
known from theory.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest

from dense import dense_nullspace, rescaled_table, scalar_constraint_rows
from plesken import cli, cohomology, from_permutation_generators, linalg, plesken_algebra, preset
from plesken.cohomology import _split_z2, b2_basis, h2, z2_basis
from plesken.liealg import (
    _derived_rows,
    _killing_columns,
    _killing_full_rank,
    _linked_triples,
    _split_ideal,
    algebra_to_json,
    center,
    derived_subalgebra,
    from_structure_constants,
    is_semisimple,
    killing_form,
)
from plesken.scalars import ZERO, Scalar


def general_h2(algebra, monkeypatch):
    """h2 with the split switched off: the constraint elimination on L."""
    with monkeypatch.context() as m:
        m.setattr(cohomology, "_split_z2", lambda algebra, b2: None)
        return h2(algebra)


def assert_split_matches_general(algebra, monkeypatch):
    split = _split_z2(algebra, b2_basis(algebra))
    assert split is not None
    assert split == z2_basis(algebra)
    assert h2(algebra) == general_h2(algebra, monkeypatch)


def sl2_3():
    """SL(2, 3) acting on the eight nonzero vectors of F_3^2."""
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]

    def perm(a, b, c, d):
        return [vectors.index(((a * x + b * y) % 3, (c * x + d * y) % 3)) for x, y in vectors]

    return from_permutation_generators([perm(1, 1, 0, 1), perm(1, 0, 1, 1)])


def a5_algebra():
    return plesken_algebra(from_permutation_generators(
        [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]))[0]


def central_total(algebra, rng):
    """L + a central line z along phi ^ psi, for seeded independent phi, psi
    vanishing on [L, L]: the non-split totals of the benchmark's ladder."""
    n = algebra.dim
    annihilator = dense_nullspace([list(row) for row in derived_subalgebra(algebra).basis], n)

    def combo():
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) or Fraction(1)
                  for _ in annihilator]
        return [sum((c * v[k] for c, v in zip(coeffs, annihilator)), ZERO) for k in range(n)]

    while True:
        phi, psi = combo(), combo()
        wedge = {(i, j): phi[i] * psi[j] - phi[j] * psi[i]
                 for i in range(n) for j in range(i + 1, n)}
        if any(wedge.values()):
            break
    table = {}
    for (i, j), w in wedge.items():
        vec = list(algebra.structure(i, j)) + [w]
        if any(vec):
            table[(i, j)] = vec
    return from_structure_constants(n + 1, table)


# -- the split against the general path -------------------------------------------


def test_split_matches_general_path_on_fixtures(fixture_set, monkeypatch):
    split = set()
    for name, algebra in fixture_set.algebras:
        if _split_z2(algebra, b2_basis(algebra)) is not None:
            split.add(name)
            assert_split_matches_general(algebra, monkeypatch)
    # every algebra with a nonzero semisimple [L, L], and none other
    assert split == {"L(Q8)", "L(Heis27)", "sl2"}


def test_split_matches_general_path_on_a5_and_s5(monkeypatch):
    for algebra in (a5_algebra(), plesken_algebra(preset("symmetric", 5))[0]):
        ideal, semisimple = _split_ideal(algebra)
        assert semisimple and len(ideal) == algebra.dim
        assert_split_matches_general(algebra, monkeypatch)


@pytest.mark.parametrize("name,group,seed", [
    ("heis27", lambda: preset("heisenberg_p", 3), 1),
    ("heis27", lambda: preset("heisenberg_p", 3), 2),
    ("sl2_3", sl2_3, 3),
])
def test_split_matches_general_path_on_central_totals(name, group, seed, monkeypatch):
    base, _ = plesken_algebra(group())
    total = central_total(base, random.Random(f"{name}:{seed}"))
    c, s = center(base).dim, derived_subalgebra(base).dim
    # the series stops one step below [T, T] = S + z, at P = S
    ideal, semisimple = _split_ideal(total)
    assert semisimple and len(ideal) == s
    assert len(_derived_rows(total)) == s + 1
    result = h2(total)
    assert (result.z2.dim, result.b2.dim) == (s + 1 + 2 + 2 * (c - 2) + comb(c - 2, 2), s + 1)
    assert_split_matches_general(total, monkeypatch)


def test_split_matches_general_path_over_gaussian_rationals(q8_algebra, monkeypatch):
    # the same algebras in a basis scaled by Gaussian rationals: every row of
    # the split, its Killing rank and its quotient has imaginary parts
    rng = random.Random("gaussian-split")
    total = central_total(plesken_algebra(preset("heisenberg_p", 3))[0], rng)
    for algebra in (q8_algebra, total):
        scales = [Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2))
                  for _ in range(algebra.dim)]
        scaled = from_structure_constants(algebra.dim, rescaled_table(algebra, scales))
        assert not scaled.integer_terms.real
        assert_split_matches_general(scaled, monkeypatch)


def test_h2_json_on_heis125_is_pinned(tmp_path, capsys):
    # the stdout of the general path, recorded before the split existed
    algebra, _ = plesken_algebra(preset("heisenberg_p", 5))
    path = tmp_path / "heis125.json"
    path.write_text(json.dumps(algebra_to_json(algebra)))
    assert cli.main(["cohomology", "h2", "--json", "-L", str(path)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert (doc["z2"], doc["b2"], doc["h2"]) == (139, 48, 91)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0861468c1023a2dd4305b527316e5aaf2ecde4a608c892ceabc12d88e3e7057e")


def test_split_never_eliminates_the_constraints_of_l(monkeypatch):
    original = cohomology._constraint_rows
    a5 = a5_algebra()
    total = central_total(plesken_algebra(preset("heisenberg_p", 3))[0], random.Random(7))
    seen = []

    def guarded(algebra):
        if algebra is a5 or algebra is total:
            raise AssertionError("constraint rows of L")
        seen.append(algebra.dim)
        return original(algebra)

    monkeypatch.setattr(cohomology, "_constraint_rows", guarded)
    assert h2(a5).dimension == 0
    assert h2(total).dimension == 11
    # only R = heis3 + C^3 of the total, never L(A5), whose R is 0
    assert seen == [6]


# -- why the split is not taken -----------------------------------------------------


def sl2_on_plane():
    """sl2 + C^2, basis h, e, f, v1, v2: perfect, with the plane in the
    radical of its Killing form."""
    return from_structure_constants(5, {
        (0, 1): [0, 2, 0, 0, 0], (0, 2): [0, 0, -2, 0, 0], (1, 2): [1, 0, 0, 0, 0],
        (0, 3): [0, 0, 0, 1, 0], (0, 4): [0, 0, 0, 0, -1],
        (1, 4): [0, 0, 0, 1, 0], (2, 3): [0, 0, 0, 0, 1]})


def takiff(algebra):
    """T(g) = g + g_ad: [x_i, x_j] = [x_i, x_j]_g, [x_i, y_j] = [x_i, x_j]_g on
    the y, [y_i, y_j] = 0."""
    n = algebra.dim
    table = {}
    for i, j in algebra.brackets:
        table[(i, j)] = list(algebra.structure(i, j)) + [ZERO] * n
    for i in range(n):
        for j in range(n):
            vec = algebra.structure(i, j)
            if any(vec):
                table[(i, n + j)] = [ZERO] * n + list(vec)
    return from_structure_constants(2 * n, table)


def test_fallback_when_the_derived_series_reaches_zero(heis3, abelian2, fixture_set):
    for algebra in (heis3, abelian2, fixture_set.algebra("L(E9)")):
        assert _split_ideal(algebra) == ({}, False)
        assert _split_z2(algebra, b2_basis(algebra)) is None
    assert h2(heis3).dimension == 2 and h2(abelian2).dimension == 1


def test_fallback_on_a_perfect_ideal_with_degenerate_killing_form(q8_algebra):
    for algebra in (sl2_on_plane(), takiff(q8_algebra)):
        ideal, semisimple = _split_ideal(algebra)
        assert not semisimple and len(ideal) == algebra.dim
        assert not is_semisimple(algebra)
        assert _split_z2(algebra, b2_basis(algebra)) is None
    # Hochschild-Serre: H^2(sl2 + V) = (Lambda^2 V*)^sl2, the determinant
    assert h2(sl2_on_plane()).dimension == 1


# -- theory rungs for the general path -------------------------------------------------


def _unit(n, k, c=1):
    vec = [ZERO] * n
    vec[k] = Scalar(c)
    return vec


def nilradical(m):
    """Strictly upper triangular m x m matrices, basis E_ij, i < j."""
    basis = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {e: k for k, e in enumerate(basis)}
    n = len(basis)
    table = {}
    for a, (i, j) in enumerate(basis):
        for b in range(a + 1, n):
            k, l = basis[b]
            # [E_ij, E_kl] = [j = k] E_il - [l = i] E_kj
            if j == k:
                table[(a, b)] = _unit(n, index[i, l])
            elif l == i:
                table[(a, b)] = _unit(n, index[k, j], -1)
    return from_structure_constants(n, table)


def borel(m):
    """Upper triangular traceless m x m matrices: H_k = E_kk - E_k+1,k+1,
    then E_ij, i < j."""
    roots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    h = m - 1
    n = h + len(roots)
    table = {}
    for k in range(h):
        for r, (i, j) in enumerate(roots):
            weight = (k == i) - (k == j) - (k + 1 == i) + (k + 1 == j)
            if weight:
                table[(k, h + r)] = _unit(n, h + r, weight)
    nil = nilradical(m)
    for a, b in nil.brackets:
        table[(h + a, h + b)] = [ZERO] * h + list(nil.structure(a, b))
    return from_structure_constants(n, table)


@pytest.mark.parametrize("m", range(3, 8))
def test_nilradical_of_sl_m_has_kostant_h2(m):
    algebra = nilradical(m)
    assert _split_ideal(algebra)[1] is False
    assert h2(algebra).dimension == (m - 2) * (m + 1) // 2


@pytest.mark.parametrize("m", range(3, 9))
def test_borel_of_sl_m_has_h2_of_its_torus(m):
    algebra = borel(m)
    assert _split_ideal(algebra)[1] is False
    assert h2(algebra).dimension == comb(m - 1, 2)


def test_takiff_algebras_have_no_h2(q8_algebra):
    for g in (q8_algebra, a5_algebra()):
        algebra = takiff(g)
        assert _split_ideal(algebra)[1] is False
        result = h2(algebra)
        assert result.dimension == 0 and result.b2.dim == 2 * g.dim


def test_takiff_of_a5_at_the_crossover():
    # T(L(A5)), dim 44, takes the general path above the closure's size gate:
    # Z^2 still reads every linked triple, and the triples holding one of
    # the generators that certify Jacobi cut out the same Z^2, which is what
    # lets is_cocycle read only those
    algebra = takiff(a5_algebra())
    generators = algebra.lie_generators
    assert algebra.dim == 44 and 3 * len(generators) < 44
    assert len(cohomology._constraint_rows(algebra)) == 11680
    nflat = cohomology.flat_dim(44)
    z2 = z2_basis(algebra)
    on_generators = scalar_constraint_rows(algebra, _linked_triples(algebra, generators))
    assert len(on_generators) < 11680 / 4
    assert z2 == linalg.Subspace.from_reduced(nflat, linalg._kernel(on_generators, nflat))
    assert z2.dim == 44


def _order_at_most(generators, cap):
    """The order of the permutation group, or None once it passes cap."""
    m = len(generators[0])
    seen = {tuple(range(m))}
    frontier = list(seen)
    while frontier:
        step = []
        for p in frontier:
            for g in generators:
                q = tuple(p[g[x]] for x in range(m))
                if q not in seen:
                    seen.add(q)
                    step.append(q)
        if len(seen) > cap:
            return None
        frontier = step
    return len(seen)


def random_small_groups(seed, count, cap=48):
    rng = random.Random(seed)
    groups = []
    while len(groups) < count:
        m = rng.randint(4, 7)
        generators = [rng.sample(range(m), m) for _ in range(2)]
        order = _order_at_most(generators, cap)
        if order is not None and order >= 6:
            groups.append(from_permutation_generators(generators))
    return groups


def test_plesken_algebras_of_random_groups_are_reductive():
    orders = set()
    for group in random_small_groups("split-rungs", 12):
        algebra, _ = plesken_algebra(group)
        n, c = algebra.dim, center(algebra).dim
        derived = derived_subalgebra(algebra)
        assert c + derived.dim == n
        # the Killing form on [L, L], by the library and by a dense Gram matrix
        ideal, semisimple = _split_ideal(algebra)
        assert semisimple == bool(derived.dim) and len(ideal) == derived.dim
        assert _killing_full_rank(_killing_columns(algebra),
                                  [linalg._cleared(row) for row in derived.basis])
        k = killing_form(algebra)
        gram = [[sum((u[i] * k[i][j] * v[j] for i in range(n) for j in range(n)
                      if u[i] and v[j]), ZERO) for v in derived.basis] for u in derived.basis]
        assert linalg.rank_reversed(gram, derived.dim) == derived.dim
        assert h2(algebra).dimension == comb(c, 2)
        orders.add(group.order)
    assert len(orders) >= 3
