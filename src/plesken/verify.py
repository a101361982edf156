"""Bundled theorem-verification suites.

Each criterion below re-derives one exact property end to end: the Plesken
dimension law, vanishing cohomology over the semisimple quaternion algebra,
the abelian scaling law, both directions of the cocycle/extension bijection,
section independence, cocycle degeneracy, the dihedral linear-equivalence
fixture, the twist round trip, and the Heisenberg extension fixture.  All
checks are exact; there are no tolerances to tune.

:func:`run_all` returns a deterministic, JSON-ready report; the CLI command
``verify all`` renders it.  The pytest acceptance module drives the same
functions one criterion per test.

The seeded data is drawn as integers: a rational is a numerator and a
denominator, made into a ``Scalar`` with no ``Fraction`` between, and a
random cocycle sums the Gaussian-integer kept rows of Z^2 over one common
denominator, one ``Scalar`` per nonzero entry.  Each draw makes the same rng
calls in the same order, and gives the same value, as the ``Fraction``
formulas and dense sums it replaced.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction
from math import lcm

from . import linalg
from .cohomology import (
    BilinearForm,
    LinearFunctional,
    _cohomologous,
    _constraint_rows,
    are_cohomologous,
    b2_basis,
    coboundary,
    flat_dim,
    h2,
)
from .errors import SingularF
from .extensions import (
    CentralExtension,
    cocycle_from_extension,
    equivalence_map,
    extension_from_cocycle,
    find_section,
    is_split,
    verify_central_extension,
    verify_equivalence_map,
)
from .groups import FiniteGroup, preset, self_inverse_count
from .liealg import (
    LieAlgebra,
    ad_matrix,
    from_structure_constants,
    group_algebra_commutator,
    hat_coordinates,
    hat_element,
    is_semisimple,
    plesken_algebra,
    verify_lie_axioms,
)
from .projreps import (
    ProjectiveRep,
    cocycle_from_rep,
    cohomologous_witness_from_equivalence,
    lift_linear,
    projective_rep,
    twist,
    verify_projective_equivalence,
)
from .scalars import ONE, ZERO, Scalar

S = Scalar

GROUP_BUILDERS: tuple[tuple[str, Callable[[], FiniteGroup]], ...] = tuple(
    [(f"C{n}", (lambda n=n: preset("cyclic", n))) for n in range(2, 9)]
    + [
        ("D8", lambda: preset("dihedral", 4)),
        ("S3", lambda: preset("symmetric", 3)),
        ("Q8", lambda: preset("quaternion8")),
        ("E9", lambda: preset("elementary_abelian_p2", 3)),
        ("Heis27", lambda: preset("heisenberg_p", 3)),
    ]
)


def abelian_algebra(n: int) -> LieAlgebra:
    return from_structure_constants(n, {})


def heis3_algebra() -> LieAlgebra:
    return from_structure_constants(3, {(0, 1): [0, 0, 1]}, labels=("X", "Y", "Z"))


def sl2_algebra() -> LieAlgebra:
    return from_structure_constants(
        3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]},
        labels=("h", "e", "f"))


def heisenberg_over_abelian_extension() -> CentralExtension:
    """The Heisenberg total algebra over a two-dimensional abelian base,
    assembled by hand rather than from a cocycle."""
    total = heis3_algebra()
    base = from_structure_constants(2, {}, labels=("X", "Y"))
    injection = (ZERO, ZERO, ONE)
    projection = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO))
    return CentralExtension(total=total, base=base, injection_f=injection,
                            projection_g=projection, section_s=None)


def d8_conjugate_reps() -> tuple[ProjectiveRep, ProjectiveRep, list, LinearFunctional]:
    """Two degree-2 representations of the dihedral-8 line and the basis
    change carrying the rotation form to the diagonal form."""
    algebra, _ = plesken_algebra(preset("dihedral", 4))
    rep1 = projective_rep(algebra, [[[S(0), S(2)], [S(-2), S(0)]]],
                          cocycle=BilinearForm.zero(1))
    rep2 = projective_rep(algebra, [[[S(0, 2), S(0)], [S(0), S(0, -2)]]],
                          cocycle=BilinearForm.zero(1))
    f = [[S(Fraction(1, 2)), S(0, Fraction(-1, 2))],
         [S(Fraction(1, 2)), S(0, Fraction(1, 2))]]
    return rep1, rep2, f, LinearFunctional.zero(1)


def rep_fixtures() -> list[tuple[str, ProjectiveRep]]:
    sl2 = sl2_algebra()
    heis3 = heis3_algebra()
    q8_algebra, _ = plesken_algebra(preset("quaternion8"))
    fixtures = [
        ("sl2-defining", lift_linear(sl2, [
            [[S(1), S(0)], [S(0), S(-1)]],
            [[S(0), S(1)], [S(0), S(0)]],
            [[S(0), S(0)], [S(1), S(0)]],
        ])),
        ("sl2-adjoint", lift_linear(sl2, [ad_matrix(sl2, i) for i in range(3)])),
        ("q8-quaternion", lift_linear(q8_algebra, [
            [[S(0, 2), S(0)], [S(0), S(0, -2)]],
            [[S(0), S(2)], [S(-2), S(0)]],
            [[S(0), S(0, 2)], [S(0, 2), S(0)]],
        ])),
        ("d8-rotation", d8_conjugate_reps()[0]),
        ("heis3-defect", projective_rep(heis3, [
            [[S(0), S(1)], [S(0), S(0)]],
            [[S(0), S(0)], [S(0), S(0)]],
            [[S(-1), S(0)], [S(0), S(-1)]],
        ], cocycle=BilinearForm.from_entries(3, {(0, 1): S(1)}))),
        ("abelian2-diagonal", lift_linear(abelian_algebra(2), [
            [[S(1), S(0)], [S(0), S(2)]],
            [[S(3), S(0)], [S(0), S(5)]],
        ])),
    ]
    return fixtures


class FixtureSet:
    """Shared fixture groups and algebras with memoized cohomology."""

    def __init__(self, max_group_order: int | None = None) -> None:
        self.max_group_order = max_group_order
        self.groups: list[tuple[str, FiniteGroup]] = []
        for name, build in GROUP_BUILDERS:
            group = build()
            if max_group_order is not None and group.order > max_group_order:
                continue
            self.groups.append((name, group))
        self.algebras: list[tuple[str, LieAlgebra]] = []
        for name, group in self.groups:
            algebra, _ = plesken_algebra(group)
            self.algebras.append((f"L({name})", algebra))
        for n in range(1, 5):
            self.algebras.append((f"abelian{n}", abelian_algebra(n)))
        self.algebras.append(("heis3", heis3_algebra()))
        self.algebras.append(("sl2", sl2_algebra()))
        self._h2_cache: dict[str, object] = {}

    def algebra(self, name: str) -> LieAlgebra:
        for fixture_name, algebra in self.algebras:
            if fixture_name == name:
                return algebra
        raise KeyError(name)

    def h2_of(self, name: str):
        if name not in self._h2_cache:
            self._h2_cache[name] = h2(self.algebra(name))
        return self._h2_cache[name]


# -- seeded data -----------------------------------------------------------------


def _rng_for(seed: int, criterion: int) -> random.Random:
    return random.Random(f"{seed}:{criterion}")


def _draw_rational(rng: random.Random) -> tuple[int, int]:
    """Numerator and positive denominator of a seeded rational, drawn in
    that order."""
    return rng.randint(-9, 9), rng.randint(1, 4)


def random_rational(rng: random.Random) -> Scalar:
    p, q = _draw_rational(rng)
    return Scalar._make(p, 0, q)


def random_scalar(rng: random.Random) -> Scalar:
    a, d = _draw_rational(rng)
    b, e = rng.randint(-3, 3), rng.randint(1, 2)
    return Scalar._make(a * e, b * d, d * e)


def random_vector(rng: random.Random, n: int) -> list[Scalar]:
    return [random_scalar(rng) for _ in range(n)]


def random_functional(rng: random.Random, n: int) -> LinearFunctional:
    return LinearFunctional.of([random_rational(rng) for _ in range(n)])


def random_cocycle(rng: random.Random, algebra: LieAlgebra,
                   z2: linalg.Subspace) -> BilinearForm:
    """The sum of p/q times each basis vector of z2, one draw per vector in
    order.  Basis vector k is kept row k of z2 over its lead L, so the sum is
    taken in Gaussian integers over the common denominator of the q L."""
    terms = []
    for pivot, (re, im) in z2._kept.items():
        p, q = _draw_rational(rng)
        if p:
            terms.append((p, q * re[pivot], re, im))
    den = lcm(*(d for _, d, _, _ in terms))
    sums = linalg._combine(
        (p * (den // d), 0,
         [(j, re.get(j, 0), im.get(j, 0)) for j in linalg._columns(re, im)])
        for p, d, re, im in terms)
    flat = [ZERO] * z2.ambient_dim
    for j, (x, y) in sums.items():
        flat[j] = Scalar._make(x, y, den)
    return BilinearForm.from_flat(algebra.dim, flat)


# -- criteria ----------------------------------------------------------------------


def criterion_plesken_construction(fixtures: FixtureSet, rng: random.Random) -> dict:
    """Dimension law, Lie axioms, and the commutator oracle on every group."""
    checked = []
    for name, group in fixtures.groups:
        algebra, basis = plesken_algebra(group)
        expected_dim = (group.order - self_inverse_count(group)) // 2
        assert 2 * expected_dim == group.order - self_inverse_count(group)
        if algebra.dim != expected_dim:
            return _fail(f"{name}: dim {algebra.dim} != {expected_dim}")
        if verify_lie_axioms(algebra):
            return _fail(f"{name}: Jacobi violations found")
        for i in range(algebra.dim):
            for j in range(i + 1, algebra.dim):
                w = group_algebra_commutator(
                    group, hat_element(group, basis.pairs[i][0]),
                    hat_element(group, basis.pairs[j][0]))
                coords = hat_coordinates(group, w, basis)
                if tuple(coords) != algebra.structure(i, j):
                    return _fail(f"{name}: oracle mismatch at pair ({i},{j})")
        checked.append({"group": name, "order": group.order, "dim": algebra.dim})
    return _ok(groups=checked)


def criterion_whitehead_q8(fixtures: FixtureSet, rng: random.Random) -> dict:
    """Semisimple quaternion algebra: nondegenerate Killing form, vanishing
    second cohomology, every cocycle trivializes, every extension splits."""
    algebra, _ = plesken_algebra(preset("quaternion8"))
    if not is_semisimple(algebra):
        return _fail("Killing form of L(Q8) is degenerate")
    result = h2(algebra)
    if result.dimension != 0:
        return _fail(f"dim H^2(L(Q8)) = {result.dimension}, expected 0")
    zero = BilinearForm.zero(algebra.dim)
    sweep = _cocycle_sweep(rng, algebra, result.z2, extra=10)
    for idx, alpha in enumerate(sweep):
        if are_cohomologous(algebra, alpha, zero) is None:
            return _fail(f"cocycle {idx} over L(Q8) is not a coboundary")
        if not is_split(extension_from_cocycle(algebra, alpha)).split:
            return _fail(f"extension from cocycle {idx} over L(Q8) is not split")
    return _ok(z2_dim=result.z2.dim, cocycles_checked=len(sweep))


def criterion_abelian_scaling(fixtures: FixtureSet, rng: random.Random) -> dict:
    """dim H^2 = n(n-1)/2 for abelian dims 1..4, re-derived through the
    independent elimination ordering."""
    checked = []
    for n in range(1, 5):
        algebra = abelian_algebra(n)
        result = h2(algebra)
        expected = n * (n - 1) // 2
        if result.dimension != expected:
            return _fail(f"abelian dim {n}: H^2 = {result.dimension} != {expected}")
        nflat = flat_dim(n)
        # each sparse row made dense; its common scale does not change the rank
        constraints = [[S(re.get(t, 0), im.get(t, 0)) for t in range(nflat)]
                       for re, im in _constraint_rows(algebra)]
        z2_indep = nflat - linalg.rank_reversed(constraints, nflat)
        b2_rows = [list(row) for row in b2_basis(algebra).basis]
        b2_indep = linalg.rank_reversed(b2_rows, nflat)
        if z2_indep - b2_indep != expected:
            return _fail(f"abelian dim {n}: independent path gives "
                         f"{z2_indep - b2_indep} != {expected}")
        checked.append({"n": n, "h2": result.dimension})
    return _ok(cases=checked)


def _cocycle_sweep(rng: random.Random, algebra: LieAlgebra, z2,
                   extra: int) -> list[BilinearForm]:
    sweep = [BilinearForm.from_flat(algebra.dim, row) for row in z2.basis]
    sweep += [random_cocycle(rng, algebra, z2) for _ in range(extra)]
    return sweep


def criterion_roundtrip_onto(fixtures: FixtureSet, rng: random.Random) -> dict:
    """Cocycle -> extension -> cocycle is the identity, exactly, on a
    spanning sweep plus seeded random combinations."""
    total = 0
    per_fixture = []
    for name, algebra in fixtures.algebras:
        result = fixtures.h2_of(name)
        sweep = _cocycle_sweep(rng, algebra, result.z2, extra=50)
        for idx, alpha in enumerate(sweep):
            ext = extension_from_cocycle(algebra, alpha)
            back = cocycle_from_extension(ext, ext.section_s)
            if back != alpha:
                return _fail(f"{name}: round trip altered cocycle {idx}")
        total += len(sweep)
        per_fixture.append({"fixture": name, "cocycles": len(sweep)})
    return _ok(total=total, fixtures=per_fixture)


def criterion_one_one(fixtures: FixtureSet, rng: random.Random) -> dict:
    """Cohomologous cocycles give equivalent extensions (with a verified
    commuting isomorphism); non-cohomologous ones do not."""
    equivalent_checked = 0
    for name, algebra in fixtures.algebras:
        result = fixtures.h2_of(name)
        for idx in range(25):
            alpha = random_cocycle(rng, algebra, result.z2)
            sigma = random_functional(rng, algebra.dim)
            beta = alpha.add(coboundary(algebra, sigma))
            ext1 = extension_from_cocycle(algebra, alpha)
            ext2 = extension_from_cocycle(algebra, beta)
            phi = equivalence_map(ext1, ext2)
            if phi is None:
                return _fail(f"{name}: cohomologous pair {idx} reported inequivalent")
            failures = verify_equivalence_map(ext1, ext2, phi)
            if failures:
                return _fail(f"{name}: pair {idx} map fails: {failures[0]}")
            equivalent_checked += 1
    inequivalent_checked = 0
    for name, algebra in fixtures.algebras:
        result = fixtures.h2_of(name)
        if result.dimension == 0:
            continue
        reps = result.representatives
        for idx in range(25):
            alpha = random_cocycle(rng, algebra, result.z2)
            shift = BilinearForm.zero(algebra.dim)
            for rep in reps:
                coeff = random_rational(rng)
                if coeff:
                    shift = shift.add(rep.scale(coeff))
            if shift.is_zero():
                shift = reps[0]
            sigma = random_functional(rng, algebra.dim)
            beta = alpha.add(shift).add(coboundary(algebra, sigma))
            ext1 = extension_from_cocycle(algebra, alpha)
            ext2 = extension_from_cocycle(algebra, beta)
            if equivalence_map(ext1, ext2) is not None:
                return _fail(f"{name}: non-cohomologous pair {idx} "
                             "reported equivalent")
            inequivalent_checked += 1
    return _ok(equivalent_pairs=equivalent_checked,
               inequivalent_pairs=inequivalent_checked)


def criterion_section_independence(fixtures: FixtureSet, rng: random.Random) -> dict:
    """All sections of a fixed extension extract pairwise cohomologous cocycles."""
    per_fixture = []
    for name, algebra in fixtures.algebras:
        result = fixtures.h2_of(name)
        if result.z2.dim:
            seed_form = BilinearForm.from_flat(algebra.dim, result.z2.basis[0])
        else:
            seed_form = BilinearForm.zero(algebra.dim)
        ext = extension_from_cocycle(algebra, seed_form)
        canonical = find_section(ext)
        n = algebra.dim
        f = ext.injection_f
        cocycles = []
        for _ in range(20):
            tau = random_functional(rng, n)
            section = [[canonical[r][j] + tau.vector[j] * f[r] for j in range(n)]
                       for r in range(n + 1)]
            cocycles.append(cocycle_from_extension(ext, section))
        # cocycle_from_extension has certified each of them
        for i in range(len(cocycles)):
            for j in range(i + 1, len(cocycles)):
                if _cohomologous(algebra, cocycles[i], cocycles[j]) is None:
                    return _fail(f"{name}: sections {i} and {j} gave "
                                 "non-cohomologous cocycles")
        per_fixture.append({"fixture": name, "sections": len(cocycles)})
    return _ok(fixtures=per_fixture)


def criterion_cocycle_degeneracy(fixtures: FixtureSet, rng: random.Random) -> dict:
    """alpha(x,x) = alpha(x,0) = alpha(0,x) = 0 on seeded cocycle/vector draws."""
    names = [name for name, _ in fixtures.algebras]
    checked = 0
    for trial in range(200):
        name = names[trial % len(names)]
        algebra = fixtures.algebra(name)
        result = fixtures.h2_of(name)
        alpha = random_cocycle(rng, algebra, result.z2)
        x = random_vector(rng, algebra.dim)
        zero_vec = linalg.zeros(algebra.dim)
        if alpha.value(x, x) or alpha.value(x, zero_vec) or alpha.value(zero_vec, x):
            return _fail(f"degeneracy failed on {name}, trial {trial}")
        checked += 1
    return _ok(trials=checked)


def criterion_d8_linear_equivalence(fixtures: FixtureSet, rng: random.Random) -> dict:
    """The dihedral pair verifies as linearly equivalent; every single-entry
    perturbation of either matrix or of f breaks verification."""
    rep1, rep2, f, delta = d8_conjugate_reps()
    report = verify_projective_equivalence(rep1, rep2, f, delta)
    if not report.ok or not report.linearly_equivalent:
        return _fail("dihedral pair failed to verify as linearly equivalent")
    sigma = cohomologous_witness_from_equivalence(rep1, rep2, f, delta)
    if any(sigma.vector):
        return _fail("witness functional is not zero")
    perturbed = 0
    for target in range(3):
        for r in range(2):
            for c in range(2):
                m1 = [list(row) for row in rep1.matrices[0]]
                m2 = [list(row) for row in rep2.matrices[0]]
                fm = [list(row) for row in f]
                [m1, m2, fm][target][r][c] = [m1, m2, fm][target][r][c] + ONE
                p1 = projective_rep(rep1.algebra, [m1])
                p2 = projective_rep(rep2.algebra, [m2])
                try:
                    ok = verify_projective_equivalence(p1, p2, fm, delta).ok
                except SingularF:
                    ok = False
                if ok:
                    return _fail(f"perturbation (matrix {target}, entry "
                                 f"({r},{c})) still verifies")
                perturbed += 1
    return _ok(perturbations=perturbed)


def criterion_twist_roundtrip(fixtures: FixtureSet, rng: random.Random) -> dict:
    """Twisting shifts the extracted cocycle by exactly the coboundary and
    verifies as a projective equivalence with f = I, delta = -sigma."""
    checked = []
    for name, rep in rep_fixtures():
        algebra = rep.algebra
        alpha = cocycle_from_rep(rep)
        eye = linalg.identity_matrix(rep.degree)
        for idx in range(20):
            sigma = random_functional(rng, algebra.dim)
            twisted = twist(rep, sigma)
            extracted = cocycle_from_rep(twisted)
            if extracted != alpha.sub(coboundary(algebra, sigma)):
                return _fail(f"{name}: twist {idx} cocycle shift is wrong")
            if extracted != twisted.cocycle:
                return _fail(f"{name}: stored and extracted cocycles differ")
            minus_sigma = LinearFunctional(tuple(-x for x in sigma.vector))
            report = verify_projective_equivalence(rep, twisted, eye, minus_sigma)
            if not report.ok:
                return _fail(f"{name}: twist {idx} equivalence fails")
            witness = cohomologous_witness_from_equivalence(
                rep, twisted, eye, minus_sigma)
            if witness != sigma:
                return _fail(f"{name}: twist {idx} witness is not sigma")
        checked.append({"rep": name, "degree": rep.degree})
    return _ok(reps=checked)


def criterion_heisenberg_fixture(fixtures: FixtureSet, rng: random.Random) -> dict:
    """The hand-built Heisenberg extension is a valid non-split central
    extension of the abelian plane."""
    ext = heisenberg_over_abelian_extension()
    failures = verify_central_extension(ext)
    if failures:
        return _fail(f"fixture failed validation: {failures[0]}")
    if is_split(ext).split:
        return _fail("Heisenberg extension reported split")
    return _ok()


def _ok(**details) -> dict:
    return {"passed": True, "details": details}


def _fail(reason: str, **details) -> dict:
    details["reason"] = reason
    return {"passed": False, "details": details}


CRITERIA: tuple[tuple[int, str, Callable], ...] = (
    (1, "plesken-construction", criterion_plesken_construction),
    (2, "whitehead-q8", criterion_whitehead_q8),
    (3, "abelian-h2-scaling", criterion_abelian_scaling),
    (4, "cocycle-extension-roundtrip", criterion_roundtrip_onto),
    (5, "extension-equivalence", criterion_one_one),
    (6, "section-independence", criterion_section_independence),
    (7, "cocycle-degeneracy", criterion_cocycle_degeneracy),
    (8, "d8-linear-equivalence", criterion_d8_linear_equivalence),
    (9, "twist-roundtrip", criterion_twist_roundtrip),
    (10, "heisenberg-fixture", criterion_heisenberg_fixture),
)


def run_all(max_group_order: int = 24, seed: int = 7) -> dict:
    """Run every criterion; the report is deterministic for fixed inputs."""
    fixtures = FixtureSet(max_group_order=max_group_order)
    criteria = []
    for cid, name, func in CRITERIA:
        outcome = func(fixtures, _rng_for(seed, cid))
        criteria.append({"id": cid, "name": name, "passed": outcome["passed"],
                         "details": outcome["details"]})
    return {
        "max_group_order": max_group_order,
        "seed": seed,
        "criteria": criteria,
        "all_passed": all(c["passed"] for c in criteria),
    }
