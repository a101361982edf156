from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from dense import mat_mul, rescaled_table, vec_sub
from plesken import errors, linalg, projreps, verify
from plesken.cli import main
from plesken.cohomology import (
    BilinearForm,
    LinearFunctional,
    are_cohomologous,
    coboundary,
    form_to_json,
)
from plesken.groups import preset
from plesken.liealg import (
    ad_matrix,
    algebra_to_json,
    from_structure_constants,
    plesken_algebra,
)
from plesken.projreps import (
    ProjectiveRep,
    cocycle_from_rep,
    cohomologous_witness_from_equivalence,
    lift_linear,
    projective_rep,
    rep_from_json,
    rep_to_json,
    twist,
    verify_projective_equivalence,
)
from plesken.scalars import ONE, ZERO, Scalar
from plesken.verify import d8_conjugate_reps, rep_fixtures

S = Scalar


@pytest.fixture()
def heis_rep(heis3):
    # X -> E12, Y -> 0, Z -> -I gives defect cocycle alpha(X,Y) = 1
    return projective_rep(heis3, [
        [[ZERO, ONE], [ZERO, ZERO]],
        [[ZERO, ZERO], [ZERO, ZERO]],
        [[S(-1), ZERO], [ZERO, S(-1)]],
    ], cocycle=BilinearForm.from_entries(3, {(0, 1): ONE}))


def sl2_defining(sl2):
    return lift_linear(sl2, [
        [[ONE, ZERO], [ZERO, S(-1)]],
        [[ZERO, ONE], [ZERO, ZERO]],
        [[ZERO, ZERO], [ONE, ZERO]],
    ])


def test_cocycle_of_linear_rep_is_zero(sl2):
    adjoint = lift_linear(sl2, [ad_matrix(sl2, i) for i in range(3)])
    assert cocycle_from_rep(adjoint).is_zero()
    defining = sl2_defining(sl2)
    assert cocycle_from_rep(defining).is_zero()


def test_cocycle_of_d8_rotation_rep():
    rep1, _, _, _ = d8_conjugate_reps()
    assert cocycle_from_rep(rep1) == BilinearForm.zero(1)


def test_cocycle_nonscalar_defect(abelian2):
    rep = projective_rep(abelian2, [
        [[ZERO, ONE], [ZERO, ZERO]],
        [[ZERO, ZERO], [ONE, ZERO]],
    ])
    with pytest.raises(errors.DefectNotScalar) as exc:
        cocycle_from_rep(rep)
    assert exc.value.witness[:2] == [0, 1]


def test_cocycle_heis_rep(heis_rep):
    assert cocycle_from_rep(heis_rep) == BilinearForm.from_entries(3, {(0, 1): ONE})


def test_projective_rep_accepts_extracted_cocycle(heis_rep, heis3):
    alpha = cocycle_from_rep(heis_rep)
    assert projective_rep(heis3, heis_rep.matrices, cocycle=alpha).cocycle == alpha


def test_projective_rep_rejects_mismatched_cocycle(abelian2):
    matrices = [
        [[ZERO, ONE], [ZERO, ZERO]],
        [[ZERO, ZERO], [ZERO, ZERO]],
    ]
    # the defect is 0, not alpha(0,1) I
    alpha = BilinearForm.from_entries(2, {(0, 1): ONE})
    with pytest.raises(errors.BadParameter) as exc:
        projective_rep(abelian2, matrices, cocycle=alpha)
    assert exc.value.witness == [0, 1]


def test_projective_rep_rejects_e12_e23():
    algebra = from_structure_constants(2, {})
    e12 = [[ZERO, ONE, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]
    e23 = [[ZERO, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]]
    with pytest.raises(errors.BadParameter) as exc:
        projective_rep(algebra, [e12, e23], cocycle=BilinearForm.zero(2))
    assert exc.value.witness == [0, 1]
    # the commutator is E13, never scalar
    assert projective_rep(algebra, [e12, e23]).defects == ((0, 2, "1"),)


def test_lift_linear_zero_map(heis3):
    rep = lift_linear(heis3, [[[ZERO]] for _ in range(3)])
    assert rep.cocycle.is_zero()


def test_lift_linear_rejects_non_homomorphism(abelian2):
    with pytest.raises(errors.NotAHomomorphism) as exc:
        lift_linear(abelian2, [
            [[ZERO, ONE], [ZERO, ZERO]],
            [[ZERO, ZERO], [ONE, ZERO]],
        ])
    assert exc.value.witness == [0, 1]


def test_twist_zero_is_identity(heis_rep):
    twisted = twist(heis_rep, LinearFunctional.zero(3))
    assert twisted.matrices == heis_rep.matrices
    assert twisted.cocycle == heis_rep.cocycle


def test_twist_involution(heis_rep):
    sigma = LinearFunctional.of([Fraction(1, 2), -2, 3])
    back = twist(twist(heis_rep, sigma),
                 LinearFunctional(tuple(-x for x in sigma.vector)))
    assert back.matrices == heis_rep.matrices
    assert back.cocycle == heis_rep.cocycle


def test_twist_shifts_cocycle_by_coboundary(heis_rep, heis3):
    sigma = LinearFunctional.of([0, 0, 5])
    twisted = twist(heis_rep, sigma)
    extracted = cocycle_from_rep(twisted)
    assert extracted == twisted.cocycle
    alpha = cocycle_from_rep(heis_rep)
    # alpha_1 - alpha_2 = -sigma o bracket = coboundary of sigma
    assert alpha.sub(extracted) == coboundary(heis3, sigma)
    # sigma supported on Z shifts alpha(X,Y) by sigma(Z)
    assert extracted.entry(0, 1) == alpha.entry(0, 1) + S(5)


def test_d8_pair_verifies_linearly_equivalent():
    rep1, rep2, f, delta = d8_conjugate_reps()
    report = verify_projective_equivalence(rep1, rep2, f, delta)
    assert report.ok and report.linearly_equivalent
    sigma = cohomologous_witness_from_equivalence(rep1, rep2, f, delta)
    assert sigma == LinearFunctional.zero(1)
    assert cocycle_from_rep(rep1) == cocycle_from_rep(rep2) == BilinearForm.zero(1)


def test_d8_pair_fails_with_identity_f():
    rep1, rep2, _, delta = d8_conjugate_reps()
    report = verify_projective_equivalence(
        rep1, rep2, linalg.identity_matrix(2), delta)
    assert not report.ok


def test_twist_pair_verifies_with_minus_sigma(heis_rep):
    sigma = LinearFunctional.of([1, Fraction(-2, 3), 4])
    twisted = twist(heis_rep, sigma)
    minus = LinearFunctional(tuple(-x for x in sigma.vector))
    report = verify_projective_equivalence(
        heis_rep, twisted, linalg.identity_matrix(2), minus)
    assert report.ok
    assert not report.linearly_equivalent
    witness = cohomologous_witness_from_equivalence(
        heis_rep, twisted, linalg.identity_matrix(2), minus)
    assert witness == sigma
    assert are_cohomologous(heis_rep.algebra, cocycle_from_rep(heis_rep),
                            cocycle_from_rep(twisted)) is not None


def test_self_equivalence_trivial_witness(heis_rep):
    report = verify_projective_equivalence(
        heis_rep, heis_rep, linalg.identity_matrix(2), LinearFunctional.zero(3))
    assert report.ok and report.linearly_equivalent
    sigma = cohomologous_witness_from_equivalence(
        heis_rep, heis_rep, linalg.identity_matrix(2), LinearFunctional.zero(3))
    assert sigma == LinearFunctional.zero(3)


def test_singular_f_rejected(heis_rep):
    singular = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(errors.SingularF):
        verify_projective_equivalence(heis_rep, heis_rep, singular,
                                      LinearFunctional.zero(3))


def test_witness_requires_verifying_pair(heis_rep):
    twisted = twist(heis_rep, LinearFunctional.of([1, 0, 0]))
    with pytest.raises(errors.NotEquivalent):
        cohomologous_witness_from_equivalence(
            heis_rep, twisted, linalg.identity_matrix(2),
            LinearFunctional.zero(3))


def test_identity_relation_on_matrix_tuples(heis_rep):
    # delta = 0 and f = I verify exactly when the tuples are equal
    other = twist(heis_rep, LinearFunctional.of([1, 0, 0]))
    assert not verify_projective_equivalence(
        heis_rep, other, linalg.identity_matrix(2), LinearFunctional.zero(3)).ok
    assert verify_projective_equivalence(
        heis_rep, heis_rep, linalg.identity_matrix(2),
        LinearFunctional.zero(3)).ok


def test_rep_json_roundtrip(heis_rep, heis3):
    doc = rep_to_json(heis_rep)
    text = json.dumps(doc, sort_keys=True)
    back = rep_from_json(heis3, json.loads(text))
    assert back.matrices == heis_rep.matrices
    assert back.cocycle == heis_rep.cocycle
    assert json.dumps(rep_to_json(back), sort_keys=True) == text


def test_rep_json_validates_identity(heis3):
    doc = {
        "dim": 3, "degree": 2,
        "matrices": [[["0", "1"], ["0", "0"]],
                     [["0", "0"], ["0", "0"]],
                     [["0", "0"], ["0", "0"]]],
        "alpha": {"dim": 3, "upper": [["1", "0"], ["0"]]},
    }
    with pytest.raises(errors.BadParameter):
        rep_from_json(heis3, doc)


# -- the Scalar oracle for the integer-first defects ------------------------------


def _oracle_defect(rep, i, j):
    """[Phi(x_i), Phi(x_j)] - Phi([x_i, x_j]) by dense Scalar products."""
    a, b = rep.matrices[i], rep.matrices[j]
    out = [vec_sub(r1, r2)
           for r1, r2 in zip(mat_mul(a, b), mat_mul(b, a))]
    for k, c in enumerate(rep.algebra.structure(i, j)):
        if not c:
            continue
        for row, image_row in zip(out, rep.matrices[k]):
            for s, x in enumerate(image_row):
                if x:
                    row[s] = row[s] - c * x
    return out


def _oracle_outcome(defect):
    """alpha when the defect is alpha I, else its first entry off that form."""
    c = defect[0][0]
    for r, row in enumerate(defect):
        for s, x in enumerate(row):
            if (x - c if r == s else x):
                return r, s, str(x)
    return c


def _pairs_of(rep):
    n = rep.algebra.dim
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _check_against_oracle(rep, rng):
    """Defects, DefectNotScalar and BadParameter all agree with the oracle."""
    pairs = _pairs_of(rep)
    defects = {p: _oracle_defect(rep, *p) for p in pairs}
    outcomes = tuple(_oracle_outcome(defects[p]) for p in pairs)
    assert rep.defects == outcomes
    bad = next(((p, o) for p, o in zip(pairs, outcomes) if not isinstance(o, Scalar)),
               None)
    if bad is None:
        assert cocycle_from_rep(rep).flat == outcomes
    else:
        with pytest.raises(errors.DefectNotScalar) as exc:
            cocycle_from_rep(rep)
        (i, j), (r, s, text) = bad
        assert exc.value.witness == [i, j, [r, s, text]]
    # a cocycle that agrees with the scalar defects except at one pair
    n = rep.algebra.dim
    flat = [o if isinstance(o, Scalar) else ZERO for o in outcomes]
    if flat:
        k = rng.randrange(len(flat))
        flat[k] = flat[k] + S(1, Fraction(-1, 2))
    alpha = BilinearForm(n, tuple(flat))
    failing = [p for p, o, a in zip(pairs, outcomes, flat) if o != a]
    if failing:
        with pytest.raises(errors.BadParameter) as exc:
            projective_rep(rep.algebra, rep.matrices, cocycle=alpha)
        assert exc.value.witness == list(failing[0])
    else:
        assert projective_rep(rep.algebra, rep.matrices, cocycle=alpha).cocycle == alpha


def test_defects_match_oracle_on_fixtures():
    for name, rep in rep_fixtures():
        _check_against_oracle(rep, random.Random(name))


def test_defects_match_oracle_on_heis27_adjoint():
    algebra, _ = plesken_algebra(preset("heisenberg_p", 3))
    adjoint = lift_linear(algebra, [ad_matrix(algebra, i) for i in range(algebra.dim)])
    rng = random.Random(27)
    _check_against_oracle(adjoint, rng)
    sigma = LinearFunctional(tuple(_rand_scalar(rng) for _ in range(algebra.dim)))
    _check_against_oracle(twist(adjoint, sigma), rng)


def _rand_scalar(rng):
    """A Gaussian rational with denominators up to 6, usually with i."""
    return S(Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
             Fraction(rng.randint(-5, 5), rng.randint(1, 6)))


def _rescaled(algebra, blocks, scales):
    """The algebra in the basis y_k = scales[k] x_k, with the representations
    Phi(y_k) = scales[k] Phi(x_k): structure constants get denominators and i."""
    scaled = from_structure_constants(algebra.dim, rescaled_table(algebra, scales))
    return scaled, [tuple([[scales[k] * x for x in row] for row in m]
                          for k, m in enumerate(block)) for block in blocks]


def _base_reps():
    """(algebra, blocks): representations of one algebra, each a tuple of
    matrices, to be summed block-diagonally."""
    fixtures = dict(rep_fixtures())
    sl2 = fixtures["sl2-defining"].algebra
    heis = fixtures["heis3-defect"].algebra
    sl2_blocks = [fixtures["sl2-defining"].matrices, fixtures["sl2-adjoint"].matrices]
    return [
        (sl2, sl2_blocks),
        # [y0, y1] = (2 + 2i)/3 y1, [y1, y2] = (3 - 3i)/4 y0
        _rescaled(sl2, sl2_blocks, [S(Fraction(1, 3), Fraction(1, 3)), S(Fraction(1, 2)),
                                    ONE]),
        (heis, [fixtures["heis3-defect"].matrices, (((ZERO,),),) * 3]),
        (fixtures["q8-quaternion"].algebra, [fixtures["q8-quaternion"].matrices]),
        (fixtures["abelian2-diagonal"].algebra, [fixtures["abelian2-diagonal"].matrices]),
    ]


def _block_sum(blocks):
    degree = sum(len(b[0]) for b in blocks)
    out = []
    for k in range(len(blocks[0])):
        m = linalg.zero_matrix(degree, degree)
        offset = 0
        for b in blocks:
            for r, row in enumerate(b[k]):
                for s, x in enumerate(row):
                    m[offset + r][offset + s] = x
            offset += len(b[k])
        out.append(m)
    return out


def _random_rep(rng):
    """A seeded representation of degree 1-5: a block sum of known
    (projective) representations, or scalars in degree 1, sometimes with one
    entry changed, conjugated by an f with denominators and i, then twisted."""
    algebra, blocks = rng.choice(_base_reps())
    if rng.random() < 0.2:
        matrices = [[[_rand_scalar(rng)]] for _ in range(algebra.dim)]
    else:
        chosen = [rng.choice(blocks)]
        while rng.random() < 0.5:
            extra = rng.choice(blocks)
            if sum(len(b[0]) for b in chosen) + len(extra[0]) <= 5:
                chosen.append(extra)
        matrices = _block_sum(chosen)
    d = len(matrices[0])
    if rng.random() < 0.4:
        k, r, s = rng.randrange(algebra.dim), rng.randrange(d), rng.randrange(d)
        matrices[k][r][s] = matrices[k][r][s] + _rand_scalar(rng)
    while True:
        f = [[_rand_scalar(rng) if rng.random() < 0.6 else ZERO for _ in range(d)]
             for _ in range(d)]
        f_inv = linalg.invert(f)
        if f_inv is not None:
            break
    matrices = [mat_mul(mat_mul(f, m), f_inv) for m in matrices]
    for m in matrices:
        # sevenths, with an imaginary part: every rep has both
        shift = S(Fraction(rng.randint(-6, 6), 7),
                  Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), 7))
        for t in range(d):
            m[t][t] = m[t][t] - shift
    return projective_rep(algebra, matrices)


def test_defects_match_oracle_on_hand_made_reps(abelian2):
    # [X, Y] = diag(I, -I): the diagonal differs in its imaginary part only
    rep = projective_rep(abelian2, [[[ZERO, ONE], [ZERO, ZERO]],
                                    [[ZERO, ZERO], [S(0, 1), ZERO]]])
    assert rep.defects == ((1, 1, "-1*I"),)
    _check_against_oracle(rep, random.Random(0))


@pytest.mark.parametrize("seed", range(48))
def test_defects_match_oracle_on_random_reps(seed):
    rng = random.Random(seed)
    rep = _random_rep(rng)
    assert any(x.d > 1 and x.b for m in rep.matrices for row in m for x in row)
    _check_against_oracle(rep, rng)


@pytest.mark.parametrize("seed", range(24))
def test_equivalence_matches_oracle_on_random_reps(seed):
    # Phi_2 = f Phi_1 f^-1 + delta I, sometimes with one entry of Phi_2 changed;
    # the failures and residuals are those of the Scalar formula
    rng = random.Random(f"equiv{seed}")
    rep1 = _random_rep(rng)
    d, n = rep1.degree, rep1.algebra.dim
    while True:
        f = [[_rand_scalar(rng) for _ in range(d)] for _ in range(d)]
        f_inv = linalg.invert(f)
        if f_inv is not None:
            break
    delta = LinearFunctional(tuple(_rand_scalar(rng) for _ in range(n)))
    images = [mat_mul(mat_mul(f, m), f_inv) for m in rep1.matrices]
    for m, x in zip(images, delta.vector):
        for t in range(d):
            m[t][t] = m[t][t] + x
    if seed % 2:
        k, r, s = rng.randrange(n), rng.randrange(d), rng.randrange(d)
        images[k][r][s] = images[k][r][s] + _rand_scalar(rng)
    rep2 = projective_rep(rep1.algebra, images)
    expected = []
    for i in range(n):
        conj = mat_mul(mat_mul(f, rep1.matrices[i]), f_inv)
        residual = linalg.freeze_matrix(
            [[x - y - (delta.vector[i] if r == s else ZERO)
              for s, (x, y) in enumerate(zip(row2, row1))]
             for r, (row2, row1) in enumerate(zip(rep2.matrices[i], conj))])
        if any(x for row in residual for x in row):
            expected.append((i, residual))
    assert bool(expected) == bool(seed % 2)
    assert verify_projective_equivalence(rep1, rep2, f, delta).failures == tuple(expected)


def test_random_reps_cover_both_outcomes():
    # the seeded reps above hold scalar and non-scalar defects, and every degree
    reps = [_random_rep(random.Random(seed)) for seed in range(48)]
    assert {rep.degree for rep in reps} == {1, 2, 3, 4, 5}
    kinds = {isinstance(o, Scalar) for rep in reps for o in rep.defects}
    assert kinds == {True, False}
    assert any(all(isinstance(o, Scalar) for o in rep.defects) and rep.degree > 1
               for rep in reps)



# -- the packed kernel at its slot edge and at scale -------------------------------


def test_slot_edge_reps_match_oracle(abelian2):
    # X = M(1+i) J and Y = M(1-i) A, J all ones, A with column 0 all 1 and the
    # rest of row 0 all -1: [X, Y]_00 = 4(d-1) M^2, within (d-1)/d of the
    # bound 4 d M^2 that sets the slot width, so two bits less would wrap it
    d, m = 13, 10 ** 12
    a = [[ONE if s == 0 else S(-1) if r == 0 else ZERO for s in range(d)]
         for r in range(d)]
    x = [[S(m, m)] * d for _ in range(d)]
    y = [[S(e.a * m, -e.a * m) for e in row] for row in a]
    rep = projective_rep(abelian2, [x, y])
    assert 4 * (d - 1) * m * m >= 1 << (rep._packed.width - 3)
    # [X, Y] = 2 M^2 (J A - A J); its row 0 is 2 M^2 (2d - 2, d - 3, ..., d - 3)
    assert rep.defects == ((0, 1, str(2 * m * m * (d - 3))),)
    _check_against_oracle(rep, random.Random("edge"))
    # [x0, x1] = c x1 with c = (1+i) M, Phi(x0) = 0 and Phi(x1) = (1-i) J: the
    # defect -c Phi(x1) = -2 M J meets the bracket term D C M of the bound
    algebra = from_structure_constants(2, {(0, 1): [ZERO, S(m, m)]})
    rep = projective_rep(algebra, [linalg.zero_matrix(3, 3), [[S(1, -1)] * 3] * 3])
    assert rep.defects == ((0, 1, str(-2 * m)),)
    _check_against_oracle(rep, random.Random("bracket edge"))


def _big_scalar(rng):
    """A Gaussian rational of mixed sign with parts up to 10^12 and
    denominators up to 10^3."""
    return S(Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 1000)),
             Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 1000)))


def _reps_at_scale():
    """Representations of degree 1 and 13 over sl2 with complex structure
    constants: dense random images (non-scalar defects), a block sum twisted
    by a large functional (scalar defects), and the zero representation."""
    rng = random.Random("scale")
    algebra, blocks = _base_reps()[1]
    n = algebra.dim
    dense = [[[_big_scalar(rng) for _ in range(13)] for _ in range(13)] for _ in range(n)]
    block_sum = _block_sum([blocks[0], blocks[1], blocks[0], blocks[1], blocks[1]])
    sigma = LinearFunctional(tuple(_big_scalar(rng) for _ in range(n)))
    scalars = [[[_big_scalar(rng)]] for _ in range(n)]
    return [
        projective_rep(algebra, dense),
        twist(projective_rep(algebra, block_sum), sigma),
        projective_rep(algebra, scalars),
        projective_rep(algebra, [linalg.zero_matrix(13, 13)] * n),
        projective_rep(algebra, [[[ZERO]]] * n),
    ]


def test_defects_match_oracle_at_scale():
    reps = _reps_at_scale()
    assert [rep.degree for rep in reps] == [13, 13, 1, 13, 1]
    algebra = reps[0].algebra
    assert any(c.b for i, j in algebra.brackets for c in algebra.structure(i, j))
    assert not isinstance(reps[0].defects[0], Scalar)
    assert all(isinstance(o, Scalar) for rep in reps[1:] for o in rep.defects)
    assert reps[1].cocycle is not None and not reps[1].cocycle.is_zero()
    for k, rep in enumerate(reps):
        _check_against_oracle(rep, random.Random(k))


def test_equivalence_matches_oracle_at_scale():
    # the block sum of degree 13 against its conjugate by a large f, shifted by
    # a large delta, then with one entry changed
    rng = random.Random("scale-equiv")
    rep1 = _reps_at_scale()[1]
    d, n = rep1.degree, rep1.algebra.dim
    f = [[_big_scalar(rng) if r == s or rng.random() < 0.3 else ZERO for s in range(d)]
         for r in range(d)]
    f_inv = linalg.invert(f)
    delta = LinearFunctional(tuple(_big_scalar(rng) for _ in range(n)))
    conj = [mat_mul(mat_mul(f, m), f_inv) for m in rep1.matrices]
    images = [[[x + delta.vector[k] if r == s else x for s, x in enumerate(row)]
               for r, row in enumerate(m)] for k, m in enumerate(conj)]
    rep2 = projective_rep(rep1.algebra, images)
    assert verify_projective_equivalence(rep1, rep2, f, delta).failures == ()
    images[2][5][7] = images[2][5][7] + _big_scalar(rng)
    rep2 = projective_rep(rep1.algebra, images)
    residual = [[ZERO] * d for _ in range(d)]
    residual[5][7] = images[2][5][7] - conj[2][5][7]
    assert verify_projective_equivalence(rep1, rep2, f, delta).failures == (
        (2, linalg.freeze_matrix(residual)),)


def test_equivalence_residual_at_its_slot_edge():
    # f = M(1+i) H and Phi_1(x) = M(1-i) H^T, H the 2 x 2 Hadamard matrix:
    # (f Phi_1(x))_00 = 2 d M^2 is the bound that sets the slot width of that
    # product when the residual of a failing witness is formed
    m = 10 ** 12
    algebra = from_structure_constants(1, {})
    hadamard = [[1, 1], [1, -1]]
    f = [[S(m * x, m * x) for x in row] for row in hadamard]
    rep1 = projective_rep(algebra, [[[S(m * x, -m * x) for x in col]
                                     for col in zip(*hadamard)]])
    rep2 = projective_rep(algebra, [[[ONE, ZERO], [ZERO, ZERO]]])
    conj = mat_mul(mat_mul(f, rep1.matrices[0]), linalg.invert(f))
    residual = linalg.freeze_matrix([vec_sub(r2, r1)
                                     for r2, r1 in zip(rep2.matrices[0], conj)])
    report = verify_projective_equivalence(rep1, rep2, f, LinearFunctional.zero(1))
    assert report.failures == ((0, residual),)


# -- each defect once per representation -------------------------------------------


def _count_defects(monkeypatch):
    calls = []
    original = projreps._defect

    def counted(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(projreps, "_defect", counted)
    return calls


def test_validated_rep_forms_each_defect_once(monkeypatch, sl2):
    calls = _count_defects(monkeypatch)
    rng = random.Random(5)
    sigma = LinearFunctional(tuple(_rand_scalar(rng) for _ in range(3)))
    twisted = twist(sl2_defining(sl2), sigma)
    calls.clear()
    rep = projective_rep(sl2, twisted.matrices, cocycle=twisted.cocycle)
    assert cocycle_from_rep(rep) == twisted.cocycle
    assert twist(rep, sigma).cocycle is not None
    assert sorted(calls) == [(0, 1), (0, 2), (1, 2)]


def test_rep_cocycle_verb_forms_each_defect_once(monkeypatch, tmp_path, capsys):
    algebra, _ = plesken_algebra(preset("heisenberg_p", 3))
    rng = random.Random(13)
    sigma = LinearFunctional(tuple(_rand_scalar(rng) for _ in range(algebra.dim)))
    adjoint = lift_linear(algebra, [ad_matrix(algebra, i) for i in range(algebra.dim)])
    rep = twist(adjoint, sigma)
    paths = {}
    for name, doc in (("L", algebra_to_json(algebra)), ("rep", rep_to_json(rep))):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    calls = _count_defects(monkeypatch)
    assert main(["rep", "cocycle", "--json", "-L", paths["L"], "-r", paths["rep"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"alpha": form_to_json(rep.cocycle)}
    assert len(calls) == len(set(calls)) == algebra.dim * (algebra.dim - 1) // 2


def test_stored_cocycle_is_never_read_as_the_defects(heis_rep):
    # a representation whose stored cocycle is wrong extracts the true one
    wrong = BilinearForm.from_entries(3, {(0, 1): S(2)})
    rep = ProjectiveRep(algebra=heis_rep.algebra, degree=2,
                        matrices=heis_rep.matrices, cocycle=wrong)
    assert cocycle_from_rep(rep) == heis_rep.cocycle != wrong


def test_verify_catches_a_twist_that_stores_a_wrong_cocycle(monkeypatch):
    def bad_twist(rep, sigma):
        good = twist(rep, sigma)
        wrong = good.cocycle.add(BilinearForm.from_entries(
            rep.algebra.dim, {(0, 1): ONE}))
        return ProjectiveRep(algebra=good.algebra, degree=good.degree,
                             matrices=good.matrices, cocycle=wrong)

    monkeypatch.setattr(verify, "twist", bad_twist)
    result = verify.criterion_twist_roundtrip(None, random.Random(0))
    assert not result["passed"]
    assert "stored and extracted cocycles differ" in result["details"]["reason"]
