from __future__ import annotations

import json
from fractions import Fraction

import pytest

from plesken import errors, linalg
from plesken.cohomology import (
    BilinearForm,
    LinearFunctional,
    are_cohomologous,
    coboundary,
)
from plesken.liealg import ad_matrix, from_structure_constants
from plesken.projreps import (
    cocycle_from_rep,
    cohomologous_witness_from_equivalence,
    lift_linear,
    projective_rep,
    rep_from_json,
    rep_to_json,
    twist,
    validate_alpha_rep,
    verify_projective_equivalence,
)
from plesken.scalars import ONE, ZERO, Scalar
from plesken.verify import d8_conjugate_reps

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


def test_validate_alpha_rep_accepts_extracted(heis_rep, heis3):
    alpha = cocycle_from_rep(heis_rep)
    assert validate_alpha_rep(heis3, heis_rep.matrices, alpha) == []


def test_validate_alpha_rep_reports_mismatch(abelian2):
    matrices = [
        [[ZERO, ONE], [ZERO, ZERO]],
        [[ZERO, ZERO], [ZERO, ZERO]],
    ]
    alpha = BilinearForm.from_entries(2, {(0, 1): ONE})
    failures = validate_alpha_rep(abelian2, matrices, alpha)
    assert len(failures) == 1
    i, j, residual = failures[0]
    assert (i, j) == (0, 1)
    # defect is 0, so the residual is -alpha(0,1) I
    assert residual == ((S(-1), ZERO), (ZERO, S(-1)))


def test_validate_alpha_rep_e12_e23():
    algebra = from_structure_constants(2, {})
    e12 = [[ZERO, ONE, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]
    e23 = [[ZERO, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]]
    failures = validate_alpha_rep(algebra, [e12, e23], BilinearForm.zero(2))
    assert len(failures) == 1
    i, j, residual = failures[0]
    assert residual[0][2] == ONE  # the commutator is E13, never scalar


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
