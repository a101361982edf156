"""The seeded draws of :mod:`plesken.verify` against their ``Fraction`` and
dense-sum statements in :mod:`dense`: equal values from the same rng calls."""

from __future__ import annotations

import random

import pytest

import dense
from plesken import verify
from plesken.liealg import from_structure_constants
from plesken.linalg import Subspace
from plesken.scalars import ZERO

SEEDS = (0, 7, 2024)


def _both(seed, draw, oracle, *args):
    """draw and oracle on two rngs of one seed: both results and end states."""
    rng, twin = random.Random(seed), random.Random(seed)
    return (draw(rng, *args), rng.getstate()), (oracle(twin, *args), twin.getstate())


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_draws_match_the_fraction_formulas(seed):
    for draw, oracle in ((verify.random_rational, dense.random_rational),
                         (verify.random_scalar, dense.random_scalar)):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(500):
            x, y = draw(rng), oracle(twin)
            assert (x.a, x.b, x.d) == (y.a, y.b, y.d)
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_functional_and_cocycle_draws_match_the_dense_sums(seed, fixture_set):
    assert "L(Heis27)" in dict(fixture_set.algebras)
    for name, algebra in fixture_set.algebras:
        n = algebra.dim
        z2 = fixture_set.h2_of(name).z2
        for draw, oracle, args in (
                (verify.random_vector, dense.random_vector, (n,)),
                (verify.random_functional, dense.random_functional, (n,)),
                (verify.random_cocycle, dense.random_cocycle, (algebra, z2))):
            got, want = _both(f"{seed}:{name}", draw, oracle, *args)
            assert got == want, (name, draw.__name__)


@pytest.mark.parametrize("seed", SEEDS)
def test_cocycle_draws_match_on_gaussian_rows_with_unequal_leads(seed):
    # forms on a 4-dimensional abelian algebra, from a subspace of the 6 flat
    # coordinates spanned by Gaussian-rational rows
    rng = random.Random(seed)
    algebra = from_structure_constants(4, {})
    rows = [[rng.choice(dense.GAUSSIAN_COEFFICIENTS) if rng.random() < 0.6 else ZERO
             for _ in range(6)] for _ in range(4)]
    z2 = Subspace.from_spanning(6, rows)
    assert any(im for _, im in z2._kept.values())
    assert any(re[p] != 1 for p, (re, _) in z2._kept.items())
    got, want = _both(seed, verify.random_cocycle, dense.random_cocycle, algebra, z2)
    assert got == want
