from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

import dense
from dense import column, dense_bracket, mat_eq, mat_mul, mat_vec
from plesken import cohomology, errors, extensions, linalg, plesken_algebra, preset
from plesken.cli import main
from plesken.cohomology import (
    BilinearForm,
    LinearFunctional,
    are_cohomologous,
    coboundary,
    h2,
    z2_basis,
)
from plesken.extensions import (
    CentralExtension,
    _kernel_coefficient,
    cocycle_from_extension,
    equivalence_map,
    extension_from_cocycle,
    extension_from_json,
    extension_to_json,
    find_section,
    is_split,
    verify_central_extension,
    verify_equivalence_map,
)
from plesken.liealg import from_structure_constants, verify_lie_axioms
from plesken.scalars import ONE, ZERO, Scalar
from plesken.verify import random_cocycle, random_functional

S = Scalar


def xy_form(c=1):
    return BilinearForm.from_entries(2, {(0, 1): S(c)})


@pytest.fixture()
def heis_ext():
    """Hand-built Heisenberg total over the abelian plane (not via a cocycle)."""
    total = from_structure_constants(3, {(0, 1): [0, 0, 1]}, labels=("X", "Y", "Z"))
    base = from_structure_constants(2, {}, labels=("X", "Y"))
    return CentralExtension(
        total=total, base=base,
        injection_f=(ZERO, ZERO, ONE),
        projection_g=((ONE, ZERO, ZERO), (ZERO, ONE, ZERO)),
        section_s=None)


def test_build_from_zero_cocycle_is_direct_sum(abelian2):
    ext = extension_from_cocycle(abelian2, BilinearForm.zero(2))
    assert ext.total.brackets == {}
    assert verify_central_extension(ext) == []
    assert is_split(ext).split


def test_build_heis3_from_cocycle(abelian2, heis3):
    ext = extension_from_cocycle(abelian2, xy_form())
    # total has exactly the Heisenberg structure constants
    assert ext.total.brackets == heis3.brackets
    assert verify_lie_axioms(ext.total) == []
    assert verify_central_extension(ext) == []


def test_build_rejects_non_cocycle():
    algebra = from_structure_constants(4, {(0, 1): [0, 0, 1, 0]})
    bad = BilinearForm.from_entries(4, {(2, 3): ONE})
    with pytest.raises(errors.NotACocycle):
        extension_from_cocycle(algebra, bad)


def test_q8_extensions_all_split(q8_algebra):
    z2 = z2_basis(q8_algebra)
    for row in z2.basis:
        alpha = BilinearForm.from_flat(3, row)
        ext = extension_from_cocycle(q8_algebra, alpha)
        assert is_split(ext).split


def test_find_section_canonical(abelian2):
    ext = extension_from_cocycle(abelian2, xy_form())
    section = find_section(ext)
    assert linalg.freeze_matrix(section) == ext.section_s
    assert section == [[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]]


def test_find_section_heis_fixture(heis_ext):
    section = find_section(heis_ext)
    # forget-Z projection: s(X) = X, s(Y) = Y
    assert section == [[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]]
    gs = mat_mul(heis_ext.projection_g, section)
    assert mat_eq(gs, linalg.identity_matrix(2))


@pytest.mark.parametrize("rows,witness", [
    (((ONE, ZERO, ZERO), (ONE, ZERO, ZERO)), 0),
    (((ONE, ZERO, ZERO), (ZERO, ZERO, ZERO)), 1),
], ids=["equal-rows", "zero-row"])
def test_find_section_names_the_first_unreachable_column(abelian2, rows, witness):
    # a rank-1 projection over the plane: g x = e_j first fails at j = witness
    total = from_structure_constants(3, {})
    ext = CentralExtension(total=total, base=abelian2, injection_f=(ZERO, ZERO, ONE),
                           projection_g=rows)
    with pytest.raises(errors.NoSection) as caught:
        find_section(ext)
    assert str(caught.value) == f"projection has no right inverse at column {witness}"
    assert caught.value.witness == witness


def test_cocycle_roundtrip_exact(abelian2):
    alpha = BilinearForm.from_entries(2, {(0, 1): S(Fraction(7, 3))})
    ext = extension_from_cocycle(abelian2, alpha)
    assert cocycle_from_extension(ext, ext.section_s) == alpha


def test_cocycle_of_direct_sum_is_zero(abelian2):
    ext = extension_from_cocycle(abelian2, BilinearForm.zero(2))
    extracted = cocycle_from_extension(ext, find_section(ext))
    assert extracted.is_zero()


def test_cocycle_under_changed_section(abelian2):
    alpha = xy_form()
    ext = extension_from_cocycle(abelian2, alpha)
    canonical = find_section(ext)
    tau = LinearFunctional.of([2, -3])
    shifted = [[canonical[r][j] + tau.vector[j] * ext.injection_f[r]
                for j in range(2)] for r in range(3)]
    beta = cocycle_from_extension(ext, shifted)
    sigma = are_cohomologous(abelian2, alpha, beta)
    assert sigma is not None
    assert alpha.sub(beta) == coboundary(abelian2, sigma)


def test_cocycle_rejects_non_section(abelian2):
    ext = extension_from_cocycle(abelian2, xy_form())
    bad = [[ONE, ONE], [ZERO, ONE], [ZERO, ZERO]]
    bad[0][0] = S(2)
    with pytest.raises(errors.NoSection):
        cocycle_from_extension(ext, bad)


@pytest.mark.parametrize("f,witness", [
    # no multiple of f has the Z entry; the multiple that fits Z misses W
    ((ONE, ZERO, ONE, ZERO), ["0", "0", "1", "1"]),
    ((ZERO, ZERO, S(1, 1), ZERO), ["0", "0", "1", "1"]),
])
def test_cocycle_rejects_defect_off_the_injection(abelian2, f, witness):
    # [X, Y] = Z + W is not a multiple of f, although g s = I holds
    total = from_structure_constants(4, {(0, 1): [0, 0, 1, 1]})
    g = ((ONE, ZERO, ZERO, ZERO), (ZERO, ONE, ZERO, ZERO))
    bad = CentralExtension(total=total, base=abelian2, injection_f=f, projection_g=g)
    section = [[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO], [ZERO, ZERO]]
    with pytest.raises(errors.DefectNotInKernel) as exc:
        cocycle_from_extension(bad, section)
    assert exc.value.witness == witness


def test_kernel_coefficient_of_an_empty_defect_is_zero_without_division(
        monkeypatch, abelian2):
    total = from_structure_constants(4, {(0, 1): [0, 0, 1, 1]})
    g = ((ONE, ZERO, ZERO, ZERO), (ZERO, ONE, ZERO, ZERO))
    lead = S(Fraction(2, 3), 1)
    ext = CentralExtension(total=total, base=abelian2,
                           injection_f=(ZERO, ZERO, lead, ZERO), projection_g=g)
    c_real, c_complex = S(2) / lead, S(Fraction(3, 2), Fraction(1, 2)) / lead
    calls = _count_scalar_products(monkeypatch)
    assert _kernel_coefficient(ext, {}, 1) == ZERO
    # the defect 2 e_2 over 1, and (3 + i) e_2 over 2
    assert _kernel_coefficient(ext, {2: [2, 0]}, 1) == c_real
    assert _kernel_coefficient(ext, {2: [3, 1]}, 2) == c_complex
    # (2 e_2 + e_3) / 3 is no multiple of f; its witness keeps the denominator
    with pytest.raises(errors.DefectNotInKernel) as exc:
        _kernel_coefficient(ext, {2: [2, 0], 3: [1, 0]}, 3)
    assert exc.value.witness == ["0", "0", "2/3", "1/3"]
    with pytest.raises(errors.DefectNotInKernel) as exc:
        _kernel_coefficient(ext, {3: [1, 0]}, 1)
    assert exc.value.witness == ["0", "0", "0", "1"]
    assert calls == []
    zero_f = CentralExtension(total=total, base=abelian2,
                              injection_f=(ZERO,) * 4, projection_g=g)
    with pytest.raises(errors.DefectNotInKernel, match="injection vector is zero"):
        _kernel_coefficient(zero_f, {}, 1)


def _count_scalar_products(monkeypatch) -> list[str]:
    """The names of the ``Scalar`` products and quotients taken from now on."""
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__"):
        def counted(self, other, name=name, original=getattr(Scalar, name)):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Scalar, name, counted)
    return calls


def test_extension_checks_and_extraction_take_no_scalar_product(fixture_set, monkeypatch):
    # f, g, s and phi are multiplied in Gaussian integers: on rebased
    # extensions over L(Heis27), with denominators and i in every map, only
    # equivalence_map itself (not counted here) forms Scalar products
    pairs = _oracle_pairs(fixture_set, "L(Heis27)")
    phis = [equivalence_map(ext1, ext2) for ext1, ext2 in pairs]
    assert phis[0] is not None
    calls = _count_scalar_products(monkeypatch)
    for (ext1, ext2), phi in zip(pairs, phis):
        for ext in (ext1, ext2):
            assert verify_central_extension(ext) == []
            assert cocycle_from_extension(ext, ext.section_s) is not None
            assert cocycle_from_extension(ext, find_section(ext)) is not None
        if phi is not None:
            assert verify_equivalence_map(ext1, ext2, phi) == []
    assert calls == []


def test_split_direct_sum_witness(abelian2):
    ext = extension_from_cocycle(abelian2, BilinearForm.zero(2))
    result = is_split(ext)
    assert result.split
    assert result.section == ((ONE, ZERO), (ZERO, ONE), (ZERO, ZERO))


def test_heis_extension_not_split(heis_ext):
    assert verify_central_extension(heis_ext) == []
    assert not is_split(heis_ext).split


def test_split_iff_cocycle_trivial(abelian2):
    rng = random.Random(41)
    z2 = z2_basis(abelian2)
    for _ in range(10):
        flat = [ZERO] * z2.ambient_dim
        for row in z2.basis:
            c = S(rng.randint(-4, 4))
            if c:
                flat = [a + c * b for a, b in zip(flat, row)]
        alpha = BilinearForm.from_flat(2, flat)
        ext = extension_from_cocycle(abelian2, alpha)
        split = is_split(ext).split
        trivial = are_cohomologous(abelian2, alpha,
                                   BilinearForm.zero(2)) is not None
        assert split == trivial


def test_split_witness_is_homomorphic_section(abelian2):
    ext = extension_from_cocycle(abelian2, xy_form())
    assert not is_split(ext).split
    ext2 = extension_from_cocycle(abelian2, BilinearForm.zero(2))
    witness = is_split(ext2).section
    gs = mat_mul(ext2.projection_g, [list(r) for r in witness])
    assert mat_eq(gs, linalg.identity_matrix(2))


def test_equivalence_self(abelian2):
    ext = extension_from_cocycle(abelian2, xy_form())
    phi = equivalence_map(ext, ext)
    assert mat_eq(phi, linalg.identity_matrix(3))
    assert verify_equivalence_map(ext, ext, phi) == []


def test_equivalence_cohomologous_pair(abelian2):
    alpha = xy_form()
    sigma = LinearFunctional.of([5, Fraction(-1, 2)])
    beta = alpha.add(coboundary(abelian2, sigma))
    ext1 = extension_from_cocycle(abelian2, alpha)
    ext2 = extension_from_cocycle(abelian2, beta)
    phi = equivalence_map(ext1, ext2)
    assert phi is not None
    assert verify_equivalence_map(ext1, ext2, phi) == []


def test_equivalence_rejects_different_classes(abelian2):
    ext1 = extension_from_cocycle(abelian2, xy_form())
    ext2 = extension_from_cocycle(abelian2, BilinearForm.zero(2))
    assert equivalence_map(ext1, ext2) is None


def test_equivalence_base_mismatch(abelian2, heis3):
    ext1 = extension_from_cocycle(abelian2, xy_form())
    ext2 = extension_from_cocycle(heis3, BilinearForm.zero(3))
    with pytest.raises(errors.BaseMismatch):
        equivalence_map(ext1, ext2)


def test_verify_map_detects_wrong_identity(abelian2):
    ext1 = extension_from_cocycle(abelian2, xy_form())
    ext2 = extension_from_cocycle(abelian2, BilinearForm.zero(2))
    failures = verify_equivalence_map(ext1, ext2, linalg.identity_matrix(3))
    assert any("homomorphism" in f for f in failures)


def test_verify_map_detects_scaled_identity(abelian2):
    ext = extension_from_cocycle(abelian2, BilinearForm.zero(2))
    phi = [[S(2) if i == j else ZERO for j in range(3)] for i in range(3)]
    failures = verify_equivalence_map(ext, ext, phi)
    assert any("injection" in f for f in failures)


def test_section_independence_sweep(abelian2):
    rng = random.Random(59)
    ext = extension_from_cocycle(abelian2, xy_form())
    canonical = find_section(ext)
    cocycles = []
    for _ in range(8):
        tau = [S(Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(2)]
        section = [[canonical[r][j] + tau[j] * ext.injection_f[r]
                    for j in range(2)] for r in range(3)]
        cocycles.append(cocycle_from_extension(ext, section))
    for i in range(len(cocycles)):
        for j in range(i + 1, len(cocycles)):
            assert are_cohomologous(abelian2, cocycles[i], cocycles[j]) is not None


def test_extension_json_roundtrip(abelian2):
    ext = extension_from_cocycle(abelian2, xy_form())
    doc = extension_to_json(ext)
    text = json.dumps(doc, sort_keys=True)
    back = extension_from_json(json.loads(text))
    assert json.dumps(extension_to_json(back), sort_keys=True) == text
    assert back.total.brackets == ext.total.brackets


def test_extension_json_rejects_broken_document(abelian2):
    ext = extension_from_cocycle(abelian2, xy_form())
    doc = extension_to_json(ext)
    doc["f"] = ["1", "0", "0"]  # not central, breaks exactness too
    with pytest.raises(errors.DefectNotInKernel):
        extension_from_json(doc)


# -- the dense oracle on extensions in a non-canonical basis ------------------------

# f = 2/3 + i times the carried injection: a scalar other than 1, -1, i, -i
F_SCALE = S(Fraction(2, 3), 1)
ORACLE_BASES = ["abelian2", "heis3", "sl2", "L(C7)", "L(Q8)", "L(E9)"]


def _rand_entry(rng):
    """A nonzero Q(i) scalar with small numerators and denominators."""
    while True:
        x = S(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        if x:
            return x


def _rebased(ext, rng):
    """ext in new total coordinates T x, T = P U with P a seeded permutation
    and U unitriangular; f is also scaled by F_SCALE and the stored section
    moved to s + f tau.  The result extends the same base along the same
    cocycle class, with f, g and s all off the canonical e_n, [I | 0], (x, 0).
    """
    m = ext.total.dim
    perm = list(range(m))
    rng.shuffle(perm)
    shear = linalg.identity_matrix(m)
    for _ in range(2):
        i, j = sorted(rng.sample(range(m), 2))
        shear[i][j] = _rand_entry(rng)
    t = mat_mul([[ONE if perm[c] == r else ZERO for c in range(m)] for r in range(m)],
                shear)
    t_inv = linalg.invert(t)
    images = [column(t_inv, k) for k in range(m)]
    table = {(i, j): mat_vec(t, dense_bracket(ext.total, images[i], images[j]))
             for i in range(m) for j in range(i + 1, m)}
    f = tuple(F_SCALE * x for x in mat_vec(t, ext.injection_f))
    tau = [_rand_entry(rng) for _ in range(m - 1)]
    section = [[x + f[r] * y for x, y in zip(row, tau)]
               for r, row in enumerate(mat_mul(t, ext.section_s))]
    return CentralExtension(
        total=from_structure_constants(m, table), base=ext.base, injection_f=f,
        projection_g=linalg.freeze_matrix(mat_mul(ext.projection_g, t_inv)),
        section_s=linalg.freeze_matrix(section))


def _oracle_pairs(fixture_set, name):
    """Two pairs of rebased extensions over the named fixture algebra: along
    cohomologous cocycles, then along two random cocycles."""
    rng = random.Random(f"oracle-{name}")
    algebra = dict(fixture_set.algebras)[name]
    z2 = fixture_set.h2_of(name).z2
    alpha = random_cocycle(rng, algebra, z2)
    beta = alpha.add(coboundary(algebra, random_functional(rng, algebra.dim)))
    other = random_cocycle(rng, algebra, z2)
    return [(_rebased(extension_from_cocycle(algebra, alpha), rng),
             _rebased(extension_from_cocycle(algebra, form), rng))
            for form in (beta, other)]


def _outcome(fn, *args):
    """What fn returns, or the code, message and witness of its domain error."""
    try:
        return fn(*args)
    except errors.DomainError as err:
        return err.code, str(err), err.witness


def _perturbed(matrix, r, c, eps):
    rows = [list(row) for row in matrix]
    rows[r][c] = rows[r][c] + eps
    return linalg.freeze_matrix(rows)


def _perturbations(ext, rng):
    """ext with one entry of f, g or the stored section changed, every entry."""
    m = ext.total.dim
    for t in range(m):
        f = list(ext.injection_f)
        f[t] = f[t] + _rand_entry(rng)
        yield f"f[{t}]", CentralExtension(ext.total, ext.base, tuple(f),
                                          ext.projection_g, ext.section_s)
    for r in range(m - 1):
        for c in range(m):
            g = _perturbed(ext.projection_g, r, c, _rand_entry(rng))
            yield f"g[{r}][{c}]", CentralExtension(ext.total, ext.base, ext.injection_f,
                                                   g, ext.section_s)
    for r in range(m):
        for c in range(m - 1):
            s = _perturbed(ext.section_s, r, c, _rand_entry(rng))
            yield f"s[{r}][{c}]", CentralExtension(ext.total, ext.base, ext.injection_f,
                                                   ext.projection_g, s)


@pytest.mark.parametrize("name", ORACLE_BASES)
def test_equivalence_map_matches_dense_oracle(name, fixture_set):
    for k, (ext1, ext2) in enumerate(_oracle_pairs(fixture_set, name)):
        for ext in (ext1, ext2):
            m = ext.total.dim
            assert ext.injection_f != tuple([ZERO] * (m - 1) + [ONE])
            assert ext.projection_g != linalg.freeze_matrix(
                linalg.identity_matrix(m)[:-1])
            assert ext.section_s != linalg.freeze_matrix(find_section(ext))
            assert verify_central_extension(ext) == []
            assert dense.verify_central_extension(ext) == []
        phi = equivalence_map(ext1, ext2)
        assert phi == dense.equivalence_map(ext1, ext2)
        assert phi is not None or k == 1
        if phi is not None:
            assert verify_equivalence_map(ext1, ext2, phi) == []


@pytest.mark.parametrize("name", ORACLE_BASES)
def test_failures_match_dense_oracle_under_perturbation(name, fixture_set):
    # one entry of phi, f, g or s changed at a time: the same phi or domain
    # error, and the same failure strings in the same order, as the oracle
    rng = random.Random(f"perturb-{name}")
    seen = set()
    for ext1, ext2 in _oracle_pairs(fixture_set, name):
        phi = dense.equivalence_map(ext1, ext2) or linalg.identity_matrix(ext1.total.dim)
        m = len(phi)
        for r in range(m):
            for c in range(m):
                bad = _perturbed(phi, r, c, _rand_entry(rng))
                failures = verify_equivalence_map(ext1, ext2, bad)
                assert failures == dense.verify_equivalence_map(ext1, ext2, bad), (r, c)
                seen.update(failures)
        for which in (0, 1):
            for where, ext in _perturbations((ext1, ext2)[which], rng):
                pair = (ext, ext2) if which == 0 else (ext1, ext)
                failures = verify_central_extension(ext)
                assert failures == dense.verify_central_extension(ext), where
                seen.update(failures)
                outcome = _outcome(equivalence_map, *pair)
                assert outcome == _outcome(dense.equivalence_map, *pair), where
                if isinstance(outcome, tuple):
                    seen.add(outcome[0])
                failures = verify_equivalence_map(*pair, phi)
                assert failures == dense.verify_equivalence_map(*pair, phi), where
                seen.update(failures)
    assert any("homomorphism" in x for x in seen)
    assert "g(f) is nonzero; image of f is not in ker g" in seen
    assert "stored section does not satisfy g s = I" in seen
    assert "g2 phi differs from g1" in seen
    assert "DefectNotInKernel" in seen


# stdout sha256 of each verb on the dim-200 zero-bracket extensions below, as
# printed before reading an extension, and then mapping one extension onto
# another, stopped costing O(n^3) Scalar products
WIDE_VERBS = [
    ("cocycle", ("ext_a",), "f0770c835edc7e912acb584a3c990f7c65935fdaa4960564b4cde6bb4ccda8cd"),
    ("split", ("ext_a",), "a474de153659460e39382035f1cc6e0a8809e0d80ca65e69d4346ec02f2f0b92"),
    ("split", ("ext_zero",), "2b35e13fa20e5c4ab6f1a0a985b5a498660ae592d38231fe2909037d7dca0223"),
    ("equiv", ("ext_a", "ext_a"),
     "81014c4f441edaf9d3787f4441e22dd92499406c48088b4ddcb30c58bda5523b"),
    ("equiv", ("ext_a", "ext_zero"),
     "0c093f037a859b79e636c6bb739b72840ee4bcf152b0908c01c04415fa0b5773"),
]


@pytest.fixture(scope="module")
def wide_extensions(tmp_path_factory):
    """Extensions of the zero-bracket algebra of dim 200: one along
    alpha(0,1) = 1, alpha(3,199) = 1/2 + i, one along the zero form."""
    root = tmp_path_factory.mktemp("wide")
    n = 200
    zero = [["0"] * (n - 1 - i) for i in range(n - 1)]
    upper = [row[:] for row in zero]
    upper[0][0] = "1"
    upper[3][199 - 4] = "1/2+I"
    docs = {"L": {"dim": n}, "a": {"dim": n, "upper": upper},
            "zero": {"dim": n, "upper": zero}}
    paths = {name: str(root / f"{name}.json") for name in docs}
    for name, doc in docs.items():
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    for form in ("a", "zero"):
        paths[f"ext_{form}"] = str(root / f"ext_{form}.json")
        assert main(["extension", "build", "-L", paths["L"], "--alpha", paths[form],
                     "-o", paths[f"ext_{form}"]]) == 0
    return paths


@pytest.mark.parametrize("verb,exts,digest", WIDE_VERBS,
                         ids=["-".join((verb,) + exts) for verb, exts, _ in WIDE_VERBS])
def test_wide_extension_verbs_are_fast(verb, exts, digest, wide_extensions, capsys):
    paths = [wide_extensions[ext] for ext in exts]
    if len(paths) == 1:
        argv = ["-e", paths[0]]
    else:
        argv = ["-e1", paths[0], "-e2", paths[1]]
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["extension", verb] + argv) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < 3.0


@pytest.mark.parametrize("name", ORACLE_BASES)
def test_each_map_is_read_into_columns_once(name, fixture_set, monkeypatch):
    reads = []
    original = extensions._cleared_columns

    def counted(m):
        reads.append(m)
        return original(m)

    monkeypatch.setattr(extensions, "_cleared_columns", counted)
    for ext1, ext2 in _oracle_pairs(fixture_set, name):
        del reads[:]
        cocycle_from_extension(ext1, ext1.section_s)
        cocycle_from_extension(ext2, find_section(ext2))
        phi = equivalence_map(ext1, ext2)
        if phi is not None:
            assert verify_equivalence_map(ext1, ext2, phi) == []
        is_split(ext1)
        is_split(ext2)
        assert verify_central_extension(ext1) == verify_central_extension(ext2) == []
        # every matrix read (reads keeps each alive, so ids are distinct) is
        # read once, the stored maps and phi among them
        assert len({id(m) for m in reads}) == len(reads)
        stored = [m for ext in (ext1, ext2) for m in (ext.projection_g, ext.section_s)]
        assert [sum(m is s for m in reads) for s in stored] == [1, 1, 1, 1]
        assert phi is None or sum(m is phi for m in reads) == 1


def test_each_cocycle_and_section_is_checked_once(fixture_set, monkeypatch):
    # equivalence_map and is_split walk each extracted cocycle once, in the
    # extraction, and trust the section find_section solved for
    name = "L(Heis27)"
    algebra, z2 = fixture_set.algebra(name), fixture_set.h2_of(name).z2
    rng = random.Random("checked-once")
    ext1, ext2 = (extension_from_cocycle(algebra, random_cocycle(rng, algebra, z2))
                  for _ in range(2))
    calls = []
    for module, attr in ((cohomology, "_cyclic_sums"), (extensions, "_is_right_inverse")):
        def counted(*args, attr=attr, original=getattr(module, attr)):
            calls.append(attr)
            return original(*args)

        monkeypatch.setattr(module, attr, counted)

    def checks(fn, *args):
        del calls[:]
        fn(*args)
        return calls.count("_cyclic_sums"), calls.count("_is_right_inverse")

    assert checks(equivalence_map, ext1, ext2) == (2, 0)
    assert checks(is_split, ext1) == (1, 0)
    # a section the caller gives is still checked
    assert checks(cocycle_from_extension, ext1, ext1.section_s) == (1, 1)


@pytest.mark.parametrize("name,p", [("symmetric", 5), ("heisenberg_p", 5)])
def test_bijection_at_the_scale_h2_reaches(name, p):
    # L(S5), dim 47, and L(Heis125), dim 62 with H^2 = 91: the round trip, an
    # equivalent pair against the dense oracle, an inequivalent pair where
    # H^2 is nonzero, and a split extension along a coboundary
    algebra, _ = plesken_algebra(preset(name, p))
    result = h2(algebra)
    rng = random.Random(f"scale-{name}")
    alpha = random_cocycle(rng, algebra, result.z2)
    ext1 = extension_from_cocycle(algebra, alpha)
    assert cocycle_from_extension(ext1, ext1.section_s) == alpha
    sigma = random_functional(rng, algebra.dim)
    ext2 = extension_from_cocycle(algebra, alpha.add(coboundary(algebra, sigma)))
    phi = equivalence_map(ext1, ext2)
    assert phi is not None and phi == dense.equivalence_map(ext1, ext2)
    assert verify_equivalence_map(ext1, ext2, phi) == []
    assert result.dimension == (91 if name == "heisenberg_p" else 0)
    if result.dimension:
        ext3 = extension_from_cocycle(algebra, alpha.add(result.representatives[0]))
        assert equivalence_map(ext1, ext3) is None
    assert is_split(extension_from_cocycle(algebra, coboundary(algebra, sigma))).split
