"""The library's records: each keeps its fields in order, a dataclass-style
repr, immutability, and its equality and hash behaviour."""

from __future__ import annotations

import pytest

from plesken.cohomology import BilinearForm, H2Result, LinearFunctional, h2
from plesken.extensions import CentralExtension, SplitResult, extension_from_cocycle, is_split
from plesken.groups import FiniteGroup, preset
from plesken.liealg import (
    GroupAlgebraElement,
    LieAlgebra,
    PleskenBasis,
    from_structure_constants,
    hat_element,
    plesken_algebra,
)
from plesken.projreps import (
    EquivalenceReport,
    ProjectiveRep,
    projective_rep,
    verify_projective_equivalence,
)
from plesken.scalars import ONE, ZERO, Scalar


def _records() -> dict:
    """One record of each class, by class name."""
    group = preset("quaternion8")
    algebra, basis = plesken_algebra(group)
    heis3 = from_structure_constants(3, {(0, 1): [0, 0, 1]})
    sl2 = from_structure_constants(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})
    alpha = h2(heis3).representatives[0]
    extension = extension_from_cocycle(heis3, alpha)
    rep = projective_rep(heis3, [[[ZERO]]] * 3)
    g = next(g for g in group.elements() if group.inverse[g] != g)
    report = verify_projective_equivalence(rep, rep, [[ONE]], LinearFunctional.zero(3))
    records = [alpha, LinearFunctional.of([1, 2, 3]), h2(sl2), extension, is_split(extension),
               group, basis, hat_element(group, g), algebra, rep, report]
    return {type(record).__name__: record for record in records}


RECORDS = _records()

# (class, its fields in order, equality: "fields", "unhashable" or "identity")
CLASSES = [
    (BilinearForm, ("dim", "flat"), "unhashable"),
    (LinearFunctional, ("vector",), "unhashable"),
    (H2Result, ("dimension", "representatives", "z2", "b2"), "fields"),
    (CentralExtension, ("total", "base", "injection_f", "projection_g", "section_s"), "identity"),
    (SplitResult, ("split", "section"), "fields"),
    (FiniteGroup, ("order", "table", "identity", "inverse", "labels"), "fields"),
    (PleskenBasis, ("pairs",), "fields"),
    (GroupAlgebraElement, ("coefficients",), "unhashable"),
    (LieAlgebra, ("dim", "brackets", "basis_labels", "provenance"), "unhashable"),
    (ProjectiveRep, ("algebra", "degree", "matrices", "cocycle"), "identity"),
    (EquivalenceReport, ("failures", "delta_is_zero"), "fields"),
]
IDS = [cls.__name__ for cls, _, _ in CLASSES]


def test_every_record_class_is_covered():
    assert sorted(RECORDS) == sorted(IDS)


@pytest.mark.parametrize("cls,fields,equality", CLASSES, ids=IDS)
def test_record_is_immutable(cls, fields, equality):
    record = RECORDS[cls.__name__]
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.new_attribute = 1


@pytest.mark.parametrize("cls,fields,equality", CLASSES, ids=IDS)
def test_record_repr_is_dataclass_style(cls, fields, equality):
    record = RECORDS[cls.__name__]
    values = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({values})"


@pytest.mark.parametrize("cls,fields,equality", CLASSES, ids=IDS)
def test_record_equality_and_hash(cls, fields, equality):
    record = RECORDS[cls.__name__]
    positional = cls(*[getattr(record, name) for name in fields])
    keywords = cls(**{name: getattr(record, name) for name in fields})
    assert positional is not record
    if equality == "identity":
        assert positional != record and record == record
        assert hash(record) != hash(positional)
        return
    assert positional == record == keywords and not positional != record
    assert record != object()
    if equality == "fields":
        assert hash(positional) == hash(record) == hash(keywords)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_defaults_and_arguments():
    group = RECORDS["FiniteGroup"]
    assert FiniteGroup(group.order, group.table, group.identity, group.inverse).labels is None
    algebra = RECORDS["LieAlgebra"]
    bare = LieAlgebra(algebra.dim, algebra.brackets, algebra.basis_labels)
    # provenance is shown but never compared
    assert bare.provenance is None and algebra.provenance is not None
    assert bare == algebra and repr(bare) != repr(algebra)
    with pytest.raises(TypeError, match="flat"):
        BilinearForm(3)
    with pytest.raises(TypeError):
        BilinearForm(3, (), ())
    with pytest.raises(TypeError, match="rank"):
        BilinearForm(dim=3, flat=(), rank=1)
    assert BilinearForm(1, ()) != LinearFunctional(())


def test_cached_properties_and_memos_still_write():
    basis = RECORDS["PleskenBasis"]
    assert basis.members is basis.members
    algebra = RECORDS["LieAlgebra"]
    assert algebra.integer_terms is algebra.integer_terms
    den, real, terms = algebra.integer_terms
    assert (den, real) == (algebra.integer_terms.den, algebra.integer_terms.real)
    rep = RECORDS["ProjectiveRep"]
    assert rep.defects == (Scalar(0),) * 3
    # a form was checked as a cocycle building the extension, and keeps no verdict
    alpha = RECORDS["BilinearForm"]
    assert "_cocycle_verdict" not in vars(alpha)
