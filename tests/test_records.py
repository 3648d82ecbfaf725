"""The record classes: keyword construction, equality, hashing, immutability,
copying and pickling."""

import copy
import pickle

import pytest

from kronmf.characters import CharacterTable, character_table
from kronmf.classification import SquareLowDepth
from kronmf.kronecker import SemigroupBound, SemigroupWitness
from kronmf.littlewood_richardson import PathProfile
from kronmf.partitions import Partition, ShapeClass, SkewNormalForm, SkewShape, rotate_skew, skew_normalize
from kronmf.verdict import MF_NO, MfVerdict
from kronmf.verify import VerificationReport


def P(*parts):
    return Partition(parts)


def _table_fields(n):
    t = character_table(n)
    return dict(degree=t.degree, rows=t.rows, cols=t.cols, values=t.values, class_sizes=t.class_sizes)


# (class, keyword arguments, the same with one field changed)
FROZEN = [
    (ShapeClass, dict(tag="hook", qualifiers=frozenset({"proper-hook"})), dict(tag="hook", qualifiers=frozenset())),
    (SkewShape, dict(outer=P(3, 2), inner=P(1)), dict(outer=P(3, 2), inner=P(2))),
    (
        SkewNormalForm,
        dict(basic=SkewShape(P(2, 1), P(1)), components=(P(1),) * 2, label=None),
        dict(basic=SkewShape(P(2, 1), P(1)), components=(P(1), None), label=None),
    ),
    (
        PathProfile,
        dict(s_in=2, s_out=3, inner_is_rectangle=True, outer_removable_count=1),
        dict(s_in=2, s_out=3, inner_is_rectangle=False, outer_removable_count=1),
    ),
    (
        SemigroupWitness,
        dict(kind="sum-split", left_parts=(P(2), P(1)), right_parts=(P(1, 1), P(1))),
        dict(kind="row-split", left_parts=(P(2), P(1)), right_parts=(P(1, 1), P(1))),
    ),
    (
        SemigroupBound,
        dict(bound=2, parts=((P(2), P(1, 1)),), target=(P(3), P(2, 1))),
        dict(bound=1, parts=((P(2), P(1, 1)),), target=(P(3), P(2, 1))),
    ),
    (
        SquareLowDepth,
        dict(a1=1, a2=None, b2=1, a3=None, b3=2, c3=None),
        dict(a1=1, a2=0, b2=1, a3=None, b3=2, c3=None),
    ),
    (
        MfVerdict,
        dict(multiplicity_free=True, clause="pair-case-1", normalization=("conjugate-left",)),
        dict(multiplicity_free=True, clause="pair-case-1", normalization=()),
    ),
    (CharacterTable, _table_fields(4), dict(_table_fields(4), class_sizes=(1,) * 5)),
]


@pytest.mark.parametrize("cls, kwargs, other", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_frozen_record_equality_hash_and_immutability(cls, kwargs, other):
    a, b, c = cls(**kwargs), cls(*kwargs.values()), cls(**other)
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c
    for name, value in kwargs.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, value)


CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
@pytest.mark.parametrize("cls, kwargs, other", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_frozen_record_copies_and_pickles(cls, kwargs, other, clone):
    a = cls(**kwargs)
    b = clone(a)
    assert type(b) is cls and b == a and hash(b) == hash(a)


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_shapes_built_unchecked_and_tables_copy_and_pickle(clone):
    # a normal form holds labels built unchecked, and a rotation is a
    # shape built unchecked; a table's copy still finds its rows
    form = skew_normalize(SkewShape(P(3, 1), P(1)))
    rotated = rotate_skew(SkewShape(P(3, 2), P(1)))
    assert len(form.components) == 2
    for record in (form, rotated):
        assert clone(record) == record and hash(clone(record)) == hash(record)
    t = clone(character_table(5))
    assert t == character_table(5) and t.value(P(4, 1), P(5)) == -1 and t.row(P(5)) == (1,) * 7


def test_skew_shape_size_refuses_assignment_on_every_constructor():
    # the size is derived from the fields, and the shapes built unchecked
    # (a rotation, the basic form of a shape with an empty row) are as immutable
    s = SkewShape(P(3, 2), P(1))
    for shape in (s, rotate_skew(s), skew_normalize(SkewShape(P(4, 3, 3), P(3, 3, 1))).basic):
        with pytest.raises(AttributeError):
            shape.size = 0
    assert (str(s), s.size, hash(s)) == ("3,2/1", 4, hash(SkewShape((3, 2), (1,))))


def test_character_table_equals_its_rebuilt_copy():
    t = character_table(5)
    assert CharacterTable(**_table_fields(5)) == t
    assert t.value(P(4, 1), P(5)) == -1 and t.row(P(5)) == (1,) * 7


def test_character_table_replace_derives_its_row_index():
    t = character_table(4)
    u = t._replace(class_sizes=(1,) * 5)
    assert u != t and u.rows == t.rows and u.row(P(3, 1)) == t.row(P(3, 1))
    assert CharacterTable._make(t) == t and CharacterTable._make(t).value(P(4), P(2, 2)) == 1


def test_verdict_defaults_truth_and_invariants():
    assert MfVerdict(False) == MfVerdict(False, None, ()) == MF_NO
    assert bool(MF_NO) is False
    assert bool(MfVerdict(True, "pair-case-1")) is True
    with pytest.raises(ValueError):
        MfVerdict(True)
    with pytest.raises(ValueError):
        MfVerdict(multiplicity_free=False, clause="pair-case-1")


def test_witness_rejects_bad_kind_and_degrees():
    with pytest.raises(ValueError):
        SemigroupWitness(kind="diag-split", left_parts=(P(2), P(1)), right_parts=(P(2), P(1)))
    with pytest.raises(ValueError):
        SemigroupWitness("sum-split", (P(2), P(1)), (P(1), P(2)))


def test_verification_report_is_mutable_and_unhashable():
    a = VerificationReport(degree=3, mode="pairs", engine="oracle", pairs_checked=6)
    b = VerificationReport(3, "pairs", "oracle", 6)
    assert a == b and a.mismatches == [] and a.mismatches is not b.mismatches
    a.mismatches.append(("3", "3", "mf", "not-mf"))
    assert a != b and not a.ok and b.ok
    with pytest.raises(TypeError):
        hash(a)
    a.pairs_checked = 7
    assert a.pairs_checked == 7
