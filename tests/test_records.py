"""The library's result records: construction, equality, hash, repr, immutability."""

import pytest

from graycycles import (
    BlockProfile,
    ExistenceVerdict,
    GrayList,
    GrayReport,
    OcycleReport,
    OcycleSolution,
    TransitionDigraph,
    WeightDecomposition,
)
from graycycles.ocycles import _Codes

# (class, field values, exact repr); the repr shows every field but by_code.
RECORDS = [
    (GrayList, (3, 2, 2, ((0, 2), (1, 1), (2, 0))),
     "GrayList(m=3, n=2, k=2, words=((0, 2), (1, 1), (2, 0)))"),
    (GrayReport, (False, (4, "duplicate word 0122")),
     "GrayReport(ok=False, first_violation=(4, 'duplicate word 0122'))"),
    (WeightDecomposition, (2, 1), "WeightDecomposition(q=2, r=1)"),
    (BlockProfile, (2, (1, 3)), "BlockProfile(d=2, weights=(1, 3))"),
    (TransitionDigraph, (2, 4, 256, _Codes([0x0101, 0x010001], 4, 8)),
     "TransitionDigraph(s=2, n=4, base=256)"),
    (OcycleSolution, (1, ((0, 1), (1, 0))), "OcycleSolution(s=1, cycle=((0, 1), (1, 0)))"),
    (OcycleSolution, (2, _Codes([258], 2, 8)), "OcycleSolution(s=2, cycle=(258,))"),
    (OcycleReport, (True, None), "OcycleReport(ok=True, first_violation=None)"),
    (ExistenceVerdict, (True, "gcd-condition", "n-s=3, gcd(n,s)=1"),
     "ExistenceVerdict(exists=True, reason='gcd-condition', detail='n-s=3, gcd(n,s)=1')"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(RECORDS)]
FIELDS = {
    GrayList: ("m", "n", "k", "words"),
    GrayReport: ("ok", "first_violation"),
    WeightDecomposition: ("q", "r"),
    BlockProfile: ("d", "weights"),
    TransitionDigraph: ("s", "n", "base", "by_code"),
    OcycleSolution: ("s", "cycle"),
    OcycleReport: ("ok", "first_violation"),
    ExistenceVerdict: ("exists", "reason", "detail"),
}


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_repr_equality_and_hash(cls, values, text):
    record, same = cls(*values), cls(*values)
    assert repr(record) == text
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert len({record, same}) == 1
    assert record != values and values != record


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_keyword_construction(cls, values, text):
    names = FIELDS[cls]
    record = cls(**dict(zip(names, values)))
    assert record == cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    # Keywords in any order, and positional arguments before keywords.
    assert cls(*values[:1], **dict(zip(reversed(names[1:]), reversed(values[1:])))) == record
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[1:], **{names[0]: values[0], "unknown": 0})
    with pytest.raises(TypeError):
        cls(*values[:-2])


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, values, text):
    record = cls(*values)
    for name in (*FIELDS[cls], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_records_are_not_ordered(cls, values, text):
    with pytest.raises(TypeError):
        cls(*values) < cls(*values)  # noqa: B015


def test_defaults():
    assert GrayReport(True) == GrayReport(ok=True) == GrayReport(True, None)
    assert OcycleReport(True) == OcycleReport(ok=True, first_violation=None)
    assert ExistenceVerdict(True, "x") == ExistenceVerdict(reason="x", exists=True, detail=None)
    assert repr(GrayReport(ok=True)) == "GrayReport(ok=True, first_violation=None)"
    for cls in (GrayList, WeightDecomposition, BlockProfile, TransitionDigraph, OcycleSolution):
        with pytest.raises(TypeError):
            cls()


def test_equality_needs_the_same_class():
    # Equal field values in two record classes do not make equal records.
    assert GrayReport(True) != OcycleReport(True)
    assert OcycleReport(True) != GrayReport(True)
    assert GrayReport(False, (0, "x")) != OcycleReport(False, (0, "x"))
    assert GrayReport(True).__eq__(OcycleReport(True)) is NotImplemented
    assert GrayReport(True).__eq__((True, None)) is NotImplemented
    assert WeightDecomposition(1, 2) != BlockProfile(1, 2)
    assert GrayReport(True) != GrayReport(False)


def test_digraph_compares_its_codes_but_does_not_hash_or_show_them():
    one = TransitionDigraph(2, 4, 256, _Codes([0x0101], 4, 8))
    other = TransitionDigraph(2, 4, 256, _Codes([0x010001], 4, 8))
    assert one != other
    assert hash(one) == hash(other) == hash(TransitionDigraph(2, 4, 256, _Codes([], 4, 8)))
    assert repr(one) == repr(other) == "TransitionDigraph(s=2, n=4, base=256)"
    assert one == TransitionDigraph(2, 4, 256, _Codes([0x0101], 4, 8))
    assert one != TransitionDigraph(1, 4, 256, _Codes([0x0101], 4, 8))


def test_digraph_caches_its_derived_views():
    digraph = TransitionDigraph(2, 4, 256, _Codes([0x0101, 0x010001], 4, 8))
    edges = digraph.edges
    assert edges == {((0, 0), (1, 1)): ((0, 0, 1, 1),), ((0, 1), (0, 1)): ((0, 1, 0, 1),)}
    assert digraph.edges is edges
    assert digraph.vertices == {(0, 0), (1, 1), (0, 1)}
    assert digraph.out_degree((0, 1)) == digraph.in_degree((0, 1)) == 1
    # Cached views are not fields: they leave equality, hash and repr alone.
    fresh = TransitionDigraph(2, 4, 256, _Codes([0x0101, 0x010001], 4, 8))
    assert digraph == fresh and hash(digraph) == hash(fresh)
    assert repr(digraph) == repr(fresh)


def test_gray_list_is_a_sized_iterable_of_its_words():
    ordering = GrayList(3, 2, 2, ((0, 2), (1, 1), (2, 0)))
    assert len(ordering) == 3
    assert list(ordering) == [(0, 2), (1, 1), (2, 0)]


def test_records_match_by_position():
    match ExistenceVerdict(False, "empty-set"):
        case ExistenceVerdict(exists, reason, detail):
            assert (exists, reason, detail) == (False, "empty-set", None)
        case _:
            pytest.fail("no match")
