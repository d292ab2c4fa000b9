"""Value records: every result and certificate type compares, hashes,
shows and refuses assignment the same way.

Records that only hold fields are errors.TupleRecord classes, checked
against typing.NamedTuple twins built from their _fields and _defaults;
the ones whose constructor checks or derives fields are errors.Record
classes.  Each case below builds one record of a class from a small int
v: equal v gives equal fields, different v different ones.  Fields that
hold dicts in real reports (parameters, sparse rows) get hashable
stand-ins here, since a record hashes its fields.
"""

import copy
import pickle
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equik import abgroups, fusion, intmat, joins, kmodules, reports
from equik.abgroups import TRIVIAL_GROUP, FgAbelianGroup, Presentation
from equik.errors import Record, TupleRecord
from equik.fusion import BasedRing, FusionRing, IdealLattice, RingElement, cyclic_ring, ideal_power
from equik.intmat import HnfResult, IntMatrix, Lattice, SnfDecomposition, SparseMatrix
from equik.joins import (
    BettiTable,
    ChainComplex,
    JoinComplex,
    KTheoryRanks,
    MvDeltaReport,
    OracleCheck,
    oracle_consistency,
)
from equik.kmodules import ModelDescriptor, trunc_z2_model
from equik.reports import (
    AnnihilatorWitness,
    BoundReport,
    Citation,
    CollapseReport,
    CommutativeDimension,
    DimBound,
    ExistenceReport,
    IndexWitness,
    JoinFactorWitness,
    RuleApplication,
    Stability,
    z2_af_bounds,
)


def _bound_report(v):
    return BoundReport("z2-af", (("m", str(v)),), z2_af_bounds(v).bound, ())


BUILDERS = {
    # intmat
    IntMatrix: lambda v: IntMatrix(1, 1, (v,)),
    HnfResult: lambda v: HnfResult(IntMatrix(1, 1, (v,)), IntMatrix.identity(1)),
    SnfDecomposition: lambda v: SnfDecomposition(
        IntMatrix.identity(1), IntMatrix(1, 1, (v,)), IntMatrix.identity(1)
    ),
    SparseMatrix: lambda v: SparseMatrix(1, v, ()),
    Lattice: lambda v: Lattice((((0, v),),), 1),
    # abgroups
    FgAbelianGroup: lambda v: FgAbelianGroup(v, ()),
    Presentation: lambda v: Presentation(v, IntMatrix.zeros(0, v)),
    # fusion
    RingElement: lambda v: RingElement((v, 0)),
    BasedRing: lambda v: cyclic_ring(v + 1),
    IdealLattice: lambda v: ideal_power(cyclic_ring(3), v),
    # joins
    KTheoryRanks: lambda v: KTheoryRanks(v, 0),
    JoinComplex: lambda v: JoinComplex(v, 2),
    ChainComplex: lambda v: ChainComplex((v,), ()),
    BettiTable: lambda v: BettiTable((FgAbelianGroup(v, ()),)),
    MvDeltaReport: lambda v: MvDeltaReport(SparseMatrix(1, 1, ()), v, TRIVIAL_GROUP),
    OracleCheck: lambda v: oracle_consistency(2, v + 1),
    # kmodules
    ModelDescriptor: lambda v: trunc_z2_model(v),
    # reports
    Stability: lambda v: Stability(v, (1, 0)),
    AnnihilatorWitness: lambda v: z2_af_bounds(v).bound.lower_certificate,
    JoinFactorWitness: lambda v: JoinFactorWitness(v),
    IndexWitness: lambda v: IndexWitness("z2", v, v),
    RuleApplication: lambda v: RuleApplication("sum", ((0, v), (0, 0))),
    DimBound: lambda v: z2_af_bounds(v).bound,
    Citation: lambda v: Citation(str(v), "statement"),
    BoundReport: _bound_report,
    CollapseReport: lambda v: CollapseReport(
        "z6-collapse", (("d", str(v)),), (), _bound_report(1), "finding", ()
    ),
    ExistenceReport: lambda v: ExistenceReport("finite-af", (("n", str(v)),), "note", ()),
    CommutativeDimension: lambda v: CommutativeDimension(v, v + 1, None),
}
CLASSES = list(BUILDERS)


def test_every_record_class_is_listed():
    modules = (intmat, abgroups, fusion, joins, kmodules, reports)
    found = {
        cls
        for mod in modules
        for name, cls in vars(mod).items()
        if isinstance(cls, type)
        and cls.__module__ == mod.__name__
        and not name.startswith("_")
        and (issubclass(cls, Record) or hasattr(cls, "_fields"))
    }
    # Argument and Construction were field-only tuples before the other records.
    assert found - {reports.Argument, reports.Construction} == set(CLASSES)
    assert len(CLASSES) == 28
    assert {cls for cls in CLASSES if issubclass(cls, Record)} == {
        IntMatrix, Lattice, FgAbelianGroup, Presentation, RingElement, BasedRing,
        IdealLattice, JoinComplex,
    }
    assert not any(issubclass(cls, Record) and issubclass(cls, tuple) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_records_compare_and_hash_by_their_fields(cls):
    build = BUILDERS[cls]
    a, b, c = build(1), build(1), build(2)
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and not a == c
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a and hash(copied) == hash(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    record = BUILDERS[cls](1)
    field = cls._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_records_show_their_fields_by_name(cls):
    record = BUILDERS[cls](1)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__name__}({shown})"


def test_checked_records_keep_their_repr():
    assert repr(FgAbelianGroup(1, (2,))) == "FgAbelianGroup(free_rank=1, torsion=(2,))"
    assert repr(IntMatrix.from_rows([[1, 0], [0, 2]])) == (
        "IntMatrix(rows=2, cols=2, entries=(1, 0, 0, 2))"
    )
    assert repr(cyclic_ring(2)) == (
        "BasedRing(labels=('1', 'chi'), aug=(1, 1), "
        "table=((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 1),))), is_fusion=True)"
    )


def test_based_rings_from_one_table_are_equal_without_their_generators():
    ring = cyclic_ring(4)
    again = BasedRing(ring.labels, ring.aug, ring.table, is_fusion=True)
    assert again == ring and hash(again) == hash(ring) and again is not ring
    assert again.generators == ring.generators == (1,)
    assert "generators" not in repr(ring)
    assert FusionRing is BasedRing
    assert again != BasedRing(ring.labels, ring.aug, ring.table, is_fusion=False)


def test_records_of_different_classes_are_unequal():
    # A checked record compares within its class only, as a dataclass did.
    assert FgAbelianGroup(1, ()) != RingElement((1,))
    assert JoinComplex(2, 2) != (2, 2)


def test_lattice_rows_and_pivots_are_built_once_and_stay_out_of_equality():
    lattice = Lattice((((0, 2), (1, 1)), ((1, 3),)), 2)
    assert lattice.rows == ((2, 1), (0, 3)) and lattice.rows is lattice.rows
    assert lattice._pivots is lattice._pivots
    fresh = Lattice(lattice.terms, 2)
    assert fresh == lattice and hash(fresh) == hash(lattice)
    assert repr(fresh) == repr(lattice) == (
        "Lattice(terms=(((0, 2), (1, 1)), ((1, 3),)), width=2)"
    )


def test_named_tuple_records_are_tuples_of_their_fields():
    witness = JoinFactorWitness(3)
    assert witness == (3,) and tuple(witness) == (3,)
    bound = z2_af_bounds(1).bound
    assert bound._replace(lower=0) == DimBound(0, *bound[1:])
    assert bound.lower == 1



# Every field-only record class, and its typing.NamedTuple twin: the same
# name, fields and defaults, built by the code generation TupleRecord avoids.
FIELD_ONLY = sorted(TupleRecord.__subclasses__(), key=lambda cls: cls.__qualname__)


def named_tuple_twin(cls):
    def body(namespace):
        namespace["__module__"] = __name__
        namespace["__annotations__"] = {name: object for name in cls._fields}
        namespace.update(zip(cls._fields[len(cls._fields) - len(cls._defaults) :], cls._defaults))

    return types.new_class(cls.__name__, (typing.NamedTuple,), exec_body=body)


TWINS = {cls: named_tuple_twin(cls) for cls in FIELD_ONLY}
FIELD_VALUES = st.one_of(
    st.none(), st.integers(), st.text(max_size=3), st.tuples(st.integers(), st.booleans())
)


def test_every_field_only_record_is_a_tuple_record():
    modules = (intmat, abgroups, fusion, joins, kmodules, reports)
    tuples = {
        cls
        for mod in modules
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__ and issubclass(cls, tuple)
    }
    assert tuples == set(FIELD_ONLY)
    assert len(FIELD_ONLY) == 23
    assert {cls.__module__ for cls in FIELD_ONLY} == {
        "equik.intmat", "equik.joins", "equik.kmodules", "equik.reports"
    }
    for cls in FIELD_ONLY:
        assert cls.__bases__ == (TupleRecord,) and cls.__slots__ == ()
        assert TWINS[cls]._fields == cls._fields
        assert tuple(TWINS[cls]._field_defaults.values()) == cls._defaults


def outcome(build, args, kwargs):
    """What build(*args, **kwargs) returns, or the type of what it raises."""
    try:
        return build(*args, **kwargs)
    except Exception as exc:
        return type(exc)


def assert_same_record(record, twin):
    """record agrees with its NamedTuple twin as a value."""
    assert type(record) in TWINS and type(twin) is TWINS[type(record)]
    assert tuple(record) == tuple(twin) and record == twin and twin == record
    assert hash(record) == hash(twin) == hash(tuple(twin))
    assert repr(record) == repr(twin)
    assert record._asdict() == twin._asdict()
    assert [getattr(record, name) for name in record._fields] == list(twin)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_field_only_records_build_as_their_named_tuple_twins(data):
    # positional, keyword and default construction, and the calls a
    # function with these parameters refuses: too many values, a missing
    # or unknown field, a field given twice
    cls = data.draw(st.sampled_from(FIELD_ONLY))
    fields = cls._fields
    args = data.draw(st.lists(FIELD_VALUES, max_size=len(fields) + 1))
    names = st.sampled_from(fields + ("unknown_field",))
    kwargs = data.draw(st.dictionaries(names, FIELD_VALUES, max_size=len(fields)))
    record, twin = outcome(cls, args, kwargs), outcome(TWINS[cls], args, kwargs)
    if isinstance(twin, type):
        assert record is twin is TypeError
    else:
        assert_same_record(record, twin)


@pytest.mark.parametrize("cls", FIELD_ONLY, ids=lambda cls: cls.__name__)
def test_field_only_records_refuse_the_calls_their_twins_refuse(cls):
    twin, fields = TWINS[cls], cls._fields
    required = len(fields) - len(cls._defaults)
    full = tuple(range(len(fields)))
    calls = [
        (full + (0,), {}),
        (full, {"unknown_field": 0}),
        (full, {fields[0]: 0}),
        (full[: required - 1], {}),
        ((), dict(zip(fields[1:], full))),
    ]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    assert_same_record(cls(*full), twin(*full))
    assert_same_record(cls(**dict(zip(fields, full))), twin(**dict(zip(fields, full))))
    assert_same_record(cls(*full[:required]), twin(*full[:required]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_only_records_behave_as_their_named_tuple_twins(data):
    cls = data.draw(st.sampled_from(FIELD_ONLY))
    values = data.draw(st.lists(FIELD_VALUES, min_size=len(cls._fields), max_size=len(cls._fields)))
    record, twin = cls(*values), TWINS[cls](*values)
    assert_same_record(record, twin)
    assert record == tuple(values) and len(record) == len(values)
    assert [record[i] for i in range(len(values))] == values and [*record] == values
    names = st.sampled_from(cls._fields + ("unknown_field",))
    changes = data.draw(st.dictionaries(names, FIELD_VALUES, max_size=3))
    replaced, twin_replaced = outcome(record._replace, (), changes), outcome(twin._replace, (), changes)
    if isinstance(twin_replaced, type):
        assert replaced is twin_replaced is ValueError
    else:
        assert_same_record(replaced, twin_replaced)
    for copied, twin_copied in ((copy.copy(record), copy.copy(twin)),
                                (copy.deepcopy(record), copy.deepcopy(twin))):
        assert_same_record(copied, twin_copied)
    # a twin made here has no importable name to pickle by; a NamedTuple
    # pickles as its class and fields, and so does the record
    unpickled = pickle.loads(pickle.dumps(record))
    assert type(unpickled) is cls and unpickled == record
    assert not hasattr(record, "__dict__") and not hasattr(twin, "__dict__")
    with pytest.raises(AttributeError):
        record.unknown_field = 0
