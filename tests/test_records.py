"""The package's value classes are immutable ``__slots__`` records: they keep
the contract of the frozen dataclasses they replace (field-named
constructors, refused assignment and deletion, ``==`` and hash by class and
field tuple, the ``Name(field=...)`` repr) and copy and pickle to an equal
record."""

import copy
import pickle

import pytest

from cuntzgeo import (
    AlgElem,
    Metric,
    OneForm,
    TwoForm,
    curvature_report,
    d0,
    d1,
    koszul_correction,
    levi_civita,
    parse_alg,
    represented_product,
)
from cuntzgeo.checks import run_checks

ROWS = [["2 + 1/2i", "1/3 - i", "1/5 + 2/7i"],
        ["1/3 - i", "1 + 1/3i", "1/4i"],
        ["1/5 + 2/7i", "1/4i", "3 - 2i"]]


def _records() -> dict[str, tuple[object, tuple[str, ...]]]:
    """One instance of each record class, with its field names in order."""
    g = Metric(ROWS)
    x, y = parse_alg("S1 S2* + 1/2 S3"), parse_alg("S2 S3 S1* - i S1*")
    conn = levi_civita(g)
    return {
        "OneForm": (d0(x), ("c",)),
        "TwoForm": (d1(d0(x) * y), ("c",)),
        "RepTwoForm": (represented_product(d0(x), d0(y)), ("junk", "c")),
        "TensorElem": (conn.value(1), ("rank", "entries")),
        "Metric": (g, ("rows",)),
        "Connection": (conn, ("vals",)),
        "SymTensorMap": (koszul_correction(g), ("vals",)),
        "CurvatureReport": (curvature_report(g),
                            ("metric", "connection", "curv", "theta", "ric", "scalar")),
        "CheckResult": (run_checks()[0],
                        ("ident", "anchor", "expected", "computed", "status")),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_copies_and_pickles_to_an_equal_record(name):
    record, _ = RECORDS[name]
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(record) and other == record


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_frozen(name):
    record, fields = RECORDS[name]
    values = [getattr(record, field) for field in fields]
    for field in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert all(getattr(record, f) is v for f, v in zip(fields, values))


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_fields_in_slots(name):
    record, fields = RECORDS[name]
    assert type(record).__name__ == name and not hasattr(record, "__dict__")
    slots = [f for c in type(record).__mro__ for f in c.__dict__.get("__slots__", ())]
    assert slots == list(fields)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_its_class_and_field_tuple(name):
    record, fields = RECORDS[name]
    values = [getattr(record, field) for field in fields]
    # the constructor's parameters are the fields, by keyword and by position
    by_keyword = type(record)(**dict(zip(fields, values)))
    assert by_keyword == type(record)(*values) == record
    assert by_keyword is not record
    if name == "CurvatureReport":  # theta is a dict, as in the dataclass
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(by_keyword) == hash(record) == hash(tuple(values))
    inner = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
    assert repr(record) == f"{name}({inner})"


def test_forms_of_one_coefficient_tuple_differ_by_class():
    c = (AlgElem.unit(), parse_alg("S1"), AlgElem.zero())
    one, two = OneForm(c), TwoForm(c)
    assert one.c == two.c
    assert one != two and two != one and not one.equals(two)
    assert one == OneForm(c=list(c)) and two == TwoForm(c=c)


def test_metric_takes_its_rows_by_keyword():
    assert Metric(rows=ROWS) == Metric(ROWS) == RECORDS["Metric"][0]
    assert Metric(rows=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == Metric.identity()
