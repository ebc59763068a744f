"""The contract of the five result records: Enclosure, Interval, ChebSeries,
Certificate and QuadraticInE.

Each is a named tuple: it prints as ``Name(field=value, ...)``, compares and
hashes by its fields, refuses assignment, survives pickle, and builds from
positional fields.  The three records with checks keep them on every route
to a new instance, ``_make``, ``_replace`` and unpickling included.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from chebbound import (
    Certificate,
    ChebSeries,
    Enclosure,
    Interval,
    QuadraticInE,
    cheb_sandwich,
    partial_sum,
    sign_certificate,
)

# one instance of each record, built positionally, with its fields by keyword
RECORDS = {
    "Enclosure": (Enclosure(-2.0, 0.25, 0.5, 3, 4),
                  dict(x=-2.0, lower=0.25, upper=0.5, lower_degree=3, upper_degree=4)),
    "Interval": (Interval(0.125, 0.25), dict(lo=0.125, hi=0.25)),
    "ChebSeries": (ChebSeries((1.0, 0.5)), dict(values=(1.0, 0.5))),
    "Certificate": (Certificate(4, Fraction(4, 25), True, True, True, "accepted"),
                    dict(n=4, ratio_bound=Fraction(4, 25), cond_unit_quadratic=True,
                         cond_shifted_quadratic=True, cond_leading_positive=True, verdict="accepted")),
    "QuadraticInE": (QuadraticInE(1.0, -0.5, 0.25), dict(a2=1.0, a1=-0.5, a0=0.25)),
}

# each differs from the instance above in one field
OTHERS = {
    "Enclosure": Enclosure(-3.0, 0.25, 0.5, 3, 4),
    "Interval": Interval(0.125, 0.5),
    "ChebSeries": ChebSeries((1.0, 0.5, 0.0)),
    "Certificate": Certificate(5, Fraction(4, 25), True, True, True, "accepted"),
    "QuadraticInE": QuadraticInE(1.0, -0.5, 0.5),
}

REPRS = {
    "Enclosure": "Enclosure(x=-2.0, lower=0.25, upper=0.5, lower_degree=3, upper_degree=4)",
    "Interval": "Interval(lo=0.125, hi=0.25)",
    "ChebSeries": "ChebSeries(values=(1.0, 0.5))",
    "Certificate": "Certificate(n=4, ratio_bound=Fraction(4, 25), cond_unit_quadratic=True, "
                   "cond_shifted_quadratic=True, cond_leading_positive=True, verdict='accepted')",
    "QuadraticInE": "QuadraticInE(a2=1.0, a1=-0.5, a0=0.25)",
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    record, _ = RECORDS[name]
    assert repr(record) == REPRS[name]


def test_the_returned_records_print_as_before():
    assert repr(sign_certificate(4)) == REPRS["Certificate"]
    assert repr(cheb_sandwich(2, -2.0)) == (
        "Enclosure(x=-2.0, lower=-0.24686125754465466, upper=0.28414006533843716, "
        "lower_degree=3, upper_degree=4)"
    )
    assert repr(partial_sum(1)) == "ChebSeries(values=(1.2660658777520084, 1.13031820798497))"


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction_agree(name):
    record, fields = RECORDS[name]
    # a series takes any sequence of coefficients as ``coeffs`` and keeps
    # them as ``values``
    kwargs = {"coeffs": list(fields["values"])} if name == "ChebSeries" else fields
    assert type(record)(**kwargs) == record
    assert {f: getattr(record, f) for f in fields} == fields
    # a record unpacks to its fields and equals the plain tuple of them
    assert tuple(record) == tuple(fields.values()) == record


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hashing_go_by_the_fields(name):
    record, fields = RECORDS[name]
    twin = type(record)(*fields.values())
    assert twin == record and hash(twin) == hash(record) == hash(tuple(fields.values()))
    assert len({record, twin}) == 1
    assert OTHERS[name] != record and hash(OTHERS[name]) != hash(record)


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_raises_attribute_error(name):
    record, fields = RECORDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert tuple(record) == tuple(fields.values())


def test_a_series_refuses_new_attributes_and_a_swapped_array():
    s = ChebSeries((1.0, 0.5))
    with pytest.raises(AttributeError):
        s.coeffs = None
    with pytest.raises(AttributeError):
        s.extra = 1
    assert not s.coeffs.flags.writeable


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record, _ = RECORDS[name]
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


def test_enclosure_checks_its_degree_pairing():
    with pytest.raises(ValueError, match="degree pairing"):
        Enclosure(-2.0, 0.25, 0.5, 3, 5)
    with pytest.raises(ValueError, match="degree pairing"):
        Enclosure(x=-2.0, lower=0.25, upper=0.5, lower_degree=4, upper_degree=4)


@pytest.mark.parametrize("lo, hi, message", [
    (2.0, 1.0, "out of order"),
    (0.0, math.inf, "finite"),
    (-math.inf, 0.0, "finite"),
    (math.nan, 1.0, "finite"),
])
def test_interval_checks_its_endpoints(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        Interval(lo, hi)


@pytest.mark.parametrize("coeffs, message", [
    ((), "at least one"),
    ([], "at least one"),
    ((1.0, math.nan), "finite"),
    ((math.inf,), "finite"),
])
def test_series_checks_its_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=message):
        ChebSeries(coeffs)


def test_make_and_replace_keep_the_checks():
    with pytest.raises(ValueError, match="degree pairing"):
        cheb_sandwich(8, -5.0)._replace(upper_degree=9)
    with pytest.raises(ValueError, match="out of order"):
        Interval._make([2.0, 1.0])
    with pytest.raises(ValueError, match="at least one"):
        partial_sum(3)._replace(values=())
    with pytest.raises(ValueError, match="finite"):
        ChebSeries._make([(math.inf,)])
    # a valid replacement still builds a checked record of the same type
    enc = cheb_sandwich(8, -5.0)._replace(x=-6.0)
    assert type(enc) is Enclosure and enc.x == -6.0
    assert Interval._make([1.0, 2.0]) == Interval(1.0, 2.0)
    assert ChebSeries._make([(1, 2)]).values == (1.0, 2.0)


@pytest.mark.parametrize("route", [
    lambda s: pickle.loads(pickle.dumps(s)),
    lambda s: pickle.loads(pickle.dumps(s, protocol=0)),
    copy.deepcopy,
    copy.copy,
])
def test_a_copied_series_keeps_a_read_only_array(route):
    s = partial_sum(6)
    assert not s.coeffs.flags.writeable
    twin = route(s)
    assert twin == s and type(twin) is ChebSeries
    assert not twin.coeffs.flags.writeable
    assert twin.coeffs.tolist() == list(s.values)
    with pytest.raises(ValueError):
        twin.coeffs[0] = 0.0
