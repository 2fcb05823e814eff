import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adasearch import (
    NotSortedError,
    ParseError,
    SortedDataset,
    fingerprint,
    load_dataset,
)


def test_load_paper_listing_values():
    ds = load_dataset(io.StringIO("2\n3\n4\n10\n40"))
    assert len(ds) == 5
    assert ds.values == (2, 3, 4, 10, 40)


def test_load_empty_stream():
    ds = load_dataset(io.StringIO(""))
    assert len(ds) == 0


def test_load_rejects_descent():
    with pytest.raises(NotSortedError) as exc:
        load_dataset(io.StringIO("5\n3"))
    assert exc.value.index == 1


def test_load_malformed_line_reports_position():
    with pytest.raises(ParseError) as exc:
        load_dataset(io.StringIO("1\n2\nxyz\n4"))
    assert exc.value.line_no == 3
    assert exc.value.text == "xyz"


def test_load_out_of_range_literal():
    with pytest.raises(OverflowError):
        load_dataset(io.StringIO(str(2**63)))
    with pytest.raises(OverflowError):
        load_dataset(io.StringIO(str(-(2**63) - 1)))


@pytest.mark.parametrize("literal", ["1_000", "\u0661\u0662", "\uff15\uff10"])
def test_load_rejects_what_int_accepts_beyond_the_format(literal):
    with pytest.raises(ParseError) as exc:
        load_dataset(io.StringIO(f"1\n{literal}\n"))
    assert exc.value.line_no == 2


def test_load_tolerates_crlf_and_blank_lines():
    ds = load_dataset(io.StringIO("1\r\n\n  \n2\r\n3\n"))
    assert ds.values == (1, 2, 3)


def test_duplicates_permitted():
    ds = load_dataset(io.StringIO("1\n1\n2"))
    assert ds.values == (1, 1, 2)


def test_fingerprint_deterministic_and_content_sensitive():
    assert fingerprint([1, 2, 3]) == fingerprint([1, 2, 3])
    assert fingerprint([1, 2, 3]) != fingerprint([1, 2, 4])
    assert fingerprint([]) == fingerprint([])


def test_fingerprint_golden_digests():
    # the little-endian int64 encoding is the identity; any change to it shows here
    assert fingerprint([1, 2, 3]).hex() == "abccad42d03c940bc2b249bf5a4e1e3d"
    assert fingerprint([]).hex() == "cae66941d9efbd404e4d88758ea67670"


def test_fingerprint_input_form_irrelevant():
    for n in (0, 1, 64, 65, 200):
        vals = list(range(n))
        assert fingerprint(vals) == fingerprint(np.array(vals, dtype=np.int64))
        assert fingerprint(vals) == fingerprint(tuple(vals))


def test_id_stable_across_loads():
    a = load_dataset(io.StringIO("1\n2\n3"))
    b = load_dataset(io.StringIO("1\n2\n3\n"))
    assert a.id == b.id


def test_round_trip():
    ds = load_dataset(io.StringIO("-5\n0\n0\n17"))
    buf = io.StringIO()
    ds.dump(buf)
    again = load_dataset(io.StringIO(buf.getvalue()))
    assert again.values == ds.values
    assert again.id == ds.id


def test_immutability():
    ds = SortedDataset.from_values([1, 2])
    with pytest.raises(AttributeError):
        ds.values = (9,)


def values_built(ds):
    """Whether ds.values is set, read without building it."""
    try:
        SortedDataset.values.__get__(ds)
    except AttributeError:
        return False
    return True


def test_array_is_read_only_and_detached_from_its_source():
    src = np.array([3, 5, 5, 9], dtype=np.int64)
    ds = SortedDataset.from_values(src)
    src[0] = 100  # before values is first read
    assert ds.values == (3, 5, 5, 9)
    assert ds.id == SortedDataset.from_values([3, 5, 5, 9]).id
    for d in (ds, SortedDataset.from_values([3, 5]), load_dataset(io.StringIO("3\n5\n"))):
        assert d.array.dtype == np.int64
        assert not d.array.flags.writeable
        with pytest.raises(ValueError):
            d.array[0] = 7
    with pytest.raises(AttributeError):
        ds.array = src


def test_values_built_on_first_read_from_an_array():
    arr = np.array([-(2**63), -1, 0, 0, 2**63 - 1], dtype=np.int64)
    ds = SortedDataset.from_sorted_array(arr)
    assert not values_built(ds)
    assert len(ds) == 5 and repr(ds).startswith("SortedDataset(len=5,")
    assert not values_built(ds)
    values = ds.values
    assert values == tuple(arr.tolist())
    assert {type(v) for v in values} == {int}
    assert values_built(ds) and ds.values is values
    assert type(ds) is SortedDataset
    # Python ints are kept as given, not rebuilt from the array
    assert values_built(SortedDataset.from_values([1, 2]))
    with pytest.raises(AttributeError):
        ds.missing


def test_from_sorted_array_matches_from_values():
    arr = np.array([3, 5, 5, 9], dtype=np.int64)
    assert SortedDataset.from_sorted_array(arr).id == SortedDataset.from_values([3, 5, 5, 9]).id


@pytest.mark.parametrize("values,index", [([1.5, 2.7], 0), ([1, 2.5, 3], 1),
                                          (np.array([1.0, 2.25]), 1),
                                          ([float("nan")], 0), ([1, 2, float("nan")], 2),
                                          (np.array([0.0, np.nan]), 1)])
def test_non_integral_values_rejected(values, index):
    with pytest.raises(ValueError, match=f"index {index} is not an integer"):
        SortedDataset.from_values(values)


@pytest.mark.parametrize("values,index", [([float("inf")], 0), ([1, float("-inf")], 1),
                                          (np.array([0.0, 1.0, np.inf]), 2)])
def test_infinite_values_overflow(values, index):
    with pytest.raises(OverflowError, match=f"value at index {index} exceeds 64-bit range"):
        SortedDataset.from_values(values)


def test_integral_non_int_values_become_ints():
    ds = SortedDataset.from_values([True, 2.0, np.int64(3), 4])
    assert ds.values == (1, 2, 3, 4)
    assert {type(v) for v in ds.values} == {int}
    assert ds.id == SortedDataset.from_values([1, 2, 3, 4]).id


def test_from_sorted_array_rejects_descent():
    with pytest.raises(NotSortedError):
        SortedDataset.from_sorted_array(np.array([1, 3, 2], dtype=np.int64))


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=50))
def test_accepts_every_nondecreasing_sequence(xs):
    xs.sort()
    ds = SortedDataset.from_values(xs)
    assert list(ds.values) == xs


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=50))
def test_rejects_every_sequence_with_a_descent(xs):
    if all(a <= b for a, b in zip(xs, xs[1:])):
        SortedDataset.from_values(xs)  # must accept
    else:
        with pytest.raises(NotSortedError):
            SortedDataset.from_values(xs)


def test_int64_extremes_accepted_by_every_constructor():
    extremes = [-(2**63), 2**63 - 1]
    a = SortedDataset.from_values(extremes)
    b = SortedDataset.from_sorted_array(np.array(extremes, dtype=np.int64))
    assert a.values == b.values == tuple(extremes)
    assert a.id == b.id


INT64_EDGES = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]


@given(st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT64_EDGES),
                          st.integers(-(2**70), 2**70)),
                max_size=12),
       st.booleans())
def test_list_array_and_text_constructors_agree(xs, presort):
    if presort:
        xs.sort()
    try:
        arr = np.array(xs, dtype=np.int64)
    except OverflowError:
        arr = np.array(xs, dtype=object)
    text = "".join(f"{v}\n" for v in xs)

    def build(make):
        try:
            ds = make()
        except (OverflowError, NotSortedError) as exc:
            return type(exc), str(exc)
        assert all(type(v) is int for v in ds.values)
        assert ds.array.dtype == np.int64 and not ds.array.flags.writeable
        return ds.values, ds.array.tolist(), ds.id

    from_list = build(lambda: SortedDataset.from_values(xs))
    assert build(lambda: SortedDataset.from_values(arr)) == from_list
    assert build(lambda: load_dataset(io.StringIO(text))) == from_list
