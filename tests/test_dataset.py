import copy
import io
import pickle
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adasearch import (
    DistributionSpec,
    NotSortedError,
    ParseError,
    SearchEngine,
    SortedDataset,
    generate,
    load_dataset,
)
import adasearch.dataset as dataset
from adasearch.dataset import _key, fingerprint


def test_load_paper_listing_values():
    ds = load_dataset(io.StringIO("2\n3\n4\n10\n40"))
    assert len(ds) == 5
    assert tuple(ds.values) == (2, 3, 4, 10, 40)


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
    assert tuple(ds.values) == (1, 2, 3)


def test_duplicates_permitted():
    ds = load_dataset(io.StringIO("1\n1\n2"))
    assert tuple(ds.values) == (1, 1, 2)


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
    assert a == b and a.array.tolist() == b.array.tolist() == [1, 2, 3]


def test_round_trip():
    ds = load_dataset(io.StringIO("-5\n0\n0\n17"))
    buf = io.StringIO()
    ds.dump(buf)
    again = load_dataset(io.StringIO(buf.getvalue()))
    assert again.values == ds.values
    assert again == ds


def test_immutability():
    ds = SortedDataset.from_values([1, 2])
    with pytest.raises(AttributeError):
        ds.values = (9,)


def loaded_in_one_pass(ds, read):
    """Whether ds holds, as its own array, what a one-pass read returned."""
    return read is not None and ds.array.base is read


def test_no_constructor_fingerprints(fingerprint_calls, canonical_reads):
    """A dataset is named by its keys: no construction, and no use of a
    dataset after it (register, search, report, repr, == and hash), calls
    dataset.fingerprint."""
    made = {
        "generate": generate(DistributionSpec("uniform", 500, 3)),
        "load, one pass": load_dataset(io.StringIO("-5\n0\n0\n17\n")),
        "load, line loop": load_dataset(io.StringIO("-5\r\n0\n\n17")),
        "from_values, ints": SortedDataset.from_values([1, 2, 2]),
        "from_values, array": SortedDataset.from_values(np.array([1, 2, 2], dtype=np.int64)),
        "from_sorted_array": SortedDataset.from_sorted_array(np.array([4, 5], dtype=np.int64)),
    }
    assert len(canonical_reads) == 2 and canonical_reads[1] is None
    assert loaded_in_one_pass(made["load, one pass"], canonical_reads[0])
    for name, round_trip in ROUND_TRIPS.items():
        made[name] = round_trip(made["from_values, ints"])
    engine = SearchEngine()
    for name, ds in made.items():
        twin = SortedDataset.from_values(ds.array.tolist())
        reg = engine.register(ds)
        engine.search(reg, int(ds.array[0])), engine.search(reg, 3)
        assert engine.register(twin) is reg and ds == twin and hash(ds) == hash(twin), name
        assert repr(ds) == f"SortedDataset(len={len(ds)}, first={ds.array[0]}, last={ds.array[-1]})"
    assert repr(SortedDataset.from_values([])) == "SortedDataset(len=0)"
    assert len(engine.report().registrations) == 5  # the copies of [1, 2, 2] share one
    assert fingerprint_calls == []


def test_array_is_read_only_and_detached_from_its_source():
    src = np.array([3, 5, 5, 9], dtype=np.int64)
    ds = SortedDataset.from_values(src)
    src[0] = 100
    assert tuple(ds.values) == (3, 5, 5, 9)
    assert ds == SortedDataset.from_values([3, 5, 5, 9])
    for d in (ds, SortedDataset.from_values([3, 5]), load_dataset(io.StringIO("3\n5\n"))):
        assert d.array.dtype == np.int64
        assert not d.array.flags.writeable
        with pytest.raises(ValueError):
            d.array[0] = 7
    with pytest.raises(AttributeError):
        ds.array = src


def test_from_sorted_array_matches_from_values():
    arr = np.array([3, 5, 5, 9], dtype=np.int64)
    ds = SortedDataset.from_sorted_array(arr)
    assert ds == SortedDataset.from_values([3, 5, 5, 9]) and ds.array.tolist() == [3, 5, 5, 9]


@pytest.mark.parametrize("values,index", [([1.5, 2.7], 0), ([1, 2.5, 3], 1),
                                          (np.array([1.0, 2.25]), 1),
                                          ([float("nan")], 0), ([1, 2, float("nan")], 2),
                                          (np.array([0.0, np.nan]), 1),
                                          # values int() cannot take, and the first bad value named
                                          ([None], 0), ([[1, 2], [3, 4]], 0), ([1, [1, 2]], 1), (["x"], 0),
                                          ([1, 2, "x"], 2), (["5", None], 0),
                                          ([1.5, float("nan")], 0), ([1.5, 2**63], 0),
                                          ((v for v in (1, 1.5, 2)), 1)])
def test_non_integral_values_rejected(values, index):
    with pytest.raises(ValueError, match=f"index {index} is not an integer"):
        SortedDataset.from_values(values)


@pytest.mark.parametrize("values,index", [([float("inf")], 0), ([1, float("-inf")], 1),
                                          (np.array([0.0, 1.0, np.inf]), 2)])
def test_infinite_values_overflow(values, index):
    with pytest.raises(OverflowError, match=f"value at index {index} exceeds 64-bit range"):
        SortedDataset.from_values(values)


@pytest.mark.parametrize("values,index", [([-(2**63), 2**63], 1), ([2**63 - 1, 2**63], 1),
                                          ([-(2**63) - 1, 0], 0), ([0, -(2**63), 2**64], 2),
                                          ([2**63, 1.5], 0), ([-(2**63) - 1, None], 0),
                                          (range(2**63 - 2, 2**63 + 1), 2)])
def test_out_of_range_value_is_located_past_the_int64_ends(values, index):
    with pytest.raises(OverflowError, match=f"value at index {index} exceeds 64-bit range"):
        SortedDataset.from_values(values)


def test_a_non_int64_array_is_judged_by_its_python_values():
    # tolist() first: the message names the value as the caller wrote it, not np.float64(1.5)
    with pytest.raises(ValueError) as info:
        SortedDataset.from_values(np.array([1.5]))
    assert str(info.value) == "value at index 0 is not an integer: 1.5"


def test_only_numpys_int64_conversion_skips_the_key_rule(monkeypatch):
    """An all-int list, a range and an int64 array become one int64 array in
    numpy's single conversion; anything else is judged value by value."""
    def refuse(i, v):
        raise AssertionError(f"_key called on index {i}")

    monkeypatch.setattr(dataset, "_key", refuse)
    for values in ([-(2**63), 5, 2**63 - 1], range(0, 300, 7), np.array([1, 2, 2], dtype=np.int64)):
        ds = SortedDataset.from_values(values)
        assert ds.array.dtype == np.int64 and not np.shares_memory(ds.array, values)
    judged = []
    monkeypatch.setattr(dataset, "_key", lambda i, v: judged.append(i) or _key(i, v))
    assert SortedDataset.from_values([1, 2.0, 3, 4]).array.tolist() == [1, 2, 3, 4]
    assert judged == [0, 1, 2, 3]


def test_integral_non_int_values_become_ints():
    ds = SortedDataset.from_values([True, 2.0, np.int64(3), 4])
    assert tuple(ds.values) == (1, 2, 3, 4)
    assert {type(v) for v in ds.values} == {int}
    assert ds == SortedDataset.from_values([1, 2, 3, 4]) == SortedDataset.from_values(v for v in ds.values)


@pytest.mark.parametrize("keys", [np.array([[1, 2], [3, 4]], dtype=np.int64), np.array(5, dtype=np.int64),
                                  np.array([[1, 2], [3, 4]], dtype=np.int32)])
def test_an_array_that_is_not_1d_is_refused(keys):
    # refused before any copy: a 2-D int64 array would make a dataset no kernel can search
    for build in (SortedDataset.from_values, SortedDataset.from_sorted_array):
        with pytest.raises(ValueError, match=re.escape(f"shape {keys.shape}")):
            build(keys)


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
    assert tuple(a.values) == tuple(b.values) == tuple(extremes)
    assert a == b


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
        return ds.values, ds.array.tolist()

    from_list = build(lambda: SortedDataset.from_values(xs))
    assert build(lambda: SortedDataset.from_values(arr)) == from_list
    assert build(lambda: load_dataset(io.StringIO(text))) == from_list


def key_rule_outcome(values):
    """from_values' reference: `_key` on each value in index order, then the
    descent check; the keys, or the exception's type and message."""
    try:
        keys = [_key(i, v) for i, v in enumerate(values)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    descents = [i for i in range(1, len(keys)) if keys[i] < keys[i - 1]]
    return (NotSortedError, f"values decrease at index {descents[0]}") if descents else keys


MIXED_VALUES = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT64_EDGES), st.integers(-(2**70), 2**70),
    st.integers(-(2**53), 2**53).map(float), st.floats(), st.booleans(),
    st.integers(-(2**31), 2**31 - 1).map(np.int32), st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats().map(np.float64), st.text(max_size=2), st.none(),
    st.lists(st.integers(-3, 3), max_size=2))


@given(st.lists(MIXED_VALUES, max_size=6))
@example([2**63, -1])  # numpy infers float64
@example([[1, 2], [3, 4]])  # a 2-D int64 array
@example([1, [1, 2]])  # ragged: numpy raises ValueError
@example([np.uint64(2**63), 1])
@example([float("nan"), float("inf")])
def test_from_values_is_the_key_rule_over_mixed_values(values):
    try:
        ds = SortedDataset.from_values(values)
    except (ValueError, OverflowError, NotSortedError) as exc:
        assert (type(exc), str(exc)) == key_rule_outcome(values)
    else:
        assert ds.array.tolist() == key_rule_outcome(values)
        assert ds.array.dtype == np.int64 and all(type(v) is int for v in ds.values)


def load_by_lines(stream):
    """load_dataset's line loop, copied as the reference its one-pass path must match."""
    values = []
    for line_no, raw in enumerate(stream, start=1):
        if "_" in raw or not raw.isascii():
            raise ParseError(line_no, raw.rstrip("\r\n"))
        try:
            values.append(int(raw, 10))
        except ValueError:
            if raw.strip():
                raise ParseError(line_no, raw.rstrip("\r\n")) from None
    return SortedDataset.from_values(tuple(values))


def load_outcome(load, make_stream):
    with make_stream() as stream:
        try:
            ds = load(stream)
        except Exception as exc:
            return type(exc), str(exc)
    assert ds.array.dtype == np.int64 and not ds.array.flags.writeable
    assert all(type(v) is int for v in ds.values)
    return ds.values, ds.array.tolist()


# around the edges of int64 and of the 18 digits the one-pass parse accepts
WIDE_LITERALS = [str(v) for v in (10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1, 10**19,
                                  -(10**18 - 1), -(10**18), -(2**63), -(2**63) - 1, -(10**19))]
HOSTILE_LINES = ["", " ", "\t", "\r", "-", "+", "+5", "--5", "5-3", "-5-", "1_000", "\u0661\u0662",
                 "\uff15", "\u00b2", "1 2", " 7", "7 ", "\t8\t", "-0", "007", "-007", "0x10", "1.5",
                 "1e3", "\x0b3", "3\x0c", "3\x1c", "\x85", "4\u2028", "nan"]
line = st.one_of(st.integers(-(2**64), 2**64).map(str), st.sampled_from(WIDE_LITERALS),
                 st.sampled_from(HOSTILE_LINES))


@st.composite
def dataset_texts(draw):
    """Canonical texts of sorted ints, some with one line spoiled, and free mixes of
    canonical and hostile lines, each line ending in LF or CRLF, the last maybe in neither."""
    if draw(st.booleans()):
        lines = [str(v) for v in sorted(draw(st.lists(st.integers(-(10**18 - 1), 10**18 - 1), max_size=20)))]
        if lines and draw(st.booleans()):
            lines[draw(st.integers(0, len(lines) - 1))] = draw(line)
    else:
        lines = draw(st.lists(line, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(v + e for v, e in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


@settings(max_examples=500, deadline=None)
@given(dataset_texts())
@example("")
@example("\n")
@example(" \n")  # numpy reads a blank line as 0
@example("-\n")
@example("  \n\t\n")
@example("1\n\n2\n")
@example("\n1\n")
@example("1\n-\n2\n")  # numpy reads "-\n2" as -2
@example("7-\n8\n")
@example("-5-\n3\n")
@example("+5\n")
@example("1 2\n")
@example("1\n2")
@example("5\n3\n")
@example("99999999999999999999\n")
@example("9223372036854775808\n")
@example("-9223372036854775809\n")
@example("\n\n")  # numpy reads it as one 0, of the same length
# a leading zero next to an overflowing line: the short line and the long one
@example("007\n9223372036854775808\n")
@example("9223372036854775808\n-0\n")
@example("-0\n99999999999999999999\n")
@example("0100\n-9223372036854775809\n")
def test_load_matches_the_line_loop(text):
    expected = load_outcome(load_by_lines, lambda: io.StringIO(text))
    assert load_outcome(load_dataset, lambda: io.StringIO(text)) == expected


def test_canonical_text_is_parsed_in_one_pass(tmp_path, canonical_reads):
    ds = generate(DistributionSpec("uniform", 2000, 5, {"lo": -(10**18) + 1, "hi": 10**18 - 1}))
    path = tmp_path / "keys.txt"
    with open(path, "w", encoding="utf-8") as f:
        ds.dump(f)
    with open(path, encoding="utf-8") as f:
        loaded = load_dataset(f)
        assert f.read() == ""  # left at the end, as the loop leaves it
    assert loaded_in_one_pass(loaded, canonical_reads[-1])
    assert loaded == ds and loaded.values == ds.values
    assert loaded_in_one_pass(load_dataset(io.StringIO("-5\n0\n0\n17\n")), canonical_reads[-1])
    # CRLF, translated to LF by a file opened in the default newline mode
    path.write_bytes(b"-3\r\n4\r\n")
    with open(path, encoding="utf-8") as f:
        assert loaded_in_one_pass(load_dataset(f), canonical_reads[-1])
    # a 19-digit line is left to the loop even when it is in range
    assert tuple(load_dataset(io.StringIO(f"{2**63 - 1}\n")).values) == (2**63 - 1,)
    assert canonical_reads[-1] is None and len(canonical_reads) == 4


ONE_PASS = [f"{-(10**18 - 1)}\n{10**18 - 1}\n", "0\n", "5\n5\n5\n", "-9\n-9\n-3\n", "-3\n-1\n",
            f"{-(10**18 - 1)}\n-1\n0\n7\n10\n99\n100\n{10**17}\n{10**18 - 1}\n"]
TO_THE_LOOP = ["007\n", "-0\n", "0\n00\n", "-007\n5\n", "1\n\n2\n", "\n5\n", "5\n\n", "\n\n", "-\n5\n",
               "5\n-\n", f"{10**18}\n", f"{-(10**18)}\n", f"{2**63 - 1}\n", f"{-(2**63)}\n", f"1\n{10**18}\n"]


@pytest.mark.parametrize("text", ONE_PASS)
def test_canonical_text_takes_the_one_pass(text, canonical_reads):
    ds = load_dataset(io.StringIO(text))
    assert loaded_in_one_pass(ds, canonical_reads[-1]) and len(canonical_reads) == 1
    assert ds.values == load_by_lines(io.StringIO(text)).values


@pytest.mark.parametrize("text", TO_THE_LOOP)
def test_other_literals_take_the_line_loop(text, canonical_reads):
    """Leading zeros, "-0", blank lines, a lone "-" and keys of 19 digits."""
    assert load_outcome(load_dataset, lambda: io.StringIO(text)) == load_outcome(
        load_by_lines, lambda: io.StringIO(text))
    assert canonical_reads[-1] is None


def test_unsorted_canonical_text_fails_in_one_pass(canonical_reads):
    keys = list(range(-20, 300, 7))
    keys[30], keys[31] = keys[31], keys[30]
    text = "".join(f"{k}\n" for k in keys)
    with pytest.raises(NotSortedError) as one_pass:
        load_dataset(io.StringIO(text))
    assert isinstance(canonical_reads[-1], np.ndarray) and canonical_reads[-1].tolist() == keys
    with pytest.raises(NotSortedError) as loop:
        load_by_lines(io.StringIO(text))
    assert one_pass.value.index == loop.value.index == 31


@pytest.mark.parametrize("line, misread", [("1234567890123456789", -123456789012345678),
                                            ("9999999999999999999", -999999999999999999)])
def test_a_sign_that_numpy_flips_sends_the_text_to_the_loop(monkeypatch, canonical_reads, line, misread):
    """Were numpy to read a 19-digit line as an 18-digit negative key, the key's
    text would be as long as the line: the sign count refuses it, whatever
    numpy does on overflow."""
    fromstring = np.fromstring

    def misreading(raw, dtype, sep):
        return fromstring(raw.replace(line.encode(), str(misread).encode()), dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", misreading)
    text = f"{line}\n"
    assert load_outcome(load_dataset, lambda: io.StringIO(text)) == load_outcome(
        load_by_lines, lambda: io.StringIO(text))
    assert canonical_reads[-1] is None


def test_streams_the_one_pass_read_must_not_misread(tmp_path):
    def same_as_loop(make_stream):
        assert load_outcome(load_dataset, make_stream) == load_outcome(load_by_lines, make_stream)

    # newline="\r" splits lines at CR only, so "1\n2\n" is one malformed line
    same_as_loop(lambda: io.TextIOWrapper(io.BytesIO(b"1\n2\n"), encoding="utf-8", newline="\r"))
    # invalid UTF-8 past the first decoded chunk, after a malformed line: the loop reports the line
    keys = "".join(f"{i}\n" for i in range(5000)).encode()
    for data in (b"1\nxyz\n" + keys + b"\xff\n", keys + b"\xc3\x28\n", b"\xff1\n"):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        same_as_loop(lambda: open(path, encoding="utf-8"))
    # a file read part way through iteration cannot tell its position: the loop goes on from there
    path.write_bytes(b"9\n1\n2\n")

    def after_first_line():
        f = open(path, encoding="utf-8")
        next(f)
        return f
    same_as_loop(after_first_line)
    assert tuple(load_dataset(iter(["1\n", "2\n"])).values) == (1, 2)


def dataset_forms():
    yield SortedDataset.from_values([-(2**63), 0, 0, 2**63 - 1])
    yield SortedDataset.from_values(np.array([3, 5, 5, 9], dtype=np.int64))
    yield load_dataset(io.StringIO("-5\n0\n0\n17\n"))
    yield SortedDataset.from_values([])


ROUND_TRIPS = {"pickle": lambda d: pickle.loads(pickle.dumps(d)), "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_pickle_and_copy_round_trip(round_trip):
    for ds in dataset_forms():
        again = round_trip(ds)
        assert again == ds
        assert again.values == ds.values
        assert again.array.tolist() == ds.array.tolist()
        assert again.array.dtype == np.int64 and not again.array.flags.writeable


def make_dataset(how, canonical_reads):
    """A dataset made the named way, and the caller's source it was made from
    (None when the caller holds nothing it could change)."""
    if how == "from_values, ints":
        src = [-(2**63), 0, 0, 2**63 - 1]
        return SortedDataset.from_values(src), src
    if how == "from_values, integral non-ints":
        src = [True, 2.0, np.int64(3), 4]
        return SortedDataset.from_values(src), src
    if how == "load, one pass":
        ds = load_dataset(io.StringIO("-5\n0\n0\n17\n"))
        assert loaded_in_one_pass(ds, canonical_reads[-1])
        return ds, None
    if how == "load, line loop":
        ds = load_dataset(io.StringIO("-5\r\n0\n\n17"))
        assert canonical_reads[-1] is None
        return ds, None
    if how == "generate":
        return generate(DistributionSpec("uniform", 500, 3)), None
    src = np.array([-(2**63), -1, 0, 0, 2**63 - 1], dtype=np.int64)
    ds = SortedDataset.from_values(src)
    if how == "from_values, int64 array":
        return ds, src
    again = ROUND_TRIPS[how](ds)
    assert not np.shares_memory(again.array, ds.array)
    return again, None


CONSTRUCTIONS = ["from_values, ints", "from_values, integral non-ints", "from_values, int64 array",
                 "load, one pass", "load, line loop", "generate", *ROUND_TRIPS]


@pytest.mark.parametrize("how", CONSTRUCTIONS)
def test_values_is_a_read_only_view_of_the_array(how, canonical_reads):
    """No dataset holds its keys as Python ints: `values` is a read-only
    memoryview of its own array, whose elements read as ints."""
    ds, source = make_dataset(how, canonical_reads)
    assert type(ds) is SortedDataset and type(ds.values) is memoryview
    assert ds.values.obj is ds.array and ds.values.readonly
    with pytest.raises(TypeError):
        ds.values[0] = 0
    keys = ds.array.tolist()
    assert all(type(v) is int for v in ds.values) and list(ds.values) == keys
    if source is not None:
        source[0] = 7
    assert ds.values.tolist() == ds.array.tolist() == keys


@pytest.mark.parametrize("how", CONSTRUCTIONS)
def test_keys_cannot_be_made_writable(how, canonical_reads):
    """The array is a view of a read-only array, so it refuses to become
    writable, and the keys under the registry's hash or a cached answer stay put."""
    ds, _ = make_dataset(how, canonical_reads)
    with pytest.raises(ValueError):
        ds.array.setflags(write=True)
    assert not ds.array.flags.writeable and ds.values.readonly


def test_keys_under_a_cached_answer_cannot_change():
    ds = SortedDataset.from_values([1, 5, 9])
    engine = SearchEngine()
    reg = engine.register(ds)
    assert engine.search(reg, 5).outcome.index == 1
    with pytest.raises(ValueError):
        ds.array.setflags(write=True)
    with pytest.raises(ValueError):
        ds.array[1] = 7
    assert list(ds.values) == ds.array.tolist() == [1, 5, 9]
    assert engine.search(reg, 5).outcome.index == 1


def test_first_search_after_a_load_copies_no_keys():
    """The scalar kernels read the keys in place: the first query after a load
    allocates its own result and nothing the size of the dataset."""
    buf = io.StringIO()
    generate(DistributionSpec("uniform", 2**16, 11)).dump(buf)
    engine = SearchEngine()
    reg = engine.register(load_dataset(io.StringIO(buf.getvalue())))
    tracemalloc.start()
    try:
        engine.search(reg, 12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_loads_in_threads_leave_the_warning_filters_alone(canonical_reads):
    text = "".join(f"{i}\n" for i in range(20000))
    before = list(warnings.filters)
    loaded = []

    def load_many():
        for _ in range(20):
            loaded.append(load_dataset(io.StringIO(text)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(loaded) == len(canonical_reads) == 80
    assert {id(ds.array.base) for ds in loaded} == {id(a) for a in canonical_reads if a is not None}
    assert warnings.filters == before
