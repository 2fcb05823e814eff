"""Immutable sorted integer datasets: loading and validation."""

from __future__ import annotations

import hashlib
import io
from typing import IO, Iterable, Sequence

import numpy as np

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class DatasetError(Exception):
    """Base class for dataset loading failures."""


class ParseError(DatasetError):
    def __init__(self, line_no: int, text: str):
        super().__init__(f"line {line_no}: not a base-10 integer: {text!r}")
        self.line_no = line_no
        self.text = text


class NotSortedError(DatasetError):
    def __init__(self, index: int):
        super().__init__(f"values decrease at index {index}")
        self.index = index


def fingerprint(values: Sequence[int] | np.ndarray) -> bytes:
    """The 16-byte blake2b digest of the little-endian int64 encoding of
    values, hashed from the array's buffer without a bytes copy. Nothing in
    the library calls it: a dataset is named by its keys."""
    encoded = np.ascontiguousarray(values, dtype="<i8")
    return hashlib.blake2b(encoded, digest_size=16).digest()


class SortedDataset:
    """A nondecreasing sequence of 64-bit signed integers, held as a read-only
    int64 `array`, a view that cannot be made writable. `values` is a
    read-only memoryview of that array, which the scalar kernels index: each
    element reads as a Python int. Datasets are equal when their keys are;
    the hash reads n and at most 64 evenly strided keys. Immutable after
    construction."""

    __slots__ = ("array", "values")

    array: np.ndarray
    values: memoryview

    def __init__(self, array: np.ndarray):
        # internal: use from_values() / load_dataset(), which validate and make
        # the array read-only first, so that its view is read-only too
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "values", memoryview(array))

    def __setattr__(self, name, value):
        raise AttributeError("SortedDataset is immutable")

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        return isinstance(other, SortedDataset) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        a = self.array
        return hash((len(a), a[::-(-len(a) // 64) or 1].tobytes()))  # every key when n <= 64

    def __repr__(self) -> str:
        a = self.array
        return f"SortedDataset(len={len(a)}" + (f", first={a[0]}, last={a[-1]})" if len(a) else ")")

    def __reduce__(self):
        # the default restores slots through __setattr__, which refuses every write
        return SortedDataset.from_values, (self.array,)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "SortedDataset":
        """Build a dataset, verifying (not assuming) 64-bit range and
        nondecreasing order. An array must be 1-D; an int64 one is copied."""
        if isinstance(values, np.ndarray) and values.ndim != 1:
            raise ValueError(f"keys must be a 1-D array, not one of shape {values.shape}")
        if isinstance(values, np.ndarray) and values.dtype == np.int64:
            return _adopt(values.copy())
        vt = tuple(values.tolist() if isinstance(values, np.ndarray) else values)  # a tuple is not copied
        if set(map(type, vt)) <= {int}:
            try:
                return _adopt(np.fromiter(vt, dtype=np.int64, count=len(vt)))
            except OverflowError:  # an int beyond int64, which _key names below
                pass
        return _adopt(np.fromiter((_key(i, v) for i, v in enumerate(vt)), dtype=np.int64, count=len(vt)))

    # Kept by name for callers that hold an int64 array; validation is identical.
    from_sorted_array = from_values

    def dump(self, stream: IO[str]) -> None:
        """Serialize back to the line-delimited text format."""
        stream.write("".join(f"{v}\n" for v in self.array.tolist()))


def _key(i: int, v) -> int:
    """The int64 key equal to v, the value at index i, or an error that names i."""
    try:
        k = int(v)  # 2.0, True and numpy integers equal theirs; 1.5 and "5" do not
    except OverflowError:  # ±inf
        raise OverflowError(f"value at index {i} exceeds 64-bit range: {v}") from None
    except (TypeError, ValueError):  # NaN, "x", None, a list
        k = None
    if k is None or k != v:
        raise ValueError(f"value at index {i} is not an integer: {v!r}")
    if not INT64_MIN <= k <= INT64_MAX:
        raise OverflowError(f"value at index {i} exceeds 64-bit range: {v}")
    return k


def _adopt(arr: np.ndarray) -> SortedDataset:
    """Finish a dataset from an int64 array that nothing else holds: check the
    order, make the array read-only and keep a view of it, which refuses
    setflags(write=True) as the array itself would not. Every dataset is made
    here; a read-only array is one whose maker has established its order."""
    if arr.flags.writeable:
        descents = (arr[1:] < arr[:-1]).nonzero()[0]
        if len(descents):
            raise NotSortedError(int(descents[0]) + 1)
        arr.setflags(write=False)
    return SortedDataset(arr.view())


_CANONICAL_BYTES = b"0123456789-\n"
_BOUND = 10**18 - 1  # < 2**63: a key within it has at most 18 digits
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _canonical_int64(raw: bytes) -> np.ndarray | None:
    """The values of ASCII text `raw` as a new int64 array, read-only if in
    order, when it is what `dump` writes: one key within ±(10**18 - 1) per
    LF-terminated line, without leading zeros or "-0". Else None.

    np.fromstring alone reads blank lines or a lone "-" as 0, "+5" as 5 and
    "1 2" as two values, so the bytes are checked until every line is one
    `-?[0-9]+`. No such line is shorter than the canonical text of its value,
    so the parsed keys' canonical lengths add up to len(raw) only if every
    line is canonical. numpy reads a line beyond int64 (19+ digits), however
    it overflows, as a key past the bound or as one that is as long only if
    its sign differs from the line's, which the sign count refuses."""
    if not raw.endswith(b"\n") or raw.translate(None, _CANONICAL_BYTES):  # the empty text too
        return None
    # no blank line: none first, and no LF pair (0x0A0A as a uint16) at an even or odd offset
    if (raw.startswith(b"\n") or (np.frombuffer(raw, np.uint16, len(raw) // 2) == 0x0A0A).any()
            or (np.frombuffer(raw, np.uint16, (len(raw) - 1) // 2, 1) == 0x0A0A).any()):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    signs = np.flatnonzero(b == ord("-")) if b"-" in raw else np.zeros(0, np.intp)
    # every "-" follows an LF (for one at offset 0, b[-1] is the final LF) and precedes a digit
    if not (b[signs - 1] == ord("\n")).all() or (b[signs + 1] == ord("\n")).any():
        return None
    # No warnings.catch_warnings() here: it swaps the process-wide filter list,
    # and loads in two threads can leave every warning an error. numpy 2
    # raises on data it cannot read; numpy 1.x warns and returns the values
    # before it, which the length check below rejects.
    try:
        arr = np.fromstring(raw, dtype=np.int64, sep="\n")
    except ValueError:
        return None
    ordered = not (arr[1:] < arr[:-1]).any()
    keys, n = arr if ordered else np.sort(arr), len(arr)  # unsorted text ends in NotSortedError
    # bisected: the keys below -_BOUND, below 0 and up to _BOUND, and at or past ±10**1..18
    low, neg, high = np.searchsorted(keys, (-_BOUND, 0, _BOUND + 1)).tolist()
    wide = int((np.searchsorted(keys, -_POW10, "right") + n - np.searchsorted(keys, _POW10)).sum())
    if low or high != n or neg != len(signs) or 2 * n + neg + wide != len(raw):
        return None
    arr.setflags(write=not ordered)
    return arr


def _read_canonical(stream: IO[str]) -> np.ndarray | None:
    """The values of a rewindable text stream whose text is canonical, read
    in one pass. Otherwise None, with the stream back where it started."""
    if not (isinstance(stream, io.TextIOBase) and stream.seekable()):
        return None
    try:
        start = stream.tell()
    except OSError:  # a text file part way through iteration cannot tell its position
        return None
    arr = None
    try:
        # the stream's own line split: not at LF in every newline mode
        first = stream.readline()
        stream.seek(start)
        text = stream.read()
    except UnicodeDecodeError:  # the loop raises it again, where it meets it
        pass
    else:
        if text.isascii() and len(first) == text.find("\n") + 1:
            raw = text.encode("ascii")
            del text  # the check and the parse read only the bytes
            arr = _canonical_int64(raw)
    if arr is None:
        stream.seek(start)
    return arr


def load_dataset(stream: IO[str]) -> SortedDataset:
    """Parse the line-delimited integer format: one ASCII base-10 signed
    64-bit integer per line, LF separated (CR stripped), whitespace-only
    lines ignored. Range and order are verified, never assumed.

    Canonical text, as `dump` writes it, is parsed in one numpy call into an
    int64 array. Any other text, and a stream that cannot be rewound, goes
    through the line loop below, so every accepted value and every error are
    the loop's."""
    arr = _read_canonical(stream)
    if arr is not None:
        return _adopt(arr)
    values = []
    for line_no, raw in enumerate(stream, start=1):
        # int() also accepts digit separators and non-ASCII digits; the format does not
        if "_" in raw or not raw.isascii():
            raise ParseError(line_no, raw.rstrip("\r\n"))
        try:
            values.append(int(raw, 10))  # int() skips surrounding whitespace, CR and LF too
        except ValueError:
            if raw.strip():
                raise ParseError(line_no, raw.rstrip("\r\n")) from None
    return SortedDataset.from_values(values)
