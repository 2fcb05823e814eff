"""Immutable sorted integer datasets: loading, validation, fingerprinting."""

from __future__ import annotations

import hashlib
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
_INFINITIES = (float("inf"), float("-inf"))


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


class DatasetId(NamedTuple):
    """Content fingerprint of a dataset; equal iff the value sequences are equal
    (up to negligible digest collisions)."""

    digest: bytes

    def hex(self) -> str:
        return self.digest.hex()


def fingerprint(values: Sequence[int] | np.ndarray) -> DatasetId:
    """128-bit blake2b digest over the little-endian int64 encoding of values."""
    encoded = np.asarray(values, dtype="<i8").tobytes()
    return DatasetId(hashlib.blake2b(encoded, digest_size=16).digest())


class SortedDataset:
    """A nondecreasing sequence of 64-bit signed integers with a stable
    content fingerprint. Immutable after construction."""

    __slots__ = ("values", "id")

    values: tuple[int, ...]
    id: DatasetId

    def __init__(self, values: tuple[int, ...], dataset_id: DatasetId):
        # internal: use from_values() / load_dataset(), which validate
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "id", dataset_id)

    def __setattr__(self, name, value):
        raise AttributeError("SortedDataset is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, SortedDataset) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"SortedDataset(len={len(self.values)}, id={self.id.hex()[:12]})"

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "SortedDataset":
        """Build a dataset, verifying (not assuming) 64-bit range and
        nondecreasing order; every loader ends here. A list or tuple of ints
        becomes `values` as is, so large loads build no second set of ints."""
        if isinstance(values, np.ndarray) and values.dtype == np.int64:
            arr = values
            vt = tuple(arr.tolist())
        else:
            seq = values.tolist() if isinstance(values, np.ndarray) else values
            vt = seq if type(seq) is tuple else tuple(seq)
            try:
                arr = np.fromiter(vt, dtype=np.int64, count=len(vt))
            except (OverflowError, ValueError):
                # the first value the conversion stops at; NaN and ±inf are tested before int()
                i, v = next((i, v) for i, v in enumerate(vt)
                            if v != v or v in _INFINITIES or not INT64_MIN <= int(v) <= INT64_MAX)
                if v != v:
                    raise ValueError(f"value at index {i} is not an integer: {v!r}") from None
                raise OverflowError(f"value at index {i} exceeds 64-bit range: {v}") from None
            if not set(map(type, vt)) <= {int}:
                # kernels rely on unbounded Python int arithmetic
                ints = arr.tolist()
                # the int64 conversion truncates 1.5 to 1; integral 2.0, bools and numpy ints pass
                bad = next((i for i, (v, w) in enumerate(zip(vt, ints)) if v != w), None)
                if bad is not None:
                    raise ValueError(f"value at index {bad} is not an integer: {vt[bad]!r}")
                vt = tuple(ints)
        descents = (arr[1:] < arr[:-1]).nonzero()[0]
        if len(descents):
            raise NotSortedError(int(descents[0]) + 1)
        return cls(vt, fingerprint(arr))

    # Kept by name for callers that hold an int64 array; validation is identical.
    from_sorted_array = from_values

    def dump(self, stream: IO[str]) -> None:
        """Serialize back to the line-delimited text format."""
        stream.write("".join(f"{v}\n" for v in self.values))


def load_dataset(stream: IO[str]) -> SortedDataset:
    """Parse the line-delimited integer format: one ASCII base-10 signed
    64-bit integer per line, LF separated (CR stripped), whitespace-only
    lines ignored. Range and order are verified by SortedDataset.from_values."""
    values: list[int] = []
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
