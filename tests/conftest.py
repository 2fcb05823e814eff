import pytest

import adasearch.dataset as dataset_mod


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """The arrays dataset.fingerprint is called with, from now on."""
    calls = []
    fingerprint = dataset_mod.fingerprint

    def counting(values):
        calls.append(values)
        return fingerprint(values)

    monkeypatch.setattr(dataset_mod, "fingerprint", counting)
    return calls


@pytest.fixture
def canonical_reads(monkeypatch):
    """What each dataset._read_canonical call returns from now on: the array a
    one-pass read parsed, or None when the text goes to the line loop."""
    reads = []
    read_canonical = dataset_mod._read_canonical

    def recording(stream):
        reads.append(read_canonical(stream))
        return reads[-1]

    monkeypatch.setattr(dataset_mod, "_read_canonical", recording)
    return reads
