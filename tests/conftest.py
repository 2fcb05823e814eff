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
