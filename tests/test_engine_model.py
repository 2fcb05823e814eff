"""A stateful model of SearchEngine (Claessen & Hughes, QuickCheck, ICFP 2000;
Hughes, "Experiences with QuickCheck", 2016).

Random sequences of registrations, searches and reports run against a real
engine and against a brute-force model of it, and every step is compared:
- the model's registry is a dict from a dataset's content to the first
  registration of that content and its AlgorithmChoice;
- its cache is an ordered list of (content, target), least recently used
  first, bounded by the engine's capacity;
- the expected QueryResult of a miss comes from the kernel that
  choose_algorithm names, run on a fresh dataset of the same content.
"""

import io
import pickle

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from adasearch import (
    SearchEngine,
    SortedDataset,
    choose_algorithm,
    compute_stats,
    load_dataset,
)
from adasearch.search import KERNELS

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# n = 128 keys; the near-copy keeps n and every even index (the keys a
# strided sample of at most 64 reads) and changes one odd index
NEAR_BASE = tuple(range(0, 256, 2))
NEAR_COPY = NEAR_BASE[:1] + (1,) + NEAR_BASE[2:]

POOL = [
    (),
    (7,),
    (1, 5, 5, 9),
    tuple(range(3, 63, 3)),  # interpolation
    tuple(2**i for i in range(20)),  # binary, too irregular
    (INT64_MIN, 0, INT64_MAX),
    NEAR_BASE,
    NEAR_COPY,
]
contents = st.one_of(st.sampled_from(POOL),
                     st.lists(st.integers(-40, 40), max_size=24).map(lambda v: tuple(sorted(v))))


def pickled(ds):
    return pickle.loads(pickle.dumps(ds))


def sliced(ds):
    # every other element of a larger array
    return SortedDataset.from_values(np.repeat(ds.array, 2)[1::2])


def reloaded(ds):
    buf = io.StringIO()
    ds.dump(buf)
    return load_dataset(io.StringIO(buf.getvalue()))


COPIES = {"same object": lambda ds: ds, "pickle": pickled, "slice": sliced, "reload": reloaded}


class EngineModel(RuleBasedStateMachine):
    registered = Bundle("registered")

    @initialize(capacity=st.integers(1, 4))
    def start(self, capacity):
        self.engine = SearchEngine(capacity)
        self.capacity = capacity
        self.first = {}  # content -> the first registration of that content
        self.choices = {}  # content -> AlgorithmChoice, in registration order
        self.lru = []  # (content, target), least recently used first
        self.stored = {}  # (content, target) -> the QueryResult its hits return
        self.hits = self.misses = self.evictions = self.kernel_probes = 0

    def _register(self, content, ds):
        reg = self.engine.register(ds)
        if content not in self.first:
            assert reg.dataset is ds
            self.first[content] = reg
            self.choices[content] = choose_algorithm(compute_stats(SortedDataset.from_values(content)))
        assert reg is self.first[content]
        assert tuple(reg.dataset.array.tolist()) == content
        assert reg.choice == self.choices[content]
        return content, ds

    @rule(target=registered, content=contents)
    def register_new(self, content):
        return self._register(content, SortedDataset.from_values(content))

    @rule(target=registered, source=registered, how=st.sampled_from(sorted(COPIES)))
    def register_copy(self, source, how):
        content, ds = source
        return self._register(content, COPIES[how](ds))

    @rule(target=registered)
    def register_near_copy(self):
        # hashes alike with NEAR_BASE under a strided sample, but is not equal
        self._register(NEAR_BASE, SortedDataset.from_values(NEAR_BASE))
        return self._register(NEAR_COPY, SortedDataset.from_values(NEAR_COPY))

    @rule(source=registered, data=st.data())
    def search(self, source, data):
        content, _ = source
        lo, hi = (content[0], content[-1]) if content else (0, 0)
        candidates = [st.integers(max(lo - 2, INT64_MIN), min(hi + 2, INT64_MAX)),
                      st.sampled_from([INT64_MAX + 1, INT64_MIN - 1, 2**64])]
        if content:
            candidates.append(st.sampled_from(content))
        cached = [t for c, t in self.lru if c == content]
        if cached:  # targets cached now: hits
            candidates.append(st.sampled_from(cached))
        target = data.draw(st.one_of(candidates), label="target")
        reg = self.first[content]
        qr = self.engine.search(reg, target)
        key = (content, target)
        if key in self.stored:
            self.hits += 1
            self.lru.remove(key)
            self.lru.append(key)
            if self.stored[key] is None:  # the first hit shows the stored record
                self.stored[key] = qr
            assert qr is self.stored[key]
            assert (qr.cache_hit, qr.algorithm_used) == (True, "cache")
            assert self.engine.search(reg, target) is qr  # a hit again, already most recent
            self.hits += 1
        else:
            self.misses += 1
            if len(self.lru) >= self.capacity:
                del self.stored[self.lru.pop(0)]
                self.evictions += 1
            self.lru.append(key)
            self.stored[key] = None
            assert (qr.cache_hit, qr.algorithm_used) == (False, self.choices[content].algorithm)
            self.kernel_probes += qr.outcome.trace.probes
        assert qr.outcome == KERNELS[self.choices[content].algorithm](
            SortedDataset.from_values(content), target)

    @rule(source=registered, data=st.data())
    def search_float(self, source, data):
        content, _ = source
        x = data.draw(st.sampled_from([float(v) for v in content[:4]] + [0.5, 2.0**63]), label="float")
        with pytest.raises(TypeError):
            self.engine.search(self.first[content], x)

    @rule()
    def report(self):
        r = self.engine.report()
        # each content once, in the order it was first registered, with its stats and choice
        assert r.registrations == tuple(self.first.values())
        assert [(reg.stats, reg.choice) for reg in r.registrations] == \
               [(compute_stats(SortedDataset.from_values(c)), ch) for c, ch in self.choices.items()]
        assert (r.cache.hits, r.cache.misses, r.cache.evictions, r.cache.size) == \
               (self.hits, self.misses, self.evictions, len(self.lru))
        assert r.kernel_probes == self.kernel_probes

    @invariant()
    def counters_match(self):
        stats = self.engine._cache.stats()
        assert (stats.hits, stats.misses, stats.evictions, stats.size, stats.capacity) == \
               (self.hits, self.misses, self.evictions, len(self.lru), self.capacity)
        assert self.engine.kernel_probes == self.kernel_probes
        # least to most recently used; the dataset half of a key is the engine's own
        assert [t for _, t in self.engine._cache.keys_by_recency()] == [t for _, t in self.lru]


EngineModel.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestEngineModel = EngineModel.TestCase
