"""Span tracing for the benchmark's traced run.

The benchmark wraps each layer's public entry points from outside the
library; nothing under src/ knows it is traced. Every wrapped call records
one span: the layer entry point's name, start and end (perf_counter_ns), the
span open when it started (its parent), the request it belongs to, and one
integer counted at the boundary (probes for a kernel, 1 for a cache hit, the
keys fingerprinted, ...). A call made while no span is open starts a new
request, so all spans of one query or one suite share a request id. Spans
stay in flat in-memory arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import adasearch.bench as bench_mod
import adasearch.dataset as dataset_mod
import adasearch.engine as engine_mod
import adasearch.search as search_mod
from adasearch.cache import LruCache
from adasearch.dataset import SortedDataset
from adasearch.engine import SearchEngine
from adasearch.search import BINARY, INTERPOLATION


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.count = array("q")
        self._open: list[int] = []
        self._requests = 0

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, count=None, before=None):
        """`fn` recording one span per call. `count(args, result, b)` gives
        the span's boundary count, where `b = before(args)` is read just
        before the call."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        opened = self._open

        def traced(*args, **kwargs):
            i = len(self.start)
            if opened:
                parent = opened[-1]
                request = self.request[parent]
            else:
                parent = -1
                self._requests += 1
                request = self._requests
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(request)
            self.count.append(0)
            self.end.append(0)
            b = before(args) if before is not None else None
            opened.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                opened.pop()
            if count is not None:
                self.count[i] = count(args, result, b)
            return result

        return traced

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name, start=self.start,
                 end=self.end, parent=self.parent, request=self.request, count=self.count)


def len_arg(args, result, b):
    return len(args[0])


def len_result(args, result, b):
    return len(result)


@contextmanager
def traced_library(tracer: Tracer):
    """Wrap the library's layer entry points for the duration of the block.

    The wrappers go where the callers look them up: engine's imported
    selector functions, the shared KERNELS table, the cache and engine
    classes, dataset's load_dataset and module-level fingerprint, and bench's
    run_suite, imported generators and run_trial, so the calls inside
    run_suite are traced too.
    """
    kernels = search_mod.KERNELS
    patches = [
        (engine_mod, "compute_stats", tracer.wrap("selector.compute_stats", engine_mod.compute_stats)),
        (engine_mod, "choose_algorithm", tracer.wrap("selector.choose_algorithm", engine_mod.choose_algorithm)),
        (LruCache, "get", tracer.wrap(
            "cache.get", LruCache.get, count=lambda a, r, b: int(r is not None))),
        (LruCache, "put", tracer.wrap(
            "cache.put", LruCache.put,
            before=lambda a: a[0].evictions, count=lambda a, r, b: a[0].evictions - b)),
        (SearchEngine, "search", tracer.wrap(
            "engine.search", SearchEngine.search, count=lambda a, r, b: int(r.cache_hit))),
        (SearchEngine, "register", tracer.wrap("engine.register", SearchEngine.register)),
        (dataset_mod, "load_dataset", tracer.wrap("dataset.load_dataset", dataset_mod.load_dataset, count=len_result)),
        (dataset_mod, "fingerprint", tracer.wrap("dataset.fingerprint", dataset_mod.fingerprint, count=len_arg)),
        (SortedDataset, "from_sorted_array", classmethod(tracer.wrap(
            "dataset.from_sorted_array", SortedDataset.from_sorted_array.__func__, count=len_result))),
        (bench_mod, "generate", tracer.wrap("distributions.generate", bench_mod.generate)),
        (bench_mod, "generate_queries", tracer.wrap("distributions.generate_queries", bench_mod.generate_queries)),
        (bench_mod, "run_suite", tracer.wrap("bench.run_suite", bench_mod.run_suite)),
        (bench_mod, "run_trial", tracer.wrap(
            "bench.run_trial", bench_mod.run_trial, count=lambda a, r, b: r.wall_time_ns)),
    ]
    saved = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
             for owner, attr, _ in patches]
    saved_kernels = {k: kernels[k] for k in (BINARY, INTERPOLATION)}
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        for k, fn in saved_kernels.items():
            kernels[k] = tracer.wrap(f"search.{k}", fn, count=lambda a, r, b: r.trace.probes)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        kernels.update(saved_kernels)


def layer_metrics(tracer: Tracer, suites: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans. A self time is a span's duration
    minus the durations of its child spans. Suite-level totals are per traced
    suite. A layer the workload never calls reads 0, next to a call count of
    0 where the count is reported."""
    name = np.frombuffer(tracer.name, dtype=np.int16)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=np.int64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    count = np.frombuffer(tracer.count, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child

    def spans(layer):
        if layer not in tracer.names:
            return np.zeros(len(name), dtype=bool)
        return name == tracer.names.index(layer)

    def mean(values):
        return float(values.mean()) if len(values) else 0.0

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for kernel in (INTERPOLATION, BINARY):
        m = spans(f"search.{kernel}")
        out[f"search.{kernel}.calls"] = (int(m.sum()), "count")
        out[f"search.{kernel}.ns_per_call"] = (mean(dur[m]), "ns")
        out[f"search.{kernel}.probes_per_call"] = (mean(count[m]), "probes")
        out[f"search.{kernel}.probes_max"] = (int(count[m].max()) if m.any() else 0, "probes")

    get, put = spans("cache.get"), spans("cache.put")
    out["cache.lookups"] = (int(get.sum()), "count")
    out["cache.get_ns"] = (mean(dur[get]), "ns")
    out["cache.hit_rate"] = (mean(count[get]), "ratio")
    out["cache.put_ns"] = (mean(dur[put]), "ns")
    out["cache.evictions"] = (int(count[put].sum()), "count")

    search = spans("engine.search")
    hit = search & (count == 1)
    out["engine.search_hit_ns"] = (mean(dur[hit]), "ns")
    out["engine.search_miss_ns"] = (mean(dur[search & ~hit]), "ns")
    out["engine.self_ns_per_query"] = (mean(self_time[search]), "ns")
    out["engine.register_ms"] = (mean(dur[spans("engine.register")]) / 1e6, "ms")

    out["selector.compute_stats_us"] = (mean(dur[spans("selector.compute_stats")]) / 1e3, "us")
    out["selector.choose_algorithm_ns"] = (mean(dur[spans("selector.choose_algorithm")]), "ns")

    load, fp, fsa = spans("dataset.load_dataset"), spans("dataset.fingerprint"), spans("dataset.from_sorted_array")
    out["dataset.load_ns_per_line"] = (ratio(self_time[load].sum(), count[load].sum()), "ns")
    out["dataset.fingerprint_ns_per_key"] = (ratio(dur[fp].sum(), count[fp].sum()), "ns")
    out["dataset.from_sorted_array_ns_per_key"] = (ratio(self_time[fsa].sum(), count[fsa].sum()), "ns")

    trial = spans("bench.run_trial")
    out["distributions.generate_s"] = (ratio(dur[spans("distributions.generate")].sum(), suites) / 1e9, "s")
    out["distributions.generate_queries_s"] = (
        ratio(dur[spans("distributions.generate_queries")].sum(), suites) / 1e9, "s")
    out["bench.run_trial_s"] = (ratio(dur[trial].sum(), suites) / 1e9, "s")
    out["bench.trial_overhead_s"] = (ratio((dur[trial] - count[trial]).sum(), suites) / 1e9, "s")
    out["trace.spans"] = (len(dur), "count")
    return out
