"""Workloads and the measured phases of one benchmark run.

Every workload is a closed loop with one client in one thread: callers of
this library wait for each answer before asking the next question. Inputs
are generated and written to disk first, untimed. Then, for the run's
length, the workload's operation is repeated (a `SearchEngine.search` call
on the query workloads, a whole `bench.run_suite` on `paper_suite`), and
set-up (text file to registered engine) is repeated at evenly spaced times
in between. Spreading the set-ups over the run, rather than doing them back
to back, keeps one burst of outside load on the machine from slowing all of
them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import adasearch.bench as bench_mod
import adasearch.dataset as dataset_mod
from adasearch import SearchEngine, SortedDataset
from adasearch.bench import SuiteConfig
from adasearch.search import BINARY, INTERPOLATION

import inputs

DEFAULT_SEED = 42
# Never used while the benchmark was tuned; the declared kernel choice of
# each query workload is asserted here as well as at DEFAULT_SEED.
HELD_OUT_SEED = 271828


@dataclass(frozen=True)
class Scale:
    n: int                  # keys per dataset
    block: int              # queries per timed block
    stream: int             # pre-generated queries, replayed cyclically
    setup_reps: int
    traced_setup_reps: int
    traced_blocks: int
    suite_sizes: tuple[int, ...]
    suite_queries: int
    traced_suites: int
    shape_checks: bool      # hit-rate bounds hold only at full size


FULL = Scale(n=2**20, block=2**14, stream=2**21, setup_reps=7, traced_setup_reps=3,
             traced_blocks=8, suite_sizes=SuiteConfig.sizes, suite_queries=1000,
             traced_suites=3, shape_checks=True)
TINY = Scale(n=2**12, block=2**8, stream=2**14, setup_reps=3, traced_setup_reps=2,
             traced_blocks=2, suite_sizes=(2**6, 2**8), suite_queries=100,
             traced_suites=1, shape_checks=False)


@dataclass(frozen=True)
class Workload:
    name: str
    code: int                                   # mixed into the seed
    keys: Callable[[np.random.Generator, int], np.ndarray]
    queries: Optional[Callable] = None          # None: the workload runs suites
    kernel: Optional[str] = None                # declared selector choice
    min_hit_rate: float = 0.0
    max_hit_rate: float = 1.0


WORKLOADS = {
    w.name: w for w in (
        Workload("dense_ids_miss", 1, inputs.dense_ids, inputs.mixed_queries,
                 kernel=INTERPOLATION, max_hit_rate=0.01),
        Workload("zipf_hot", 2, inputs.zipf_keys, inputs.member_queries,
                 kernel=BINARY, min_hit_rate=0.7),
        # Set-up loads the suite's largest size of its first distribution.
        Workload("paper_suite", 3, inputs.uniform_keys),
    )
}


class Checks:
    """Operations attempted and failed; a failed output check counts as one
    failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}   # check -> operations it failed

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures[what] = self.failures.get(what, 0) + failed

    def expect(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def gc_collections() -> list[int]:
    return [g["collections"] for g in gc.get_stats()]


class SetUp:
    """Text file on disk to a registered engine; each call is one timed set-up.
    Library functions are looked up at call time, so a tracing context that
    wraps them applies."""

    def __init__(self, path) -> None:
        self.path = path
        self.times: list[float] = []

    def __call__(self):
        gc.collect()
        t0 = time.perf_counter()
        with open(self.path, encoding="utf-8") as f:
            ds = dataset_mod.load_dataset(f)
        engine = SearchEngine()
        reg = engine.register(ds)
        self.times.append(time.perf_counter() - t0)
        return engine, reg


def run_interleaved(arms, reps: int, make_loop, seconds: float | None = None,
                    steps: int | None = None) -> list:
    """Each arm is a (SetUp, context) pair and gets its own engine and loop:
    its first set-up registers the dataset that `make_loop(engine, reg)`
    measures, and its other `reps - 1` set-ups are spread evenly over the
    run, which lasts `seconds` (or `steps` steps of each loop). Steps of two
    arms alternate in ABBA order, so both see the same machine."""
    loops = []
    for set_up, context in arms:
        with context():
            engine, reg = set_up()
        loops.append(make_loop(engine, reg))
    gc.collect()
    gc_before = gc_collections()
    start = time.perf_counter()
    k = 0
    while True:
        done = ((time.perf_counter() - start) / seconds if steps is None
                else min(loop.steps for loop in loops) / steps)
        due = [(s, c) for s, c in arms if len(s.times) < reps and done >= len(s.times) / reps]
        for set_up, context in due:
            with context():
                set_up()
        if due:
            continue
        if done >= 1:
            break
        arm = (k % 2) ^ (k // 2 % 2) if len(arms) > 1 else 0
        with arms[arm][1]():
            loops[arm].step()
        k += 1
    for loop in loops:
        loop.gc = [a - b for a, b in zip(gc_collections(), gc_before)]
    return loops


def check_dataset(reg, keys: np.ndarray, checks: Checks) -> None:
    values = reg.dataset.values
    loaded = np.fromiter(values, dtype=np.int64, count=len(values))
    checks.expect(np.array_equal(loaded, keys), "loaded dataset equals the generated keys")


def declared_kernel(workload: Workload, scale: Scale, checks: Checks) -> None:
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        keys = workload.keys(inputs.rng_for(seed, workload.code, inputs.DATASET_STREAM), scale.n)
        choice = SearchEngine().register(SortedDataset.from_sorted_array(keys)).choice.algorithm
        checks.expect(choice == workload.kernel,
                      f"seed {seed} selects {workload.kernel} (got {choice})")


def _block(search, reg, targets, lat, idx, probes) -> None:
    """The closed loop. Per query only its latency, index and probe count are
    kept, in preallocated arrays, so the harness allocates nothing per call."""
    clock = time.perf_counter_ns
    i = 0
    for target in targets:
        t0 = clock()
        qr = search(reg, target)
        t1 = clock()
        lat[i] = t1 - t0
        outcome = qr.outcome
        found = outcome.index
        idx[i] = -1 if found is None else found
        probes[i] = outcome.trace.probes
        i += 1


def oracle_failures(keys: np.ndarray, targets: np.ndarray, idx: np.ndarray) -> int:
    """Queries whose answer disagrees with a first-occurrence oracle: found-ness
    must match, and a returned index must hold the target."""
    n = len(keys)
    pos = np.searchsorted(keys, targets, side="left")
    expected = (pos < n) & (keys[np.minimum(pos, n - 1)] == targets)
    found = idx >= 0
    wrong = (found != expected) | (idx >= n)
    wrong |= found & (keys[np.clip(idx, 0, n - 1)] != targets)
    return int(wrong.sum())


def repeat_record(engine, idx: np.ndarray, probes: np.ndarray) -> dict:
    """Counts after the first block of a fresh engine; they must repeat
    exactly for one seed, within a run and across runs."""
    cache = engine.report().cache
    return {"hits": cache.hits, "misses": cache.misses, "evictions": cache.evictions,
            "probes": int(probes.sum()),
            "answers_sha256": hashlib.sha256(idx.tobytes()).hexdigest()}


class QueryLoop:
    """Timed blocks of queries against one registered dataset, replaying the
    stream cyclically. Latency percentiles and throughput are taken per
    block, and every answer is checked after its block."""

    def __init__(self, engine, reg, keys: np.ndarray, stream: np.ndarray, block: int,
                 checks: Checks) -> None:
        self.engine, self.reg, self.keys, self.stream, self.block = engine, reg, keys, stream, block
        self.checks = checks
        self.arrays = [array("q", bytes(8 * block)) for _ in range(3)]
        self.steps = 0
        self.p50_ns: list[float] = []
        self.p99_ns: list[float] = []
        self.per_s: list[float] = []
        self.repeat: dict = {}
        self.gc: list[int] = []

    def step(self) -> None:
        b = self.block
        start = (self.steps % (len(self.stream) // b)) * b
        block_targets = self.stream[start:start + b]
        targets = block_targets.tolist()
        lat, idx, probes = self.arrays
        search = self.engine.search
        t0 = time.perf_counter_ns()
        _block(search, self.reg, targets, lat, idx, probes)
        wall = time.perf_counter_ns() - t0
        lat_np, idx_np, probes_np = (np.frombuffer(a, dtype=np.int64) for a in self.arrays)
        self.p50_ns.append(float(np.percentile(lat_np, 50)))
        self.p99_ns.append(float(np.percentile(lat_np, 99)))
        self.per_s.append(b / wall * 1e9)
        self.checks.ops(b, oracle_failures(self.keys, block_targets, idx_np), "query answers vs oracle")
        if self.steps == 0:
            self.repeat = repeat_record(self.engine, idx_np, probes_np)
        self.steps += 1


def check_repeat(loop: QueryLoop, checks: Checks) -> None:
    """Replay the loop's first block on a fresh engine, untimed."""
    b = loop.block
    lat, idx, probes = (array("q", bytes(8 * b)) for _ in range(3))
    engine = SearchEngine()
    fresh = engine.register(loop.reg.dataset)
    _block(engine.search, fresh, loop.stream[:b].tolist(), lat, idx, probes)
    again = repeat_record(engine, np.frombuffer(idx, dtype=np.int64),
                          np.frombuffer(probes, dtype=np.int64))
    checks.expect(again == loop.repeat, "hit rate, evictions and probes repeat for the seed")


def check_shape(workload: Workload, hit_rate: float, checks: Checks) -> None:
    checks.expect(workload.min_hit_rate <= hit_rate <= workload.max_hit_rate,
                  f"hit rate {hit_rate:.4f} within "
                  f"[{workload.min_hit_rate}, {workload.max_hit_rate}]")


def suite_config(seed: int, scale: Scale) -> SuiteConfig:
    return SuiteConfig(seed=seed, sizes=scale.suite_sizes, queries=scale.suite_queries)


def suite_key(records) -> list:
    """A report with its one nondeterministic field blanked."""
    return [dataclasses.replace(r, wall_time_ns=0) for r in records]


class SuiteLoop:
    """`run_suite` repeated with one seed. Each report is checked on its own
    (every member query found, binary within its probe bound) and against the
    first report, which it must equal apart from wall_time_ns."""

    def __init__(self, cfg: SuiteConfig, checks: Checks) -> None:
        self.cfg, self.checks = cfg, checks
        self.cells = len(cfg.distributions) * len(cfg.sizes) * len(cfg.algorithms)
        self.steps = 0
        self.times_ns: list[int] = []
        self.first = None
        self.digest = ""
        self.gc: list[int] = []

    def step(self) -> None:
        what = "suite reports"
        t0 = time.perf_counter_ns()
        try:
            records = bench_mod.run_suite(self.cfg)
        except Exception as exc:  # the loop's boundary: count it and go on
            records = None
            what = f"run_suite raised {exc!r}"
        self.times_ns.append(time.perf_counter_ns() - t0)
        self.checks.ops(1, 0 if records is not None and self.ok(records) else 1, what)
        if records is not None and self.first is None:
            self.first = suite_key(records)
            self.digest = hashlib.sha256(repr(self.first).encode()).hexdigest()
        self.steps += 1

    def ok(self, records) -> bool:
        if len(records) != self.cells or any(r.found_rate != 1.0 for r in records):
            return False
        if any(r.p99_probes > math.floor(math.log2(r.n)) + 1
               for r in records if r.algorithm == BINARY):
            return False
        return self.first is None or suite_key(records) == self.first


# On a shared host the machine alternates, every tenth of a second or so,
# between an undisturbed state and a loaded state about 1.7x slower, and the
# share of time spent in each varies from run to run. A median over all
# blocks flips between the two states, so the metrics come from the blocks
# that ran in the loaded state: those whose median latency (for paper_suite,
# whose blocks are whole suites: whose wall time) is at least LOADED times
# the run's fastest block. A run with too few of them ran loaded throughout
# and uses every block.
LOADED = 1.3
MIN_LOADED_BLOCKS = 8


def loaded_blocks(block_ns) -> np.ndarray:
    block_ns = np.asarray(block_ns)
    mask = block_ns >= LOADED * block_ns.min()
    return mask if mask.sum() >= MIN_LOADED_BLOCKS else np.ones_like(mask)


def measure(work, seed: int, workload: Workload, scale: Scale, checks: Checks, contexts,
            reps: int, **bound) -> list:
    """Generate and write the inputs under `work`, then run one loop per
    context (see run_interleaved). Returns a (loop, set-up) pair per context."""
    path = work / f"{workload.name}-seed{seed}.txt"
    keys = workload.keys(inputs.rng_for(seed, workload.code, inputs.DATASET_STREAM), scale.n)
    inputs.write_dataset(path, keys)
    if workload.queries is None:
        cfg = suite_config(seed, scale)

        def make_loop(engine, reg):
            check_dataset(reg, keys, checks)
            return SuiteLoop(cfg, checks)
    else:
        stream = workload.queries(inputs.rng_for(seed, workload.code, inputs.QUERY_STREAM),
                                  keys, scale.stream)

        def make_loop(engine, reg):
            check_dataset(reg, keys, checks)
            checks.expect(reg.choice.algorithm == workload.kernel,
                          f"selects {workload.kernel} (got {reg.choice.algorithm})")
            return QueryLoop(engine, reg, keys, stream, scale.block, checks)

    arms = [(SetUp(path), context) for context in contexts]
    try:
        loops = run_interleaved(arms, reps, make_loop, **bound)
    finally:
        path.unlink()
    return [(loop, set_up) for loop, (set_up, _) in zip(loops, arms)]


def summarize(loop, set_up) -> tuple[dict, dict]:
    """End-to-end numbers of one loop and its set-ups, and a detail record
    with every per-block value."""
    e2e = {"setup_s": statistics.median(set_up.times)}
    detail = {"setup_s_each": set_up.times, "gc_collections": loop.gc}
    if isinstance(loop, SuiteLoop):
        times = np.array(loop.times_ns, dtype=float)
        loaded = loaded_blocks(times)
        e2e["op_p50_us"] = float(np.median(times[loaded])) / 1e3
        e2e["op_p99_us"] = float(np.percentile(times[loaded], 99)) / 1e3
        e2e["op_per_s"] = float(np.median(1e9 / times[loaded]))
        detail.update(op="bench.run_suite", suites=loop.steps, loaded_suites=int(loaded.sum()),
                      suite_s_each=(times / 1e9).tolist(), report_sha256=loop.digest)
        return e2e, detail
    cache = loop.engine.report().cache
    loaded = loaded_blocks(loop.p50_ns)
    e2e["op_p50_us"] = float(np.median(np.asarray(loop.p50_ns)[loaded])) / 1e3
    e2e["op_p99_us"] = float(np.median(np.asarray(loop.p99_ns)[loaded])) / 1e3
    e2e["op_per_s"] = float(np.median(np.asarray(loop.per_s)[loaded]))
    detail.update(op="SearchEngine.search", queries=loop.steps * loop.block, blocks=loop.steps,
                  block_queries=loop.block, loaded_blocks=int(loaded.sum()),
                  selected=loop.reg.choice.algorithm,
                  hit_rate=cache.hit_rate, evictions=cache.evictions, repeat=loop.repeat,
                  query_p50_us_each=[v / 1e3 for v in loop.p50_ns],
                  query_p99_us_each=[v / 1e3 for v in loop.p99_ns],
                  query_qps_each=loop.per_s)
    return e2e, detail
