"""Command-line entry point.

Subcommands:
    gen     write a generated dataset file from a distribution spec
    search  run one query against a dataset file and print the result
    bench   run a benchmark suite and emit a report

Exit codes: 0 success, 1 usage error, 2 data error (parse / not sorted /
out of range / too large to allocate), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import secrets
import sys

from . import bench as bench_mod
from .bench import SuiteConfig, TRIAL_ALGORITHMS, emit_report, run_suite
from .dataset import DatasetError, load_dataset
from .distributions import DistributionSpec, InvalidSpec, KINDS, QUERY_MODES, generate
from .engine import EngineConfig
from .search import KERNELS
from .selector import choose_algorithm, compute_stats

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_tau_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=EngineConfig.tau,
                   help="uniformity threshold for choosing interpolation (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="adasearch")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset file")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default="-", help="output path, '-' for stdout")
    gen.add_argument("--lo", type=int, default=None, help="uniform/clustered key range low")
    gen.add_argument("--hi", type=int, default=None, help="uniform/clustered key range high")
    gen.add_argument("--clusters", type=int, default=None)
    gen.add_argument("--spread", type=float, default=None)
    gen.add_argument("--scale", type=float, default=None, help="exponential scale")
    gen.add_argument("--zipf-s", type=float, default=None, help="zipf exponent")
    gen.add_argument("--universe", type=int, default=None, help="zipf universe size")

    search = sub.add_parser("search", help="search a dataset file for one target")
    search.add_argument("dataset", help="path to a line-delimited integer dataset")
    search.add_argument("target", type=int)
    search.add_argument("--algorithm", choices=sorted(KERNELS), default=None,
                        help="force a kernel instead of adaptive selection")
    _add_tau_flag(search)

    bench = sub.add_parser("bench", help="run the benchmark suite")
    bench.add_argument("--seed", type=int, default=None,
                       help="suite seed; generated from entropy if absent")
    bench.add_argument("--format", choices=(bench_mod.TABLE, bench_mod.CSV, bench_mod.JSONL),
                       default=bench_mod.TABLE)
    bench.add_argument("--out", default="-", help="report path, '-' for stdout")
    bench.add_argument("--queries", type=int, default=SuiteConfig.queries)
    bench.add_argument("--sizes", type=int, nargs="+", default=SuiteConfig.sizes)
    bench.add_argument("--distributions", nargs="+", choices=KINDS, default=SuiteConfig.distributions)
    bench.add_argument("--algorithms", nargs="+", choices=TRIAL_ALGORITHMS,
                       default=SuiteConfig.algorithms)
    bench.add_argument("--query-mode", choices=QUERY_MODES, default=SuiteConfig.query_mode)
    bench.add_argument("--repeat-fraction", type=float, default=SuiteConfig.repeat_fraction)
    _add_tau_flag(bench)
    bench.add_argument("--cache-size", type=int, default=EngineConfig.cache_capacity,
                       help="result cache capacity behind the adaptive rows (default %(default)s)")
    return parser


def _write_out(path: str, write) -> None:
    """Call write(stream) on stdout for '-', else on the file at path."""
    if path == "-":
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as f:
            write(f)


def _cmd_gen(args) -> int:
    params = {}
    for key, val in (("lo", args.lo), ("hi", args.hi), ("clusters", args.clusters),
                     ("spread", args.spread), ("scale", args.scale),
                     ("s", args.zipf_s), ("m", args.universe)):
        if val is not None:
            params[key] = val
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    if args.seed is None:
        print(f"seed: {seed}", file=sys.stderr)
    ds = generate(DistributionSpec(args.kind, args.n, seed, params))
    _write_out(args.out, ds.dump)
    return 0


def _cmd_search(args) -> int:
    cfg = EngineConfig(tau=args.tau)  # a usage error is reported before the file is read
    with open(args.dataset, "r", encoding="utf-8") as f:
        ds = load_dataset(f)
    # the engine's choice, made without an engine: one query cannot hit its cache
    choice = choose_algorithm(compute_stats(ds), cfg.tau)
    used = args.algorithm or choice.algorithm
    outcome = KERNELS[used](ds, args.target)
    print(f"found: {outcome.index is not None}")
    print(f"index: {outcome.index if outcome.index is not None else -1}")
    print(f"probes: {outcome.trace.probes}")
    print(f"algorithm: {used}")
    print(f"selected: {choice.algorithm} ({choice.reason})")
    return 0


def _cmd_bench(args) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    if args.seed is None:
        print(f"seed: {seed}", file=sys.stderr)
    cfg = SuiteConfig(
        distributions=tuple(args.distributions),
        sizes=tuple(args.sizes),
        algorithms=tuple(args.algorithms),
        queries=args.queries,
        query_mode=args.query_mode,
        repeat_fraction=args.repeat_fraction,
        seed=seed,
        engine=EngineConfig(tau=args.tau, cache_capacity=args.cache_size),
    )
    report = emit_report(run_suite(cfg), args.format)
    _write_out(args.out, lambda f: f.write(report))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "search":
            return _cmd_search(args)
        return _cmd_bench(args)
    # UnicodeDecodeError is a ValueError; an undecodable file is a data error
    except (DatasetError, OverflowError, InvalidSpec, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"adasearch: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"adasearch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"adasearch: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
