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
from dataclasses import fields

from .bench import CSV, JSONL, TABLE, SuiteConfig, TRIAL_ALGORITHMS, emit_report, run_suite
from .dataset import DatasetError, load_dataset
from .distributions import DistributionSpec, InvalidSpec, KINDS, PARAMS, QUERY_MODES, generate
from .engine import SearchEngine
from .search import KERNELS

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adasearch")
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
    gen.add_argument("--zipf-s", dest="s", metavar="ZIPF_S", type=float, help="zipf exponent")
    gen.add_argument("--universe", dest="m", metavar="UNIVERSE", type=int, help="zipf universe size")

    search = sub.add_parser("search", help="search a dataset file for one target")
    search.add_argument("dataset", help="path to a line-delimited integer dataset")
    search.add_argument("target", type=int)
    search.add_argument("--algorithm", choices=sorted(KERNELS), default=None,
                        help="force a kernel instead of adaptive selection")

    bench = sub.add_parser("bench", help="run the benchmark suite")
    bench.add_argument("--seed", type=int, default=None,
                       help="suite seed; generated from entropy if absent")
    bench.add_argument("--format", choices=(TABLE, CSV, JSONL), default=TABLE)
    bench.add_argument("--out", default="-", help="report path, '-' for stdout")
    bench.add_argument("--queries", type=int, default=SuiteConfig.queries)
    bench.add_argument("--sizes", type=int, nargs="+", default=SuiteConfig.sizes)
    bench.add_argument("--distributions", nargs="+", choices=KINDS, default=SuiteConfig.distributions)
    bench.add_argument("--algorithms", nargs="+", choices=TRIAL_ALGORITHMS,
                       default=SuiteConfig.algorithms)
    bench.add_argument("--query-mode", choices=QUERY_MODES, default=SuiteConfig.query_mode)
    bench.add_argument("--repeat-fraction", type=float, default=SuiteConfig.repeat_fraction)
    bench.add_argument("--cache-size", dest="cache_capacity", metavar="CACHE_SIZE", type=int,
                       default=SuiteConfig.cache_capacity,
                       help="result cache capacity behind the adaptive rows (default %(default)s)")
    return parser


def _write_out(path: str, write) -> None:
    """Call write(stream) on stdout for '-', else on the file at path."""
    if path == "-":
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as f:
            write(f)


def _cmd_gen(args) -> None:
    params = {k: v for names in PARAMS.values() for k in names if (v := getattr(args, k)) is not None}
    ds = generate(DistributionSpec(args.kind, args.n, args.seed, params))
    _write_out(args.out, ds.dump)


def _cmd_search(args) -> None:
    with open(args.dataset, "r", encoding="utf-8") as f:
        ds = load_dataset(f)
    # the engine chooses; one query cannot hit its cache, so the kernel runs directly
    choice = SearchEngine().register(ds).choice
    used = args.algorithm or choice.algorithm
    outcome = KERNELS[used](ds, args.target)
    print(f"found: {outcome.index is not None}")
    print(f"index: {outcome.index if outcome.index is not None else -1}")
    print(f"probes: {outcome.trace.probes}")
    print(f"algorithm: {used}")
    print(f"selected: {choice.algorithm} ({choice.reason})")


def _cmd_bench(args) -> None:
    cfg = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})
    report = emit_report(run_suite(cfg), args.format)
    _write_out(args.out, lambda f: f.write(report))


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed --help (0) or a usage error (2)
        return exc.code and EXIT_USAGE
    if args.command != "search" and args.seed is None:  # drawn, and printed to reproduce the run
        args.seed = secrets.randbits(63)
        print(f"seed: {args.seed}", file=sys.stderr)
    try:
        {"gen": _cmd_gen, "search": _cmd_search, "bench": _cmd_bench}[args.command](args)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
