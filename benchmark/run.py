"""adasearch benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload dense_ids_miss --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; the library is imported from ./src.
`--trace 0` measures the end-to-end metrics with nothing wrapped. `--trace 1`
makes the same untraced measurement, then a short one in which untraced and
traced steps alternate, and reports the per-layer metrics from the spans
plus the tracing overhead (traced minus untraced). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when every
output check passed, 1 when one failed, 2 when the run could not start.
`--tiny` shrinks every input so a run finishes in about a second; it is
for smoke runs, and the full-size hit-rate bounds are not asserted there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dense_ids_miss", "zipf_hot", "paper_suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str | None:
    """HEAD of the source tree, read from .git without running git; None in
    an exported tree."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "tiny" if args.tiny else "full",
        "gc": {"enabled": gc.isenabled(), "thresholds": list(gc.get_threshold()),
               "frozen": gc.get_freeze_count()},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


UNITS = {"setup_s": "s", "op_p50_us": "us", "op_p99_us": "us", "op_per_s": "1/s", "peak_rss_mb": "MB"}

# The names the workloads' users know these numbers by.
ALIASES = {
    "query": {"op_p50_us": "query_p50_us", "op_p99_us": "query_p99_us", "op_per_s": "query_qps"},
    "suite": {"op_p50_us": "suite_s x 1e6", "op_p99_us": "suite p99", "op_per_s": "suites/s"},
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adasearch" / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC / 'adasearch'}; "
              "run from the root of an adasearch source tree", file=sys.stderr)
        return 2
    # The library is measured from this tree's source, never from an install.
    sys.path.insert(0, str(SRC))
    import adasearch
    if Path(adasearch.__file__).resolve().parent != SRC / "adasearch":
        print(f"benchmark: imported adasearch from {adasearch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing

    WORK.mkdir(exist_ok=True)
    workload = harness.WORKLOADS[args.workload]
    scale = harness.TINY if args.tiny else harness.FULL
    checks = harness.Checks()
    if workload.kernel is not None:
        harness.declared_kernel(workload, scale, checks)

    [(loop, set_up)] = harness.measure(WORK, args.seed, workload, scale, checks, [nullcontext],
                                       scale.setup_reps, seconds=args.seconds)
    if workload.queries is not None:
        harness.check_repeat(loop, checks)
        if scale.shape_checks:
            harness.check_shape(workload, loop.engine.report().cache.hit_rate, checks)
    e2e, detail = harness.summarize(loop, set_up)
    e2e["peak_rss_mb"] = peak_rss_mb()
    del loop, set_up  # frees the dataset before the traced pair loads two more
    result = {"environment": environment(args), "end_to_end": e2e, "detail": detail}

    if args.trace:
        # Untraced and traced steps alternate, so the overhead is measured on
        # the same machine state; the per-layer numbers come from the spans
        # of the traced steps only.
        tracer = tracing.Tracer()
        steps = scale.traced_suites if workload.queries is None else scale.traced_blocks
        pairs = harness.measure(WORK, args.seed, workload, scale, checks,
                                [nullcontext, lambda: tracing.traced_library(tracer)],
                                scale.traced_setup_reps, steps=steps)
        (plain, _), (traced, traced_detail) = (harness.summarize(*p) for p in pairs)
        layers = tracing.layer_metrics(tracer, suites=traced_detail.get("suites", 0))
        for name in ("setup_s", "op_p50_us", "op_p99_us", "op_per_s"):
            layers[f"trace.overhead.{name}"] = (traced[name] - plain[name], UNITS[name])
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.save(spans_path)
        result.update(paired_untraced=plain, paired_traced=traced, traced_detail=traced_detail,
                      per_layer={k: v for k, (v, _) in layers.items()}, spans=spans_path.name)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    result["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failures": checks.failures}
    out = WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    kind = "query" if workload.queries is not None else "suite"
    print(f"adasearch benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} scale={'tiny' if args.tiny else 'full'}")
    print("environment " + json.dumps(result["environment"]))
    for name, value in e2e.items():
        alias = ALIASES[kind].get(name, "")
        print(f"  {name:<14} {value:>16.6f} {UNITS[name]:<4} {alias}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:>16.6f} {m['unit']}")
    print(f"  ops_failed {checks.failed} of {checks.attempted} attempted")
    for what, failed in checks.failures.items():
        print(f"  FAILED {what}: {failed} operations")
    print(f"details in {out.relative_to(ROOT)}")
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
