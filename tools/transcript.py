"""Write the `adasearch search` contract as a transcript.

    python3 tools/transcript.py

Writes the corpus files under tests/data/cli/ and, for each file, for the
directory itself (`.`) and for a missing path, 12 targets (11 integers and
`1.5`) in 4 modes (adaptive and each forced kernel), runs
`adasearch search PATH TARGET [FLAGS]` in-process from that directory and
records argv, exit code, stdout and stderr in tests/data/cli/transcript.txt.
tests/test_transcript.py replays the transcript, so a change to what the
command prints or how it exits is a diff of that one file. The usage line
argparse prints is wrapped at COLUMNS, which both pin to 80.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adasearch import cli  # noqa: E402
from adasearch.dataset import DatasetError, load_dataset  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "cli"
TRANSCRIPT = CORPUS / "transcript.txt"
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def lines(keys) -> bytes:
    return "".join(f"{k}\n" for k in keys).encode()


# name -> file content; every content is a pure function of this script
FILES = {
    # near-even gaps: the selector picks interpolation
    "uniform.txt": lines(i * 1000 + (i * 7919) % 500 for i in range(200)),
    # key r repeated 60 // r times: duplicates and a skew that picks binary
    "zipf_dups.txt": lines(r * r for r in range(1, 31) for _ in range(60 // r)),
    "paper.txt": b"2\n3\n4\n10\n40",
    "empty.txt": b"",
    "crlf_blank.txt": b"1\r\n\r\n5\r\n9\r\n12\r\n\r\n",
    # 2^12 keys, one far above the rest: the interpolation guard's worst case
    "outlier.txt": lines([*range(2**12 - 1), 2**62]),
    "geometric.txt": lines(2**i for i in range(63)),
    "heavy_dups.txt": lines([3] * 5 + [7] * 40 + [8] * 3 + [20] * 30),
    "int64_extremes.txt": lines([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    "malformed.txt": b"1\n5\ntwo\n9\n",
    "descent.txt": b"1\n9\n5\n",
    "out_of_range.txt": lines([1, 2**63]),
    "invalid_utf8.txt": b"1\n\xff\xfe\n9\n",
    "nonascii_digits.txt": "1\n٣\n9\n".encode(),
    "signs.txt": b"-7\n-3\n+5\n+12\n",
    "underscore.txt": b"1\n1_000\n2000\n",
    # 100 keys near 0 and 100 near 10^15: the selector picks binary
    "two_clusters.txt": lines([*range(0, 200, 2), *range(10**15, 10**15 + 200, 2)]),
    # more digits than the one-pass parse reads; every value fits int64
    "digits_in_int64.txt": lines([INT64_MIN, -(10**18), "00000000000000000001", 10**18, INT64_MAX]),
    "digits19_beyond_int64.txt": lines([INT64_MIN - 1, 0]),
    "digits20_beyond_int64.txt": lines([0, 10**19]),
}
# the corpus directory itself, which exists in any checkout, and a path that does not
PATHS = (*FILES, ".", "missing.txt")
# targets for a file that does not load, or has no keys
NO_KEYS_TARGETS = (-1, 0, 1, 2, 3, 5, 9, 10, 40, 2**63, INT64_MIN - 1)
MODES = ((), ("--algorithm", "binary"), ("--algorithm", "interpolation"),
         ("--algorithm", "linear"))


def targets(path: Path) -> tuple[int, ...]:
    """Members at the quartiles, the first and last key, one below and one
    above them, two between keys, and the two integers just beyond int64."""
    try:
        with open(path, encoding="utf-8") as f:
            keys = list(load_dataset(f).values)
    except (DatasetError, OverflowError, OSError, UnicodeDecodeError):
        return NO_KEYS_TARGETS
    if not keys:
        return NO_KEYS_TARGETS
    n = len(keys)
    gaps = [a + 1 for a, b in zip(keys, keys[1:]) if b - a > 1] or [keys[-1] + 2]
    return (keys[n // 4], keys[n // 2], keys[3 * n // 4], keys[0], keys[-1],
            keys[0] - 1, keys[-1] + 1, gaps[0], gaps[-1], 2**63, INT64_MIN - 1)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def block(argv: list[str], code: int, out: str, err: str) -> str:
    for text in (out, err):
        if text and not text.endswith("\n"):
            raise SystemExit(f"{argv}: output does not end in a newline; the format cannot hold it")
    return "".join([f"$ adasearch {' '.join(argv)}\n", f"exit {code}\n",
                    *(f"| {ln}\n" for ln in out.splitlines()),
                    *(f"! {ln}\n" for ln in err.splitlines())])


HEADER = """\
# The `adasearch search` contract, written by tools/transcript.py and replayed
# by tests/test_transcript.py. Each block: `$ adasearch ARGV` (paths relative
# to this directory), `exit CODE`, then each line of stdout as `| LINE` and
# each line of stderr as `! LINE`.
"""


def main() -> int:
    CORPUS.mkdir(parents=True, exist_ok=True)
    for name, content in FILES.items():
        (CORPUS / name).write_bytes(content)
    blocks = []
    cwd = os.getcwd()
    os.environ["COLUMNS"] = "80"
    os.chdir(CORPUS)
    try:
        for path in PATHS:
            for target in (*targets(CORPUS / path), "1.5"):
                for mode in MODES:
                    argv = ["search", path, str(target), *mode]
                    blocks.append(block(argv, *run(argv)))
    finally:
        os.chdir(cwd)
    TRANSCRIPT.write_text(HEADER + "\n" + "\n".join(blocks), encoding="utf-8")
    print(f"{len(blocks)} invocations over {len(PATHS)} paths -> {TRANSCRIPT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
