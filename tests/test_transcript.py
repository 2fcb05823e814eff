"""Replay the committed `adasearch search` transcript (tools/transcript.py
writes it): every invocation must exit and print exactly as recorded."""

from pathlib import Path

import pytest

from adasearch.cli import main

CORPUS = Path(__file__).parent / "data" / "cli"
TRANSCRIPT = CORPUS / "transcript.txt"


def recorded():
    """[argv, exit code, stdout, stderr] per block of the transcript."""
    blocks = []
    for line in TRANSCRIPT.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ adasearch "):
            blocks.append([line.split()[2:], None, "", ""])
        elif line.startswith("exit "):
            blocks[-1][1] = int(line[5:])
        elif line.startswith("|"):
            blocks[-1][2] += line[2:] + "\n"
        elif line.startswith("!"):
            blocks[-1][3] += line[2:] + "\n"
    return blocks


BLOCKS = recorded()
# every path the transcript names, so a block whose path is absent, on purpose
# or not, is replayed and not skipped
PATHS = sorted({argv[1] for argv, *_ in BLOCKS})


def test_every_corpus_file_is_in_the_transcript():
    assert {p.name for p in CORPUS.iterdir() if p != TRANSCRIPT} <= set(PATHS)


@pytest.mark.parametrize("path", PATHS)
def test_search_matches_transcript(path, monkeypatch, capsys):
    monkeypatch.chdir(CORPUS)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line at it, as the tool does
    for argv, code, out, err in (b for b in BLOCKS if b[0][1] == path):
        try:
            got = main(argv)
        except SystemExit as exc:  # an argparse usage error
            got = exc.code
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, out, err), argv
