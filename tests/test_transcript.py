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
FILES = sorted(p.name for p in CORPUS.iterdir() if p != TRANSCRIPT)


@pytest.mark.parametrize("name", FILES)
def test_search_matches_transcript(name, monkeypatch, capsys):
    blocks = [b for b in BLOCKS if b[0][1] == name]
    assert blocks, f"{name} has no invocation in the transcript"
    monkeypatch.chdir(CORPUS)
    for argv, code, out, err in blocks:
        got = main(argv)
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, out, err), argv
