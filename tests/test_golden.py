"""Byte-identity of `check`, `search` and `bounds` output on small fixed inputs.

tests/data/golden holds a balanced cycle join and a suspended cycle (edge
lists), the 6x6 grid torus and a non-flag complex (facet lists), and a
graph6 file with a 7-cycle and a seeded random graph on 12 vertices.
check.json and check.stdout are the bytes `flagstone check` wrote for them
while Bron-Kerbosch and clique counting were still separate passes; the
search-*.json and search-*.stdout files are the `--out` payload and the
standard output of the searches in SEARCHES: search-random-d2 and
search-random-d5 were written while random mode still walked by edge
swaps, the others while the value classes were still dataclasses.
bounds-*.stdout are the reports of `flagstone bounds` on the files in
BOUNDS, written while that command still printed through `json.dumps`.
A speedup must leave them all unchanged, both through main(argv) in this
process and through the process entry, `python -m flagstone.cli`, which
freezes the start-up heap first.
Regenerate them (only for a deliberate output change) from that directory:

    python -m flagstone.cli check join.txt suspension.txt torus.facets \
        pair.g6 hollow.facets --json check.json > check.stdout
    python -m flagstone.cli search --mode exhaustive --d 1 --n 3..7 \
        --out search-d1.json > search-d1.stdout
    python -m flagstone.cli search --mode exhaustive --d 2 --n 3..8 \
        --out search-d2.json > search-d2.stdout
    python -m flagstone.cli search --mode random --d 3 --n 10..30 --seed 1 \
        --budget 100 --out search-random-d3.json > search-random-d3.stdout
    python -m flagstone.cli search --mode random --d 2 --n 4..16 --seed 1 \
        --budget 100 --out search-random-d2.json > search-random-d2.stdout
    python -m flagstone.cli search --mode random --d 5 --n 12..24 --seed 2 \
        --budget 100 --out search-random-d5.json > search-random-d5.stdout
    python -m flagstone.cli bounds join.txt --s 2 > bounds-join.stdout
    python -m flagstone.cli bounds torus.facets --s 1 > bounds-torus.stdout
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagstone.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
FILES = ["join.txt", "suspension.txt", "torus.facets", "pair.g6", "hollow.facets"]
SEARCHES = {
    "search-d1": ["--mode", "exhaustive", "--d", "1", "--n", "3..7"],
    "search-d2": ["--mode", "exhaustive", "--d", "2", "--n", "3..8"],
    "search-random-d3": ["--mode", "random", "--d", "3", "--n", "10..30", "--seed", "1", "--budget", "100"],
    "search-random-d2": ["--mode", "random", "--d", "2", "--n", "4..16", "--seed", "1", "--budget", "100"],
    "search-random-d5": ["--mode", "random", "--d", "5", "--n", "12..24", "--seed", "2", "--budget", "100"],
}
BOUNDS = {
    "bounds-join": ["join.txt", "--s", "2"],
    "bounds-torus": ["torus.facets", "--s", "1"],
}


def test_check_output_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    out_json = tmp_path / "check.json"
    assert main(["check", *FILES, "--json", str(out_json)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "check.stdout").read_text()
    assert out_json.read_bytes() == (GOLDEN / "check.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_output_is_byte_identical(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(["search", *SEARCHES[name], "--out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bounds_output_is_byte_identical(name, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(["bounds", *BOUNDS[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()


def _process_entry(args, cwd):
    """Run `python -m flagstone.cli args` in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-B", "-m", "flagstone.cli", *args], cwd=cwd, env=env,
                          capture_output=True, check=False)


def test_process_entry_output_is_byte_identical(tmp_path):
    out_json = tmp_path / "check.json"
    done = _process_entry(["check", *FILES, "--json", str(out_json)], GOLDEN)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "check.stdout").read_bytes()
    assert out_json.read_bytes() == (GOLDEN / "check.json").read_bytes()
    # two workers: the pool forks from the frozen parent; random mode's
    # payload goes through the same process entry
    for name, extra in (("search-d2", ["--workers", "2"]), ("search-random-d3", [])):
        out = tmp_path / f"{name}.json"
        done = _process_entry(["search", *SEARCHES[name], *extra, "--out", str(out)], tmp_path)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


class _CountingStdout(io.StringIO):
    """A stdout that counts the calls to its write."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv, golden", [
    (["check", *FILES], "check.stdout"),
    (["search", *SEARCHES["search-d1"]], "search-d1.stdout"),
    (["search", *SEARCHES["search-random-d3"]], "search-random-d3.stdout"),
])
def test_listing_is_one_stdout_write(argv, golden, monkeypatch):
    # an unbuffered stdout (PYTHONUNBUFFERED) pays two system calls for
    # each print; the listing goes out in one write
    monkeypatch.chdir(GOLDEN)
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.writes == 1
    assert stdout.getvalue() == (GOLDEN / golden).read_text()
