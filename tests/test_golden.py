"""Byte-identity of `check` output on a small fixed corpus.

tests/data/golden holds a balanced cycle join and a suspended cycle (edge
lists), the 6x6 grid torus and a non-flag complex (facet lists), and a
graph6 file with a 7-cycle and a seeded random graph on 12 vertices.
check.json and check.stdout are the bytes `flagstone check` wrote for them
while Bron-Kerbosch and clique counting were still separate passes; a
speedup must leave them unchanged.
Regenerate them (only for a deliberate output change) from that directory:

    python -m flagstone.cli check join.txt suspension.txt torus.facets \
        pair.g6 hollow.facets --json check.json > check.stdout
"""

from pathlib import Path

from flagstone.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FILES = ["join.txt", "suspension.txt", "torus.facets", "pair.g6", "hollow.facets"]


def test_check_output_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    out_json = tmp_path / "check.json"
    assert main(["check", *FILES, "--json", str(out_json)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "check.stdout").read_text()
    assert out_json.read_bytes() == (GOLDEN / "check.json").read_bytes()
