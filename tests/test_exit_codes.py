"""A seeded fuzz of the exit-code contract of `check` and `bounds`.

Every input, a byte mutation of a golden input, a well-formed random
edge or facet list on up to 70 vertices, a facet list to be reduced
(vertices in no facet, repeated facets and facets inside others), or the
maximal cliques of a dense random graph, with or without sub-faces, must
end with exit 0, with exit 2 and a message, or with exit 1 only when the
output lists a potential counterexample; never with a traceback, and
each case within a time bound.  A refusal at the clique budget costs a
census of 2^20 cliques, so only a few dense graphs are drawn.
"""

import random
import signal
from itertools import chain
from pathlib import Path

import pytest

from flagstone import dump_edge_list, gen_cycle
from flagstone.cli import main
from helpers import random_graph

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = ["join.txt", "suspension.txt", "torus.facets", "pair.g6", "hollow.facets"]
CASE_SECONDS = 5  # per case, both commands; a budget refusal takes well under 1 s


class _Timeout(BaseException):
    """Raised by the alarm, past anything the commands catch."""


def _mutated(data, rng):
    """data with one to three random byte edits: replace, insert or delete."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        edit = rng.randrange(3)
        if edit == 0 and i < len(data):
            data[i] = rng.choice(b"0123456789 \n-~?" + bytes([rng.randrange(256)]))
        elif edit == 1:
            data.insert(i, rng.choice(b"0123456789 \n"))
        elif i < len(data):
            del data[i]
    return bytes(data)


def _facet_list(rng):
    """A facet list on up to 70 vertices with up to 40 facets of up to 8 vertices."""
    n = rng.randint(1, 70)
    facets = [sorted(rng.sample(range(n), rng.randint(1, min(n, 8)))) for _ in range(rng.randint(0, 40))]
    return f"{n} {len(facets)}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)


def _cases(rng):
    """(name, file bytes) pairs: 100 mutations, 70 edge lists, 30 facet lists."""
    for i in range(100):
        name = INPUTS[i % len(INPUTS)]
        yield f"mut{i}-{name}", _mutated((GOLDEN / name).read_bytes(), rng)
    for i in range(70):
        # two dense graphs go over the clique budget; the rest stay sparse
        n, p = (70, 0.94) if i % 25 == 24 else (rng.randint(0, 70), rng.random() * 0.5)
        yield f"edges{i}.txt", dump_edge_list(random_graph(n, p, rng)).encode()
    for i in range(30):
        yield f"facets{i}.facets", _facet_list(rng).encode()


def _reducible_cases(rng):
    """(name, file bytes) pairs: 20 facet lists on up to 40 vertices that
    leave some vertices in no facet and repeat or contain some facets.
    One in four is a cycle, which passes the level test, and one in four
    the maximal cliques of a random graph, which is flag."""
    for i in range(20):
        n = rng.randint(5, 40)
        used = rng.sample(range(n), rng.randint(4, n - 1))
        if i % 4 == 3:
            cells = gen_cycle(len(used)).maximal_cliques()
        elif i % 4 == 1:
            cells = random_graph(len(used), rng.random(), rng).maximal_cliques()
        else:
            cells = [rng.sample(range(len(used)), rng.randint(1, min(len(used), 6))) for _ in range(rng.randint(1, 20))]
        facets = [sorted(used[v] for v in cell) for cell in cells]
        facets += [rng.choice(facets) for _ in range(rng.randint(1, 3))]
        facets += [sorted(rng.sample(f, rng.randint(1, len(f)))) for f in rng.sample(facets, min(3, len(facets)))]
        rng.shuffle(facets)
        text = f"{n} {len(facets)}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)
        yield f"reducible{i}.facets", text.encode()


def _dense_cases(rng):
    """(name, file bytes) pairs: 12 facet lists, each the maximal cliques of
    a random graph with p >= 0.8 on up to 34 vertices.  Every other one also
    lists sub-faces of some cliques, and every third one leaves a vertex in
    no facet.  Near p = 1 a clique can pass DIMENSION_CAP, and near 0.93 a
    34-vertex skeleton can pass the clique budget."""
    for i in range(12):
        n = rng.randint(16, 34)
        facets = [list(c) for c in random_graph(n, rng.uniform(0.8, 1), rng).maximal_cliques()]
        if i % 2:
            facets += [sorted(rng.sample(f, max(1, len(f) - rng.randint(1, 3))))
                       for f in rng.sample(facets, min(len(facets), 25))]
        rng.shuffle(facets)
        n += i % 3 == 0
        text = f"{n} {len(facets)}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)
        yield f"dense{i}.facets", text.encode()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_check_and_bounds_exit_codes_on_seeded_inputs(tmp_path, capsys):
    def alarm(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, alarm)
    codes = set()
    try:
        for name, data in chain(_cases(random.Random(17)), _reducible_cases(random.Random(23)),
                               _dense_cases(random.Random(29))):
            path = tmp_path / name
            path.write_bytes(data)
            argvs = [["check", str(path)], ["bounds", str(path), "--s", str(1 + len(data) % 3)]]
            signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
            try:
                for argv in argvs:
                    code = main(argv)
                    out, err = capsys.readouterr()
                    codes.add(code)
                    listed = "CANDIDATE" in out or '"potential_counterexample": true' in out
                    assert code in (0, 2) or (code == 1 and listed), (argv, code, out, err)
                    assert code != 2 or err or "ERROR" in out, (argv, out)
            except _Timeout:
                pytest.fail(f"{name} took over {CASE_SECONDS} s: {data[:80]!r}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert {0, 2} <= codes
