"""Print or check the rows of `leveled_classes.txt`, the leveled-class table.

For each level d in SIZES the rows run over every n from 1 to SIZES[d]: the
sorted canonical keys of the classes that `enumerate_classes(SIZES[d], d)`
keeps on n vertices and that pass the level test at d.

    PYTHONPATH=src python tests/data/make_leveled_table.py [--workers W] > rows
    PYTHONPATH=src python tests/data/make_leveled_table.py --check [--workers W]

The first prints the rows as the table lists them, `d n key key ...`.  The
second re-derives every row and exits 1, naming the rows that differ, when
the table is not exactly those rows.  Build the compiled kernels first
(`python setup.py build_ext --inplace`): with them and two workers the d=5
sizes take about a minute on two vCPUs, and pure Python far longer.  Each
level's time goes to stderr.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flagstone import enumerate_classes  # noqa: E402
from helpers import leveled_keys, read_leveled_table  # noqa: E402

SIZES = {2: 10, 3: 11, 4: 12, 5: 14}


def derive(d, n_max, workers=1):
    """{(d, n): sorted leveled keys} for 1 <= n <= n_max."""
    levels = enumerate_classes(n_max, d, workers=workers)
    return {(d, n): leveled_keys(levels[n], n, d) for n in range(1, n_max + 1)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the table instead of printing")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    rows = {}
    for d, n_max in SIZES.items():
        start = time.perf_counter()
        level = derive(d, n_max, args.workers)
        rows.update(level)
        print(f"d={d}, n<={n_max}: {sum(map(len, level.values()))} leveled classes, "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    if not args.check:
        for (d, n), keys in rows.items():
            print(d, n, *keys)
        return 0
    table = read_leveled_table()
    differ = sorted(row for row in rows.keys() | table.keys() if rows.get(row) != table.get(row))
    for d, n in differ:
        print(f"row d={d}, n={n} differs: derived {rows.get((d, n))}, table {table.get((d, n))}")
    print("table matches" if not differ else f"{len(differ)} row(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
