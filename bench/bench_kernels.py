"""Compare the compiled kernels against the pure-Python fallback.

Times four hot operations on seeded random graphs and on a balanced cycle
join, then prints one table row per (operation, instance) with the
speedup.  Both backends are imported directly; build the extension first
with `python setup.py build_ext --inplace`.
"""

import argparse
import random
import time

from flagstone import gen_join_of_cycles
from flagstone import _kernels_py

try:
    from flagstone import _kernels_c
except ImportError:
    _kernels_c = None


def random_masks(n, p, rng):
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def instances(seed):
    rng = random.Random(seed)
    out = [
        (f"random n=16 p=0.5", random_masks(16, 0.5, rng), 16),
        (f"random n=24 p=0.3", random_masks(24, 0.3, rng), 24),
        (f"random n=32 p=0.2", random_masks(32, 0.2, rng), 32),
    ]
    # 3-leveled, so no 3-clique is crowded and the d=3 scan cannot short-circuit
    g = gen_join_of_cycles(2, 24)
    out.append(("join s=2 n=24", list(g.masks), g.n))
    return out


def operations():
    ops = [
        ("clique_census", lambda mod, masks, n: mod.clique_census(masks, n)),
        ("maximal_cliques", lambda mod, masks, n: mod.maximal_cliques(masks, n)),
        # the exhaustive search's prune, here over every vertex
        ("crowded_link d=3", lambda mod, masks, n: mod.crowded_link(masks, n, 3, (1 << n) - 1)),
    ]
    # canonical labeling explodes past n ~ 11; bench it on a trimmed prefix
    ops.append(
        ("canonical_key n=10", lambda mod, masks, n: mod.canonical_key(
            [m & 0x3FF for m in masks[:10]], 10))
    )
    return ops


def best_time(fn, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5, help="keep the best of this many runs")
    args = parser.parse_args(argv)

    if _kernels_c is None:
        print("compiled backend not importable; timing the fallback only")
    rows = []
    for op_name, op in operations():
        for inst_name, masks, n in instances(args.seed):
            t_py = best_time(lambda: op(_kernels_py, masks, n), args.repeats)
            if _kernels_c is not None:
                t_c = best_time(lambda: op(_kernels_c, masks, n), args.repeats)
                assert op(_kernels_py, masks, n) == op(_kernels_c, masks, n)
                rows.append((op_name, inst_name, t_py, t_c, t_py / t_c))
            else:
                rows.append((op_name, inst_name, t_py, None, None))

    header = f"{'operation':<22} {'instance':<18} {'python':>10} {'c':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for op_name, inst_name, t_py, t_c, ratio in rows:
        c = f"{t_c * 1e3:9.3f}ms" if t_c is not None else f"{'-':>10}"
        sp = f"{ratio:7.1f}x" if ratio is not None else f"{'-':>8}"
        print(f"{op_name:<22} {inst_name:<18} {t_py * 1e3:9.3f}ms {c} {sp}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
