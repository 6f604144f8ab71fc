"""End-to-end and per-layer benchmark of the flagstone CLI.

    python3 benchmark/run.py --workload exhaustive|walk|corpus --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src`.

--trace 0 runs `python -m flagstone.cli` in a fresh child process per
invocation, one at a time, for about S seconds (at least three
invocations) after one untimed warm-up invocation, checks every output
against the workload's oracle, and reports medians of wall time, CPU time
(user+sys of the child and its reaped descendants) and peak RSS, plus the
median time from spawning an interpreter to `flagstone.cli` being
imported, sampled once before each invocation.

The speed of a shared host drifts by up to a third over minutes, and the
program's times drift with it.  So before each invocation and after the
last one, the run also times a fresh interpreter running a fixed program
that does not touch flagstone (`probe_speed`), and the three times are
reported at a nominal machine speed: each sample is multiplied by
SPEED_PROBE_NOMINAL_S over the mean time of the probes taken just before
and just after it (their CPU time for CPU times, their wall time for wall
times), and the median is taken over those.  The unscaled times are in the details line.

--trace 1 runs the same CLI call in this process, alternating untraced and
traced executions, and reports per-layer counts, self times and ratios
from the traced ones and the tracing overhead; the spans of the last traced
execution are written to .bench_work/.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the details: environment, sample
counts, tail percentiles and the failed-operation fraction.
"""

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_INVOCATIONS = 3
# A round figure near the median of probe_speed() on 2 vCPUs of a shared
# Intel Xeon host with Python 3.11.7, where it drifted between about 0.16
# and 0.27 s.  Times are reported as if the probes around them had taken
# exactly this long.
SPEED_PROBE_NOMINAL_S = 0.2

# A fixed program that does not touch flagstone.  A fresh interpreter running
# it pays the same start-up and the same kind of tuple and dict work as an
# invocation, so its time follows the speed of the machine.
SPEED_PROBE = (
    "import random\n"
    "rng = random.Random(5)\n"
    "seen = {}\n"
    "for _ in range(40000):\n"
    "    key = (rng.randrange(1000), rng.randrange(1000))\n"
    "    seen[key] = seen.get(key, 0) + 1\n"
    "sorted(seen.items())\n"
)
INVOCATION_TIMEOUT_S = 100

SETUP_PROBE = (
    "import time\n"
    "import flagstone.cli\n"
    "t = time.monotonic()\n"
    "import importlib.util, flagstone\n"
    "print(t, flagstone.BACKEND, importlib.util.find_spec('flagstone._kernels_cy') is not None)\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def tail_percentile(values):
    """(q, value) for the highest of the usual percentiles with at least ten
    samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    for q in (99.9, 99, 95, 90, 75, 50):
        index = int(q / 100 * len(ordered))
        if len(ordered) - index - 1 >= 10:
            return q, ordered[index]
    return None


def summary(values):
    out = {"median": statistics.median(values), "samples": len(values)}
    tail = tail_percentile(values)
    if tail:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def git_revision():
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(backend, compiled):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "backend": backend,
        "kernels_cy_importable": compiled,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_revision": git_revision(),
    }


def probe_speed(workdir):
    """(wall s, cpu s) for a fresh isolated interpreter to run SPEED_PROBE."""
    code, _, wall, cpu, _ = run_child([sys.executable, "-I", "-c", SPEED_PROBE], os.environ, workdir)
    if code:
        raise RuntimeError(f"speed probe exited with {code}")
    return wall, cpu


def probe_setup(env):
    """(seconds from spawning an interpreter to flagstone.cli imported,
    backend name, whether the compiled kernels are importable)."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    imported, backend, compiled = done.stdout.split()
    return float(imported) - start, backend, compiled == "True"


def invoke(argv, env, workdir):
    """One CLI invocation in a child process: (exit code, stdout, wall s, cpu s, peak RSS MB)."""
    return run_child([sys.executable, "-m", "flagstone.cli", *argv], env, workdir)


def run_child(command, env, workdir):
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=out)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="ascii", errors="replace")
    return code, stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class Checker:
    """Runs the oracle once per distinct output and totals the operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems = []
        self._seen = {}

    def __call__(self, code, stdout):
        out = self.workload.out
        payload = out.read_bytes() if out.exists() else b""
        key = (code, stdout, payload)
        if key not in self._seen:
            self._seen[key] = self.workload.check(code, stdout, payload)
        verdict = self._seen[key]
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(verdict.problems[:5 - len(self.problems)])


def run_untraced(workload, seconds, checker):
    env = child_env()

    def invoke_checked():
        workload.out.unlink(missing_ok=True)
        code, stdout, *measured = invoke(workload.argv, env, workload.out.parent)
        checker(code, stdout)
        return measured

    # untimed warm-up: fills the bytecode cache and the page cache
    _, backend, compiled = probe_setup(env)
    invoke_checked()
    probe_walls, probe_cpus, setup, walls, cpus, rss = [], [], [], [], [], []
    deadline = time.monotonic() + seconds
    while len(walls) < MIN_INVOCATIONS or time.monotonic() + walls[-1] < deadline:
        # the probes alternate with the invocations so they see the same machine
        probe_wall, probe_cpu = probe_speed(workload.out.parent)
        probe_walls.append(probe_wall)
        probe_cpus.append(probe_cpu)
        setup.append(probe_setup(env)[0])
        wall, cpu, peak = invoke_checked()
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    probe_wall, probe_cpu = probe_speed(workload.out.parent)
    probe_walls.append(probe_wall)
    probe_cpus.append(probe_cpu)

    def at_nominal_speed(times, probes):
        # each sample is bracketed by the probes taken just before and just after it
        return [t * SPEED_PROBE_NOMINAL_S * 2 / (before + after)
                for t, before, after in zip(times, probes, probes[1:])]
    walls_n, cpus_n = at_nominal_speed(walls, probe_walls), at_nominal_speed(cpus, probe_cpus)
    setup_n = at_nominal_speed(setup, probe_walls)
    metrics = {
        "wall_s": (statistics.median(walls_n), "s"),
        "cpu_s": (statistics.median(cpus_n), "s"),
        "setup_s": (statistics.median(setup_n), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    details = {"environment": environment(backend, compiled), "speed_probe_wall_s": summary(probe_walls),
               "speed_probe_cpu_s": summary(probe_cpus),
               "wall_s": summary(walls_n), "cpu_s": summary(cpus_n), "setup_s": summary(setup_n),
               "raw_wall_s": summary(walls), "raw_cpu_s": summary(cpus), "raw_setup_s": summary(setup),
               "peak_rss_mb": summary(rss)}
    return metrics, details


def run_traced(workload, seconds, checker, spans_path):
    sys.path.insert(0, str(SRC))
    import flagstone
    import flagstone.cli

    def execute(tracer=None):
        workload.out.unlink(missing_ok=True)
        gc.collect()
        main = flagstone.cli.main if tracer is None else tracer.wrap("cli.main", flagstone.cli.main)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            try:
                code = main(list(workload.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash fails the invocation, as the exit code 1 of a child would
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        checker(code, captured.getvalue())
        return wall

    def execute_traced():
        tracer = layers.Tracer()
        with layers.traced(tracer):
            traced.append(execute(tracer))
        runs.append(layers.layer_metrics(tracer.spans))
        return tracer

    untraced, traced, runs = [], [], []
    deadline = time.monotonic() + seconds
    while not traced or time.monotonic() + untraced[-1] + traced[-1] < deadline:
        # alternate which side of a pair runs first, so warm-up favours neither
        if len(traced) % 2:
            tracer = execute_traced()
            untraced.append(execute())
        else:
            untraced.append(execute())
            tracer = execute_traced()
    spans_path.write_text(json.dumps([span[:4] for span in tracer.spans]), encoding="ascii")

    metrics = {name: (statistics.median(m[name] for m, _ in runs), unit_of(name)) for name in runs[0][0]}
    # adjacent executions see the same machine speed, so compare within pairs
    overhead = statistics.median(t / u for u, t in zip(untraced, traced)) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    profile = runs[-1][1]
    root = profile["total_s"].pop("cli.main")

    def shares(times):
        return {name: round(t / root, 4) for name, t in sorted(times.items(), key=lambda kv: -kv[1])}
    details = {
        "environment": environment(flagstone.BACKEND,
                                   importlib.util.find_spec("flagstone._kernels_cy") is not None),
        "untraced_wall_s": summary(untraced),
        "traced_wall_s": summary(traced),
        "self_share": shares(profile["self_s"]),
        "inclusive_share": shares(profile["total_s"]),
        "load_instances_share": shares(profile["load_instances_s"]),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def unit_of(name):
    stat = name.rsplit(".", 1)[1]
    return {"calls": "count", "mb_per_s": "MB/s"}.get(stat, "s" if stat.endswith("_s") else "ratio")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "flagstone" / "cli.py").is_file():
        print(f"error: no flagstone sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(workload)
        if args.trace:
            spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, details = run_traced(workload, args.seconds, checker, spans_path)
        else:
            metrics, details = run_untraced(workload, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "ops_failed_frac": {"value": checker.failed / checker.attempted, "unit": "ratio"},
        "problems": checker.problems,
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
