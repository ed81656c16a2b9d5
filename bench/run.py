"""Benchmark of the siegelps library: one seeded workload per process.

Run from the repository root:

    python3 bench/run.py --workload pairing-g1 --seed 1 --seconds 30 --trace 0

The process imports ``siegelps`` from this checkout's ``src/``, builds the
workload's task list from the seed, runs warm-up tasks, then runs whole
task lists back to back (one client, closed loop) until the next list would
end past ``--seconds``; every list gets fresh inputs.  Every task checks its
output.  With ``--trace 0`` it reports the end-to-end metrics, with times
scaled to the reference machine speed (see ``speed_probe``); with
``--trace 1`` every list runs traced, and it reports the per-layer metrics
and writes the spans to ``bench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread per process; set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("pairing-g1", "ball-g2", "cells")
# set-up is measured in this process and in this many fresh child processes
SETUP_CHILDREN = 2
# The shared host's speed drifts by up to 40 % within minutes, for every
# kind of work alike; a fixed reference computation timed between tasks
# measures that drift.  Reported times are scaled to the speed at which
# the probe takes PROBE_REFERENCE_S, its median on a quiet 2-core host.
PROBE_REFERENCE_S = 0.04
PROBE_EVERY_S = 0.5
# probes timed right after a set-up, for that set-up's scale
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one seeded siegelps workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for about this long (at least one task list)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the same code paths on tiny inputs")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# numpy, scipy and the benchmark modules that import siegelps are imported
# inside functions, after import_library has timed the library's import.
def import_library() -> float:
    """Import siegelps from this checkout's src/; return the import time."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import siegelps
    elapsed = time.perf_counter() - start
    if Path(siegelps.__file__).resolve().parent != src / "siegelps":
        raise ImportError(f"siegelps was imported from {siegelps.__file__}")
    return elapsed


def round_rng(seed: int, index: int):
    import numpy as np
    return np.random.default_rng([seed, 0, index])


def speed_probe():
    """A fixed reference computation; return a function that times one pass.

    An interpreter loop, and a sum over 2,048 integer matrices at 128
    points in the genus-1 series evaluator's own array arithmetic: the two
    kinds of work the workloads spend their time in.  On the 2-core host
    of bench/README.md the list walls of every workload track the probe
    with a log-log slope near one; a numpy exp in place of the series sum
    tracked pairing-g1 with slope 0.55.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b, c, d = rng.integers(-20, 21, size=(4, 2048, 1)).astype(float)
    d[d == 0] = 1.0                                  # so c*z + d is never 0
    z = rng.uniform(-0.5, 0.5, (1, 128)) + 1j * rng.uniform(1.0, 2.0, (1, 128))

    def probe() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        den = c * z + d
        np.sum(den ** -12 * (((a * z + b) / den - (0.3 - 1j)) / 2j) ** -12, axis=0)
        return time.perf_counter() - start

    probe()
    return probe


def run_one(task, tracer, task_id: int):
    """Run one task; return its latency and the error text, None if correct."""
    from workloads import TASK_ERRORS

    start = time.perf_counter()
    try:
        if tracer is None:
            task.run()
        else:
            tracer.run_task(task_id, task.kind, task.run)
        error = None
    except TASK_ERRORS as exc:
        error = f"{task.kind}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def setup(args, import_s: float, workdir: Path):
    """Build the first task list and run the warm-up tasks, timed."""
    import numpy as np
    from workloads import WORKLOADS

    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.size)
    first = workload.tasks(round_rng(args.seed, 0), workdir / "round0")
    warm = workload.warmup_tasks(np.random.default_rng([args.seed, 1]), workdir / "warmup")
    errors = [error for error in (run_one(t, None, -1)[1] for t in warm) if error]
    return import_s + time.perf_counter() - start, workload, first, len(warm), errors


def child_setup_times(args) -> list[tuple[float, float]]:
    """Set-up time and speed scale of fresh processes running only the set-up."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((result["setup_s"], result["scale"]))
    return times


def measure(args, workload, first, workdir: Path, tracer, probe):
    """Run whole task lists until the next one would end past --seconds.

    Without a tracer, ``probe`` is timed before each list, after a task
    once PROBE_EVERY_S of task time has passed since the last probe, and
    after the list; the list's speed scale is PROBE_REFERENCE_S over the
    median of its probes.
    """
    walls, latencies, scales, errors = [], [], [], []
    by_kind: dict = {}
    attempted = 0
    start = time.perf_counter()
    index, tasks = 0, first
    while True:
        if tasks is None:
            tasks = workload.tasks(round_rng(args.seed, index), workdir / f"round{index}")
        if tracer is not None:
            tracer.begin_round(index)
        probes = [probe()] if probe else []
        since_probe = 0.0
        lats = []
        for task in tasks:
            latency, error = run_one(task, tracer, attempted)
            attempted += 1
            lats.append(latency)
            by_kind[task.kind] = by_kind.get(task.kind, 0.0) + latency
            if error:
                errors.append(error)
            since_probe += latency
            if probe and since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
        if probe:
            probes.append(probe())
        walls.append(sum(lats))
        latencies.append(lats)
        scales.append(PROBE_REFERENCE_S / statistics.median(probes) if probe else 1.0)
        if index == 0:    # set-up plus one list; later lists add allocator history only
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index, tasks = index + 1, None
        if time.perf_counter() - start + max(walls) > args.seconds:
            return walls, latencies, scales, by_kind, errors, attempted, first_rss_mb


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "page_cache": "not dropped between runs",
    }


def report(args, metrics: dict, attempted: int, errors: list, lines: list) -> None:
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'failed_frac':<{width}}  {len(errors) / attempted:.6g} "
          f"({len(errors)}/{attempted} tasks)")
    for error in errors:
        print(f"FAILED {error}")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def run(args, import_s: float, workdir: Path) -> int:
    setup_s, workload, first, warm_count, warm_errors = setup(args, import_s, workdir)
    probe = speed_probe()
    setup_scale = PROBE_REFERENCE_S / statistics.median(
        probe() for _ in range(SETUP_PROBES))
    if args.setup_only:
        if warm_errors:
            print("\n".join(warm_errors), file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
        return 0
    setups = [(setup_s, setup_scale)] + child_setup_times(args)

    import tracing
    tracer = tracing.Tracer() if args.trace else None
    origin = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        walls, latencies, scales, by_kind, errors, attempted, rss_mb = measure(
            args, workload, first, workdir, tracer, None if tracer else probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors = warm_errors + errors
    attempted += warm_count
    total = sum(by_kind.values())
    lines = [f"task lists {len(walls)}" + (" traced" if tracer else "")
             + f", {sum(map(len, latencies))} tasks",
             "task list walls: " + ", ".join(f"{w:.3f} s" for w in walls),
             "task time by kind: " + ", ".join(
                 f"{kind} {t:.3f} s ({100 * t / total:.1f}%)"
                 for kind, t in sorted(by_kind.items(), key=lambda kv: -kv[1])),
             "set-up samples (unscaled, scale): " + ", ".join(
                 f"{t:.3f} s x {c:.3f}" for t, c in setups)]

    if not args.trace:
        scaled = [lat * scale for lats, scale in zip(latencies, scales)
                  for lat in lats]
        metrics = {
            "wall_s": (statistics.median(w * c for w, c in zip(walls, scales)), "s"),
            "task_p50_ms": (1e3 * statistics.median(
                statistics.median(lats) * scale
                for lats, scale in zip(latencies, scales)), "ms"),
            "setup_s": (statistics.median(t * c for t, c in setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        lines.append("speed scale per list (reference probe time / measured): "
                     + ", ".join(f"{c:.3f}" for c in scales))
        lines.append(f"unscaled: wall_s {statistics.median(walls):.6g} s, task_p50_ms "
                     f"{1e3 * statistics.median(map(statistics.median, latencies)):.6g} ms, "
                     f"setup_s {statistics.median(t for t, _ in setups):.6g} s")
        if len(scaled) >= 100:
            cut = int(len(scaled) * 0.9)
            lines.append(f"task_p90_ms  {1e3 * sorted(scaled)[cut]:.6g} ms "
                         f"({len(scaled) - cut - 1} tasks above it)")
        report(args, metrics, attempted, errors, lines)
        return 0

    per_round = [spans for _, spans in tracer.rounds]
    units = dict(tracing.LAYER_METRICS)
    layers = tracing.summarize_rounds([tracing.layer_metrics(s) for s in per_round])
    span_cost = tracer.span_cost()
    layers["trace.overhead_s"] = layers["trace.spans"] * span_cost
    metrics = {name: (layers[name], units[name]) for name, _ in tracing.LAYER_METRICS}
    lines.append(f"one traced call adds {1e6 * span_cost:.2f} us")

    lines.append("self time by task kind and layer, traced lists:")
    for kind, parts in sorted(tracing.self_time_by_kind(per_round).items()):
        total = sum(parts.values())
        shares = "  ".join(f"{layer} {100 * t / total:.1f}%"
                           for layer, t in sorted(parts.items(), key=lambda kv: -kv[1]))
        lines.append(f"  {kind:<12} {total:8.3f} s  {shares}")

    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "size": args.size, "env": environment()}, origin)
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    report(args, metrics, attempted, errors, lines)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"run.py: cannot import siegelps from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
