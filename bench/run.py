"""ratdyn benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of spectra_exceptional, spectra_generic, numeric_orbits (see
bench/README.md).  One process runs one workload, single-threaded unless
RATDYN_THREADS or the BLAS/OpenMP variables say otherwise; the runner never
sets them.  It sets up (imports, fixtures, one warm-up call), then runs the
workload's task list at least twice and until S seconds are used, checking
every output.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, cpu_s,
setup_s, peak_rss_mb); with --trace 1 the first iteration runs untraced and
the second traced, and the metrics are the per-layer ones of the traced
iteration plus the tracing overhead.  `--workload all` runs every workload
in its own process and prints a summary table.  `--size tiny` runs the
self-test sizes (periods <= 2, 10^3 samples).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("spectra_exceptional", "spectra_generic", "numeric_orbits")
SETUP_REPEATS = 5  # set-ups per run (this process plus 4 children); median reported
THREAD_VARS = (
    "RATDYN_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


def setup(workload: str, size: str):
    """Import ratdyn from this checkout, build the fixtures, warm up.
    Returns (tasks, seconds since process start)."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import ratdyn
    except ImportError as e:
        raise SetupError(f"cannot import ratdyn from {SRC}: {e}") from None
    if not Path(ratdyn.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"ratdyn was imported from {ratdyn.__file__}, not from {SRC}")
    import workloads

    try:
        reference = workloads.load_reference(size)
    except (OSError, KeyError, json.JSONDecodeError) as e:
        raise SetupError(f"cannot read the spectra reference: {e!r}") from None
    tasks = workloads.build(workload, size, reference)
    workloads.warm_up()
    return tasks, time.perf_counter() - T_START


def child_setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes doing the same set-up as this one."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--size", args.size,
    ]
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def provenance() -> dict:
    def version(name):
        mod = sys.modules.get(name)
        return getattr(mod, "__version__", None) if mod else None

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=ROOT, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import mpmath

    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "mpmath": version("mpmath"),
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_iteration(tasks, seed: int, tracer=None):
    """One pass over the task list.  Returns ([wall s per task], [cpu s per
    task], {task: raw output or exception})."""
    gc.collect()
    raws, walls, cpus = {}, [], []
    with tracer or contextlib.nullcontext():
        for task in tasks:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                raws[task.name] = task.run(seed)
            except Exception as e:  # a failed task is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                raws[task.name] = e
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
    return walls, cpus, raws


def check_iteration(tasks, raws, first_records: dict) -> list[str]:
    """Problems of one iteration; the first iteration's output records are
    stored in `first_records`, later ones must equal them."""
    problems = []
    for task in tasks:
        raw = raws[task.name]
        if isinstance(raw, Exception):
            problems.append(f"{task.name}: {type(raw).__name__}: {raw}")
            first_records.setdefault(task.name, None)
            continue
        try:
            record, task_problems = task.check(raw)
        except Exception as e:  # malformed output
            record, task_problems = None, [f"{task.name}: check raised {type(e).__name__}: {e}"]
        if task.name in first_records and record != first_records[task.name]:
            task_problems.append(f"{task.name}: output differs from the first iteration")
        first_records.setdefault(task.name, record)
        if task_problems:
            problems.append("; ".join(task_problems))
    return problems


def measure(args, tasks):
    """Run iterations; returns (result dict, human-readable lines)."""
    from tracer import PER_LAYER, Tracer

    walls, cpus, lines = [], [], []
    attempted = failed = 0
    first_records: dict = {}
    tracer = None
    t0 = time.perf_counter()
    while True:
        if args.trace and len(walls) == 1:
            tracer = Tracer()
        task_walls, task_cpus, raws = run_iteration(tasks, args.seed, tracer)
        problems = check_iteration(tasks, raws, first_records)
        walls.append(sum(task_walls))
        cpus.append(sum(task_cpus))
        attempted += len(tasks)
        failed += len(problems)
        tag = "traced" if tracer is not None else "untraced"
        lines.append(f"iteration {len(walls)} ({tag}): wall {walls[-1]:.4f} s, cpu {cpus[-1]:.4f} s, "
                     f"{len(problems)} of {len(tasks)} tasks failed; task walls "
                     + " ".join(f"{w:.4f}" for w in task_walls))
        lines += [f"  FAILED {p}" for p in problems]
        if tracer is not None:
            break
        elapsed = time.perf_counter() - t0
        if len(walls) >= 2 and elapsed + statistics.median(walls) > args.seconds:
            break
    if args.trace:
        values = tracer.metrics()
        values["trace.overhead_s"] = walls[1] - walls[0]
        values["trace.overhead_frac"] = (walls[1] - walls[0]) / walls[0]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(args.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    lines.append(f"setup_s per process: {', '.join(f'{s:.4f}' for s in args.setup_times)}")
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    lines.append(f"error_rate: {failed / attempted:.6g} fraction ({failed} of {attempted} tasks failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Every workload in its own process; prints one summary row each."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 2
        print(f"== {workload}")
        print("\n".join(out[:-1]))
        res = json.loads(out[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
        rows.append((workload, res))
    if not args.trace:
        print(f"{'workload':<20} {'wall_s [s]':>11} {'cpu_s [s]':>10} {'setup_s [s]':>12} "
              f"{'peak_rss_mb [MB]':>17} {'error_rate [fraction]':>22}")
        for workload, res in rows:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{workload:<20} {m['wall_s']:>11.4f} {m['cpu_s']:>10.4f} {m['setup_s']:>12.4f} "
                  f"{m['peak_rss_mb']:>17.1f} {res['failed'] / res['attempted']:>22.4g}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ratdyn benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        tasks, setup_s = setup(args.workload, args.size)
        if args.setup_only:
            print(setup_s)
            return 0
        args.setup_times = [setup_s] + child_setup_seconds(args)
    except SetupError as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 2
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    result, lines = measure(args, tasks)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
