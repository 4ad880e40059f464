#!/usr/bin/env python3
"""tworelay benchmark: one workload, one seed, one JSON line of metrics.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

Workloads are ``search``, ``reduce`` and ``simulate`` (see
``workloads.py``).  A run first times several fresh interpreters that import
``tworelay`` from ``src/`` and generate the workload's inputs (``setup_s``
is their median), then runs the workload's fixed task list repeatedly until
``--seconds`` have passed, at least once, checking every task's output.

With ``--trace 0`` the passes are untraced and the last line of stdout holds
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, and the last line holds the per-layer metrics of ``layers.py``,
the import costs of ``tworelay`` and of the scipy modules it pulls in, and
the tracing overhead.  Lines before it are a human summary and the
environment.  A missing ``src/tworelay`` exits 2 without a result.

Everything runs in one process on one thread: BLAS and OpenMP pools are
pinned to one thread and every CLI call passes ``--jobs 1``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120
WORK_UNITS = {"search": "evaluations", "reduce": "bindings", "simulate": "decoded blocks"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORK_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def new_workdir() -> str:
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK)


def drop_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def setup_probe(args) -> int:
    """Child side of a set-up sample: import tworelay, generate the inputs."""
    import tworelay  # noqa: F401  (first, so -X importtime sees all of it)
    import workloads

    workdir = new_workdir()
    try:
        workloads.make(args.workload, args.seed, workdir)
    finally:
        drop_workdir(workdir)
    return 0


def probe(args, importtime: bool) -> tuple[float, str]:
    """Wall time of one fresh set-up interpreter, and its stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}")
    return elapsed, done.stderr


def import_times(stderr: str) -> tuple[float, float]:
    """Seconds spent in ``import tworelay`` and, within it, in scipy modules.

    Parses ``python -X importtime`` output.  A module's line is printed when
    its import finishes, after the lines of the imports it triggered, and
    nesting shows as two spaces of indentation per level.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the header line
        field = parts[2][1:]
        name = field.lstrip(" ")
        entries.append(((len(field) - len(name)) // 2, name, cumulative_us))
    package = scipy = 0
    enclosing: list[tuple[int, bool, bool]] = []  # depth, under tworelay, under scipy
    for depth, name, cumulative_us in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        in_package, in_scipy = enclosing[-1][1:] if enclosing else (False, False)
        is_package = name == "tworelay"
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_package:
            package += cumulative_us
        if (in_package or is_package) and is_scipy and not in_scipy:
            scipy += cumulative_us
        enclosing.append((depth, in_package or is_package, in_scipy or is_scipy))
    return package / 1e6, scipy / 1e6


class PassResult:
    """Outcome of one pass over a workload's task list."""

    def __init__(self):
        self.wall_s = 0.0  # task run time, checks excluded
        self.work = 0
        self.work_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.task_s: dict[str, float] = {}

    @property
    def work_per_s(self) -> float:
        return self.work / self.work_s if self.work_s else 0.0


def run_pass(tasks, tracer=None) -> PassResult:
    """Run and check every task once; a task that raises counts as failed."""
    gc.collect()
    result = PassResult()
    for task in tasks:
        result.attempted += 1
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                out, error = task.run(), None
            except Exception as err:  # the pass must go on and report the failure
                error = err
            elapsed = time.perf_counter() - start
        result.wall_s += elapsed
        result.task_s[task.name] = elapsed
        if error is not None:
            result.failures.append(f"{task.name} raised {type(error).__name__}: {error}")
            continue
        try:
            task.check(out)
        except Exception as err:  # a wrong result in any form fails the task
            result.failures.append(f"{task.name}: {type(err).__name__}: {err}")
            continue
        if task.work is not None:
            result.work += task.work(out)
            result.work_s += elapsed
    return result


def end_to_end(setups: list[float], plain: list[PassResult]) -> dict:
    """The untraced run's metrics, as ``name -> (value, unit)``."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall_s for p in plain), "s"),
        "work_per_s": (statistics.median(p.work_per_s for p in plain), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(stats, plain: list[PassResult], traced: list[PassResult],
              imports: list[tuple[float, float]]) -> dict:
    """The traced run's metrics: layers, import costs and tracing overhead."""
    import layers

    metrics = layers.layer_metrics(stats, len(traced))
    plain_wall = statistics.median(p.wall_s for p in plain)
    overhead = statistics.median(p.wall_s for p in traced) - plain_wall
    metrics.update({
        "cli.import_s": (statistics.median(t for t, _ in imports), "s"),
        "cli.import_scipy_s": (statistics.median(s for _, s in imports), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / plain_wall, "ratio"),
    })
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tworelay" / "__init__.py").is_file():
        print(f"error: no tworelay package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    if args.trace:
        imports = [import_times(probe(args, importtime=True)[1]) for _ in range(IMPORT_SAMPLES)]
    else:
        setups = [probe(args, importtime=False)[0] for _ in range(SETUP_SAMPLES)]

    import tworelay
    import layers
    import workloads

    if not Path(tworelay.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported tworelay from {tworelay.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = new_workdir()
    try:
        tasks = workloads.make(args.workload, args.seed, workdir)
        tracer = layers.Tracer(tworelay) if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(tasks))
            if tracer is not None:
                traced.append(run_pass(tasks, tracer))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        drop_workdir(workdir)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for failure in p.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer.stats, plain, traced, imports)
    else:
        metrics = end_to_end(setups, plain)

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes of {len(tasks)} tasks; work unit: {WORK_UNITS[args.workload]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for task in tasks:
        print(f"  task {task.name}: {statistics.median(p.task_s[task.name] for p in plain):.4g} s")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} tasks)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
