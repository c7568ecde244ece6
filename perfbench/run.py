"""Benchmark for pollencast: ``train``, ``backtest`` and ``forecast``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's ``src/`` (pure Python, nothing
to build).  Each workload is a closed loop with one client in one process:
set-up is run and timed three times, then whole rounds of ``pollencast``
commands run in-process through ``pollencast.cli.main`` until ``--seconds``
have passed.  The outputs are then checked against computations made apart
from the program (see ``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric.  With ``--trace 1`` each round runs untraced and
then traced, the traced outputs must equal the untraced ones byte for byte,
and the JSON holds every per-layer metric; the spans are written to
``.perfbench-work/spans-<workload>-seed<seed>.json`` when the run ends.
Exit status 2 means the benchmark could not run; no result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-up runs at least SETUPS times and for SETUP_SECONDS in all before
#: the measurement.  It runs again after a round while all set-ups so far
#: took less than SETUP_SHARE of the time measured, so that cheap set-ups
#: are sampled across the whole run.  setup_s is the median.
SETUPS = 3
SETUP_SECONDS = 1.0
SETUP_SHARE = 0.1


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "backtest", "forecast"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _run_op(op) -> tuple[float, float]:
    """Run one command in-process; returns (wall seconds, CPU seconds)."""
    from pollencast import cli

    with contextlib.redirect_stdout(io.StringIO()):
        c0, t0 = _cpu_seconds(), time.perf_counter()
        code = cli.main(list(op.argv))
        t1, c1 = time.perf_counter(), _cpu_seconds()
    if code != 0:
        raise RuntimeError(f"pollencast {op.argv[0]} exited {code}")
    return t1 - t0, c1 - c0


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, str(work))
    errors: list[str] = []

    setup_s: list[float] = []
    setup_files: dict[str, bytes] = {}

    def set_up() -> None:
        directory = work / f"setup{len(setup_s)}"
        t0 = time.perf_counter()
        workload.setup(str(directory))
        setup_s.append(time.perf_counter() - t0)
        files = _tree_bytes(directory)
        if not setup_files:
            setup_files.update(files)
        elif files != setup_files:
            errors.append("repeated set-ups made different input files")

    while len(setup_s) < SETUPS or sum(setup_s) < SETUP_SECONDS:
        set_up()

    (work / "out").mkdir()
    ops = workload.ops()
    tracer = Tracer() if trace else None
    outputs: dict[str, dict[str, bytes]] = {}
    walls, cpus, traced_walls = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install()
            try:
                for op in ops:
                    attempted += 1
                    if traced:
                        tracer.op += 1
                    try:
                        wall, cpu = _run_op(op)
                    except Exception as exc:  # a failed operation is counted, not fatal
                        failed += 1
                        print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                        continue
                    (traced_walls if traced else walls).append(wall)
                    if not traced:
                        cpus.append(cpu)
                    got = {p: Path(p).read_bytes() for p in op.outputs}
                    if got != outputs.setdefault(op.label, got):
                        errors.append(f"{op.label}: {'traced' if traced else 'repeated'} "
                                      "run wrote different bytes")
            finally:
                if traced:
                    tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if sum(setup_s) < SETUP_SHARE * elapsed:
            set_up()

    if len(outputs) != len(ops):
        raise RuntimeError("some operation never completed; nothing to measure")
    try:
        bad, mae_days, stage1_mae_days = workload.check()
        errors += bad
    except Exception as exc:  # a check that cannot run fails the run's correctness
        errors.append(f"check raised {type(exc).__name__}: {exc}")
        mae_days = stage1_mae_days = 0.0

    if trace:
        from pollencast import gbm

        errors += checks.check_fit_curves(tracer.fits, gbm.predict_batch)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = tracer.layer_metrics(len(traced_walls), overhead)
        spans_path = work.parent / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json_obj()))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mib": (_peak_rss_mib(), "MiB"),
            "mae_days": (mae_days, "days"),
            "stage1_mae_days": (stage1_mae_days, "days"),
        }

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{name} seed={seed} {key} = {value!r} {unit}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "pollencast" / "__init__.py").is_file():
        print(f"error: no pollencast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pollencast

    if Path(pollencast.__file__).resolve().parent != (src / "pollencast").resolve():
        print(f"error: imported pollencast from {pollencast.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
