#!/usr/bin/env python3
"""Benchmark of the dnmf command-line tool on three synthetic workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload train_wav --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets its inputs up from ``--seed`` (several times, to time the set-up),
then calls ``dnmf.cli.main`` in-process, one call after another, until
``--seconds`` have passed, checking every call's output.  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` every second call is traced (see ``tracer.py``) and
the JSON holds the per-layer metrics.  The line before it (``detail ...``)
carries the machine facts, sample counts, quality figures, output
fingerprints and the full per-layer table.  ``README.md`` defines every metric
and says which layer metric each optimisation should move.

The program is imported from ``src/`` of the checkout this script sits in,
never from an installed copy; without it the script exits with code 2.
"""
import os

# Pinned before numpy loads: one BLAS thread keeps timings steady on a small
# shared host, and the per-frame products (K=513 at most) gain nothing from more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5

sys.path.insert(0, str(HERE))
from tracer import LABELS, ROOT as ROOT_SPAN, SOLVE_BETA, UNIFORM, Tracer  # noqa: E402
from workloads import WORKLOADS, sha256  # noqa: E402


def import_program():
    """Import ``dnmf.cli`` from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "dnmf" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'dnmf'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dnmf.cli

    if Path(dnmf.cli.__file__).resolve().parent != SRC / "dnmf":
        print(f"error: imported dnmf from {dnmf.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return dnmf.cli


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "loadavg_start": list(os.getloadavg()),
    }


def tail_percentile(samples) -> dict:
    """Median, plus the highest whole percentile with at least 10 samples above it."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    out = {"n": int(xs.size), "p50": float(np.median(xs)) if xs.size else None}
    if xs.size >= 20:
        pct = int(100 * (xs.size - 10) // xs.size)
        out[f"p{pct}"] = float(np.percentile(xs, pct, method="lower"))
    return out


def time_startup() -> float:
    """Seconds for a fresh interpreter to load the CLI and print its help."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run([sys.executable, "-m", "dnmf.cli", "--help"], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def set_up(workload, cli, workdir: Path, seed: int):
    """Set the inputs up SETUP_REPS times; return the last context and the times."""
    times, startups, prints, ctx = [], [], None, None
    # Every repetition uses the same directory: model files record their
    # source path, and the repetitions must produce identical bytes.
    repdir = workdir / "setup"
    for rep in range(SETUP_REPS):
        shutil.rmtree(repdir, ignore_errors=True)
        repdir.mkdir()
        t0 = time.perf_counter()
        startups.append(time_startup())
        with contextlib.redirect_stdout(io.StringIO()):
            ctx = workload.setup(str(repdir), seed, cli)
        times.append(time.perf_counter() - t0)
        rep_prints = {p.name: sha256(str(p)) for p in sorted(repdir.iterdir())}
        if prints is not None and rep_prints != prints:
            raise RuntimeError("set-up produced different files from the same seed")
        prints = rep_prints
    return ctx, times, prints, startups


def layer_metrics(tracer: Tracer, workload, counts: dict, n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics (per traced CLI call) and the detailed table.

    ``counts`` are the calls per layer of one traced call; every traced call
    of the run was checked to give exactly these.
    """
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    root_total = float(dur[spans["name"] == LABELS.index(ROOT_SPAN)].sum())
    metrics, table = {}, {}
    for label_id, label in enumerate(LABELS):
        mask = spans["name"] == label_id
        self_total = float(spans["self"][mask].sum())
        row = {"calls": counts[label], "self_s": self_total / n_ops,
               "self_pct": 100.0 * self_total / root_total}
        if counts[label]:
            row["mean_us"] = 1e6 * float(dur[mask].mean())
            row["latency_us"] = tail_percentile(1e6 * dur[mask])
        table[label] = row
        if label != ROOT_SPAN:
            metrics[f"{label}.calls"] = (counts[label], "count")
        metrics[f"{label}.self_pct"] = (row["self_pct"], "%")
    sb = table[SOLVE_BETA]
    sb["uniform_calls"] = counts[UNIFORM]
    metrics[UNIFORM] = (counts[UNIFORM], "count")
    metrics[f"{SOLVE_BETA}.mean_us"] = (sb.get("mean_us", 0.0), "us")
    metrics[f"{SOLVE_BETA}.per_frame"] = (sb["calls"] / workload.work_frames, "calls/frame")
    return metrics, table


def call_once(workload, cli, ctx, opdir: Path, op_id: int, tracer: Tracer | None):
    """One CLI call: returns (wall seconds, problems, quality, output sha256, counts)."""
    opdir.mkdir()
    argv = workload.argv(ctx, str(opdir))
    out = io.StringIO()
    if tracer is not None:
        first, uniform = len(tracer.start), tracer.uniform_beta
        tracer.install()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = tracer.run_op(op_id, cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    counts = None
    problems, quality, prints = [], None, None
    if tracer is not None:
        tracer.uninstall()
        counts = tracer.counts_since(first)
        counts[UNIFORM] = tracer.uniform_beta - uniform
        for label, want in workload.expected_calls().items():
            if counts[label] != want:
                problems.append(f"traced {label} calls {counts[label]}, expected {want}")
    if code != 0:
        problems.append(f"exit {code}: {out.getvalue()[-300:]}")
    else:
        try:
            check_problems, quality, prints = workload.check(ctx, str(opdir), out.getvalue(), cli)
            problems += check_problems
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"check failed: {exc}")
    shutil.rmtree(opdir)
    return wall, problems, quality, prints, counts


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    facts = machine_facts()
    cli = import_program()
    workload = WORKLOADS[name]()
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    problems: list[str] = []
    failed = attempted = 0
    quality = fingerprint = first_counts = None
    try:
        ctx, setup_times, input_prints, startups = set_up(workload, cli, workdir, seed)
        t_start = time.perf_counter()
        # Untraced and traced calls alternate in a traced run.
        while attempted < 2 or time.perf_counter() - t_start < seconds:
            traced = trace and attempted % 2 == 1
            wall, op_problems, op_quality, prints, counts = call_once(
                workload, cli, ctx, workdir / f"op{attempted}", attempted,
                tracer if traced else None)
            walls[traced].append(wall)
            if fingerprint is None:
                quality, fingerprint = op_quality, prints
            elif prints != fingerprint:
                op_problems.append("output differs from the first call's output")
            if traced:
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    op_problems.append("traced call counts differ from the first traced call's")
            if op_problems:
                failed += 1
                problems.extend(f"call {attempted}: {p}" for p in op_problems)
            attempted += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            workdir.parent.rmdir()

    wall_s = statistics.median(walls[False])
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": facts, "clients": 1, "loop": "closed",
        "wall_s": tail_percentile(walls[False]), "wall_samples_s": walls[False],
        "setup_s": tail_percentile(setup_times), "startup_s": tail_percentile(startups),
        "frames_per_call": workload.work_frames,
        "quality": quality, "input_sha256": input_prints, "output_sha256": fingerprint,
    }
    if trace:
        metrics, detail["layers"] = layer_metrics(tracer, workload, first_counts, len(walls[True]))
        metrics["trace_overhead_frac"] = (statistics.median(walls[True]) / wall_s - 1.0, "1")
        detail["traced_wall_s"] = tail_percentile(walls[True])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(str(out_dir / f"spans-{name}.npz"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "frames_per_s": (workload.work_frames / wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_rate": ((attempted - failed) / attempted, "1"),
        }
    detail["problems"] = problems[:20]
    for key, (value, unit) in metrics.items():
        print(f"{name:13s} {key:44s} {value:16.6f} {unit}")
    for problem in problems[:20]:
        print(f"{name:13s} PROBLEM {problem}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Run every workload in its own process, so that peak memory stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
