#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised into a BENCH_<n>.json.

Usage (from any directory)::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload train_wav --seeds 91-100 --seconds 30 --out BENCH_9.json

For every seed the script runs ``bench/run.py`` once in each checkout, one run
at a time, with identical arguments; the parent goes first on the first, third,
... seed and the change on the others.  Each run is the untraced benchmark, so
its last line is the JSON object of end-to-end metrics.

The output file gets two sections per call, merged into what the file already
holds: ``<workload>_pairs`` (every run's result, the order it ran in and the
output fingerprints, and ``outputs_identical``: whether both sides wrote the
same bytes) and ``<workload>_summary`` (per metric and side: median, quartiles,
min and max, plus the number of pairs the change won, ties counting for
neither, ``relative_change``: the signed change of the medians as a fraction
of the parent's (null where the parent's median is 0), the metric's
``bound`` and ``worse_beyond_bound``: whether the change's median is worse
than the parent's by more than ``bound`` times the parent's median, and
``gain_resolved``: whether the change won at least 9 in 10 of the pairs and
its median is better than the parent's by more than the parent's
``q3 - q1``; under ``outputs_identical``, how many pairs wrote identical
outputs).  Each run's result also gets one
``<workload>.wall_s_call_min`` metric per workload: its fastest call, read
from the ``wall_samples_s`` of its ``detail`` line and summarised like the
others with the bound of ``wall_s``.  Per-call minima can agree across runs
where ``wall_s`` medians spread too widely to resolve a change.  ``machine``
and ``commands`` are filled in too, and ``commits``: ``{"parent": ..., "change": ...}``,
each checkout's ``git rev-parse HEAD``, or null where the checkout is not a git
repository, ``src_lines``: ``{"parent": ..., "change": ...}``, the total line
count of each checkout's ``src/dnmf/*.py``, as ``wc -l`` counts it, and
``src_lines_by_module``: the same count per file, ``{"parent": {"core.py": ...,
...}, "change": {...}}``.
"Better" and the bound of each metric come from the change checkout's
``BENCHMARK.json``.

At exit the script prints one stderr line per summarised metric, such as
``track_mc.wall_s: parent 0.778 change 0.514 (-33.93%), wins 10/10,
gain_resolved true, worse_beyond_bound false``, so that a claim, and its size,
can be read from the run's log.

The script exits 1, after writing the file, when any run reported
``"correct": false``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"91-100"`` or ``"1,5,9"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """One untraced run: (result JSON, the ``detail`` objects it printed)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: bench/run.py printed nothing (exit {proc.returncode})")
    details = [json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")]
    return json.loads(lines[-1]), details


def checkout_commit(checkout: Path) -> str | None:
    """The commit ``checkout`` has checked out, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines_by_module(checkout: Path) -> dict[str, int]:
    """Newlines in each of ``checkout``'s ``src/dnmf/*.py``, by file name: ``wc -l``."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((checkout / "src" / "dnmf").glob("*.py"))}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarise(pairs: list[dict], spec: dict[str, dict]) -> dict:
    """Per-metric summary rows; ``spec`` maps a metric name to its
    ``BENCHMARK.json`` entry (``better`` and ``bound``), which
    ``<workload>.wall_s_call_min`` takes from ``wall_s``."""
    summary = {}
    for metric in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
        row = {}
        for side in SIDES:
            q1, med, q3 = np.percentile(values[side], [25, 50, 75])
            row[side] = {"median": float(med), "q1": float(q1), "q3": float(q3),
                         "min": float(min(values[side])), "max": float(max(values[side]))}
        entry = spec[metric.rsplit(".", 1)[-1].removesuffix("_call_min")]
        sign = -1.0 if entry["better"] == "lower" else 1.0
        row["change_wins"] = sum(sign * (c - p) > 0.0
                                 for p, c in zip(values["parent"], values["change"]))
        row["pairs"] = len(pairs)
        parent, change = row["parent"]["median"], row["change"]["median"]
        row["relative_change"] = (change - parent) / abs(parent) if parent else None
        row["bound"] = entry["bound"]
        row["worse_beyond_bound"] = sign * (parent - change) > entry["bound"] * abs(parent)
        spread = row["parent"]["q3"] - row["parent"]["q1"]
        row["gain_resolved"] = (10 * row["change_wins"] >= 9 * len(pairs)
                                and sign * (change - parent) > spread)
        summary[metric] = row
    summary["outputs_identical"] = {"pairs": len(pairs),
                                    "identical": sum(p["outputs_identical"] for p in pairs)}
    return summary


def _percent(rel: float | None) -> str:
    return "n/a" if rel is None else f"{rel:+.2%}"


def summary_lines(summary: dict) -> list[str]:
    """One line per metric row of ``summary``: both medians and their
    relative change, the change's wins out of the pairs, ``gain_resolved``
    and ``worse_beyond_bound``."""
    return [f"{metric}: parent {row['parent']['median']:.6g} change {row['change']['median']:.6g} "
            f"({_percent(row['relative_change'])}), wins {row['change_wins']}/{row['pairs']}, "
            f"gain_resolved {str(row['gain_resolved']).lower()}, "
            f"worse_beyond_bound {str(row['worse_beyond_bound']).lower()}"
            for metric, row in summary.items() if metric != "outputs_identical"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a bench/run.py workload, or all")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 91-100")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to update")
    parser.add_argument("--what", help="one line saying what is compared")
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    pairs, machine, failed = [], None, 0
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0], "output_sha256": {}}
        for side in order:
            result, details = run_bench(checkouts[side], args.workload, seed, args.seconds)
            for d in details:
                result["metrics"][f"{d['workload']}.wall_s_call_min"] = {
                    "value": min(d["wall_samples_s"]), "unit": "s"}
            if not result["correct"]:
                failed += 1
                print(f"warning: {side} seed {seed} reported problems", file=sys.stderr)
            pair[side] = result
            pair["output_sha256"][side] = {d["workload"]: d["output_sha256"] for d in details}
            machine = machine or details[0]["machine"]
            wall = {k: round(v["value"], 3) for k, v in result["metrics"].items()
                    if k.endswith("wall_s")}
            print(f"seed {seed} {side}: {wall}", file=sys.stderr)
        pair["outputs_identical"] = (pair["output_sha256"]["parent"]
                                     == pair["output_sha256"]["change"])
        pairs.append(pair)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.what:
        doc["what"] = args.what
    doc["machine"] = {**{k: v for k, v in machine.items() if k != "loadavg_start"},
                      "cpu": cpu_model()}
    doc["commits"] = {side: checkout_commit(checkouts[side]) for side in SIDES}
    doc["src_lines_by_module"] = {side: src_lines_by_module(checkouts[side]) for side in SIDES}
    doc["src_lines"] = {side: sum(doc["src_lines_by_module"][side].values()) for side in SIDES}
    order_note = ", ".join(f"{p['seed']} {p['first']} first" for p in pairs)
    doc.setdefault("commands", {})[f"{args.workload}_pairs"] = (
        f"python3 bench/run.py --workload {args.workload} --seed <seed> "
        f"--seconds {args.seconds:g} in each checkout, one run at a time ({order_note})")
    doc[f"{args.workload}_summary"] = summarise(pairs, metrics)
    doc[f"{args.workload}_pairs"] = pairs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in summary_lines(doc[f"{args.workload}_summary"]):
        print(line, file=sys.stderr)
    if failed:
        print(f"error: {failed} run(s) reported problems; see {args.out}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
