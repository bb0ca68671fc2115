#!/usr/bin/env python3
"""Compare a base revision with the working tree over alternating benchmark pairs.

Usage:
    python3 scripts/bench_pairs.py --base REV --workload W --pairs 10 --out BENCH_<n>_<slug>.json

The base revision is exported with ``git archive`` into a scratch
directory (``--scratch``, or a temporary directory removed at the end),
so the repository's own ``.git`` gains nothing. Pair i (counting from 1)
runs ``perfbench/run.py --workload W --seed i --seconds T --trace 0``
once in the base tree and once in this working tree, with T the
``run_seconds`` of ``BENCHMARK.json``; odd pairs run the base first and
even pairs the change first, so a slow spell of the machine does not
always land on the same side.
``--workload`` may be given several times; by default every workload in
``BENCHMARK.json`` runs.

For each end-to-end metric of ``BENCHMARK.json`` the output file holds
both sides' median and quartiles, every run's value, how many pairs the
change won, the median gap against the base's interquartile range, and
whether a gain holds by the rule a claim needs (the change wins at least
nine tenths of all pairs run and the medians differ by more than the
base's IQR). It also records nproc, the Python version and the mean CPU
steal the benchmark reported. Each invocation writes a new output file,
so everything in it was measured against one base and one working tree.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEAL = re.compile(r"CPU time stolen by the host while the worker ran: ([0-9.eE+-]+) %")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export_base(rev: str, scratch: Path) -> tuple[Path, str]:
    """Write the files of ``rev`` under ``scratch``; return the tree and the commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = scratch / f"base-{commit[:12]}"
    if not tree.exists():
        archive = subprocess.run(
            ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
    return tree, commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench in {tree} gave no result (exit {proc.returncode})") from None
    steal = STEAL.search(proc.stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "steal_pct": float(steal.group(1)) if steal else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values) if values else None,
        "q1": q1,
        "q3": q3,
        "values": values,
    }


def compare(metric: dict, runs: list[dict]) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    paired = [
        (r["base"]["metrics"][name], r["change"]["metrics"][name])
        for r in runs
        if r["base"]["correct"] and r["change"]["correct"]
    ]
    base = summary([b for b, _ in paired])
    change = summary([c for _, c in paired])
    wins = sum((c > b) if higher else (c < b) for b, c in paired)
    ties = sum(c == b for b, c in paired)
    out = {"unit": metric["unit"], "better": metric["better"], "base": base, "change": change,
           "change_wins": wins, "ties": ties, "pairs": len(paired)}
    if paired:
        gap = change["median"] - base["median"]
        iqr = base["q3"] - base["q1"]
        out.update(
            median_gap=gap,
            relative_gap=gap / base["median"] if base["median"] else None,
            base_iqr=iqr,
            gain_holds=wins >= 0.9 * len(runs) and (gap if higher else -gap) > iqr,
        )
    return out


def bench_workload(
    base_tree: Path, workload: str, pairs: int, seconds: float, metrics: list[dict]
) -> dict:
    runs = []
    for seed in range(1, pairs + 1):
        sides = ("base", "change") if seed % 2 else ("change", "base")
        pair = {"pair": seed, "seed": seed, "first": sides[0]}
        for side in sides:
            pair[side] = run_once(base_tree if side == "base" else ROOT, workload, seed, seconds)
        print(f"{workload} pair {seed}/{pairs}: " + ", ".join(
            f"{side} {pair[side]['metrics'].get('cpu_ms_per_sample', float('nan')):.4g} ms"
            f"{'' if pair[side]['correct'] else ' INCORRECT'}"
            for side in ("base", "change")
        ), flush=True)
        runs.append(pair)
    steals = [
        r[s]["steal_pct"] for r in runs for s in ("base", "change") if r[s]["steal_pct"] is not None
    ]
    return {
        "pairs": pairs,
        "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        "all_correct": all(r[s]["correct"] for r in runs for s in ("base", "change")),
        "mean_cpu_steal_pct": statistics.fmean(steals) if steals else None,
        "metrics": {m["name"]: compare(m, runs) for m in metrics},
        "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, help="where the base tree is written")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as temporary:
        scratch = args.scratch or Path(temporary)
        scratch.mkdir(parents=True, exist_ok=True)
        base_tree, base_commit = export_base(args.base, scratch)
        out = {
            "base": {"rev": args.base, "commit": base_commit},
            "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                       "uncommitted_changes": bool(git("status", "--porcelain"))},
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "implementation": platform.python_implementation(),
                        "system": f"{platform.system()} {platform.release()} {platform.machine()}"},
            "workloads": {},
        }
        for workload in workloads:
            out["workloads"][workload] = bench_workload(
                base_tree, workload, args.pairs, declared["run_seconds"], declared["end_to_end"]
            )
            args.out.write_text(json.dumps(out, indent=1) + "\n", "utf-8")
    return 0 if all(out["workloads"][w]["all_correct"] for w in workloads) else 1


if __name__ == "__main__":
    sys.exit(main())
