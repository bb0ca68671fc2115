"""Benchmark of the acsa harness: replay grid, warm re-score and cold fetch.

Usage:
    python3 perfbench/run.py --workload grid-replay --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs installing. The
workload's inputs are generated from ``--seed`` under ``perfbench/.work/``
before any timing. Then:

* ``setup_s`` is timed from here, as the median wall time of several
  fresh interpreters that each run ``perfbench/setup_child.py``, half of
  them before the worker and half after, so that a slow spell of the
  machine weighs on fewer of them;
* one worker process (``perfbench/worker.py``) runs only this workload:
  one untimed warm-up op, then ops for ``--seconds``, checking every op's
  outputs. End-to-end figures are medians over its timed ops.

With ``--trace 1`` the worker alternates untraced and traced ops and the
setup child runs under ``-X importtime``; the per-layer metrics come from
those. Human-readable lines come first; the last line of standard output
is the JSON result. A failed output check exits 1 with ``"correct":
false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # before the worker, and as many again after it
IMPORTTIME_REPEATS = 5
CHILD_TIMEOUT_S = 150  # the worker gets this on top of --seconds


def _child(args, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        cwd=ROOT, check=False,
    )


def _ok(proc: subprocess.CompletedProcess, what: str) -> subprocess.CompletedProcess:
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{what} exited with code {proc.returncode}")
    return proc


def time_setup(cells_path: Path, expected_samples: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = _ok(_child([str(HERE / "setup_child.py"), str(cells_path)]), "setup child")
        times.append(time.perf_counter() - start)
        if int(proc.stdout) != expected_samples:
            raise RuntimeError(f"setup child built {proc.stdout.strip()} requests, not {expected_samples}")
    return times


def import_times_ms(cells_path: Path) -> dict[str, float]:
    """Median cumulative ``-X importtime`` of each harness module, in ms."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        proc = _ok(
            _child(["-X", "importtime", str(HERE / "setup_child.py"), str(cells_path)]),
            "importtime child",
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if fields[0].isdigit() and fields[2].startswith("acsa_harness."):
                module = fields[2].split(".", 1)[1]
                samples.setdefault(module, []).append(int(fields[1]) / 1000.0)
    return {module: statistics.median(v) for module, v in samples.items()}


def filesystem(path: Path) -> str:
    proc = subprocess.run(
        ["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from /proc/stat, or (0, 0)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def describe(spec: dict) -> dict:
    """Workload descriptors, measured on the results files of the last op."""
    records = [
        json.loads(line)
        for cell in spec["cells"]
        for line in Path(cell["output_path"]).read_text("utf-8").splitlines()
    ]
    outputs = [r["raw_output"] or "" for r in records]
    categories = [" ".join(c.split()).casefold() for r in records for c, _ in r["raw_pairs"]]
    from acsa_harness import runner
    from workloads import load_split

    inventory = [
        len(load_split(runner.RunConfig.from_mapping(cell)).categories) for cell in spec["cells"]
    ]
    return {
        "samples": len(records),
        "inventory_size": inventory[0] if len(set(inventory)) == 1 else inventory,
        "mean_output_chars": sum(map(len, outputs)) / len(outputs),
        "mean_brackets_per_output": sum(o.count("[") for o in outputs) / len(outputs),
        "mean_raw_pairs_per_sample": sum(len(r["raw_pairs"]) for r in records) / len(records),
        "raw_pairs": len(categories),
        # share of raw pairs whose folded category string is new to the op:
        # a per-run memo of the fuzzy match gains only on the rest
        "distinct_category_share": len(set(categories)) / len(categories),
    }


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"


def end_to_end(ops, peak_rss_kib: int, setup_times) -> tuple[dict, list[str]]:
    sps = [op["samples"] / op["wall_s"] for op in ops]
    cpu = [1000.0 * op["cpu_s"] / op["samples"] for op in ops]
    samples = sum(op["samples"] for op in ops)
    errors = sum(op["errors"] for op in ops)
    values = {
        "samples_per_s": statistics.median(sps),
        "cpu_ms_per_sample": statistics.median(cpu),
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "success_ratio": (samples - errors) / samples,
        "setup_s": statistics.median(setup_times),
    }
    lines = [
        f"samples_per_s      {values['samples_per_s']:.6g} samples/s  median over ops ({quartiles(sps)})",
        f"cpu_ms_per_sample  {values['cpu_ms_per_sample']:.6g} ms  median over ops ({quartiles(cpu)})",
        f"peak_rss_mb        {values['peak_rss_mb']:.6g} MiB  worker process running only this workload",
        f"error_rate         {errors / samples:.6g}  ({errors} of {samples} samples with an error)",
        f"success_ratio      {values['success_ratio']:.6g}  (1 - error_rate)",
        f"setup_s            {values['setup_s']:.6g} s  median over fresh interpreters ({quartiles(setup_times)})",
    ]
    return values, lines


def per_layer(worker: dict, desc: dict, imports: dict) -> tuple[dict, list[str]]:
    from tracing import LAYERS, percentile

    traced = [op for op in worker["ops"] if op["traced"]]
    plain = [op for op in worker["ops"] if not op["traced"]]
    spans = worker["spans"]
    calls, total_s, self_s = spans["calls"], spans["total_s"], spans["self_s"]
    n_ops = len(traced)
    samples = sum(op["samples"] for op in traced)
    runs = sum(op["runs"] for op in traced)
    umr_runs = sum(op["umr_runs"] for op in traced)
    raw_pairs = desc["raw_pairs"] * n_ops

    def ms(*names):
        return 1000.0 * sum(total_s.get(n, 0.0) for n in names)

    def per_call_ms(name):
        return ms(name) / calls[name] if calls.get(name) else 0.0

    def layer_self_ms(layer):
        return 1000.0 * sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer)

    chat = spans["durations"].get("llm.ChatClient.chat", [])
    extract = spans["durations"].get("postprocess.extract_pair_list", [])
    pct = {}
    for label, values in (("llm.chat_ms", chat), ("postprocess.extract_ms", extract)):
        for q in (50, 99):
            value, beyond = percentile(values, q)
            pct[f"{label}.p{q}"] = (1000.0 * value, len(values), beyond)
    untraced_sps = statistics.median(op["samples"] / op["wall_s"] for op in plain)
    traced_sps = statistics.median(op["samples"] / op["wall_s"] for op in traced)
    key_calls = calls.get("llm.ChatRequest.cache_key", 0)
    chat_calls = calls.get("llm.ChatClient.chat", 0)

    values = {
        "cli.import_ms": imports["cli"],
        "stats.import_ms": imports["stats"],
        "llm.import_ms": imports["llm"],
        "datasets.load_ms": per_call_ms("datasets.load_dataset"),
        "umr.exemplar_prep_ms": (
            ms("umr.load_document", "umr.truncate_document", "umr.format_exemplars") / umr_runs
            if umr_runs else 0.0
        ),
        "runner.prepare_ms_per_sample": ms("runner.prepare_jobs") / samples,
        "runner.write_ms": ms("runner._atomic_write") / runs,
        "runner.self_ms_per_sample": 1000.0 * self_s.get("runner.run", 0.0) / samples,
        "llm.cache_key_calls_per_sample": key_calls / samples,
        "llm.cache_key_us": 1000.0 * per_call_ms("llm.ChatRequest.cache_key"),
        "llm.chat_ms.p50": pct["llm.chat_ms.p50"][0],
        "llm.chat_ms.p99": pct["llm.chat_ms.p99"][0],
        "llm.cache_hit_ratio": sum(op["cache_hits"] for op in traced) / chat_calls if chat_calls else 0.0,
        "llm.read_ms": per_call_ms("llm.read_cache_file"),
        "llm.write_ms": per_call_ms("llm.write_cache_file"),
        "llm.warm_cache_ms_per_request": worker["warm_cache_ms_per_request"],
        "postprocess.extract_ms.p50": pct["postprocess.extract_ms.p50"][0],
        "postprocess.extract_ms.p99": pct["postprocess.extract_ms.p99"][0],
        "postprocess.canonicalize_us_per_pair": (
            1000.0 * ms("postprocess.canonicalize") / raw_pairs if raw_pairs else 0.0
        ),
        "postprocess.similarity_calls_per_pair": (
            calls.get("postprocess.similarity", 0) / raw_pairs if raw_pairs else 0.0
        ),
        "metrics.score_run_ms": per_call_ms("runner.score_run"),
    }
    for layer in ("datasets", "umr", "prompts", "llm", "postprocess", "metrics"):
        values[f"{layer}.self_ms_per_sample"] = layer_self_ms(layer) / samples
    values["trace.overhead_pct"] = 100.0 * (untraced_sps / traced_sps - 1.0)

    lines = [
        f"traced ops: {n_ops} ({samples} samples, {runs} runs); untraced ops: {len(plain)}",
        "span times are CPU times: of the calling thread for nested spans, so GIL waits "
        "are left out, and of the process for root spans; runner.run wall "
        f"{1000.0 * spans['wall_s'].get('runner.run', 0.0) / runs:.6g} ms per run",
    ]
    for name, (value, n, beyond) in pct.items():
        lines.append(f"{name:<30} {value:.6g} ms  (n={n} calls, {beyond} above it)")
    untraced_cpu = statistics.median(op["cpu_s"] / op["samples"] for op in plain)
    traced_cpu = statistics.median(op["cpu_s"] / op["samples"] for op in traced)
    lines.append(
        f"tracing overhead: untraced {untraced_sps:.6g} vs traced {traced_sps:.6g} samples/s "
        f"= {values['trace.overhead_pct']:.3g} %; in CPU time per sample "
        f"{100.0 * (traced_cpu / untraced_cpu - 1.0):.3g} %"
    )
    lines.append(
        f"llm.warm_cache_ms_per_request {values['llm.warm_cache_ms_per_request']:.6g} ms  "
        f"(n={worker['warm_cache_requests']} requests into an empty cache dir, untraced)"
    )
    lines.append(f"import ms (cumulative, -X importtime, median of {IMPORTTIME_REPEATS}): "
                 + ", ".join(f"{m}={v:.4g}" for m, v in sorted(imports.items())))
    lines.append("self time per layer (ms per sample, all spans of the layer):")
    for layer in LAYERS:
        lines.append(f"  {layer:<12} {layer_self_ms(layer) / samples:.6g}")
    lines.append("calls per sample / mean CPU ms per call:")
    for name in sorted(calls):
        mean = f"{per_call_ms(name):.4g}" if name in total_s else "counted, not timed"
        lines.append(f"  {name:<40} {calls[name] / samples:10.4g}  {mean}")
    return values, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "acsa_harness" / "__init__.py").is_file():
        print(f"error: no harness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(BUILDERS)}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        gen_start = time.perf_counter()
        spec = BUILDERS[args.workload](ROOT, work, args.seed)
        gen_s = time.perf_counter() - gen_start
        spec.update(work=str(work), seconds=args.seconds, trace=bool(args.trace))
        spec_path, cells_path = work / "spec.json", work / "cells.json"
        spec_path.write_text(json.dumps(spec), "utf-8")
        cells_path.write_text(json.dumps(spec["cells"]), "utf-8")
        expected_samples = sum(e["samples"] for e in spec["expect"])

        setup_times = [] if args.trace else time_setup(cells_path, expected_samples)
        imports = import_times_ms(cells_path) if args.trace else {}
        ticks0 = cpu_ticks()
        proc = _child([str(HERE / "worker.py"), str(spec_path)], args.seconds + CHILD_TIMEOUT_S)
        steal, total = (b - a for a, b in zip(ticks0, cpu_ticks()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            if "check failed:" not in proc.stderr:
                raise RuntimeError(f"worker exited with code {proc.returncode}")
            # samples the worker ran, the failing op included, and how
            # many of them recorded an error
            reached = json.loads(proc.stdout.splitlines()[-1])
            print(json.dumps({"correct": False, "attempted": reached["attempted"],
                              "failed": reached["failed"], "metrics": {}}))
            return 1
        if not args.trace:
            setup_times += time_setup(cells_path, expected_samples)
        worker = json.loads(proc.stdout.splitlines()[-1])
        desc = describe(spec)

        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
              f"({platform.python_implementation()}) os={platform.system()} {platform.release()} "
              f"{platform.machine()}; CPU time stolen by the host while the worker ran: "
              + (f"{100.0 * steal / total:.3g} %" if total else "unknown"))
        print(f"generated files: {work.relative_to(ROOT)} on filesystem {filesystem(work)} "
              f"(generated in {gen_s:.3g} s); concurrency={spec['cells'][0]['concurrency']} "
              f"closed loop, {len(spec['cells'])} run(s) per op")
        print("workload: " + ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in desc.items()
        ))
        timed = [op for op in worker["ops"] if not op["traced"]]
        attempted = sum(op["samples"] for op in worker["ops"])
        failed = sum(op["errors"] for op in worker["ops"])
        if args.trace:
            values, lines = per_layer(worker, desc, imports)
        else:
            values, lines = end_to_end(timed, worker["peak_rss_kib"], setup_times)
        for line in lines:
            print(line)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer" if args.trace else "end_to_end"]
        }
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
