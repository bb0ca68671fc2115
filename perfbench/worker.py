"""Run one workload's ops in a process of its own and report what they took.

Usage: python3 perfbench/worker.py SPEC_JSON

One op is every ``runner.run`` of the workload, then ``runner.score_run``
on each results file after loading the split as ``acsa score`` does. The
first op warms the process up and is not timed. After each op the
outputs are checked against the spec; a failed check ends the worker
with exit code 1 after printing how many samples it ran and how many of
them recorded an error. With tracing on, untraced and traced ops alternate so
that drift on the machine hits both alike. Prints one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from acsa_harness import llm, runner  # noqa: E402
from workloads import load_split  # noqa: E402

MIN_OPS = 3
# samples run so far and how many of them recorded an error; printed if a check fails
REACHED = {"attempted": 0, "failed": 0}


class CheckFailed(Exception):
    pass


def run_op(cells, fresh_cache: str | None):
    configs = [runner.RunConfig.from_mapping(cell) for cell in cells]
    if fresh_cache:
        for config in configs:
            config.cache_dir = fresh_cache
    wall0, cpu0 = time.perf_counter(), time.process_time()
    summaries = [runner.run(config) for config in configs]
    reports = [
        runner.score_run(summary.results_path, load_split(config))
        for config, summary in zip(configs, summaries)
    ]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return configs, summaries, reports, wall, cpu


def check(configs, summaries, reports, expect, first_digests: dict) -> None:
    for i, (config, summary, report, want) in enumerate(zip(configs, summaries, reports, expect)):
        where = f"{config.dataset}/{config.method}"
        manifest = json.loads(Path(summary.manifest_path).read_text("utf-8"))
        digest = manifest["results_sha256"]
        on_disk = hashlib.sha256(Path(summary.results_path).read_bytes()).hexdigest()
        pinned = want["results_sha256"] or first_digests.setdefault(i, digest)
        got = {
            "results_sha256": digest,
            "results file sha256": on_disk,
            "samples": summary.n_samples,
            "format_failures": summary.n_format_failures,
            "dropped_pairs": summary.n_dropped_pairs,
            "cache_hits": summary.n_cache_hits,
            "transport_errors": summary.n_transport_errors,
            "counts": [report.tp, report.fp, report.fn],
        }
        wanted = {
            **{k: want[k] for k in ("samples", "format_failures", "dropped_pairs", "cache_hits", "counts")},
            "results_sha256": pinned,
            "results file sha256": pinned,
            "transport_errors": 0,
        }
        if want["cache_files"] is not None:
            cache = Path(config.cache_dir)
            files = list(cache.iterdir()) if cache.is_dir() else []
            got["cache files"] = len(files)
            got["non-json cache files"] = sum(1 for f in files if f.suffix != ".json")
            wanted["cache files"] = want["cache_files"]
            wanted["non-json cache files"] = 0
        for key, value in wanted.items():
            if got[key] != value:
                raise CheckFailed(f"{where}: {key} is {got[key]!r}, expected {value!r}")


def warm_cache_ms_per_request(cells, cache_dir: Path) -> tuple[float, int]:
    """ChatClient.warm_cache over every request of the workload into an
    empty cache directory, untraced."""
    configs = [runner.RunConfig.from_mapping(cell) for cell in cells]
    requests = [
        job.request
        for config in configs
        for job in runner.prepare_jobs(config, load_split(config))
    ]
    client = llm.ChatClient(
        runner.make_backend(configs[0]), cache_dir=cache_dir,
        max_concurrency=configs[0].concurrency,
    )
    start = time.perf_counter()
    summary = client.warm_cache(requests)
    elapsed = time.perf_counter() - start
    if summary.failures or summary.fetched != summary.misses or summary.hits:
        raise CheckFailed(f"warm_cache: {summary}")
    shutil.rmtree(cache_dir)
    return 1000.0 * elapsed / len(requests), len(requests)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    cells, expect, seconds = spec["cells"], spec["expect"], spec["seconds"]
    work = Path(spec["work"])
    tracer = stats = None
    if spec["trace"]:
        import acsa_harness.cli  # noqa: F401  (loads every layer module)
        from tracing import SpanStats, Tracer

        tracer, stats = Tracer(), SpanStats()

    first_digests: dict = {}
    ops = []
    deadline = None
    n = 0
    while deadline is None or time.perf_counter() < deadline or len(ops) < MIN_OPS * (1 + bool(tracer)):
        traced = tracer is not None and n % 2 == 0 and n > 0
        fresh = str(work / f"cache-{n}") if spec["fresh_cache"] else None
        if traced:
            tracer.install()
        try:
            configs, summaries, reports, wall, cpu = run_op(cells, fresh)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            stats.add(tracer)
            tracer.reset()
        REACHED["attempted"] += sum(s.n_samples for s in summaries)
        REACHED["failed"] += sum(s.n_transport_errors for s in summaries)
        check(configs, summaries, reports, expect, first_digests)
        if fresh:
            shutil.rmtree(fresh)
        if deadline is None:  # the warm-up op
            deadline = time.perf_counter() + seconds
        else:
            ops.append({
                "wall_s": wall,
                "cpu_s": cpu,
                "samples": sum(s.n_samples for s in summaries),
                "errors": sum(s.n_transport_errors for s in summaries),
                "cache_hits": sum(s.n_cache_hits for s in summaries),
                "runs": len(summaries),
                "umr_runs": sum(1 for c in configs if c.method == "umr"),
                "traced": traced,
            })
        n += 1

    out = {
        "ops": ops,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if stats is not None:
        out["spans"] = {
            "calls": stats.calls,
            "total_s": stats.total_s,
            "self_s": stats.self_s,
            "wall_s": stats.wall_s,
            "durations": stats.durations,
        }
        out["warm_cache_ms_per_request"], out["warm_cache_requests"] = warm_cache_ms_per_request(
            cells, work / "warm-cache"
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as err:
        print(json.dumps(REACHED))
        print(f"check failed: {err}", file=sys.stderr)
        sys.exit(1)
