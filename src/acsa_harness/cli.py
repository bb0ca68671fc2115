"""Command-line interface: run, grid, score, report, anova, parse-umr,
warm-cache.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 excessive
transport failure rate.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import datasets as ds
from . import metrics, runner, stats, umr
from .llm import AuthError, ChatClient, LlmError, read_lines
from .runner import ConfigError, RunConfig, RunDataError, load_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="TOML config file; flags override it")
    parser.add_argument("--dataset", choices=ds.DATASET_NAMES)
    parser.add_argument("--dataset-path", dest="dataset_path")
    parser.add_argument("--method", choices=runner.METHODS)
    parser.add_argument("--model", dest="model_id")
    parser.add_argument("--backend", choices=runner.BACKENDS)
    parser.add_argument("--base-url", dest="base_url")
    parser.add_argument("--fixture-dir", dest="fixture_dir")
    parser.add_argument("--api-key-env", dest="api_key_env")
    parser.add_argument(
        "--exemplar",
        dest="exemplar_paths",
        action="append",
        metavar="PATH",
        help="exemplar file; pass five times for method=umr",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cutoff", type=float)
    parser.add_argument("--concurrency", type=int)
    parser.add_argument("--cache-dir", dest="cache_dir")
    parser.add_argument("--output", dest="output_path")
    parser.add_argument("--max-output-tokens", dest="max_output_tokens", type=int)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--top-p", dest="top_p", type=float)
    parser.add_argument("--strict-greedy", dest="strict_greedy", action="store_true", default=None)
    parser.add_argument("--drop-conflict", dest="drop_conflict", action="store_true", default=None)
    parser.add_argument("--inventory", dest="inventory_path")
    parser.add_argument("--split", choices=("train", "test"))


_CONFIG_KEYS = RunConfig.field_names()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        key: getattr(args, key)
        for key in _CONFIG_KEYS
        if getattr(args, key, None) is not None
    }
    if "exemplar_paths" in overrides:
        overrides["exemplar_paths"] = tuple(overrides["exemplar_paths"])
    if args.config:
        return load_config(args.config, overrides)
    return RunConfig.from_mapping(overrides)


def _counts(summary: runner.RunSummary) -> str:
    return (
        f"samples: {summary.n_samples}  cache hits: {summary.n_cache_hits}  "
        f"format failures: {summary.n_format_failures}  "
        f"transport errors: {summary.n_transport_errors}"
    )


def _too_many_transport_errors(summary: runner.RunSummary, where: str = "") -> bool:
    if summary.transport_error_rate <= runner.TRANSPORT_FAILURE_LIMIT:
        return False
    print(
        f"error: {where}transport failure rate {summary.transport_error_rate:.1%} exceeds "
        f"{runner.TRANSPORT_FAILURE_LIMIT:.0%}",
        file=sys.stderr,
    )
    return True


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    summary = runner.run(config)
    print(f"results:  {summary.results_path}")
    print(f"manifest: {summary.manifest_path}")
    print(_counts(summary))
    return EXIT_TRANSPORT if _too_many_transport_errors(summary) else EXIT_OK


def _cmd_grid(args) -> int:
    """Run and score every cell of a grid file in file order, then write
    the scores file. The first cell over the transport failure limit, or
    the first fault, ends the grid; the files of the cells before it stay
    complete and no scores file is written."""
    rows = []
    for name, config in runner.load_grid(args.config):
        summary = runner.run(config)
        where = f"cells.{name}: "
        if _too_many_transport_errors(summary, where):
            print(f"{where}{_counts(summary)}")
            return EXIT_TRANSPORT
        report = runner.score_run(summary.results_path, summary.split)
        score = report.micro_f1 * 100.0
        print(f"{where}{_counts(summary)}  micro_f1: {score:.2f}%  results: {summary.results_path}")
        rows.append((config.method, config.model_id, config.dataset, score))
    metrics.write_score_rows(args.scores, rows)
    print(f"scores: {args.scores}")
    return EXIT_OK


def _cmd_warm_cache(args) -> int:
    config = _config_from_args(args)
    config.validate()
    split = runner._load_split(config)
    jobs = runner.prepare_jobs(config, split)
    client = ChatClient(
        runner.make_backend(config),
        cache_dir=config.cache_dir or None,
        max_concurrency=config.concurrency,
    )
    summary = client.warm_cache([job.request for job in jobs])
    print(f"hits: {summary.hits}  misses: {summary.misses}  fetched: {summary.fetched}")
    for key, message in summary.failures:
        print(f"failed {key}: {message}", file=sys.stderr)
    return EXIT_OK if not summary.failures else EXIT_TRANSPORT


def _cmd_score(args) -> int:
    split = runner._load_split(
        RunConfig(
            dataset=args.dataset,
            dataset_path=args.dataset_path,
            split=args.split,
            drop_conflict=args.drop_conflict,
            inventory_path=args.inventory_path,
        )
    )
    report = runner.score_run(args.results, split)
    if args.json:
        payload = {
            "tp": report.tp,
            "fp": report.fp,
            "fn": report.fn,
            "precision": report.precision,
            "recall": report.recall,
            "micro_f1": report.micro_f1,
            "micro_f1_percent": report.micro_f1 * 100.0,
            "n_format_failures": report.n_format_failures,
            "n_missing_records": report.n_missing_records,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"tp={report.tp} fp={report.fp} fn={report.fn}")
        print(
            f"precision={report.precision:.4f} recall={report.recall:.4f} "
            f"micro_f1={report.micro_f1:.4f} ({report.micro_f1 * 100.0:.2f}%)"
        )
        print(
            f"format failures: {report.n_format_failures}  "
            f"missing records: {report.n_missing_records}"
        )
    return EXIT_OK


def _cmd_report(args) -> int:
    agg = metrics.aggregate(metrics.score_table(metrics.read_score_rows(args.cells)))
    if args.json:
        print(json.dumps(metrics.aggregate_to_json(agg), indent=2, sort_keys=True))
    else:
        print(metrics.render_detailed_table(agg))
        print()
        print(metrics.render_summary_table(agg))
    return EXIT_OK


def _cmd_anova(args) -> int:
    table = stats.anova(metrics.score_table(metrics.read_score_rows(args.cells)))
    if args.json:
        print(json.dumps(stats.anova_to_json(table), indent=2, sort_keys=True))
    else:
        print(stats.render_anova_table(table))
    return EXIT_OK


def _cmd_parse_umr(args) -> int:
    # joined at LF, the only line end a graph error's position counts
    text = "\n".join(line for _, line in read_lines(args.path, umr.UmrError))
    try:
        document = umr.parse_document(text, source_id=str(args.path))
    except umr.NoEntriesFound:
        graph = umr.parse_graph(text)
        print(umr.serialize_graph(graph))
        return EXIT_OK
    print(umr.format_exemplars(document))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="acsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment run")
    _add_config_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="run and score every cell of a grid file")
    p_grid.add_argument("--config", required=True, help="TOML grid file of [cells.NAME] tables")
    p_grid.add_argument("--scores", required=True, help="CSV of method,model,dataset,score to write")
    p_grid.set_defaults(func=_cmd_grid)

    p_warm = sub.add_parser("warm-cache", help="prefetch responses for a run config")
    _add_config_arguments(p_warm)
    p_warm.set_defaults(func=_cmd_warm_cache)

    p_score = sub.add_parser("score", help="micro-F1 of a results file against gold")
    p_score.add_argument("--results", required=True)
    p_score.add_argument("--dataset", required=True, choices=ds.DATASET_NAMES)
    p_score.add_argument("--dataset-path", dest="dataset_path", required=True)
    p_score.add_argument("--inventory", dest="inventory_path", default="")
    p_score.add_argument("--split", choices=("train", "test"), default="test")
    p_score.add_argument("--drop-conflict", dest="drop_conflict", action="store_true")
    p_score.add_argument("--json", action="store_true")
    p_score.set_defaults(func=_cmd_score)

    p_report = sub.add_parser("report", help="aggregate a grid of run scores")
    p_report.add_argument("--cells", required=True, help="CSV of method,model,dataset,score")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    p_anova = sub.add_parser("anova", help="three-way ANOVA over a grid of run scores")
    p_anova.add_argument("--cells", required=True, help="CSV of method,model,dataset,score")
    p_anova.add_argument("--json", action="store_true")
    p_anova.set_defaults(func=_cmd_anova)

    p_parse = sub.add_parser("parse-umr", help="canonicalize a UMR file or graph")
    p_parse.add_argument("path")
    p_parse.set_defaults(func=_cmd_parse_umr)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AuthError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ds.DatasetError,
        umr.UmrError,
        stats.StatsError,
        metrics.LengthMismatch,
        RunDataError,
        LlmError,
        ValueError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
