"""Micro-F1 scoring, the scores file, and cross-dataset aggregation.

Counts are pooled over all samples: tp = sum |pred ∩ gold|,
fp = sum |pred \\ gold|, fn = sum |gold \\ pred|. The scores file holds
one ``method,model,dataset,score`` row per cell of a Method x Model x
Dataset grid; this module writes and reads it, and ``score_table`` is
the one check that the rows form a complete grid. Aggregation averages
the per-dataset percent scores for each (method, model) and reports
them rounded half-up to two decimals.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import statistics
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Sequence

from .llm import atomic_file, read_text


class LengthMismatch(Exception):
    pass


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    micro_f1: float
    per_sample: tuple[tuple[str, int, int, int], ...]
    n_format_failures: int = 0
    n_missing_records: int = 0


def score(
    preds: Sequence[frozenset],
    golds: Sequence[frozenset],
    ids: Sequence[str] | None = None,
    n_format_failures: int = 0,
    n_missing_records: int = 0,
) -> EvalReport:
    """Score index-aligned predicted vs gold pair sets."""
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    if ids is None:
        ids = [str(i) for i in range(len(preds))]
    elif len(ids) != len(preds):
        raise LengthMismatch(f"{len(ids)} ids vs {len(preds)} predictions")
    per_sample = []
    tp = fp = fn = 0
    for sid, pred, gold in zip(ids, preds, golds):
        s_tp = len(pred & gold)
        s_fp = len(pred - gold)
        s_fn = len(gold - pred)
        per_sample.append((sid, s_tp, s_fp, s_fn))
        tp += s_tp
        fp += s_fp
        fn += s_fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    denom = precision + recall
    micro_f1 = 2 * precision * recall / denom if denom else 0.0
    return EvalReport(
        tp, fp, fn, precision, recall, micro_f1,
        tuple(per_sample), n_format_failures, n_missing_records,
    )


def round_half_up(value: float, places: int = 2) -> float:
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def read_score_rows(path: str | Path) -> list[tuple[str, str, str, float]]:
    """Read (method, model, dataset, score) rows from a CSV file.

    Blank rows are skipped. The first other row is a header when its
    fourth column is not a number. Every score must be a finite number.
    """
    rows: list[tuple[str, str, str, float]] = []
    # newline="" hands the csv module the line ends as written, as it needs
    reader = csv.reader(io.StringIO(read_text(path, ValueError), newline=""))
    filled = ((reader.line_num, row) for row in reader if any(cell.strip() for cell in row))
    for i, (lineno, row) in enumerate(filled):
        if len(row) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        method, model, dataset = (cell.strip() for cell in row[:3])
        try:
            value = float(row[3])
        except ValueError:
            if i == 0:
                continue  # header
            raise ValueError(f"{path}:{lineno}: non-numeric score {row[3]!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite score {row[3]!r}")
        rows.append((method, model, dataset, value))
    if not rows:
        raise ValueError(f"{path}: no score rows found")
    return rows


def write_score_rows(path: str | Path, rows: Iterable[tuple[str, str, str, float]]) -> None:
    """Write (method, model, dataset, score) rows under a header row, each
    score to two decimals; the file is replaced atomically."""
    with atomic_file(Path(path)) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("method", "model", "dataset", "score"))
        writer.writerows((*cell, f"{value:.2f}") for *cell, value in rows)


@dataclass(frozen=True)
class ScoreTable:
    """A complete Method x Model x Dataset grid, one percent score per cell.

    Each factor's levels are in the order the rows first name them.
    """

    methods: tuple[str, ...]
    models: tuple[str, ...]
    datasets: tuple[str, ...]
    scores: dict  # (method, model, dataset) -> percent score


def score_table(rows: Iterable[tuple[str, str, str, float]]) -> ScoreTable:
    """The grid of (method, model, dataset, score) rows given in any order.

    A repeated cell, a missing cell or no rows at all raises ValueError.
    """
    scores: dict = {}
    for method, model, dataset, value in rows:
        key = (method, model, dataset)
        if key in scores:
            raise ValueError(f"repeated (method, model, dataset) cell {key}")
        scores[key] = value
    if not scores:
        raise ValueError("no score rows")
    methods, models, datasets = (tuple(dict.fromkeys(levels)) for levels in zip(*scores))
    for key in itertools.product(methods, models, datasets):
        if key not in scores:
            raise ValueError(f"missing (method, model, dataset) cell {key}")
    return ScoreTable(methods, models, datasets, scores)


@dataclass(frozen=True)
class AggregateReport:
    """A score table plus per-(method, model) means over its datasets."""

    table: ScoreTable
    means: dict  # (method, model) -> percent mean, rounded half-up to 2 dp
    stds: dict  # (method, model) -> across-dataset sample std, same rounding


def aggregate(table: ScoreTable) -> AggregateReport:
    """Average per-dataset percent scores for every (method, model).

    The mean is computed in decimal arithmetic so the half-up rounding of
    exact two-decimal inputs cannot be perturbed by float noise.
    """
    means: dict = {}
    stds: dict = {}
    for method, model in itertools.product(table.methods, table.models):
        values = [table.scores[(method, model, dataset)] for dataset in table.datasets]
        mean = sum(Decimal(str(v)) for v in values) / len(values)
        means[(method, model)] = float(mean.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        stds[(method, model)] = round_half_up(std)
    return AggregateReport(table, means, stds)


def render_summary_table(agg: AggregateReport) -> str:
    """Mean ± std per (method, model), averaged over the datasets."""
    table = agg.table
    label = "Method"
    width = max(len(label), *(len(m) for m in table.methods)) + 2
    col = max(14, *(len(m) + 2 for m in table.models))
    lines = [label.ljust(width) + "".join(m.rjust(col) for m in table.models)]
    for method in table.methods:
        cells = []
        for model in table.models:
            mean = agg.means[(method, model)]
            std = agg.stds[(method, model)]
            cells.append(f"{mean:.2f} ± {std:.2f}".rjust(col))
        lines.append(method.ljust(width) + "".join(cells))
    return "\n".join(lines)


def render_detailed_table(agg: AggregateReport) -> str:
    """Per-dataset percent scores, one row per (dataset, method)."""
    table = agg.table
    d_width = max(len("Dataset"), *(len(d) for d in table.datasets)) + 2
    m_width = max(len("Method"), *(len(m) for m in table.methods)) + 2
    col = max(10, *(len(m) + 2 for m in table.models))
    lines = [
        "Dataset".ljust(d_width)
        + "Method".ljust(m_width)
        + "".join(m.rjust(col) for m in table.models)
    ]
    for dataset in table.datasets:
        for method in table.methods:
            row = dataset.ljust(d_width) + method.ljust(m_width)
            for model in table.models:
                row += f"{table.scores[(method, model, dataset)]:.2f}".rjust(col)
            lines.append(row)
    return "\n".join(lines)


def aggregate_to_json(agg: AggregateReport) -> dict:
    detailed: dict = {}
    for (method, model, dataset), value in agg.table.scores.items():
        detailed.setdefault(dataset, {}).setdefault(method, {})[model] = value
    summary: dict = {}
    for (method, model), mean in agg.means.items():
        summary.setdefault(method, {})[model] = {
            "mean": mean,
            "std": agg.stds[(method, model)],
        }
    return {"summary": summary, "detailed": detailed}
