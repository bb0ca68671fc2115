"""End-to-end experiment orchestration.

A run loads one dataset split, builds one prompt per sample (drawing a
UMR exemplar per sample position under the run seed), sends each request
through the cached chat client, post-processes the outputs, and writes
one JSONL record per sample plus a manifest. With the replay backend the
whole pipeline is bit-deterministic across runs and machines.

A run's memory does not grow with the answers, and apart from the
split itself not with the number of samples either. The dataset file is
parsed as a stream, and the parse keeps only the samples. Each request
is built when its answer is asked for, and each record is written to the
results file as soon as it is built. The exception is an HTTP run: it
builds every request before the first answer, to submit the cache misses
to the pool (see ``ChatClient.answers``). Scoring reads the results file
one line at a time and keeps one pair set per record.

Answers come from ``ChatClient.answers`` in sample order; extraction,
mapping and record building all run on the calling thread.

A process prepares each exemplar file and each category inventory once:
the formatted exemplar block is kept under the file's name and content,
the prepared inventory under the split's category tuple, so the cells of
one ``acsa grid`` share them (``load_grid`` reads the grid file). The
split itself is kept by ``datasets.load_dataset`` under the file's
content. A run maps each distinct raw spelling once: one dict, made by
``run`` and dropped with it, keeps the mapping decisions
(``postprocess.canonicalize``), so that no run's search cost hides in
another's.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from collections.abc import Iterator
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import lru_cache
from itertools import tee
from pathlib import Path

from . import datasets as ds
from . import postprocess as pp
from .llm import (
    ChatClient,
    ChatRequest,
    ChatResponse,
    DecodeParams,
    HttpBackend,
    LlmError,
    ReplayBackend,
    atomic_file,
    read_lines,
    read_text,
)
from .prompts import build_baseline_prompt, build_umr_prompt, template_version
from .umr import (
    EXEMPLAR_FILE_COUNT,
    EXEMPLAR_KEEP,
    UmrError,
    exemplar_draw_indices,
    format_exemplars,
    parse_document,
    truncate_document,
)

logger = logging.getLogger(__name__)

RESULTS_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1
TRANSPORT_FAILURE_LIMIT = 0.10

METHODS = ("baseline", "umr")
BACKENDS = ("http", "replay")

# Most prepared exemplar files and category inventories one process keeps.
# The paper's grid uses five exemplar files and one inventory per dataset.
EXEMPLAR_MEMO_SIZE = 32
INVENTORY_MEMO_SIZE = 16


class ConfigError(Exception):
    pass


class RunDataError(Exception):
    """Results and dataset files that cannot be joined coherently."""


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunConfig:
    dataset: str = ""
    dataset_path: str = ""
    method: str = ""
    model_id: str = ""
    backend: str = ""
    base_url: str = ""
    fixture_dir: str = ""
    api_key_env: str = "ACSA_API_KEY"
    exemplar_paths: tuple[str, ...] = ()
    seed: int = 0
    cutoff: float = pp.DEFAULT_CUTOFF
    concurrency: int = 4
    cache_dir: str = ""
    output_path: str = ""
    max_output_tokens: int = 4096
    temperature: float = 0.0
    top_p: float = 1.0
    strict_greedy: bool = False
    drop_conflict: bool = False
    inventory_path: str = ""
    split: str = "test"

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        config = cls()
        config.update(mapping)
        return config

    def update(self, mapping: dict) -> None:
        """Set each key's value, checked against its field's type. A bool
        is not an int. An int is accepted for a float field and kept as
        given: as a float it would change the request hash of a config that
        says ``temperature = 0``."""
        types = {f.name: type(f.default) for f in fields(self)}
        for key, value in mapping.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            expected = types[key]
            if key == "exemplar_paths":
                if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, str) for v in value
                ):
                    raise ConfigError("exemplar_paths must be an array of strings")
                value = tuple(value)
            elif isinstance(value, bool) != (expected is bool) or not isinstance(
                value, (int, float) if expected is float else expected
            ):
                raise ConfigError(
                    f"{key} must be {expected.__name__}, got {type(value).__name__} {value!r}"
                )
            setattr(self, key, value)

    def validate(self) -> None:
        if self.dataset not in ds.DATASET_NAMES:
            raise ConfigError(f"dataset must be one of {ds.DATASET_NAMES}, got {self.dataset!r}")
        if not self.dataset_path or not Path(self.dataset_path).exists():
            raise ConfigError(f"dataset_path does not exist: {self.dataset_path!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.model_id:
            raise ConfigError("model_id is required")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "http" and not self.base_url:
            raise ConfigError("base_url is required for the http backend")
        if self.backend == "replay":
            if not self.fixture_dir or not Path(self.fixture_dir).is_dir():
                raise ConfigError(f"fixture_dir does not exist: {self.fixture_dir!r}")
        if self.method == "umr":
            if len(self.exemplar_paths) != EXEMPLAR_FILE_COUNT:
                raise ConfigError(
                    f"method 'umr' needs exactly {EXEMPLAR_FILE_COUNT} exemplar_paths, "
                    f"got {len(self.exemplar_paths)}"
                )
            for path in self.exemplar_paths:
                if not Path(path).exists():
                    raise ConfigError(f"exemplar file does not exist: {path!r}")
        if self.inventory_path and not Path(self.inventory_path).exists():
            raise ConfigError(f"inventory_path does not exist: {self.inventory_path!r}")
        if not self.output_path:
            raise ConfigError("output_path is required")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if self.seed < 0:
            # random.Random hashes the absolute value, so -7 would draw as 7
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_output_tokens < 1:
            raise ConfigError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            # an infinite temperature would be hashed and written as the
            # non-JSON token Infinity
            raise ConfigError(f"temperature must be a finite number >= 0, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.strict_greedy and (self.temperature != 0.0 or self.top_p != 1.0):
            raise ConfigError(
                f"strict_greedy needs temperature = 0 and top_p = 1, got "
                f"temperature = {self.temperature}, top_p = {self.top_p}"
            )
        if not 0.0 <= self.cutoff <= 1.0:
            raise ConfigError(f"cutoff must be in [0, 1], got {self.cutoff}")
        if self.split not in ("train", "test"):
            raise ConfigError(f"split must be 'train' or 'test', got {self.split!r}")

    def manifest_path(self) -> Path:
        return Path(self.output_path).with_suffix(".manifest.json")


def _read_config_file(path: str | Path) -> dict:
    """The TOML table of a config or grid file, read by ``read_text``.

    Only the TOML syntax is checked here; ``RunConfig.update`` checks the
    keys and the value types, so a table or a date is refused there.
    """
    import tomllib  # here, so that a run built from flags alone never loads it

    try:
        return tomllib.loads(read_text(path, ConfigError))
    except tomllib.TOMLDecodeError as err:
        raise ConfigError(f"{path}: {err}") from None


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    table = _read_config_file(path)
    try:
        config = RunConfig.from_mapping(table)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    if overrides:
        config.update(overrides)
    return config


def load_grid(path: str | Path) -> list[tuple[str, RunConfig]]:
    """Every cell of a grid file as ``(name, config)``, in file order.

    Top-level keys are shared by every cell; each ``[cells.NAME]`` table
    gives one cell's keys, which win over the shared ones. Every cell is
    built and validated here, so a fault in any of them raises ConfigError,
    naming the file and the cell, before the first cell runs. Two cells may
    not write the same file, nor share method, model_id and dataset, which
    would give the scores file two rows for one cell.
    """
    shared = _read_config_file(path)
    try:
        cells = shared.pop("cells", None)
        if not isinstance(cells, dict) or not cells:
            raise ConfigError("a grid needs at least one [cells.NAME] table")
        RunConfig.from_mapping(shared)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    grid = []
    writers: dict[Path, str] = {}
    names: dict[tuple[str, str, str], str] = {}
    for name, keys in cells.items():
        try:
            if not isinstance(keys, dict):
                raise ConfigError(f"must be a table, got {type(keys).__name__} {keys!r}")
            config = RunConfig.from_mapping({**shared, **keys})
            config.validate()
            for target in (Path(config.output_path), config.manifest_path()):
                other = writers.setdefault(target.resolve(), name)
                if other != name:
                    raise ConfigError(f"{target} is also written by cells.{other}")
            other = names.setdefault((config.method, config.model_id, config.dataset), name)
            if other != name:
                raise ConfigError(f"cells.{other} has the same method, model_id and dataset")
        except ConfigError as err:
            raise ConfigError(f"{path}: cells.{name}: {err}") from None
        grid.append((name, config))
    return grid


# ---------------------------------------------------------------------------
# Run pipeline


@dataclass(frozen=True)
class _Job:
    index: int
    sample_id: str
    request: ChatRequest
    exemplar_file_id: str | None


@dataclass(frozen=True)
class RunSummary:
    results_path: str
    manifest_path: str
    n_samples: int
    n_cache_hits: int
    n_format_failures: int
    n_transport_errors: int
    n_dropped_pairs: int
    # the split the run loaded, so that its results are scored without loading it again
    split: ds.DatasetSplit = field(repr=False, compare=False)

    @property
    def transport_error_rate(self) -> float:
        return self.n_transport_errors / self.n_samples if self.n_samples else 0.0


def _load_split(config: RunConfig) -> ds.DatasetSplit:
    inventory = ds.read_inventory(config.inventory_path) if config.inventory_path else None
    return ds.load_dataset(
        config.dataset,
        config.dataset_path,
        split=config.split,
        drop_conflict=config.drop_conflict,
        inventory=inventory,
    )


def make_backend(config: RunConfig):
    if config.backend == "replay":
        return ReplayBackend(config.fixture_dir)
    return HttpBackend(
        config.base_url,
        api_key=os.environ.get(config.api_key_env),
        pool_size=config.concurrency,
    )


@lru_cache(maxsize=EXEMPLAR_MEMO_SIZE)
def _exemplar(name: str, text: str) -> tuple[str, str]:
    """``(source_id, formatted block)`` of the exemplar file ``name`` whose
    content is ``text``. Keyed by content, so an edited file is prepared
    again; a parse error is raised on every call, never kept."""
    doc = truncate_document(parse_document(text, source_id=name), EXEMPLAR_KEEP)
    return doc.source_id, format_exemplars(doc)


@lru_cache(maxsize=INVENTORY_MEMO_SIZE)
def _prepared_inventory(categories: tuple[str, ...]) -> pp.PreparedInventory:
    """One read-only PreparedInventory per distinct category tuple."""
    return pp.PreparedInventory(categories)


def _jobs(config: RunConfig, split: ds.DatasetSplit) -> Iterator[_Job]:
    """Build each sample's request when it is asked for, in sample order.

    Faults of the inventory and the exemplars raise at the call, before a
    run builds a backend or opens a file. A sample's exemplar draw is indexed
    by its position, so concurrent completion order cannot perturb it.
    """
    if not split.categories:
        raise ds.DatasetError(
            f"{config.dataset}: no categories to prompt with; name an inventory_path file"
        )
    params = DecodeParams(config.temperature, config.top_p, config.max_output_tokens)
    if config.method == "umr":
        domain = ds.DOMAIN_BY_DATASET[config.dataset]
        exemplars = []
        for path in map(Path, config.exemplar_paths):
            text = read_text(path, UmrError)
            try:
                exemplars.append(_exemplar(path.name, text))
            except UmrError as err:
                err.args = (f"{path}: {err}",)  # the message names the entry, not the file
                raise
        draws = exemplar_draw_indices(config.seed, len(split.samples), len(exemplars))

        def job(i: int, sample: ds.Sample) -> _Job:
            source_id, block = exemplars[draws[i]]
            bundle = build_umr_prompt(block, sample.text, domain, split.categories)
            request = ChatRequest(config.model_id, bundle.system, bundle.user, params)
            return _Job(i, sample.id, request, source_id)
    else:
        def job(i: int, sample: ds.Sample) -> _Job:
            bundle = build_baseline_prompt(split.categories, sample.text)
            request = ChatRequest(config.model_id, bundle.system, bundle.user, params)
            return _Job(i, sample.id, request, None)

    return (job(i, sample) for i, sample in enumerate(split.samples))


def prepare_jobs(config: RunConfig, split: ds.DatasetSplit) -> list[_Job]:
    """Every job of the run as a list, for callers that need its length
    or to index it; ``run`` builds each job only when its turn comes."""
    return list(_jobs(config, split))


def _pairs_to_json(pairs) -> list[list[str]]:
    return sorted([p.category, p.polarity.value] for p in pairs)


def _outcome_to_json(outcome: pp.MappingOutcome) -> dict:
    return {
        "raw": [outcome.raw.category_text, outcome.raw.polarity_text],
        "mapped": None
        if outcome.mapped is None
        else [outcome.mapped.category, outcome.mapped.polarity.value],
        "similarity": outcome.similarity,
        "dropped_reason": outcome.dropped_reason,
    }


def _process_job(
    job: _Job,
    answer: ChatResponse | LlmError,
    inventory: pp.PreparedInventory,
    cutoff: float,
    memo: dict,
):
    record = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "sample_id": job.sample_id,
        "prompt_sha256": job.request.cache_key,
        "template_version": template_version(),
        "exemplar_file_id": job.exemplar_file_id,
        "raw_output": None,
        "raw_pairs": [],
        "outcomes": [],
        "pairs": [],
        "format_failure": False,
        "error": None,
    }
    if isinstance(answer, LlmError):
        record["error"] = f"{type(answer).__name__}: {answer}"
        return record, None, 0
    record["raw_output"] = answer.text
    try:
        raw_pairs = pp.extract_pair_list(answer.text)
    except pp.NoListFound:
        record["format_failure"] = True
        raw_pairs = []
    pairs, outcomes = pp.canonicalize(raw_pairs, inventory, cutoff, memo)
    record["raw_pairs"] = [[r.category_text, r.polarity_text] for r in raw_pairs]
    record["outcomes"] = [_outcome_to_json(o) for o in outcomes]
    record["pairs"] = _pairs_to_json(pairs)
    dropped = sum(1 for o in outcomes if o.dropped_reason is not None)
    return record, answer.backend, dropped


# one results line; built once, as json.dumps would build it on every
# call with these options
_RECORD_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=True)


def _atomic_write(path: Path, data: str) -> None:
    with atomic_file(path) as handle:
        handle.write(data)


def run(config: RunConfig) -> RunSummary:
    """Execute one (dataset, method, model) run end to end.

    Per-sample faults (``llm.SAMPLE_FAULTS``) are recorded, not fatal; the
    caller decides what to do when their rate exceeds
    TRANSPORT_FAILURE_LIMIT. Any other fault, such as AuthError or
    CacheCorrupt, cancels the HTTP calls still queued and propagates. Each
    record is written in sample order as soon as it is built, to a temp
    file that replaces ``output_path`` only once every sample is done; the
    manifest is written last, atomically. A fault that ends the run
    removes the temp file and writes no manifest.
    """
    config.validate()
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    split = _load_split(config)
    inventory = _prepared_inventory(split.categories)
    # the answers read their requests ahead of the records; tee keeps the
    # jobs in between, and no more
    jobs, ahead = tee(_jobs(config, split))
    client = ChatClient(
        make_backend(config),
        cache_dir=config.cache_dir or None,
        max_concurrency=config.concurrency,
    )
    results_path = Path(config.output_path)
    digest = hashlib.sha256()
    n_cache_hits = n_dropped = n_errors = n_format = 0
    memo: dict = {}  # this run's mapping decisions, for pp.canonicalize
    with atomic_file(results_path) as out, closing(
        client.answers(job.request for job in ahead)
    ) as answers:
        for job, answer in zip(jobs, answers):
            record, backend, dropped = _process_job(job, answer, inventory, config.cutoff, memo)
            line = _RECORD_JSON.encode(record) + "\n"
            out.write(line)
            digest.update(line.encode("ascii"))
            n_cache_hits += backend == "cache"
            n_dropped += dropped
            n_errors += record["error"] is not None
            n_format += record["format_failure"]

    n_samples = len(split.samples)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "config": {**asdict(config), "exemplar_paths": list(config.exemplar_paths)},
        "template_version": template_version(),
        # Shoes holds full reviews; they are prompted as-is, never sentence-split
        "text_unit": "full-review" if config.dataset == "Shoes" else "sentence",
        "seed": config.seed,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "duration_s": round(time.perf_counter() - t0, 3),
        "counts": {
            "samples": n_samples,
            "cache_hits": n_cache_hits,
            "format_failures": n_format,
            "dropped_pairs": n_dropped,
            "transport_errors": n_errors,
            "conflict_dropped": split.n_conflict_dropped,
        },
        "results_sha256": digest.hexdigest(),
    }
    manifest_path = config.manifest_path()
    _atomic_write(manifest_path, json.dumps(manifest, sort_keys=True, indent=1) + "\n")

    logger.info(
        "%s/%s/%s: %d samples, %d cache hits, %d format failures, %d transport errors",
        config.dataset, config.method, config.model_id,
        n_samples, n_cache_hits, n_format, n_errors,
    )
    return RunSummary(
        str(results_path),
        str(manifest_path),
        n_samples,
        n_cache_hits,
        n_format,
        n_errors,
        n_dropped,
        split,
    )


# ---------------------------------------------------------------------------
# Scoring


def read_results(path: str | Path) -> Iterator[tuple[int, str, dict]]:
    """Yield ``(line number, sample_id, record)`` for each record of a
    results JSONL file, in file order, read one line at a time by
    ``read_lines``."""
    seen: set[str] = set()
    for lineno, line in read_lines(path, RunDataError):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise RunDataError(f"{path}:{lineno}: invalid JSON ({err})") from err
        if not isinstance(record, dict):
            raise RunDataError(f"{path}:{lineno}: record is not a JSON object")
        sid = record.get("sample_id")
        if not isinstance(sid, str):
            raise RunDataError(f"{path}:{lineno}: record without sample_id")
        if sid in seen:
            raise RunDataError(f"{path}:{lineno}: duplicate sample_id {sid!r}")
        seen.add(sid)
        yield lineno, sid, record


def _pair_set(pairs, pair_of: dict, where: str) -> frozenset:
    """A record's ``pairs`` as a frozenset of Pair, one shared Pair per
    distinct (category, polarity) through ``pair_of``."""
    if not isinstance(pairs, list):
        raise RunDataError(f"{where}: 'pairs' must be a list, got {pairs!r}")
    out = set()
    for item in pairs:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], str)
        ):
            raise RunDataError(f"{where}: each pair must be [category, polarity], got {item!r}")
        key = (item[0], item[1])
        pair = pair_of.get(key)
        if pair is None:
            try:
                polarity = ds.Polarity(item[1])
            except ValueError:
                raise RunDataError(f"{where}: unknown polarity {item[1]!r}") from None
            pair = pair_of[key] = ds.Pair(item[0], polarity)
        out.add(pair)
    return frozenset(out)


def score_run(results_path: str | Path, split: ds.DatasetSplit):
    """Join results to gold by sample id and compute the micro-F1 report.

    Each record is checked and reduced to its pair set as it is read, so
    neither the raw model outputs nor the JSON pair lists are ever all in
    memory at once; the first fault in file order raises RunDataError.
    Samples without a record are scored as empty predictions and
    reported via n_missing_records.
    """
    from .metrics import score

    known_ids = {sample.id for sample in split.samples}
    pair_of: dict = {}
    pair_sets: dict = {}  # each distinct prediction is held once
    predictions: dict[str, frozenset] = {}
    n_format = 0
    for lineno, sid, record in read_results(results_path):
        where = f"{results_path}:{lineno}"
        if sid not in known_ids:
            raise RunDataError(f"{where}: record id {sid!r} is not present in the dataset")
        pred = _pair_set(record.get("pairs", []), pair_of, where)
        predictions[sid] = pair_sets.setdefault(pred, pred)
        n_format += bool(record.get("format_failure"))
    preds = []
    golds = []
    ids = []
    n_missing = 0
    for sample in split.samples:
        pred = predictions.get(sample.id)
        if pred is None:
            n_missing += 1
            pred = frozenset()
        preds.append(pred)
        golds.append(sample.gold)
        ids.append(sample.id)
    return score(preds, golds, ids, n_format_failures=n_format, n_missing_records=n_missing)
