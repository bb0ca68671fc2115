import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from helpers import e2e_grid_toml

from acsa_harness import cli, llm, runner
from acsa_harness.datasets import load_xml
from acsa_harness.llm import (
    AuthError,
    CacheCorrupt,
    ChatClient,
    HttpBackend,
    ReplayBackend,
    WarmSummary,
    write_cache_file,
)
from acsa_harness.metrics import read_score_rows, score_table
from acsa_harness.prompts import render_categories
from acsa_harness.runner import (
    ConfigError,
    RunConfig,
    RunDataError,
    _load_split,
    _read_config_file,
    load_config,
    load_grid,
    prepare_jobs,
    run,
    score_run,
)
from acsa_harness.umr import UmrParseError

MINI_XML = """<?xml version="1.0" encoding="UTF-8"?>
<Reviews>
  <Review rid="1">
    <sentences>
      <sentence id="t:0">
        <text>The pizza was fantastic.</text>
        <Opinions>
          <Opinion category="FOOD#QUALITY" polarity="positive"/>
        </Opinions>
      </sentence>
      <sentence id="t:1">
        <text>Service was slow and rude.</text>
        <Opinions>
          <Opinion category="SERVICE#GENERAL" polarity="negative"/>
        </Opinions>
      </sentence>
      <sentence id="t:2">
        <text>Cheap drinks, average food.</text>
        <Opinions>
          <Opinion category="DRINKS#PRICES" polarity="positive"/>
          <Opinion category="FOOD#QUALITY" polarity="neutral"/>
        </Opinions>
      </sentence>
      <sentence id="t:3">
        <text>We sat by the window.</text>
      </sentence>
    </sentences>
  </Review>
</Reviews>
"""

CANNED = {
    "t:0": "Step by step... final answer:\n[('food quality', 'positive')]",
    "t:1": "Analysis:\n[('service', 'negtive')]",
    "t:2": "I cannot find any pairs in this review.",
    "t:3": "[]",
}


def write_exemplars(tmp_path):
    paths = []
    for i in range(5):
        text = "\n\n".join(
            f"::snt Example {i} sentence {j}.\n(e{i}s{j} / have-attribute-91\n"
            f"  :ARG1 (e{i}s{j}a / thing)\n  :aspect state)"
            for j in range(4)
        )
        path = tmp_path / f"ex{i}.umr"
        path.write_text(text, "utf-8")
        paths.append(str(path))
    return tuple(paths)


def make_config(tmp_path, method="baseline", **overrides) -> RunConfig:
    dataset_path = tmp_path / "rest_test.xml"
    if not dataset_path.exists():
        dataset_path.write_text(MINI_XML, "utf-8")
    fixture_dir = tmp_path / "fixtures"
    fixture_dir.mkdir(exist_ok=True)
    config = RunConfig(
        dataset="Restaurant16",
        dataset_path=str(dataset_path),
        method=method,
        model_id="unit-model",
        backend="replay",
        fixture_dir=str(fixture_dir),
        seed=11,
        output_path=str(tmp_path / f"out_{method}.jsonl"),
        exemplar_paths=write_exemplars(tmp_path) if method == "umr" else (),
    )
    config.update(overrides)
    return config


def write_fixtures(config: RunConfig, canned=CANNED, skip=(), directory=None):
    """Write each sample's canned output in the cache format, into the
    fixture dir or ``directory``."""
    split = load_xml(config.dataset_path, config.dataset)
    for job in prepare_jobs(config, split):
        if job.sample_id in skip:
            continue
        write_cache_file(
            Path(directory or config.fixture_dir) / f"{job.request.cache_key}.json",
            job.request,
            canned[job.sample_id],
        )


def many_sentences_xml(n: int) -> str:
    sentences = "".join(
        f'<sentence id="m:{i}"><text>Sentence number {i} about the food.</text>'
        '<Opinions><Opinion category="FOOD#QUALITY" polarity="positive"/></Opinions>'
        "</sentence>"
        for i in range(n)
    )
    return f"<Reviews><Review rid=\"1\"><sentences>{sentences}</sentences></Review></Reviews>"


class FakeResponse:
    def __init__(self, status_code, text=""):
        self.status_code = status_code
        self.text = text

    def json(self):
        return {"choices": [{"message": {"content": self.text}}]}


class FakeChatSession:
    """Stands in for the ``requests`` session of an HttpBackend: answers
    each post with the output of the sample whose text is in the prompt,
    or with 401 from its ``fail_from``-th post on. Records the thread of
    every post, and holds each answer until ``hold`` is set, if given."""

    def __init__(self, answers: dict[str, str], fail_from: int | None = None, hold=None):
        self.answers = answers  # sample text -> model output
        self.fail_from = fail_from
        self.hold = hold
        self.post_threads: list[int] = []
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self.post_threads.append(threading.get_ident())
            n = len(self.post_threads)
        if self.hold is not None:
            assert self.hold.wait(timeout=10)
        if self.fail_from is not None and n >= self.fail_from:
            return FakeResponse(401)
        user = json["messages"][1]["content"]
        return FakeResponse(200, next(a for t, a in self.answers.items() if t in user))


class FixedAnswerBackend:
    """An in-memory backend whose answers all have the same length."""

    name = "memory"

    def __init__(self, size: int):
        self.size = size

    def complete(self, request):
        return "x" * self.size + "\n[('food quality', 'positive')]"


def run_argv(config: RunConfig, **flags) -> list[str]:
    """``acsa run`` arguments for a baseline replay config, plus ``flags``."""
    argv = [
        "run",
        "--dataset", config.dataset,
        "--dataset-path", config.dataset_path,
        "--method", "baseline",
        "--model", config.model_id,
        "--backend", "replay",
        "--fixture-dir", config.fixture_dir,
        "--output", config.output_path,
    ]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def use_session(monkeypatch, session) -> None:
    monkeypatch.setattr(
        runner, "make_backend", lambda config: HttpBackend(config.base_url, session=session)
    )


def record_chat_threads(monkeypatch) -> list[tuple[str, int]]:
    """(response backend, thread) of every ChatClient.chat that returns."""
    answered = []
    chat = ChatClient.chat

    def recording_chat(self, request):
        response = chat(self, request)
        answered.append((response.backend, threading.get_ident()))
        return response

    monkeypatch.setattr(ChatClient, "chat", recording_chat)
    return answered


def record_thread_starts(monkeypatch) -> list[str]:
    """Names of the threads started from here on."""
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def http_config(tmp_path, name: str, **overrides) -> RunConfig:
    settings = {
        "backend": "http",
        "base_url": "http://unit.test/v1",
        "cache_dir": str(tmp_path / f"cache-{name}"),
        "output_path": str(tmp_path / f"{name}.jsonl"),
        **overrides,
    }
    return make_config(tmp_path, **settings)


def assert_nothing_written(config: RunConfig) -> None:
    """No results file, manifest or leftover temp file beside them."""
    out = Path(config.output_path)
    assert sorted(out.parent.glob(f"{out.name}*")) == []
    assert not config.manifest_path().exists()


def write_config_file(config: RunConfig, path: Path, **spelt: str) -> Path:
    """``config`` as a TOML file, every field spelt out; each value is
    written as JSON writes it, or as ``spelt`` gives its key."""
    path.write_text(
        "".join(
            f"{key} = {spelt[key] if key in spelt else json.dumps(getattr(config, key))}\n"
            for key in RunConfig.field_names()
        ),
        "utf-8",
    )
    return path


def assert_strict_greedy_refuses(config: RunConfig, monkeypatch) -> None:
    """``config`` fails validation on strict_greedy: ``run`` raises
    ConfigError, ``acsa run`` and ``acsa warm-cache`` exit 1, no backend is
    built and no request is answered, and nothing is written."""
    built, answered = [], []
    make_backend, chat = runner.make_backend, ChatClient.chat
    monkeypatch.setattr(runner, "make_backend", lambda c: built.append(c) or make_backend(c))
    monkeypatch.setattr(
        ChatClient, "chat", lambda self, request: answered.append(request) or chat(self, request)
    )
    with pytest.raises(ConfigError, match="strict_greedy"):
        run(config)
    path = write_config_file(config, Path(config.output_path).with_suffix(".toml"))
    assert load_config(path) == config
    for command in ("run", "warm-cache"):
        assert cli.main([command, "--config", str(path)]) == 1
    assert built == [] and answered == []
    assert_nothing_written(config)


def canned_by_text(config: RunConfig) -> dict[str, str]:
    split = load_xml(config.dataset_path, config.dataset)
    return {sample.text: CANNED[sample.id] for sample in split.samples}


def read_toml(tmp_path, text: str) -> dict:
    """``text`` read as a config file."""
    path = tmp_path / "config.toml"
    path.write_text(text, "utf-8")
    return _read_config_file(path)


class TestFlatConfig:
    def test_parse_values(self, tmp_path):
        text = (
            '# a comment\n'
            'dataset = "Restaurant16"\n'
            'seed = 11  # trailing comment\n'
            'cutoff = 0.55\n'
            'strict_greedy = true\n'
            'drop_conflict = false\n'
            'exemplar_paths = ["a.umr", "b.umr"]\n'
            'base_url = "http://x#y"  # hash inside quotes is kept\n'
        )
        parsed = read_toml(tmp_path, text)
        assert parsed == {
            "dataset": "Restaurant16",
            "seed": 11,
            "cutoff": 0.55,
            "strict_greedy": True,
            "drop_conflict": False,
            "exemplar_paths": ["a.umr", "b.umr"],
            "base_url": "http://x#y",
        }

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"no_such_key": 1})

    def test_rejects_bad_syntax(self, tmp_path):
        with pytest.raises(ConfigError):
            read_toml(tmp_path, "dataset Restaurant16")
        with pytest.raises(ConfigError):
            read_toml(tmp_path, 'x = "unterminated')
        # valid TOML, refused by RunConfig.update: an unknown key, and an
        # array that is not of strings
        path = tmp_path / "run.toml"
        for text in ("x = [1, 2]", "exemplar_paths = [1, 2]"):
            path.write_text(text + "\n", "utf-8")
            with pytest.raises(ConfigError):
                load_config(path)
            assert cli.main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "text", ['seed = 3\nseed = 4\n', 'dataset = "MAMS"\ndataset = "MAMS"\n']
    )
    def test_rejects_duplicate_key(self, tmp_path, text):
        with pytest.raises(ConfigError, match="line 2"):
            read_toml(tmp_path, text)
        path = tmp_path / "run.toml"
        path.write_text(text, "utf-8")
        where = rf"^{re.escape(str(path))}: .*\(at line 2, column \d+\)$"
        with pytest.raises(ConfigError, match=where):
            load_config(path)

    @pytest.mark.parametrize(
        "line",
        [
            'seed = "7"',
            'concurrency = "4"',
            "seed = true",
            "concurrency = 2.0",
            "strict_greedy = 1",
            'cutoff = "0.6"',
            "cutoff = false",
            "dataset = 3",
            'exemplar_paths = "a.umr"',
            # TOML that no field takes: a table, a dotted key, an inline
            # table, a date
            '[paths]\nfixture_dir = "x"',
            'paths.fixture_dir = "x"',
            'fixture_dir = {path = "x"}',
            "seed = 2026-10-19",
        ],
    )
    def test_rejects_mistyped_value(self, tmp_path, line):
        path = tmp_path / "run.toml"
        path.write_text(line + "\n", "utf-8")
        with pytest.raises(ConfigError):
            load_config(path)
        assert cli.main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "quoted,value",
        [
            (r'"a\tb"', "a\tb"),
            (r'"caf\u00e9"', "caf\u00e9"),
            (r'"\b\f\n\r \" \\ \U0001F600"', '\b\f\n\r " \\ \U0001F600'),
        ],
    )
    def test_string_escapes(self, tmp_path, quoted, value):
        assert read_toml(tmp_path, f"fixture_dir = {quoted}") == {"fixture_dir": value}
        assert read_toml(tmp_path, f"exemplar_paths = [{quoted}, {quoted}]") == {
            "exemplar_paths": [value, value]
        }

    def test_run_reads_escaped_path(self, tmp_path):
        fixture_dir = tmp_path / "fix\ttures caf\u00e9"
        fixture_dir.mkdir()
        config = make_config(tmp_path, fixture_dir=str(fixture_dir))
        write_fixtures(config)
        path = write_config_file(config, tmp_path / "run.toml")
        assert r"fix\ttures caf\u00e9" in path.read_text("utf-8")
        assert load_config(path) == config
        assert cli.main(["run", "--config", str(path)]) == 0
        assert Path(config.output_path).exists()

    @pytest.mark.parametrize(
        "line",
        [
            r'fixture_dir = "a\qb"',
            r'fixture_dir = "\uD800"',
            r'fixture_dir = "\U00110000"',
            r'fixture_dir = "\u12"',
            'exemplar_paths = ["a" "b"]',
        ],
    )
    def test_rejects_unknown_escape_and_missing_comma(self, tmp_path, line):
        with pytest.raises(ConfigError):
            read_toml(tmp_path, line)
        path = tmp_path / "run.toml"
        path.write_text(line + "\n", "utf-8")
        assert cli.main(["run", "--config", str(path)]) == 1

    def test_array_may_end_with_comma(self, tmp_path):
        assert read_toml(tmp_path, 'exemplar_paths = ["a",]') == {"exemplar_paths": ["a"]}

    @pytest.mark.parametrize(
        "key,spelt",
        [
            ("base_url", '"http://x\u2028y\u2029z\x85"'),  # raw U+2028, U+2029, U+0085
            ("fixture_dir", "'{}'"),  # a literal string
            ("exemplar_paths", "[\n  '{}',\n  '{}',\n  '{}',\n  '{}',\n  '{}',\n]"),
            ("seed", "0xb"),
            ("concurrency", "0o2"),
            ("max_output_tokens", "0b1000000"),
        ],
    )
    def test_accepts_toml_forms(self, tmp_path, key, spelt):
        config = make_config(
            tmp_path,
            method="umr",
            base_url="http://x\u2028y\u2029z\x85",
            concurrency=2,
            max_output_tokens=64,
        )
        write_fixtures(config)
        value = getattr(config, key)
        spelt = spelt.format(*value) if isinstance(value, tuple) else spelt.format(value)
        path = write_config_file(config, tmp_path / "run.toml", **{key: spelt})
        assert load_config(path) == config
        assert cli.main(["run", "--config", str(path)]) == 0
        assert Path(config.output_path).exists()

    @pytest.mark.parametrize(
        "key,spelt",
        [
            ("seed", "007"),
            ("cutoff", ".5"),
            ("cutoff", "5."),
            ("temperature", "Infinity"),
            ("cutoff", "NaN"),
            ("fixture_dir", '"a\fb"'),  # a raw form feed
            ("fixture_dir", '"a\x01b"'),  # a raw control character
            ("seed", "11\r# a bare CR as the line end"),
        ],
    )
    def test_refuses_what_toml_refuses(self, tmp_path, key, spelt):
        config = make_config(tmp_path)
        write_fixtures(config)
        path = write_config_file(config, tmp_path / "run.toml")
        assert cli.main(["run", "--config", str(path)]) == 0
        path = write_config_file(config, tmp_path / "run.toml", **{key: spelt})
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "):
            load_config(path)
        assert cli.main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "data,message",
        [
            (b'model_id = "caf\xe9"\n', "not UTF-8: invalid continuation byte at byte offset 15"),
            (b'model_id = "x"\n\xff\n', "not UTF-8: invalid start byte at byte offset 15"),
            (
                b'\xef\xbb\xbfmodel_id = "x"\n',
                "the file starts with a byte-order mark; save it as UTF-8 without one",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_config_file_must_be_utf8_without_bom(self, tmp_path, capsys, command, data, message):
        path = tmp_path / "run.toml"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_config(path)
        argv = [command, "--config", str(path)]
        if command == "grid":
            argv += ["--scores", str(tmp_path / "scores.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_readme_example_lists_every_key(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        block = readme.split("```toml\n", 1)[1].split("```", 1)[0]
        mapping = read_toml(tmp_path, block)
        RunConfig.from_mapping(mapping)
        assert sorted(mapping) == sorted(RunConfig.field_names())

    def test_accepts_int_for_float(self):
        config = RunConfig.from_mapping({"cutoff": 1, "temperature": 0})
        assert (config.cutoff, config.temperature) == (1, 0)

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('dataset = "MAMS"\nseed = 3\n', "utf-8")
        config = load_config(path, {"seed": 9})
        assert config.dataset == "MAMS"
        assert config.seed == 9

    def test_validate_catches_missing_pieces(self, tmp_path):
        config = make_config(tmp_path)
        config.dataset = "Nope"
        with pytest.raises(ConfigError):
            config.validate()
        config = make_config(tmp_path, method="umr")
        config.exemplar_paths = config.exemplar_paths[:3]
        with pytest.raises(ConfigError):
            config.validate()


class TestValidateRanges:
    @pytest.mark.parametrize("seed,accepted", [(-7, False), (0, True), (7, True)])
    def test_negative_seed_refused(self, tmp_path, seed, accepted):
        # random.Random(-7) draws what random.Random(7) draws, so a negative
        # seed would repeat another run's exemplars under a different name
        config = make_config(tmp_path, seed=seed)
        write_fixtures(config)
        if accepted:
            config.validate()
        else:
            with pytest.raises(ConfigError, match="seed must be >= 0"):
                config.validate()
        assert cli.main(run_argv(config, seed=seed)) == (0 if accepted else 1)
        assert Path(config.output_path).exists() == accepted

    @pytest.mark.parametrize(
        "key,refused,accepted",
        [
            ("max_output_tokens", -5, 1),
            ("max_output_tokens", 0, 4096),
            ("temperature", -3.0, 0.0),
            ("temperature", float("nan"), 0.7),
            ("temperature", float("inf"), 0.7),
            ("top_p", 7.0, 1.0),
            ("top_p", 0.0, 0.1),
        ],
    )
    def test_decode_parameters_range_checked(self, tmp_path, key, refused, accepted):
        make_config(tmp_path, **{key: accepted}).validate()
        config = make_config(tmp_path, **{key: refused})
        with pytest.raises(ConfigError, match=key):
            config.validate()
        assert cli.main(run_argv(config, **{key: refused})) == 1
        assert_nothing_written(config)

    @pytest.mark.parametrize("spelt", ["inf", "+inf"])
    def test_infinite_temperature_in_config_file_refused(
        self, tmp_path, monkeypatch, capsys, spelt
    ):
        # passed to a request, it would hash and write the non-JSON token Infinity
        config = make_config(tmp_path)
        write_fixtures(config)
        built = []
        make_backend = runner.make_backend
        monkeypatch.setattr(runner, "make_backend", lambda c: built.append(c) or make_backend(c))
        path = write_config_file(config, tmp_path / "run.toml", temperature=spelt)
        assert load_config(path).temperature == float("inf")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "temperature must be a finite number >= 0, got inf" in capsys.readouterr().err
        assert built == []
        assert_nothing_written(config)

    @pytest.mark.parametrize("key,refused", [("temperature", 0.7), ("top_p", 0.9)])
    def test_strict_greedy_needs_greedy_decode(self, tmp_path, monkeypatch, key, refused):
        config = make_config(tmp_path, strict_greedy=True, cache_dir=str(tmp_path / "cache"))
        write_fixtures(config)
        assert run(config).n_transport_errors == 0  # greedy decoding passes
        config.update({key: refused, "output_path": str(tmp_path / "refused.jsonl")})
        write_fixtures(config)  # the refused run would find every answer
        assert_strict_greedy_refuses(config, monkeypatch)


class TestRun:
    def test_baseline_run_records(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config)
        summary = run(config)
        assert summary.n_samples == 4
        assert summary.n_format_failures == 1  # t:2 refusal
        assert summary.n_transport_errors == 0
        lines = Path(config.output_path).read_text("utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["sample_id"] for r in records] == ["t:0", "t:1", "t:2", "t:3"]
        assert records[0]["pairs"] == [["FOOD#QUALITY", "positive"]]
        assert records[1]["pairs"] == [["SERVICE#GENERAL", "negative"]]
        assert records[2]["format_failure"] is True
        assert records[2]["pairs"] == []
        assert records[3]["pairs"] == []
        assert records[3]["format_failure"] is False
        manifest = json.loads(Path(summary.manifest_path).read_text("utf-8"))
        assert manifest["counts"]["samples"] == 4
        assert manifest["counts"]["format_failures"] == 1
        assert manifest["results_sha256"]

    def test_category_inventory_order(self, tmp_path):
        # the split the run loads keeps the inventory file's order, and that
        # exact list fills every prompt of both methods
        order = ["SERVICE#GENERAL", "FOOD#QUALITY", "DRINKS#PRICES", "AMBIENCE#GENERAL"]
        inventory_path = tmp_path / "inventory.txt"
        inventory_path.write_text("\n".join(order) + "\n", "utf-8")
        for method in ("baseline", "umr"):
            config = make_config(tmp_path, method, inventory_path=str(inventory_path))
            split = _load_split(config)
            assert split.categories == tuple(order)
            for job in prepare_jobs(config, split):
                assert render_categories(order) in job.request.user

    def test_replay_determinism_across_invocations(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        first = Path(config.output_path).read_bytes()
        run(config)
        second = Path(config.output_path).read_bytes()
        assert first == second

    def test_concurrency_does_not_change_output(self, tmp_path):
        config_a = make_config(tmp_path, concurrency=1, output_path=str(tmp_path / "a.jsonl"))
        config_b = make_config(tmp_path, concurrency=8, output_path=str(tmp_path / "b.jsonl"))
        write_fixtures(config_a)
        run(config_a)
        run(config_b)
        assert Path(config_a.output_path).read_bytes() == Path(config_b.output_path).read_bytes()

    def test_umr_run_uses_seeded_exemplars(self, tmp_path):
        config = make_config(tmp_path, method="umr")
        write_fixtures(config)
        summary = run(config)
        assert summary.n_samples == 4
        records = [
            json.loads(line)
            for line in Path(config.output_path).read_text("utf-8").splitlines()
        ]
        assert all(r["exemplar_file_id"].startswith("ex") for r in records)
        # the draw stream is a function of (seed, position): rerunning matches
        config2 = make_config(tmp_path, method="umr", output_path=str(tmp_path / "again.jsonl"))
        run(config2)
        again = [
            json.loads(line)
            for line in Path(config2.output_path).read_text("utf-8").splitlines()
        ]
        assert [r["exemplar_file_id"] for r in again] == [
            r["exemplar_file_id"] for r in records
        ]

    def test_transport_errors_recorded_not_fatal(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config, skip={"t:1"})
        summary = run(config)
        assert summary.n_transport_errors == 1
        assert summary.transport_error_rate == 0.25
        records = {
            json.loads(line)["sample_id"]: json.loads(line)
            for line in Path(config.output_path).read_text("utf-8").splitlines()
        }
        assert records["t:1"]["error"].startswith("MissingFixture")
        assert records["t:1"]["pairs"] == []
        assert records["t:0"]["error"] is None

    def test_resumability_reuses_cache(self, tmp_path):
        config = make_config(tmp_path, cache_dir=str(tmp_path / "cache"))
        write_fixtures(config)
        first_summary = run(config)
        first = Path(config.output_path).read_bytes()
        assert first_summary.n_cache_hits == 0
        Path(config.output_path).unlink()
        second_summary = run(config)
        assert Path(config.output_path).read_bytes() == first
        assert second_summary.n_cache_hits == 4


class TestRunMemory:
    def test_run_memory_does_not_grow_with_answers(self, tmp_path):
        # 300 answers of about 20 KB each: a run that kept its records, their
        # JSON lines or the whole results text until the end would trace a
        # peak of several times their total size; one that streams them holds
        # about one answer at a time
        (tmp_path / "rest_test.xml").write_text(many_sentences_xml(300), "utf-8")
        config = make_config(tmp_path)
        answers = 0
        for job in prepare_jobs(config, _load_split(config)):
            text = f"Step 1 for {job.sample_id}: " + "the food was good. " * 1100
            text += "\n[('food quality', 'positive')]"
            answers += len(text)
            write_cache_file(Path(config.fixture_dir) / f"{job.request.cache_key}.json",
                             job.request, text)
        tracemalloc.start()
        try:
            summary = run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.n_samples == 300 and summary.n_format_failures == 0
        assert answers > 300 * 20_000
        assert peak < answers / 4


    def test_run_memory_does_not_grow_with_samples(self, tmp_path, monkeypatch):
        # The split is the run's input and is held whole by design, so it is
        # loaded before tracing starts (the loader's own peak is bounded in
        # test_datasets). What the run adds on top of it (requests, answers,
        # records) must not grow with the number of samples: a run that built
        # every request before the first answer would trace about ten times
        # the peak at the tenfold N.
        peaks = []
        for n in (500, 5000):
            directory = tmp_path / str(n)
            directory.mkdir()
            (directory / "rest_test.xml").write_text(many_sentences_xml(n), "utf-8")
            config = make_config(directory, "umr")
            split = _load_split(config)
            monkeypatch.setattr(runner, "_load_split", lambda config, split=split: split)
            monkeypatch.setattr(runner, "make_backend", lambda config: FixedAnswerBackend(2_000))
            tracemalloc.start()
            try:
                summary = run(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (summary.n_samples, summary.n_format_failures) == (n, 0)
        assert peaks[1] < 1.5 * peaks[0]


class TestWhereWorkRuns:
    """Only calls to the HTTP backend go to the worker pool."""

    def test_replay_run_stays_on_calling_thread(self, tmp_path, monkeypatch):
        config = make_config(tmp_path, concurrency=4)
        write_fixtures(config)
        threads = []
        complete, process_job = ReplayBackend.complete, runner._process_job

        def recording_complete(self, request):
            threads.append(threading.get_ident())
            return complete(self, request)

        def recording_process_job(*args):
            threads.append(threading.get_ident())
            return process_job(*args)

        monkeypatch.setattr(ReplayBackend, "complete", recording_complete)
        monkeypatch.setattr(runner, "_process_job", recording_process_job)
        started = record_thread_starts(monkeypatch)
        summary = run(config)
        assert summary.n_samples == 4
        assert threads == [threading.get_ident()] * 8
        assert started == []

    def test_replay_warm_cache_stays_on_calling_thread(self, tmp_path, monkeypatch):
        config = make_config(tmp_path, concurrency=4, cache_dir=str(tmp_path / "cache"))
        write_fixtures(config)
        threads = []
        complete = ReplayBackend.complete

        def recording_complete(self, request):
            threads.append(threading.get_ident())
            return complete(self, request)

        monkeypatch.setattr(ReplayBackend, "complete", recording_complete)
        started = record_thread_starts(monkeypatch)
        client = ChatClient(
            runner.make_backend(config), cache_dir=config.cache_dir, max_concurrency=4
        )
        requests = [job.request for job in prepare_jobs(config, _load_split(config))]
        assert client.warm_cache(requests) == WarmSummary(0, 4, 4)
        assert threads == [threading.get_ident()] * 4
        assert started == []

    def test_http_warm_cache_sends_misses_to_pool(self, tmp_path):
        config = http_config(tmp_path, "warm", concurrency=4)
        write_fixtures(config, skip={"t:1", "t:3"}, directory=config.cache_dir)
        session = FakeChatSession(canned_by_text(config))
        client = ChatClient(
            HttpBackend(config.base_url, session=session),
            cache_dir=config.cache_dir,
            max_concurrency=4,
        )
        requests = [job.request for job in prepare_jobs(config, _load_split(config))]
        assert client.warm_cache(requests) == WarmSummary(2, 2, 2)
        assert len(session.post_threads) == 2
        assert threading.get_ident() not in session.post_threads

    def test_http_run_sends_only_misses_to_pool(self, tmp_path, monkeypatch):
        config = http_config(tmp_path, "half-warm", concurrency=4)
        write_fixtures(config, skip={"t:1", "t:3"}, directory=config.cache_dir)
        session = FakeChatSession(canned_by_text(config))
        use_session(monkeypatch, session)
        answered = record_chat_threads(monkeypatch)
        summary = run(config)
        assert summary.n_cache_hits == 2
        assert len(session.post_threads) == 2
        main = threading.get_ident()
        assert main not in session.post_threads
        assert sorted(answered) == sorted(
            [("cache", main), ("cache", main), ("http", session.post_threads[0]),
             ("http", session.post_threads[1])]
        )
        records = {sid: record for _, sid, record in runner.read_results(config.output_path)}
        assert records["t:0"]["pairs"] == [["FOOD#QUALITY", "positive"]]
        assert records["t:1"]["pairs"] == [["SERVICE#GENERAL", "negative"]]

    def test_http_run_sends_a_repeated_request_once(self, tmp_path, monkeypatch):
        # two samples with the same text make the same baseline request
        sentence = (
            '<sentence id="{}"><text>The pizza was fantastic.</text><Opinions>'
            '<Opinion category="FOOD#QUALITY" polarity="positive"/></Opinions></sentence>'
        )
        (tmp_path / "rest_test.xml").write_text(
            f"<Reviews><Review rid=\"1\"><sentences>{sentence.format('r:0')}"
            f"{sentence.format('r:1')}</sentences></Review></Reviews>",
            "utf-8",
        )
        config = http_config(tmp_path, "repeat", concurrency=4)
        session = FakeChatSession({"The pizza was fantastic.": CANNED["t:0"]})
        use_session(monkeypatch, session)
        summary = run(config)
        assert len(session.post_threads) == 1
        assert (summary.n_samples, summary.n_cache_hits) == (2, 1)
        records = {sid: record for _, sid, record in runner.read_results(config.output_path)}
        assert records["r:0"]["pairs"] == records["r:1"]["pairs"] == [
            ["FOOD#QUALITY", "positive"]
        ]

    def test_http_concurrency_does_not_change_output(self, tmp_path, monkeypatch):
        outputs = []
        for concurrency in (1, 8):
            config = http_config(tmp_path, f"c{concurrency}", concurrency=concurrency)
            write_fixtures(config, skip={"t:1", "t:3"}, directory=config.cache_dir)
            use_session(monkeypatch, FakeChatSession(canned_by_text(config)))
            run(config)
            outputs.append(Path(config.output_path).read_bytes())
        assert outputs[0] == outputs[1]

    def test_http_output_does_not_depend_on_concurrency(self, tmp_path, monkeypatch):
        # 60 samples, every fourth cached; posts finish out of order
        (tmp_path / "rest_test.xml").write_text(many_sentences_xml(60), "utf-8")
        answers = {
            f"Sentence number {i} about": f"[('food', '{('positive', 'negative', 'neutral')[i % 3]}')]"
            for i in range(60)
        }

        class JitterSession(FakeChatSession):
            def post(self, url, json=None, headers=None, timeout=None):
                number = json["messages"][1]["content"].split("Sentence number ")[1].split()[0]
                time.sleep(0.001 * (3 - int(number) % 4))  # later samples answer sooner
                return super().post(url, json=json, headers=headers, timeout=timeout)

        outputs = []
        for concurrency in (1, 8):
            config = http_config(tmp_path, f"jitter{concurrency}", concurrency=concurrency)
            for job in prepare_jobs(config, _load_split(config))[::4]:
                write_cache_file(Path(config.cache_dir) / f"{job.request.cache_key}.json",
                                 job.request, answers[f"Sentence number {job.index} about"])
            use_session(monkeypatch, JitterSession(answers))
            assert run(config).n_cache_hits == 15
            outputs.append(Path(config.output_path).read_bytes())
        assert outputs[0] == outputs[1]
        records = [json.loads(line) for line in outputs[0].splitlines()]
        assert [r["raw_output"] for r in records] == [
            answers[f"Sentence number {i} about"] for i in range(60)
        ]

    @pytest.mark.parametrize("backend", ["http", "replay"])
    def test_strict_greedy_rejects_cached_response(self, tmp_path, monkeypatch, backend):
        config = http_config(tmp_path, backend, temperature=0.7, backend=backend)
        write_fixtures(config, directory=config.cache_dir)
        write_fixtures(config)
        session = FakeChatSession(canned_by_text(config))
        if backend == "http":
            use_session(monkeypatch, session)
        assert run(config).n_cache_hits == 4  # so every response is cached
        config.update({"strict_greedy": True, "output_path": str(tmp_path / "strict.jsonl")})
        assert_strict_greedy_refuses(config, monkeypatch)
        assert session.post_threads == []


class TestRunFatalFaults:
    @pytest.mark.parametrize("fail_from,concurrency", [(1, 1), (3, 2), (5, 4), (2, 8)])
    def test_auth_error_stops_queued_calls(self, tmp_path, monkeypatch, fail_from, concurrency):
        (tmp_path / "rest_test.xml").write_text(many_sentences_xml(40), "utf-8")
        config = http_config(tmp_path, "auth", concurrency=concurrency, cache_dir="")
        session = FakeChatSession({"Sentence": "[]"}, fail_from=fail_from)
        use_session(monkeypatch, session)
        with pytest.raises(AuthError):
            run(config)
        assert fail_from <= len(session.post_threads) <= fail_from + concurrency
        assert_nothing_written(config)

    def test_calling_thread_fault_cancels_queued_calls(self, tmp_path, monkeypatch):
        # sample 0 is cached but corrupt and read on the calling thread; the
        # other 39 samples miss and queue for the pool, whose posts are held
        # until the run first shuts the pool down
        (tmp_path / "rest_test.xml").write_text(many_sentences_xml(40), "utf-8")
        config = http_config(tmp_path, "corrupt", concurrency=2)
        first = prepare_jobs(config, _load_split(config))[0].request
        corrupt = Path(config.cache_dir) / f"{first.cache_key}.json"
        corrupt.parent.mkdir()
        corrupt.write_text("{}", "utf-8")
        released = threading.Event()

        class HeldPool(llm.ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                released.set()
                super().shutdown(wait=wait)

        monkeypatch.setattr(llm, "ThreadPoolExecutor", HeldPool)
        session = FakeChatSession({"Sentence": "[]"}, hold=released)
        use_session(monkeypatch, session)
        with pytest.raises(CacheCorrupt):
            run(config)
        assert len(session.post_threads) <= config.concurrency

    def test_cached_answers_are_read_after_a_pool_fault(self, tmp_path, monkeypatch):
        # samples 0-149 are cached and answered on the calling thread, while
        # the pool's posts for samples 150 on are refused at once: every
        # cached answer is still read, and the run stops at sample 150
        (tmp_path / "rest_test.xml").write_text(many_sentences_xml(200), "utf-8")
        config = http_config(tmp_path, "late-auth", concurrency=2)
        for job in prepare_jobs(config, _load_split(config))[:150]:
            write_cache_file(Path(config.cache_dir) / f"{job.request.cache_key}.json",
                             job.request, "[]")
        session = FakeChatSession({"Sentence": "[]"}, fail_from=1)
        use_session(monkeypatch, session)
        with pytest.raises(AuthError):
            run(config)
        assert 1 <= len(session.post_threads) <= 1 + config.concurrency
        assert_nothing_written(config)

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_warm_cache_auth_error_stops_queued_calls(
        self, tmp_path, monkeypatch, capsys, concurrency
    ):
        (tmp_path / "rest_test.xml").write_text(many_sentences_xml(40), "utf-8")
        config = http_config(tmp_path, "warm-auth", concurrency=concurrency)
        session = FakeChatSession({"Sentence": "[]"}, fail_from=1)
        use_session(monkeypatch, session)
        code = cli.main(
            [
                "warm-cache",
                "--dataset", config.dataset,
                "--dataset-path", config.dataset_path,
                "--method", "baseline",
                "--model", config.model_id,
                "--backend", "http",
                "--base-url", config.base_url,
                "--concurrency", str(concurrency),
                "--cache-dir", config.cache_dir,
                "--output", config.output_path,
            ]
        )
        assert code == 1
        assert "HTTP 401" in capsys.readouterr().err  # the AuthError that ended it
        assert 1 <= len(session.post_threads) <= 1 + concurrency

    def test_fixture_that_is_not_an_object_is_a_data_error(self, tmp_path, capsys):
        config = make_config(tmp_path)
        write_fixtures(config)
        job = prepare_jobs(config, _load_split(config))[1]
        fixture = Path(config.fixture_dir) / f"{job.request.cache_key}.json"
        fixture.write_text("[]", "utf-8")
        code = cli.main([
            "run", "--dataset", "Restaurant16", "--dataset-path", config.dataset_path,
            "--method", "baseline", "--model", "unit-model", "--backend", "replay",
            "--fixture-dir", config.fixture_dir, "--seed", "11", "--output", config.output_path,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fixture}: cache file is not a JSON object")
        assert "Traceback" not in err
        assert_nothing_written(config)

    def test_corrupt_replay_entry_mid_run_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # the first 20 records are written to the temp file before sample 20's
        # corrupt fixture is read on the calling thread
        (tmp_path / "rest_test.xml").write_text(many_sentences_xml(40), "utf-8")
        config = make_config(tmp_path)
        jobs = prepare_jobs(config, _load_split(config))
        for job in jobs:
            write_cache_file(Path(config.fixture_dir) / f"{job.request.cache_key}.json",
                             job.request, "[]")
        (Path(config.fixture_dir) / f"{jobs[20].request.cache_key}.json").write_text(
            "{}", "utf-8"
        )
        written = []
        process_job = runner._process_job

        def recording_process_job(*args):
            written.append(args[0].index)
            return process_job(*args)

        monkeypatch.setattr(runner, "_process_job", recording_process_job)
        with pytest.raises(CacheCorrupt):
            run(config)
        assert written == list(range(20))
        assert_nothing_written(config)


class TestScoreRun:
    def test_scores_against_gold(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        split = load_xml(config.dataset_path, "Restaurant16")
        report = score_run(config.output_path, split)
        # t:0 tp=1; t:1 tp=1; t:2 fn=2 (format failure); t:3 clean empty
        assert (report.tp, report.fp, report.fn) == (2, 0, 2)
        assert report.n_format_failures == 1
        assert report.micro_f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)

    def test_missing_records_count_as_empty(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        lines = Path(config.output_path).read_text("utf-8").splitlines()
        Path(config.output_path).write_text("\n".join(lines[:2]) + "\n", "utf-8")
        split = load_xml(config.dataset_path, "Restaurant16")
        report = score_run(config.output_path, split)
        assert report.n_missing_records == 2
        assert (report.tp, report.fp, report.fn) == (2, 0, 2)

    def test_unknown_ids_rejected(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        with open(config.output_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"sample_id": "bogus", "pairs": []}) + "\n")
        split = load_xml(config.dataset_path, "Restaurant16")
        with pytest.raises(RunDataError):
            score_run(config.output_path, split)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("{not json", "invalid JSON"),
            ('{"pairs": []}', "record without sample_id"),
            ('{"sample_id": "t:0", "pairs": []}', "duplicate sample_id 't:0'"),
        ],
    )
    def test_unreadable_records_rejected(self, tmp_path, line, message):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        with open(config.output_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        split = load_xml(config.dataset_path, "Restaurant16")
        with pytest.raises(RunDataError, match=f":5: {message}"):
            score_run(config.output_path, split)


    @pytest.mark.parametrize("line", ["[1, 2]", '"str"', "null"])
    def test_record_that_is_not_an_object_is_a_data_error(self, tmp_path, capsys, line):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        with open(config.output_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        code = cli.main([
            "score", "--results", config.output_path,
            "--dataset", "Restaurant16", "--dataset-path", config.dataset_path,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config.output_path}:5: record is not a JSON object")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([["FOOD#QUALITY", "positive", "extra"]], "each pair must be"),
            ([None], "each pair must be"),
            (None, "'pairs' must be a list"),
            ([["FOOD#QUALITY", "angry"]], "unknown polarity 'angry'"),
        ],
    )
    def test_malformed_pairs_rejected(self, tmp_path, pairs, message):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        path = Path(config.output_path)
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[1])
        record["pairs"] = pairs
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        split = load_xml(config.dataset_path, "Restaurant16")
        with pytest.raises(RunDataError, match=f":2: {message}"):
            score_run(config.output_path, split)
        assert cli.main([
            "score", "--results", config.output_path,
            "--dataset", "Restaurant16", "--dataset-path", config.dataset_path,
        ]) == 2

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config)
        run(config)
        path = Path(config.output_path)
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[1])
        record["pairs"] = [["FOOD#QUALITY", "angry"]]
        lines[1] = json.dumps(record)
        lines.append(json.dumps({"sample_id": "bogus", "pairs": []}))
        path.write_text("\n".join(lines) + "\n", "utf-8")
        split = load_xml(config.dataset_path, "Restaurant16")
        with pytest.raises(RunDataError, match=":2: unknown polarity"):
            score_run(config.output_path, split)
        lines[1], lines[4] = lines[4], lines[1]
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(RunDataError, match=":2: record id 'bogus'"):
            score_run(config.output_path, split)


class TestCli:
    def test_run_and_score(self, tmp_path, capsys):
        config = make_config(tmp_path)
        write_fixtures(config)
        code = cli.main(
            [
                "run",
                "--dataset", "Restaurant16",
                "--dataset-path", config.dataset_path,
                "--method", "baseline",
                "--model", "unit-model",
                "--backend", "replay",
                "--fixture-dir", config.fixture_dir,
                "--seed", "11",
                "--output", config.output_path,
            ]
        )
        assert code == 0
        capsys.readouterr()  # discard the run summary
        code = cli.main(
            [
                "score",
                "--results", config.output_path,
                "--dataset", "Restaurant16",
                "--dataset-path", config.dataset_path,
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tp"] == 2
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("FOOD#QUALITY\nSERVICE#GENERAL\nDRINKS#PRICES\nAMBIENCE\n", "utf-8")
        argv = ["score", "--results", config.output_path, "--dataset", "Restaurant16"]
        argv += ["--dataset-path", config.dataset_path, "--inventory", str(inventory), "--json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == payload
        inventory.write_text("FOOD#QUALITY\n", "utf-8")  # gold names categories beyond it
        assert cli.main(argv) == 2

    # what follows the file's path in the message
    LOADING_FAULTS = {
        "no-category": ": sentence 't:0': missing or blank category",
        "polarity": ": sentence 't:0': unknown polarity 'great'",
        "xml-id": ": duplicate sample id 't:0'",
        "jsonl-id": ": duplicate sample id 'x'",
        "inventory": ": sample 't:1' gold category 'SERVICE#GENERAL' is not in the inventory",
        "exemplar": ": entry 0: expected '/' after variable 's1a' (line 1, column 6)",
        # past the first chunk a decoder reads, whose offsets it counts from
        "jsonl-utf8": ":402: not UTF-8: invalid continuation byte",
        "inventory-utf8": ": not UTF-8: invalid start byte at byte offset 20020",
        "exemplar-utf8": ": not UTF-8: invalid start byte at byte offset 20011",
    }

    @pytest.mark.parametrize("case", LOADING_FAULTS)
    def test_loading_fault_names_the_file_once(self, tmp_path, capsys, case):
        config = make_config(tmp_path, "umr" if case.startswith("exemplar") else "baseline")
        named = Path(config.dataset_path)
        xml = {
            "no-category": MINI_XML.replace('category="FOOD#QUALITY" ', "", 1),
            "polarity": MINI_XML.replace('polarity="positive"', 'polarity="great"', 1),
            "xml-id": MINI_XML.replace('id="t:1"', 'id="t:0"'),
        }
        argv = ["score", "--results", config.output_path, "--dataset", config.dataset,
                "--dataset-path", config.dataset_path]
        if case in xml:
            named.write_text(xml[case], "utf-8")
            argv = run_argv(config)
        elif case.startswith("jsonl"):
            named = tmp_path / "shoes.jsonl"
            if case == "jsonl-id":
                line = '{"id": "x", "text": "Snug.", "pairs": [["fit", "positive"]]}\n'
                named.write_text(line * 2, "utf-8")
            else:
                lines = [f'{{"id": "r{i}", "text": "Snug \u00e9.", "pairs": []}}\r\n'.encode()
                         for i in range(400)]
                named.write_bytes(b"".join(lines) + b"\n" + b'{"text": "caf\xe9!"}\n')
            argv[4:] = ["Shoes", "--dataset-path", str(named)]
        elif case.startswith("inventory"):
            inventory = tmp_path / "inventory.txt"
            if case == "inventory":
                inventory.write_text("FOOD#QUALITY\nDRINKS#PRICES\n", "utf-8")
            else:
                named = inventory
                inventory.write_bytes(b"FOOD#QUALITY\r\n" * 1430 + b"\xffOOD\n")
            argv += ["--inventory", str(inventory)]
        else:
            named = Path(config.exemplar_paths[0])
            if case == "exemplar":
                named.write_text("::snt One.\n(s1a thing)", "utf-8")
            else:
                named.write_bytes(b"::snt One.\n" + b"\r\n" * 10000 + b"\xff")
            argv = ["run", "--config", str(write_config_file(config, tmp_path / "run.toml"))]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {named}{self.LOADING_FAULTS[case]}\n"
        assert err.count(named.name) == 1
        assert_nothing_written(config)

    @pytest.mark.parametrize("method", ["baseline", "umr"])
    def test_split_without_categories_is_a_data_error(
        self, tmp_path, monkeypatch, capsys, method
    ):
        dataset_path = tmp_path / "laptop16_test.xml"
        dataset_path.write_text(
            '<Reviews><Review rid="1"><sentences><sentence id="l:0">'
            "<text>It boots.</text></sentence></sentences></Review></Reviews>",
            "utf-8",
        )
        cache_dir = tmp_path / "cache"
        config = make_config(
            tmp_path,
            method,
            dataset="Laptop16",
            dataset_path=str(dataset_path),
            cache_dir=str(cache_dir),
            output_path=str(tmp_path / "runs" / "laptop16.jsonl"),
        )
        answered = []
        monkeypatch.setattr(ChatClient, "chat", lambda self, request: answered.append(request))
        path = write_config_file(config, tmp_path / "run.toml")
        for command in ("run", "warm-cache"):
            assert cli.main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "inventory_path" in err, err
            assert "Traceback" not in err
        assert answered == []
        assert not cache_dir.exists() and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("source", ["dataset", "inventory"])
    def test_categories_that_fold_alike_are_a_data_error(self, tmp_path, capsys, source):
        config = make_config(tmp_path)
        write_fixtures(config)
        dataset_path = Path(config.dataset_path)
        if source == "dataset":
            text = MINI_XML.replace('"DRINKS#PRICES"', '"food#quality"')
            dataset_path.write_text(text, "utf-8")
            named, pair = dataset_path, "'FOOD#QUALITY' and 'food#quality'"
        else:
            named = tmp_path / "inventory.txt"
            named.write_text("FOOD#QUALITY\nSERVICE#GENERAL\nDRINKS#PRICES\nFit\nFIT\n", "utf-8")
            config.update({"inventory_path": str(named)})
            pair = "'Fit' and 'FIT'"
        message = f"error: {named}: categories {pair} differ only in case or spacing\n"
        for argv in (
            ["run", "--config", str(write_config_file(config, tmp_path / "run.toml"))],
            ["score", "--results", config.output_path, "--dataset", "Restaurant16",
             "--dataset-path", str(dataset_path)]
            + (["--inventory", str(named)] if source == "inventory" else []),
        ):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == message
        assert_nothing_written(config)

    def test_run_exit_code_on_excessive_transport_failures(self, tmp_path):
        config = make_config(tmp_path)
        write_fixtures(config, skip={"t:0", "t:1"})  # 50% failures
        code = cli.main(
            [
                "run",
                "--dataset", "Restaurant16",
                "--dataset-path", config.dataset_path,
                "--method", "baseline",
                "--model", "unit-model",
                "--backend", "replay",
                "--fixture-dir", config.fixture_dir,
                "--seed", "11",
                "--output", config.output_path,
            ]
        )
        assert code == 3

    def test_config_error_exit_code(self, tmp_path):
        code = cli.main(
            ["run", "--dataset", "Restaurant16", "--method", "baseline"]
        )
        assert code == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--no-such-flag"])
        assert info.value.code == 1

    def test_report_and_anova(self, capsys):
        cells = str(Path(__file__).parent / "fixtures" / "scores_grid.csv")
        assert cli.main(["report", "--cells", cells]) == 0
        out = capsys.readouterr().out
        assert "35.57" in out
        assert cli.main(["anova", "--cells", cells, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        method = next(e for e in payload["effects"] if e["name"] == "Method")
        assert method["df"] == 1

    def test_parse_umr_graph_and_document(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("(x / thing :mod (y1 / other))", "utf-8")
        assert cli.main(["parse-umr", str(graph_file)]) == 0
        assert "(x / thing" in capsys.readouterr().out
        doc_file = tmp_path / "d.txt"
        doc_file.write_text("::snt Hello there.\n(x / thing)", "utf-8")
        assert cli.main(["parse-umr", str(doc_file)]) == 0
        assert "::snt Hello there." in capsys.readouterr().out

    def test_parse_umr_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("(x / thing", "utf-8")
        assert cli.main(["parse-umr", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_warm_cache_cli(self, tmp_path, capsys):
        config = make_config(tmp_path, cache_dir=str(tmp_path / "cache"))
        write_fixtures(config)
        code = cli.main(
            [
                "warm-cache",
                "--dataset", "Restaurant16",
                "--dataset-path", config.dataset_path,
                "--method", "baseline",
                "--model", "unit-model",
                "--backend", "replay",
                "--fixture-dir", config.fixture_dir,
                "--seed", "11",
                "--cache-dir", config.cache_dir,
                "--output", config.output_path,
            ]
        )
        assert code == 0
        assert "fetched: 4" in capsys.readouterr().out


class TestPreparationMemos:
    """Exemplar files and category inventories are prepared once per
    process. Each test clears both memos first, so test order cannot
    matter."""

    @pytest.fixture(autouse=True)
    def clear_memos(self):
        runner._exemplar.cache_clear()
        runner._prepared_inventory.cache_clear()

    def test_grid_parses_each_exemplar_file_once(self, tmp_path, monkeypatch, capsys):
        parsed = []
        parse = runner.parse_document

        def counting_parse(text, source_id):
            parsed.append(source_id)
            return parse(text, source_id=source_id)

        monkeypatch.setattr(runner, "parse_document", counting_parse)
        grid = tmp_path / "grid.toml"
        grid.write_text(e2e_grid_toml(tmp_path / "runs", methods=("umr",)), "utf-8")
        argv = ["grid", "--config", str(grid), "--scores", str(tmp_path / "scores.csv")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("_umr: samples: 10 ") == 4
        assert sorted(parsed) == [f"ex{i}.umr" for i in range(5)]
        manifest = json.loads((tmp_path / "runs" / "Laptop16_umr.manifest.json").read_text("utf-8"))
        assert manifest["results_sha256"] == LAPTOP16_UMR_SHA256

    def test_rewritten_file_gives_new_blocks(self, tmp_path):
        config = make_config(tmp_path, "umr")
        split = _load_split(config)
        before = [job.request.user for job in prepare_jobs(config, split)]
        for path in map(Path, config.exemplar_paths):
            path.write_text(path.read_text("utf-8").replace("::snt Example", "::snt Rewritten"))
        after = [job.request.user for job in prepare_jobs(config, split)]
        assert all("::snt Example" in user and "Rewritten" not in user for user in before)
        assert after == [user.replace("::snt Example", "::snt Rewritten") for user in before]

    def test_crlf_file_gives_the_same_blocks(self, tmp_path):
        config = make_config(tmp_path, "umr")
        split = _load_split(config)
        before = prepare_jobs(config, split)
        for path in map(Path, config.exemplar_paths):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        runner._exemplar.cache_clear()
        assert prepare_jobs(config, split) == before

    def test_same_content_under_another_name(self, tmp_path):
        config = make_config(tmp_path, "umr")
        split = _load_split(config)
        jobs = prepare_jobs(config, split)
        drawn = jobs[0].exemplar_file_id
        index = [Path(p).name for p in config.exemplar_paths].index(drawn)
        copy = tmp_path / "copy.umr"
        copy.write_text(Path(config.exemplar_paths[index]).read_text("utf-8"), "utf-8")
        paths = list(config.exemplar_paths)
        paths[index] = str(copy)
        config.exemplar_paths = tuple(paths)
        renamed = prepare_jobs(config, split)
        assert [job.request for job in renamed] == [job.request for job in jobs]
        assert [job.exemplar_file_id for job in renamed] == [
            "copy.umr" if job.exemplar_file_id == drawn else job.exemplar_file_id for job in jobs
        ]

    def test_malformed_file_raises_on_every_run_until_fixed(self, tmp_path):
        config = make_config(tmp_path, "umr")
        path = Path(config.exemplar_paths[0])
        good = path.read_text("utf-8")
        path.write_text("::snt Broken.\n(b / thing :mod (c / other)", "utf-8")
        for _ in range(2):
            with pytest.raises(UmrParseError, match="never closed"):
                run(config)
            assert_nothing_written(config)
        path.write_text(good, "utf-8")
        write_fixtures(config)
        assert run(config).n_transport_errors == 0

    def test_equal_categories_share_one_inventory(self, tmp_path, monkeypatch):
        used = []
        process = runner._process_job

        def recording(job, answer, inventory, cutoff):
            used.append(inventory)
            return process(job, answer, inventory, cutoff)

        monkeypatch.setattr(runner, "_process_job", recording)
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("FOOD#QUALITY\nSERVICE#GENERAL\nDRINKS#PRICES\nAMBIENCE\n", "utf-8")
        configs = [
            make_config(tmp_path),
            make_config(tmp_path, "umr"),
            make_config(
                tmp_path, inventory_path=str(inventory), output_path=str(tmp_path / "other.jsonl")
            ),
        ]
        prepared = []
        for config in configs:
            used.clear()
            assert run(config).n_samples == 4  # each answer a missing fixture
            assert len(used) == 4 and all(item is used[0] for item in used)
            prepared.append(used[0])
        assert prepared[0] is prepared[1]
        assert prepared[2] is not prepared[0]
        assert runner._prepared_inventory.cache_info().currsize == 2

    def test_memos_are_bounded(self):
        for i in range(runner.EXEMPLAR_MEMO_SIZE + 3):
            runner._exemplar(f"ex{i}.umr", f"::snt Sentence {i}.\n(s / thing)")
        info = runner._exemplar.cache_info()
        assert (info.maxsize, info.currsize) == (runner.EXEMPLAR_MEMO_SIZE,) * 2
        for i in range(runner.INVENTORY_MEMO_SIZE + 3):
            runner._prepared_inventory((f"CATEGORY#{i}",))
        info = runner._prepared_inventory.cache_info()
        assert (info.maxsize, info.currsize) == (runner.INVENTORY_MEMO_SIZE,) * 2


def write_grid(path: Path, shared: dict, cells: dict) -> Path:
    """A grid file of ``shared`` top-level keys and one ``[cells.NAME]``
    table per item of ``cells``; each value is written as JSON writes it."""
    lines = [f"{key} = {json.dumps(value)}" for key, value in shared.items()]
    for name, keys in cells.items():
        lines.append(f"[cells.{name}]")
        lines += [f"{key} = {json.dumps(value)}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return path


class TestGrid:
    SHARED = ("dataset", "dataset_path", "model_id", "backend", "fixture_dir", "seed")

    def cells(self, tmp_path):
        """A baseline and a umr config on the mini split, fixtures written."""
        configs = {"base": make_config(tmp_path), "umr": make_config(tmp_path, "umr")}
        for config in configs.values():
            write_fixtures(config)
        return configs

    def grid(self, tmp_path, configs, **changes) -> Path:
        """``configs`` as a grid file; ``changes`` maps a cell name to
        keys that replace or add to that cell's keys."""
        shared = {key: getattr(configs["base"], key) for key in self.SHARED}
        cells = {}
        for name, config in configs.items():
            keys = {"method": config.method, "output_path": config.output_path}
            if config.exemplar_paths:
                keys["exemplar_paths"] = list(config.exemplar_paths)
            cells[name] = {**keys, **changes.get(name, {})}
        return write_grid(tmp_path / "grid.toml", shared, cells)

    def test_runs_every_cell_and_writes_scores(self, tmp_path, capsys):
        configs = self.cells(tmp_path)
        grid = self.grid(tmp_path, configs)
        assert load_grid(grid) == list(configs.items())
        scores = tmp_path / "out" / "scores.csv"
        assert cli.main(["grid", "--config", str(grid), "--scores", str(scores)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":", 1)[0] for line in out] == ["cells.base", "cells.umr", "scores"]
        expected = []
        for config in configs.values():
            report = score_run(config.output_path, _load_split(config))
            expected.append(
                (config.method, "unit-model", "Restaurant16", round(report.micro_f1 * 100, 2))
            )
        assert scores.read_text("utf-8").splitlines()[0] == "method,model,dataset,score"
        assert read_score_rows(scores) == expected
        table = score_table(read_score_rows(scores))
        assert (table.methods, table.models, table.datasets) == (
            ("baseline", "umr"), ("unit-model",), ("Restaurant16",)
        )
        assert table.scores == {tuple(row[:3]): row[3] for row in expected}
        assert cli.main(["report", "--cells", str(scores)]) == 0

    def test_each_cell_loads_its_split_once(self, tmp_path, monkeypatch):
        loads = []
        load_dataset = runner.ds.load_dataset

        def counting_load(name, *args, **kwargs):
            loads.append(name)
            return load_dataset(name, *args, **kwargs)

        monkeypatch.setattr(runner.ds, "load_dataset", counting_load)
        grid = tmp_path / "grid.toml"
        grid.write_text(e2e_grid_toml(tmp_path), "utf-8")
        scores = tmp_path / "scores.csv"
        assert cli.main(["grid", "--config", str(grid), "--scores", str(scores)]) == 0
        assert len(loads) == 8
        assert sorted(set(loads)) == ["Laptop16", "MAMS", "Restaurant16", "Shoes"]

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"no_such_key": 1}, "unknown config key 'no_such_key'"),
            ({"seed": "7"}, "seed must be int, got str '7'"),
            ({"dataset_path": "missing.xml"}, "dataset_path does not exist: 'missing.xml'"),
            # the same file as cells.base's absolute output_path
            ({"output_path": "out_baseline.jsonl"}, "out_baseline.jsonl is also written by cells.base"),
            (
                {"method": "baseline"},
                "cells.base has the same method, model_id and dataset",
            ),
        ],
    )
    def test_cell_faults_stop_the_grid_before_it_runs(
        self, tmp_path, monkeypatch, capsys, changes, message
    ):
        configs = self.cells(tmp_path)
        monkeypatch.chdir(tmp_path)
        grid = self.grid(tmp_path, configs, umr=changes)
        with pytest.raises(ConfigError, match=re.escape(f"{grid}: cells.umr: ")):
            load_grid(grid)
        answered = []
        monkeypatch.setattr(ChatClient, "chat", lambda self, request: answered.append(request))
        scores = tmp_path / "scores.csv"
        assert cli.main(["grid", "--config", str(grid), "--scores", str(scores)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid}: cells.umr: ") and message in err, err
        assert answered == [] and not scores.exists()
        for config in configs.values():
            assert_nothing_written(config)

    @pytest.mark.parametrize(
        "text,message",
        [
            ('seed = 1\n', "a grid needs at least one [cells.NAME] table"),
            ("cells = 3\n", "a grid needs at least one [cells.NAME] table"),
            ("[cells]\n", "a grid needs at least one [cells.NAME] table"),
            ("no_such_key = 1\n[cells.a]\nseed = 1\n", "unknown config key 'no_such_key'"),
            ("[cells]\na = 3\n", "cells.a: must be a table, got int 3"),
        ],
    )
    def test_grid_shape_faults(self, tmp_path, capsys, text, message):
        grid = tmp_path / "grid.toml"
        grid.write_text(text, "utf-8")
        assert cli.main(["grid", "--config", str(grid), "--scores", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == f"error: {grid}: {message}\n"

    def test_transport_failures_stop_the_grid(self, tmp_path, capsys):
        configs = self.cells(tmp_path)
        fixtures = tmp_path / "partial"
        fixtures.mkdir()
        write_fixtures(configs["base"], skip={"t:0", "t:1"}, directory=fixtures)  # 50% missing
        grid = self.grid(tmp_path, configs, base={"fixture_dir": str(fixtures)})
        scores = tmp_path / "scores.csv"
        assert cli.main(["grid", "--config", str(grid), "--scores", str(scores)]) == 3
        captured = capsys.readouterr()
        assert "cells.base: transport failure rate 50.0% exceeds 10%" in captured.err
        assert "transport errors: 2" in captured.out
        assert configs["base"].manifest_path().exists()
        assert_nothing_written(configs["umr"])
        assert not scores.exists()

    def test_data_fault_stops_the_grid(self, tmp_path, capsys):
        configs = self.cells(tmp_path)
        Path(configs["umr"].exemplar_paths[0]).write_text("::snt Broken.\n(b / thing", "utf-8")
        grid = self.grid(tmp_path, configs)
        scores = tmp_path / "scores.csv"
        assert cli.main(["grid", "--config", str(grid), "--scores", str(scores)]) == 2
        assert "never closed" in capsys.readouterr().err
        base = configs["base"]
        manifest = json.loads(base.manifest_path().read_text("utf-8"))
        digest = hashlib.sha256(Path(base.output_path).read_bytes()).hexdigest()
        assert manifest["results_sha256"] == digest
        assert_nothing_written(configs["umr"])
        assert not scores.exists()

    def test_readme_example_runs_the_committed_cells(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        section = readme.split("### `acsa grid`\n", 1)[1]
        block = section.split("```toml\n", 1)[1].split("```", 1)[0]
        grid = tmp_path / "grid.toml"
        grid.write_text(block, "utf-8")
        monkeypatch.chdir(Path(__file__).parent.parent)
        cells = dict(load_grid(grid))
        assert [(c.dataset, c.method) for c in cells.values()] == [
            ("Laptop16", "baseline"), ("Laptop16", "umr")
        ]
        config = cells["laptop16_umr"]
        config.update({"output_path": str(tmp_path / "umr.jsonl"), "cache_dir": ""})
        run(config)
        manifest = json.loads(config.manifest_path().read_text("utf-8"))
        assert manifest["results_sha256"] == LAPTOP16_UMR_SHA256


E2E = Path(__file__).parent / "fixtures" / "e2e"
SRC = Path(__file__).resolve().parent.parent / "src"

# results_sha256 of the committed Laptop16/umr replay cell, the same digest
# the benchmark pins for that grid-replay cell
LAPTOP16_UMR_SHA256 = "61771eadb06e5201c3f9179b7e138cb51eb2bcff886dd70c12f86feccb07a27f"

_RUN_PATH_CHILD = """
import json, sys
from acsa_harness import cli
code = cli.main(sys.argv[1:])
loaded = [
    m for m in ("numpy", "requests", "urllib3", "charset_normalizer", "tomllib")
    if m in sys.modules
]
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_run_path_imports_only_stdlib(tmp_path):
    """A replay run loads neither numpy nor requests and its stack, and a
    run given by flags alone does not load the config file reader."""
    meta = json.loads((E2E / "meta.json").read_text("utf-8"))
    root = E2E.parent.parent.parent
    argv = [
        "run",
        "--dataset", "Laptop16",
        "--dataset-path", str(E2E / meta["datasets"]["Laptop16"]),
        "--method", "umr",
        "--model", meta["model_id"],
        "--backend", "replay",
        "--fixture-dir", str(E2E / meta["replay_dir"]),
        "--seed", str(meta["seed"]),
        "--output", str(tmp_path / "Laptop16_umr.jsonl"),
    ]
    for path in meta["exemplars"]:
        argv += ["--exemplar", str(root / path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PATH_CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child == {"code": 0, "loaded": []}
    manifest = json.loads((tmp_path / "Laptop16_umr.manifest.json").read_text("utf-8"))
    assert manifest["results_sha256"] == LAPTOP16_UMR_SHA256
