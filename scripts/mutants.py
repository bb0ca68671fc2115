"""Check that the tests still kill a kept list of mutants.

Each mutant names a file under the repository root, an ``old`` string
that must occur exactly once in it, the ``new`` string that replaces it,
and the pytest selector whose tests must fail on the mutated code. For
each mutant the script copies the tree into a temporary directory (the
checkout is never edited), applies the edit there, and runs ``python -m
pytest -x -q`` on the selector with that copy's ``src`` first on the
import path. A mutant is killed when pytest reports failing tests (exit
1); a passing run is a survivor, and any other exit (no tests collected,
a usage error) is an error. An ``old`` string that no longer occurs
exactly once is an error too, never a skip: code that moves takes its
mutant along.

Usage: python scripts/mutants.py

Exits 1 on any survivor or error. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    selector: str


MUTANTS = (
    Mutant(
        "search-lanes-without-guard-bit",
        "src/acsa_harness/postprocess.py",
        "self.width = max(self.lengths, default=0) + 1",
        "self.width = max(self.lengths, default=0) or 1",
        "tests/test_postprocess.py::TestPackedLanes",
    ),
    Mutant(
        "search-stops-at-equal-bound",
        "src/acsa_harness/postprocess.py",
        "        if bound < best_score:\n            break",
        "        if bound <= best_score:\n            break",
        "tests/test_postprocess.py::TestBestCategoryMatchesExhaustiveSearch",
    ),
    Mutant(
        "search-scores-by-bound",
        "src/acsa_harness/postprocess.py",
        "        entry, text = entries[index]\n        score = similarity(folded, text)",
        "        entry, text = entries[index]\n        score = bound",
        "tests/test_postprocess.py::TestBestCategoryMatchesExhaustiveSearch",
    ),
    Mutant(
        "cache-file-not-an-object",
        "src/acsa_harness/llm.py",
        "    if not isinstance(payload, dict):\n",
        "    if False:\n",
        "tests/test_llm.py::TestChatClient::test_json_that_is_not_a_cache_object_is_corrupt",
    ),
    Mutant(
        "cache-response-not-an-object",
        "src/acsa_harness/llm.py",
        "    if not isinstance(response, dict):\n",
        "    if False:\n",
        "tests/test_llm.py::TestChatClient::test_json_that_is_not_a_cache_object_is_corrupt",
    ),
    Mutant(
        "results-record-not-an-object",
        "src/acsa_harness/runner.py",
        "            if not isinstance(record, dict):\n",
        "            if False:\n",
        "tests/test_runner.py::TestScoreRun::test_record_that_is_not_an_object_is_a_data_error",
    ),
    Mutant(
        "shoes-blank-category",
        "src/acsa_harness/datasets.py",
        "                if not category:\n",
        "                if False:\n",
        "tests/test_datasets.py::TestShoes::test_blank_category",
    ),
    Mutant(
        "xml-blank-category",
        "src/acsa_harness/datasets.py",
        "                if not category:\n",
        "                if False:\n",
        "tests/test_datasets.py::TestSemeval::test_blank_category",
    ),
    Mutant(
        "empty-text",
        "src/acsa_harness/datasets.py",
        "            if not text.strip():\n                raise MalformedRecord",
        "            if False:\n                raise MalformedRecord",
        "tests/test_datasets.py::TestOneSampleBuilder::test_faults_of_a_record",
    ),
    Mutant(
        "shoes-category-not-stripped",
        "src/acsa_harness/datasets.py",
        "                category = category.strip()\n",
        "",
        "tests/test_datasets.py::TestShoes::test_categories_are_stripped",
    ),
    Mutant(
        "xml-category-not-stripped",
        "src/acsa_harness/datasets.py",
        "                category = category.strip()\n",
        "",
        "tests/test_datasets.py::TestSemeval::test_categories_are_stripped",
    ),
    Mutant(
        "categories-that-fold-alike",
        "src/acsa_harness/datasets.py",
        "        if j != i:\n",
        "        if False:\n",
        "tests/test_datasets.py::TestInventoryAndCounts::test_one_spelling_per_category",
    ),
    Mutant(
        "repeated-hash-sent-to-pool",
        "src/acsa_harness/llm.py",
        "send = request.cache_key not in sent and not self.is_cached(request)",
        "send = not self.is_cached(request)",
        "tests/test_llm.py::TestChatClient::test_request_coalescing",
    ),
    Mutant(
        "cache-hits-sent-to-pool",
        "src/acsa_harness/llm.py",
        "send = request.cache_key not in sent and not self.is_cached(request)",
        "send = request.cache_key not in sent",
        "tests/test_runner.py::TestWhereWorkRuns::test_http_run_sends_only_misses_to_pool",
    ),
    Mutant(
        "repeat-sent-after-pool-fault",
        "src/acsa_harness/llm.py",
        "                    elif faults and request.cache_key in read:\n",
        "                    elif False:\n",
        "tests/test_llm.py::TestChatClient::test_repeat_is_not_sent_after_a_pool_fault",
    ),
    Mutant(
        "anova-of-a-single-level-factor",
        "src/acsa_harness/stats.py",
        "        if len(factor) < 2:\n",
        "        if False:\n",
        "tests/test_stats.py::TestDesign::test_single_level_factor_rejected",
    ),
    Mutant(
        "non-finite-score-read",
        "src/acsa_harness/metrics.py",
        "            if not math.isfinite(value):\n",
        "            if False:\n",
        "tests/test_metrics.py::TestScoreRows::test_non_finite_score",
    ),
    Mutant(
        "config-file-with-bom-read",
        "src/acsa_harness/runner.py",
        "    if data.startswith(codecs.BOM_UTF8):\n",
        "    if False:\n",
        "tests/test_runner.py::TestFlatConfig::test_config_file_must_be_utf8_without_bom",
    ),
    Mutant(
        "xml-sentence-fault-without-path",
        "src/acsa_harness/datasets.py",
        'yield f"{path}: sentence {sid!r}", sid, text, raw_pairs',
        'yield f"sentence {sid!r}", sid, text, raw_pairs',
        "tests/test_runner.py::TestCli::test_loading_fault_names_the_file_once",
    ),
    Mutant(
        "exemplar-fault-without-path",
        "src/acsa_harness/runner.py",
        '                err.args = (f"{path}: {err}",)',
        "                pass",
        "tests/test_runner.py::TestCli::test_loading_fault_names_the_file_once",
    ),
    Mutant(
        "split-fault-without-path",
        "src/acsa_harness/datasets.py",
        '        raise type(err)(f"{path}: {err}") from None\n',
        "        raise\n",
        "tests/test_runner.py::TestCli::test_loading_fault_names_the_file_once",
    ),
    Mutant(
        "inventory-entries-that-fold-alike",
        "src/acsa_harness/datasets.py",
        "        _one_spelling_each(categories)\n",
        "        pass\n",
        "tests/test_datasets.py::TestInventoryAndCounts::test_read_inventory_rejects_duplicates",
    ),
    Mutant(
        "inventory-split-at-any-line-break",
        "src/acsa_harness/datasets.py",
        'text.replace("\\r\\n", "\\n").replace("\\r", "\\n").split("\\n")',
        "text.splitlines()",
        "tests/test_datasets.py::TestInventoryAndCounts::test_read_inventory_splits_at_line_ends_only",
    ),
    Mutant(
        "shoes-decode-fault-without-line",
        "src/acsa_harness/datasets.py",
        'open(path, encoding="utf-8", errors="surrogateescape")',
        'open(path, encoding="utf-8")',
        "tests/test_runner.py::TestCli::test_loading_fault_names_the_file_once",
    ),
    Mutant(
        "first-list-wins",
        "src/acsa_harness/postprocess.py",
        '    start = raw_output.rfind("[")\n',
        '    start = raw_output.find("[")\n',
        "tests/test_postprocess.py::TestExtractMatchesForwardScan",
    ),
    Mutant(
        "tie-breaks-to-latest",
        "src/acsa_harness/postprocess.py",
        "        if score > best_score or (score == best_score and index < best_index):",
        "        if score >= best_score or (score == best_score and index < best_index):",
        "tests/test_postprocess.py::TestBestCategoryMatchesExhaustiveSearch::test_ties_break_to_earliest",
    ),
    Mutant(
        "queued-calls-not-cancelled",
        "src/acsa_harness/llm.py",
        "pool.shutdown(wait=False, cancel_futures=True)",
        "pool.shutdown(wait=False)",
        "tests/test_runner.py::TestRunFatalFaults",
    ),
    Mutant(
        "queued-calls-sent-after-a-fault",
        "src/acsa_harness/llm.py",
        "        if faults:\n            return None\n",
        "        if False:\n            return None\n",
        "tests/test_runner.py::TestRunFatalFaults",
    ),
    Mutant(
        "job-list-built-up-front",
        "src/acsa_harness/runner.py",
        "jobs, ahead = tee(_jobs(config, split))",
        "jobs, ahead = tee(list(_jobs(config, split)))",
        "tests/test_runner.py::TestRunMemory::test_run_memory_does_not_grow_with_samples",
    ),
    Mutant(
        "xml-elements-not-dropped",
        "src/acsa_harness/datasets.py",
        "                open_elements[-1].remove(node)\n",
        "                pass\n",
        "tests/test_datasets.py::TestStreamedXmlLoader::test_parse_peak_stays_near_the_split_size",
    ),
    Mutant(
        "exemplar-memo-off",
        "src/acsa_harness/runner.py",
        "EXEMPLAR_MEMO_SIZE = 32\n",
        "EXEMPLAR_MEMO_SIZE = 0\n",
        "tests/test_runner.py::TestPreparationMemos::test_grid_parses_each_exemplar_file_once",
    ),
    Mutant(
        "exemplars-keyed-by-name",
        "src/acsa_harness/runner.py",
        'exemplars.append(_exemplar(path.name, path.read_text("utf-8")))',
        "exemplars.append(_exemplar(path.name, _exemplar.__dict__.setdefault("
        'path.name, path.read_text("utf-8"))))',
        "tests/test_runner.py::TestPreparationMemos::test_rewritten_file_gives_new_blocks",
    ),
    Mutant(
        "non-finite-request-hashed",
        "src/acsa_harness/llm.py",
        "            allow_nan=False,\n",
        "",
        "tests/test_llm.py::TestRequestHashing::test_non_finite_parameter_is_refused",
    ),
    Mutant(
        "grid-scored-on-a-second-load",
        "src/acsa_harness/cli.py",
        "report = runner.score_run(summary.results_path, summary.split)",
        "report = runner.score_run(summary.results_path, runner._load_split(config))",
        "tests/test_runner.py::TestGrid::test_each_cell_loads_its_split_once",
    ),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".work", "*.egg-info")


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's ``old`` string in its file under ``root``,
    raising ValueError unless it occurs exactly once."""
    target = root / mutant.path
    text = target.read_text("utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old string occurs {found} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new), "utf-8")


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or an error message for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        try:
            apply(mutant, tree)
        except ValueError as err:
            return f"error: {err}"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        done = subprocess.run(
            [*command, mutant.selector], cwd=tree, env=env, capture_output=True, text=True
        )
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode} {' '.join(tail)}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run(mutant)
        print(f"{outcome:10} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        bad += outcome != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
