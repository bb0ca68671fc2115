"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each criterion enforces its stated tolerance and time budget.
"""

import hashlib
import itertools
import json
import random
import string
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    GRID_DIGESTS,
    e2e_grid_toml,
    f_upper_tail_quadrature,
    gestalt_reference,
    random_graph,
    structurally_equal,
)

from acsa_harness import cli
from acsa_harness.datasets import load_dataset, verify_official_counts
from acsa_harness.metrics import aggregate, read_score_rows, score, score_table
from acsa_harness.postprocess import NoListFound, RawPair, extract_pair_list, similarity
from acsa_harness.runner import RunConfig, load_grid, run, score_run
from acsa_harness.stats import anova, f_upper_tail
from acsa_harness.umr import (
    UmrParseError,
    exemplar_draw_indices,
    parse_graph,
    serialize_graph,
)

FIXTURES = Path(__file__).parent / "fixtures"
E2E = FIXTURES / "e2e"


class _Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"exceeded {self.limit}s budget ({elapsed:.2f}s)"
        return elapsed


# ---------------------------------------------------------------------------
# 1. Official dataset statistics reproduced at full scale


def _laptop_categories():
    entities = [
        "LAPTOP", "BATTERY", "KEYBOARD", "DISPLAY", "CPU", "MEMORY", "SUPPORT",
        "COMPANY", "MOUSE", "SOFTWARE", "OS", "WARRANTY", "SHIPPING",
        "MULTIMEDIA_DEVICES", "PORTS", "POWER_SUPPLY", "MOTHERBOARD",
    ]
    attributes = ["GENERAL", "PRICE", "QUALITY", "OPERATION_PERFORMANCE"]
    combos = [f"{e}#{a}" for e, a in itertools.product(entities, attributes)]
    return combos[:67]


RESTAURANT_CATEGORIES = [
    "AMBIENCE#GENERAL", "DRINKS#PRICES", "DRINKS#QUALITY", "DRINKS#STYLE_OPTIONS",
    "FOOD#PRICES", "FOOD#QUALITY", "FOOD#STYLE_OPTIONS", "LOCATION#GENERAL",
    "RESTAURANT#GENERAL", "RESTAURANT#MISCELLANEOUS", "RESTAURANT#PRICES",
    "SERVICE#GENERAL",
]
MAMS_CATEGORIES = ["food", "service", "staff", "price", "ambience", "menu", "place", "miscellaneous"]
SHOES_CATEGORIES = [
    "comfort", "sizing", "durability", "style", "price", "material", "arch support",
    "insole", "waterproofing", "laces", "value", "fit", "traction", "weight",
    "breathability", "cushioning", "color", "width", "heel", "toe box", "customer service",
]
POLARITIES = ("positive", "neutral", "negative")


def _write_semeval_scale(path, n, categories):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<Reviews><Review rid='1'><sentences>"]
    for i in range(n):
        category = categories[i % len(categories)]
        polarity = POLARITIES[i % 3]
        lines.append(
            f'<sentence id="s{i}"><text>Synthetic sentence number {i}.</text>'
            f'<Opinions><Opinion category="{category}" polarity="{polarity}"/></Opinions>'
            "</sentence>"
        )
    lines.append("</sentences></Review></Reviews>")
    path.write_text("\n".join(lines), "utf-8")


def _write_mams_scale(path, n, categories):
    lines = ["<sentences>"]
    for i in range(n):
        lines.append(
            f"<sentence><text>Synthetic MAMS sentence {i}.</text><aspectCategories>"
            f'<aspectCategory category="{categories[i % len(categories)]}" '
            f'polarity="{POLARITIES[i % 3]}"/></aspectCategories></sentence>'
        )
    lines.append("</sentences>")
    path.write_text("\n".join(lines), "utf-8")


def _write_shoes_scale(path, n, categories):
    rows = [
        json.dumps(
            {
                "id": f"r{i}",
                "text": f"Synthetic review number {i} about a pair of shoes.",
                "pairs": [[categories[i % len(categories)], POLARITIES[i % 3]]],
            }
        )
        for i in range(n)
    ]
    path.write_text("\n".join(rows) + "\n", "utf-8")


def test_acceptance_1_official_dataset_statistics(tmp_path):
    budget = _Budget(5.0)
    expected = {
        "Laptop16": (579, 67, _laptop_categories()),
        "Restaurant16": (571, 12, RESTAURANT_CATEGORIES),
        "MAMS": (400, 8, MAMS_CATEGORIES),
        "Shoes": (125, 21, SHOES_CATEGORIES),
    }
    for name, (n_samples, n_categories, categories) in expected.items():
        assert len(categories) == n_categories
        if name in ("Laptop16", "Restaurant16"):
            path = tmp_path / f"{name}.xml"
            _write_semeval_scale(path, n_samples, categories)
        elif name == "MAMS":
            path = tmp_path / "mams.xml"
            _write_mams_scale(path, n_samples, categories)
        else:
            path = tmp_path / "shoes.jsonl"
            _write_shoes_scale(path, n_samples, categories)
        split = load_dataset(name, path)
        assert len(split.samples) == n_samples
        assert len(split.categories) == n_categories
        verify_official_counts(split)  # raises on any mismatch
    elapsed = budget.check()
    print(f"\nACCEPTANCE 1 PASS - test-split statistics 579/571/400/125 samples, "
          f"67/12/8/21 categories reproduced exactly ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Summary means from the detailed per-dataset grid


def test_acceptance_2_summary_means_from_grid(capsys):
    budget = _Budget(5.0)
    assert cli.main(["report", "--cells", str(FIXTURES / "scores_grid.csv"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = {
        ("baseline", "Qwen3-4B"): 35.57,
        ("baseline", "Qwen3-8B"): 43.77,
        ("baseline", "Gemini-2.5-Pro"): 59.84,
        ("umr", "Qwen3-4B"): 32.92,
        ("umr", "Qwen3-8B"): 43.83,
        ("umr", "Gemini-2.5-Pro"): 57.66,
    }
    for (method, model), value in expected.items():
        got = payload["summary"][method][model]["mean"]
        assert abs(got - value) <= 0.005, f"{method}/{model}: {got} vs {value}"
    elapsed = budget.check()
    print(f"\nACCEPTANCE 2 PASS - all six summary means within 0.005 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Three-way ANOVA statistics


def test_acceptance_3_anova_reproduction():
    budget = _Budget(5.0)
    table = anova(score_table(read_score_rows(FIXTURES / "scores_grid.csv")))

    method = table.effect("Method")
    assert method.df == 1 and table.residual_df == 6
    assert method.f == pytest.approx(0.42, abs=0.01)
    assert method.p == pytest.approx(0.543, abs=0.005)

    model = table.effect("Model")
    assert model.f == pytest.approx(33.43, abs=0.05)
    assert model.p < 0.001
    assert model.eta_squared == pytest.approx(0.462, abs=0.002)

    dataset = table.effect("Dataset")
    assert dataset.f == pytest.approx(16.81, abs=0.05)
    assert dataset.p == pytest.approx(0.003, abs=0.001)
    assert dataset.eta_squared == pytest.approx(0.348, abs=0.002)

    method_model = table.effect("Method:Model")
    assert method_model.f == pytest.approx(0.11, abs=0.01)
    assert method_model.p == pytest.approx(0.894, abs=0.005)

    model_dataset = table.effect("Model:Dataset")
    assert model_dataset.df == 6
    assert model_dataset.f == pytest.approx(3.40, abs=0.02)
    assert model_dataset.p == pytest.approx(0.081, abs=0.003)

    elapsed = budget.check()
    print(f"\nACCEPTANCE 3 PASS - ANOVA F/p/eta^2 reproduce the reported "
          f"statistics within tolerance ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. Incomplete-beta tail vs adaptive quadrature


def test_acceptance_4_f_tail_vs_quadrature():
    budget = _Budget(5.0)
    reported = [(0.42, 1, 6), (33.43, 2, 6), (16.81, 3, 6), (0.11, 2, 6), (3.40, 6, 6)]
    grid = list(reported)
    f_values = (0.05, 0.5, 1.0, 2.5, 7.0, 20.0, 80.0, 300.0)
    df_pairs = ((1, 1), (1, 6), (2, 6), (3, 6), (6, 6), (2, 10), (5, 2), (10, 10), (7, 3))
    for f_stat, dfs in itertools.product(f_values, df_pairs):
        if len(grid) == 50:
            break
        grid.append((f_stat, *dfs))
    assert len(grid) == 50 and len(set(grid)) == 50
    worst = 0.0
    for f_stat, d1, d2 in grid:
        mine = f_upper_tail(f_stat, d1, d2)
        reference = f_upper_tail_quadrature(f_stat, d1, d2)
        worst = max(worst, abs(mine - reference))
        assert abs(mine - reference) <= 1e-8, (f_stat, d1, d2, mine, reference)
    elapsed = budget.check()
    print(f"\nACCEPTANCE 4 PASS - {len(grid)} grid points agree with quadrature "
          f"to 1e-8 (worst {worst:.2e}) ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 5. Parser round trips, reference structure, mutant rejection

PIZZA_SERVICE = """(s1a / and
:op1 (s1h / have-attribute-91
:ARG1 (s1p / pizza
:mod (s1p2 / pepperoni))
:ARG2 (s1d / delicious)
:aspect state)
:op2 (s1h2 / have-attribute-91
:ARG1 (s1s / service)
:ARG2 (s1t / terrible)
:aspect state))"""


def test_acceptance_5_parser_properties():
    budget = _Budget(10.0)
    rng = random.Random(550)
    for _ in range(1000):
        graph = random_graph(rng)
        assert structurally_equal(graph, parse_graph(serialize_graph(graph)))

    reference = parse_graph(PIZZA_SERVICE)
    assert reference.root == "s1a"
    assert reference.nodes["s1a"] == "and"
    assert reference.nodes["s1h"] == reference.nodes["s1h2"] == "have-attribute-91"
    assert reference.nodes["s1p"] == "pizza" and reference.nodes["s1p2"] == "pepperoni"
    roles = [(e.source, e.role) for e in reference.edges]
    assert ("s1a", "op1") in roles and ("s1a", "op2") in roles
    assert ("s1h", "ARG1") in roles and ("s1h", "ARG2") in roles and ("s1h", "aspect") in roles

    n_mutants = 0
    mutant_sources = [reference] + [random_graph(rng, allow_strings=False) for _ in range(30)]
    for graph in mutant_sources:
        text = serialize_graph(graph)
        for i, ch in enumerate(text):
            if ch not in "()":
                continue
            n_mutants += 1
            with pytest.raises(UmrParseError):
                parse_graph(text[:i] + text[i + 1 :])
    elapsed = budget.check()
    print(f"\nACCEPTANCE 5 PASS - 1000 graphs round-trip, reference structure "
          f"matches, {n_mutants} paren-deletion mutants rejected ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 6. Post-processing oracle suite


def test_acceptance_6_postprocess_oracles():
    budget = _Budget(10.0)
    rng = random.Random(660)
    alphabet = string.ascii_lowercase[:10] + " #_-"
    worst = 0.0
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
        delta = abs(similarity(a, b) - gestalt_reference(a, b))
        worst = max(worst, delta)
        assert delta <= 1e-12

    assert similarity("negtive", "negative") == 14.0 / 15.0
    assert Fraction(14, 15) == Fraction(similarity("negtive", "negative")).limit_denominator(1000)
    assert similarity("food", "food") == 1.0
    assert similarity("abc", "xyz") == 0.0

    cases = json.loads((FIXTURES / "extract_cases.json").read_text("utf-8"))["cases"]
    for case in cases:
        if case["expect"] == "NoListFound":
            with pytest.raises(NoListFound):
                extract_pair_list(case["text"])
        else:
            assert extract_pair_list(case["text"]) == [
                RawPair(c, p) for c, p in case["expect"]
            ], case["name"]
    elapsed = budget.check()
    print(f"\nACCEPTANCE 6 PASS - 500 similarity pairs match brute force "
          f"(worst {worst:.1e}), tagged examples exact, {len(cases)} extraction "
          f"cases pass ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 7. Evaluator properties


def _random_sets(rng, n):
    from acsa_harness.datasets import Pair, Polarity

    categories = ["food", "service", "ambience", "price", "menu", "staff"]

    def one():
        return frozenset(
            Pair(rng.choice(categories), Polarity(rng.choice(POLARITIES)))
            for _ in range(rng.randrange(0, 4))
        )

    return [one() for _ in range(n)], [one() for _ in range(n)]


def test_acceptance_7_evaluator_properties():
    budget = _Budget(5.0)
    from acsa_harness.datasets import Pair, Polarity

    rng = random.Random(770)

    golds = [frozenset({Pair("food", Polarity.POSITIVE)}) for _ in range(4)]
    assert score(golds, golds).micro_f1 == 1.0

    gold = frozenset({Pair("Food", Polarity.POSITIVE), Pair("Service", Polarity.NEGATIVE)})
    pred = frozenset({Pair("Food", Polarity.POSITIVE), Pair("Ambience", Polarity.NEGATIVE)})
    report = score([pred], [gold])
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert report.micro_f1 == 0.5

    for _ in range(200):
        n = rng.randrange(1, 10)
        preds, golds = _random_sets(rng, n)
        report = score(preds, golds)
        tp = sum(len([p for p in pr if p in go]) for pr, go in zip(preds, golds))
        fp = sum(len([p for p in pr if p not in go]) for pr, go in zip(preds, golds))
        fn = sum(len([g for g in go if g not in pr]) for pr, go in zip(preds, golds))
        assert (report.tp, report.fp, report.fn) == (tp, fp, fn)

        order = list(range(n))
        rng.shuffle(order)
        permuted = score([preds[i] for i in order], [golds[i] for i in order])
        assert (permuted.tp, permuted.fp, permuted.fn, permuted.micro_f1) == (
            report.tp, report.fp, report.fn, report.micro_f1,
        )

        index = rng.randrange(n)
        emptied = list(preds)
        removed = emptied[index]
        emptied[index] = frozenset()
        after = score(emptied, golds)
        if removed and not (removed & golds[index]):
            assert after.micro_f1 >= report.micro_f1  # dropping pure FPs cannot hurt
        if removed and removed <= golds[index]:
            assert after.micro_f1 <= report.micro_f1  # dropping pure TPs cannot help
    elapsed = budget.check()
    print(f"\nACCEPTANCE 7 PASS - evaluator matches the set-count oracle and "
          f"its monotonicity properties on 200 instances ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 8. Offline end-to-end replay, bit-identical, scored


def _e2e_config(meta, dataset, method, out_dir: Path) -> RunConfig:
    return RunConfig(
        dataset=dataset,
        dataset_path=str(E2E / meta["datasets"][dataset]),
        method=method,
        model_id=meta["model_id"],
        backend="replay",
        fixture_dir=str(E2E / meta["replay_dir"]),
        seed=meta["seed"],
        output_path=str(out_dir / f"{dataset}_{method}.jsonl"),
        cache_dir=str(out_dir / "cache"),
        exemplar_paths=tuple(str(E2E.parent.parent.parent / p) for p in meta["exemplars"])
        if method == "umr"
        else (),
    )


def test_acceptance_8_end_to_end_replay(tmp_path):
    budget = _Budget(30.0)
    meta = json.loads((E2E / "meta.json").read_text("utf-8"))
    # derived from the fixture construction rules: sample 7 answers empty
    # (2 fn over the two affected gold pairs... 1 pair here), sample 2 loses
    # one pair (1 fn), and baseline sample 5 adds one spurious pair (1 fp)
    expected_counts = {
        ("Laptop16", "baseline"): (9, 1, 2),
        ("Laptop16", "umr"): (9, 0, 2),
        ("Restaurant16", "baseline"): (9, 1, 2),
        ("Restaurant16", "umr"): (9, 0, 2),
        ("MAMS", "baseline"): (9, 1, 2),
        ("MAMS", "umr"): (9, 0, 2),
        ("Shoes", "baseline"): (11, 1, 2),
        ("Shoes", "umr"): (11, 0, 2),
    }
    cells = {}
    draws = exemplar_draw_indices(meta["seed"], 10, 5)
    keys = [(dataset, method) for dataset in meta["datasets"] for method in ("baseline", "umr")]
    # invocation 1 calls runner.run per cell, invocation 2 is one `acsa grid`
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    run1.mkdir()
    summaries = {key: run(_e2e_config(meta, *key, run1)) for key in keys}
    grid = tmp_path / "grid.toml"
    grid.write_text(e2e_grid_toml(run2), "utf-8")
    assert [config for _, config in load_grid(grid)] == [
        _e2e_config(meta, *key, run2) for key in keys
    ]
    scores = tmp_path / "scores.csv"
    assert cli.main(["grid", "--config", str(grid), "--scores", str(scores)]) == 0
    for out_dir in (run1, run2):
        for dataset, method in keys:
            config = _e2e_config(meta, dataset, method, out_dir)
            manifest = json.loads(config.manifest_path().read_text("utf-8"))
            counts = manifest["counts"]
            assert counts["samples"] == 10
            assert counts["transport_errors"] == 0
            if method == "baseline":
                assert counts["format_failures"] == 1  # the sample-7 refusal
                assert counts["dropped_pairs"] == 0
            else:
                assert counts["format_failures"] == 0
                assert counts["dropped_pairs"] == 1  # the unmappable junk pair
            if out_dir == run1:
                summary = summaries[(dataset, method)]
                assert (summary.n_samples, summary.n_transport_errors) == (10, 0)
                assert summary.n_format_failures == counts["format_failures"]
                assert summary.n_dropped_pairs == counts["dropped_pairs"]
            pin = GRID_DIGESTS[(dataset, method)]
            assert manifest["results_sha256"] == pin, f"{dataset}/{method} manifest digest"
            on_disk = hashlib.sha256(Path(config.output_path).read_bytes()).hexdigest()
            assert on_disk == pin, f"{dataset}/{method} results file digest"
            split = load_dataset(dataset, config.dataset_path)
            report = score_run(config.output_path, split)
            assert (report.tp, report.fp, report.fn) == expected_counts[(dataset, method)]
            if out_dir == run1:
                cells[(method, meta["model_id"], dataset)] = round(report.micro_f1 * 100, 2)
            if method == "umr":
                records = [
                    json.loads(line)
                    for line in Path(config.output_path).read_text("utf-8").splitlines()
                ]
                assert [r["exemplar_file_id"] for r in records] == [
                    f"ex{d}.umr" for d in draws
                ]
    for dataset, method in keys:
        first = (run1 / f"{dataset}_{method}.jsonl").read_bytes()
        second = (run2 / f"{dataset}_{method}.jsonl").read_bytes()
        assert first == second, f"{dataset}/{method} results differ between invocations"
    table = score_table(read_score_rows(scores))
    assert table.scores == cells
    assert (table.methods, table.models) == (("baseline", "umr"), (meta["model_id"],))

    agg = aggregate(table)
    from acsa_harness.metrics import render_detailed_table, render_summary_table

    derived_means = {}
    for method in ("baseline", "umr"):
        values = []
        for dataset in meta["datasets"]:
            tp, fp, fn = expected_counts[(dataset, method)]
            values.append(round(100.0 * 2 * tp / (2 * tp + fp + fn), 2))
        derived_means[method] = round(sum(values) / len(values), 2)
        assert agg.means[(method, meta["model_id"])] == pytest.approx(
            derived_means[method], abs=0.005
        )
    summary_text = render_summary_table(agg)
    detailed_text = render_detailed_table(agg)
    assert meta["model_id"] in summary_text and "Shoes" in detailed_text
    elapsed = budget.check()
    print(f"\nACCEPTANCE 8 PASS - 8 offline replay runs bit-identical between runs per "
          f"cell and one acsa grid; scored report means {derived_means} ({elapsed:.2f}s)")
