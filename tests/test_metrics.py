import itertools
import random
from pathlib import Path

import pytest

from acsa_harness import cli
from acsa_harness.datasets import Pair, Polarity
from acsa_harness.metrics import (
    LengthMismatch,
    aggregate,
    aggregate_to_json,
    read_score_rows,
    render_detailed_table,
    render_summary_table,
    round_half_up,
    score,
    score_table,
    write_score_rows,
)

FIXTURES = Path(__file__).parent / "fixtures"
GRID_CSV = FIXTURES / "scores_grid.csv"


def _pair(category, polarity):
    return Pair(category, Polarity(polarity))


def _random_pair_set(rng):
    categories = ["food", "service", "ambience", "price", "menu"]
    polarities = ["positive", "neutral", "negative"]
    n = rng.randrange(0, 4)
    return frozenset(_pair(rng.choice(categories), rng.choice(polarities)) for _ in range(n))


def _brute_counts(pred, gold):
    tp = sum(1 for p in pred if p in gold)
    fp = sum(1 for p in pred if p not in gold)
    fn = sum(1 for g in gold if g not in pred)
    return tp, fp, fn


class TestScore:
    def test_identity_is_perfect(self):
        golds = [
            frozenset({_pair("food", "positive")}),
            frozenset({_pair("service", "negative"), _pair("ambience", "neutral")}),
        ]
        report = score(golds, golds)
        assert report.micro_f1 == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert (report.fp, report.fn) == (0, 0)

    def test_one_hit_one_miss_each_way(self):
        gold = frozenset({_pair("Food", "positive"), _pair("Service", "negative")})
        pred = frozenset({_pair("Food", "positive"), _pair("Ambience", "negative")})
        report = score([pred], [gold])
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.micro_f1 == 0.5

    def test_all_empty_predictions(self):
        golds = [frozenset({_pair("food", "positive")}) for _ in range(5)]
        preds = [frozenset() for _ in range(5)]
        report = score(preds, golds)
        assert report.tp == 0
        assert report.micro_f1 == 0.0

    def test_same_category_two_polarities_are_distinct(self):
        gold = frozenset({_pair("food", "positive"), _pair("food", "negative")})
        pred = frozenset({_pair("food", "positive")})
        report = score([pred], [gold])
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)

    def test_empty_gold_prediction_contributes_fp_only(self):
        report = score([frozenset({_pair("food", "positive")})], [frozenset()])
        assert (report.tp, report.fp, report.fn) == (0, 1, 0)
        assert report.micro_f1 == 0.0
        clean = score([frozenset()], [frozenset()])
        assert (clean.tp, clean.fp, clean.fn) == (0, 0, 0)
        assert clean.micro_f1 == 0.0

    def test_permutation_invariance(self):
        rng = random.Random(5)
        preds = [_random_pair_set(rng) for _ in range(30)]
        golds = [_random_pair_set(rng) for _ in range(30)]
        base = score(preds, golds)
        order = list(range(30))
        rng.shuffle(order)
        shuffled = score([preds[i] for i in order], [golds[i] for i in order])
        assert (base.tp, base.fp, base.fn) == (shuffled.tp, shuffled.fp, shuffled.fn)
        assert base.micro_f1 == shuffled.micro_f1

    def test_adding_true_positive_never_decreases_f1(self):
        rng = random.Random(17)
        for _ in range(100):
            preds = [_random_pair_set(rng) for _ in range(8)]
            golds = [_random_pair_set(rng) for _ in range(8)]
            before = score(preds, golds).micro_f1
            index = rng.randrange(8)
            missing = golds[index] - preds[index]
            if not missing:
                continue
            improved = list(preds)
            improved[index] = preds[index] | {next(iter(missing))}
            after = score(improved, golds).micro_f1
            assert after >= before

    def test_matches_brute_force_counts(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(1, 12)
            preds = [_random_pair_set(rng) for _ in range(n)]
            golds = [_random_pair_set(rng) for _ in range(n)]
            report = score(preds, golds)
            tp = fp = fn = 0
            for p, g in zip(preds, golds):
                a, b, c = _brute_counts(p, g)
                tp += a
                fp += b
                fn += c
            assert (report.tp, report.fp, report.fn) == (tp, fp, fn)

    def test_per_sample_counts(self):
        gold = frozenset({_pair("food", "positive")})
        report = score([frozenset(), gold], [gold, gold], ids=["a", "b"])
        assert report.per_sample == (("a", 0, 0, 1), ("b", 1, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            score([frozenset()], [])


class TestScoreTable:
    def test_levels_in_first_seen_order(self):
        table = score_table(read_score_rows(GRID_CSV))
        assert table.methods == ("baseline", "umr")
        assert table.models == ("Qwen3-4B", "Qwen3-8B", "Gemini-2.5-Pro")
        assert table.datasets == ("Laptop16", "Restaurant16", "MAMS", "Shoes")
        assert table.scores[("umr", "Qwen3-8B", "Shoes")] == 45.60

    def test_values_in_method_model_dataset_order(self):
        keys = list(itertools.product(("a", "b"), ("x", "y", "z"), ("p", "q")))
        table = score_table((*key, float(i)) for i, key in reversed(list(enumerate(keys))))
        assert (table.methods, table.models, table.datasets) == (
            ("b", "a"), ("z", "y", "x"), ("q", "p")
        )
        ordered = itertools.product(table.methods, table.models, table.datasets)
        assert [table.scores[key] for key in ordered] == [float(i) for i in reversed(range(12))]

    def test_no_rows(self):
        with pytest.raises(ValueError, match="no score rows"):
            score_table([])


class TestAggregate:
    def _grid_table(self):
        return score_table(read_score_rows(GRID_CSV))

    def test_reference_grid_means(self):
        agg = aggregate(self._grid_table())
        expected = {
            ("baseline", "Qwen3-4B"): 35.57,
            ("baseline", "Qwen3-8B"): 43.77,
            ("baseline", "Gemini-2.5-Pro"): 59.84,
            ("umr", "Qwen3-4B"): 32.92,
            ("umr", "Qwen3-8B"): 43.83,
            ("umr", "Gemini-2.5-Pro"): 57.66,
        }
        for key, value in expected.items():
            assert agg.means[key] == pytest.approx(value, abs=0.005)

    def test_identical_cells_mean_is_that_score(self):
        rows = [
            (m, mo, d, 41.25)
            for d in ("A", "B", "C", "D")
            for m in ("baseline", "umr")
            for mo in ("m1",)
        ]
        agg = aggregate(score_table(rows))
        assert agg.means[("baseline", "m1")] == 41.25
        assert agg.stds[("baseline", "m1")] == 0.0

    def test_rounding_half_up(self):
        rows = [("m", "x", d, v) for d, v in zip("ABCD", (10.01, 10.01, 10.02, 10.02))]
        agg = aggregate(score_table(rows))
        assert agg.means[("m", "x")] == 10.02  # 10.015 rounds up, not to even
        assert round_half_up(0.125, 2) == 0.13
        assert round_half_up(35.5675, 2) == 35.57

    def test_incomplete_grid_rejected(self):
        rows = [r for r in read_score_rows(GRID_CSV) if r[:3] != ("umr", "Qwen3-8B", "Shoes")]
        with pytest.raises(ValueError, match="missing"):
            aggregate(score_table(rows))

    def test_rendered_tables(self):
        agg = aggregate(self._grid_table())
        summary = render_summary_table(agg)
        assert "35.57" in summary and "57.66" in summary
        detailed = render_detailed_table(agg)
        assert "Laptop16" in detailed and "80.50" in detailed
        payload = aggregate_to_json(agg)
        assert payload["summary"]["baseline"]["Qwen3-8B"]["mean"] == 43.77
        assert payload["detailed"]["MAMS"]["umr"]["Qwen3-4B"] == 35.18


class TestScoreRows:
    def test_reads_with_header(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("method,model,dataset,score\nbaseline,m1,D1,50.0\n", "utf-8")
        assert read_score_rows(path) == [("baseline", "m1", "D1", 50.0)]

    def test_reads_without_header(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("baseline,m1,D1,50.0\n", "utf-8")
        assert read_score_rows(path) == [("baseline", "m1", "D1", 50.0)]

    def test_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("\n , \nmethod,model,dataset,score\nbaseline,m1,D1,50.0\n", "utf-8")
        assert read_score_rows(path) == [("baseline", "m1", "D1", 50.0)]

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("baseline,m1,50.0\n", "utf-8")
        with pytest.raises(ValueError):
            read_score_rows(path)

    def test_bad_score(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("baseline,m1,D1,50.0\nbaseline,m1,D2,oops\n", "utf-8")
        with pytest.raises(ValueError):
            read_score_rows(path)

    def test_fault_names_the_file_line(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text('"two\nlines",m1,D1,50.0\nbaseline,m1,D2,oops\n', "utf-8")
        with pytest.raises(ValueError, match=r"cells\.csv:3: non-numeric score 'oops'"):
            read_score_rows(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", " NaN "])
    def test_non_finite_score(self, tmp_path, text):
        path = tmp_path / "cells.csv"
        path.write_text(f"baseline,m1,D1,50.0\nbaseline,m1,D2,{text}\n", "utf-8")
        with pytest.raises(ValueError) as info:
            read_score_rows(path)
        assert str(info.value) == f"{path}:2: non-finite score {text!r}"

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("baseline,m1,D1,50.0\nbaseline,m1,D1,60.0\n", "utf-8")
        with pytest.raises(ValueError) as info:
            score_table(read_score_rows(path))
        assert str(info.value) == "repeated (method, model, dataset) cell ('baseline', 'm1', 'D1')"

    def test_written_rows_read_back(self, tmp_path):
        path = tmp_path / "out" / "scores.csv"
        write_score_rows(path, [("baseline", "m1", "D1", 85.714), ("umr", "m1", "D1", 90.0)])
        assert path.read_text("utf-8") == (
            "method,model,dataset,score\nbaseline,m1,D1,85.71\numr,m1,D1,90.00\n"
        )
        assert read_score_rows(path) == [("baseline", "m1", "D1", 85.71), ("umr", "m1", "D1", 90.0)]


class TestScoresCommands:
    """``acsa report`` and ``acsa anova`` read the scores file the same way."""

    @pytest.mark.parametrize("command", ["report", "anova"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_stdout_pinned(self, capsys, command, json_flag):
        assert cli.main([command, "--cells", str(GRID_CSV), *json_flag]) == 0
        suffix = "json" if json_flag else "txt"
        expected = (FIXTURES / "scores_grid_out" / f"{command}.{suffix}").read_text("utf-8")
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda lines: lines + [lines[1]],
                "repeated (method, model, dataset) cell ('baseline', 'Qwen3-4B', 'Laptop16')",
            ),
            (
                lambda lines: lines[:-1],
                "missing (method, model, dataset) cell ('umr', 'Gemini-2.5-Pro', 'Shoes')",
            ),
            (
                lambda lines: lines[:5] + ["baseline,Qwen3-8B,Laptop16,nan"] + lines[6:],
                "{path}:6: non-finite score 'nan'",
            ),
            (
                lambda lines: lines[:5] + ["baseline,Qwen3-8B,Laptop16,inf"] + lines[6:],
                "{path}:6: non-finite score 'inf'",
            ),
            (lambda lines: [""] + lines, None),  # the header is the first non-blank row
        ],
    )
    @pytest.mark.parametrize("command", ["report", "anova"])
    def test_faults_read_alike(self, tmp_path, capsys, command, edit, message):
        lines = GRID_CSV.read_text("utf-8").splitlines()
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(edit(lines)) + "\n", "utf-8")
        code = cli.main([command, "--cells", str(path)])
        captured = capsys.readouterr()
        if message is None:
            assert code == 0
            expected = (FIXTURES / "scores_grid_out" / f"{command}.txt").read_text("utf-8")
            assert captured.out == expected
        else:
            assert code == 2
            assert captured.err == f"error: {message.format(path=path)}\n"
