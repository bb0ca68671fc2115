import itertools
import math
import random
from pathlib import Path

import pytest
from helpers import f_upper_tail_quadrature

from acsa_harness.metrics import ScoreTable, read_score_rows, score_table
from acsa_harness.stats import (
    EFFECTS,
    IncompleteDesign,
    ZeroResidual,
    anova,
    decompose,
    f_upper_tail,
    render_anova_table,
)

FIXTURES = Path(__file__).parent / "fixtures"
LEVELS = (("m0", "m1"), ("a", "b", "c"), ("w", "x", "y", "z"))


def load_grid_table() -> ScoreTable:
    """The table ``acsa anova`` reads from the committed scores file."""
    return score_table(read_score_rows(FIXTURES / "scores_grid.csv"))


def shuffled_table(rows, rng) -> ScoreTable:
    """The table of ``rows`` given in a random order, so that each factor's
    level order differs from the order of the cells."""
    rows = list(rows)
    rng.shuffle(rows)
    return score_table(rows)


def table_of(value, levels=LEVELS, rng=None) -> ScoreTable:
    """The table whose cell (method, model, dataset) scores ``value(cell)``."""
    rows = [(*cell, value(cell)) for cell in itertools.product(*levels)]
    return shuffled_table(rows, rng or random.Random(0))


def random_table(rng, a=2, b=3, c=4) -> ScoreTable:
    levels = (
        tuple(f"method{i}" for i in range(a)),
        tuple(f"model{i}" for i in range(b)),
        tuple(f"data{i}" for i in range(c)),
    )
    return table_of(lambda cell: rng.uniform(0.0, 100.0), levels, rng)


def moved(table: ScoreTable, move) -> ScoreTable:
    """``table`` with every score replaced by ``move(score)``."""
    return score_table((*cell, move(value)) for cell, value in table.scores.items())


def brute_force_ss(table: ScoreTable) -> dict:
    """Sums of squares via explicit loops over marginal means, reading each
    cell by its level names."""
    methods, models, datasets = table.methods, table.models, table.datasets
    a, b, c = len(methods), len(models), len(datasets)
    y = table.scores
    mu = sum(y.values()) / (a * b * c)
    m_a = {i: sum(y[i, j, k] for j in models for k in datasets) / (b * c) for i in methods}
    m_b = {j: sum(y[i, j, k] for i in methods for k in datasets) / (a * c) for j in models}
    m_c = {k: sum(y[i, j, k] for i in methods for j in models) / (a * b) for k in datasets}
    m_ab = {(i, j): sum(y[i, j, k] for k in datasets) / c for i in methods for j in models}
    m_ac = {(i, k): sum(y[i, j, k] for j in models) / b for i in methods for k in datasets}
    m_bc = {(j, k): sum(y[i, j, k] for i in methods) / a for j in models for k in datasets}
    ss = {
        "Method": b * c * sum((m - mu) ** 2 for m in m_a.values()),
        "Model": a * c * sum((m - mu) ** 2 for m in m_b.values()),
        "Dataset": a * b * sum((m - mu) ** 2 for m in m_c.values()),
        "Method:Model": c
        * sum((m_ab[i, j] - m_a[i] - m_b[j] + mu) ** 2 for i in methods for j in models),
        "Method:Dataset": b
        * sum((m_ac[i, k] - m_a[i] - m_c[k] + mu) ** 2 for i in methods for k in datasets),
        "Model:Dataset": a
        * sum((m_bc[j, k] - m_b[j] - m_c[k] + mu) ** 2 for j in models for k in datasets),
        "total": sum((v - mu) ** 2 for v in y.values()),
    }
    residual = 0.0
    for i, j, k in itertools.product(methods, models, datasets):
        fitted = m_ab[i, j] + m_ac[i, k] + m_bc[j, k] - m_a[i] - m_b[j] - m_c[k] + mu
        residual += (y[i, j, k] - fitted) ** 2
    ss["residual"] = residual
    return ss


class TestDesign:
    def test_table_orders_levels_by_appearance(self):
        table = load_grid_table()
        assert table.methods == ("baseline", "umr")
        assert table.models == ("Qwen3-4B", "Qwen3-8B", "Gemini-2.5-Pro")
        assert table.datasets == ("Laptop16", "Restaurant16", "MAMS", "Shoes")
        assert len(table.scores) == 24

    def test_missing_cell_rejected(self):
        rows = read_score_rows(FIXTURES / "scores_grid.csv")[:-1]
        with pytest.raises(ValueError, match="missing"):
            score_table(rows)

    def test_duplicate_cell_rejected(self):
        rows = read_score_rows(FIXTURES / "scores_grid.csv")
        with pytest.raises(ValueError, match="repeated"):
            score_table(rows + [rows[0]])

    def test_single_level_factor_rejected(self):
        rows = [r for r in read_score_rows(FIXTURES / "scores_grid.csv") if r[0] == "umr"]
        with pytest.raises(IncompleteDesign, match="factor 'method' needs at least 2 levels"):
            anova(score_table(rows))
        rows = [r for r in read_score_rows(FIXTURES / "scores_grid.csv") if r[2] == "MAMS"]
        with pytest.raises(IncompleteDesign, match="factor 'dataset' needs at least 2 levels"):
            anova(score_table(rows))


class TestDecomposition:
    def test_matches_brute_force_oracle(self):
        rng = random.Random(8)
        tables = [load_grid_table()] + [random_table(rng) for _ in range(20)]
        tables.append(random_table(rng, a=3, b=2, c=5))
        for table in tables:
            got = decompose(table)
            want = brute_force_ss(table)
            assert got.keys() == want.keys()
            for name, value in want.items():
                assert got[name] == pytest.approx(value, rel=1e-10, abs=1e-9)

    def test_row_order_does_not_change_a_bit(self):
        # the levels come in the order the rows first name them, and the
        # sums of squares read cells by level name, through exact sums
        rng = random.Random(21)
        reordered = 0
        for _ in range(20):
            rows = [(*cell, value) for cell, value in random_table(rng, 3, 2, 4).scores.items()]
            first = score_table(sorted(rows))
            again = shuffled_table(rows, rng)
            reordered += (first.methods, first.models) != (again.methods, again.models)
            assert decompose(again) == decompose(first)
            assert anova(again) == anova(first)
        assert reordered

    def test_values_index_order(self):
        # 2x3x4 levels and shuffled rows: a cell value that varies with only
        # some factors must put its sums of squares on exactly the effects
        # built from those factors
        for name, axes in EFFECTS.items():
            def value(cell):
                return float(math.prod(LEVELS[f].index(cell[f]) ** 2 + 1 for f in axes))

            table = table_of(value)
            got = decompose(table)
            for effect, value_ss in brute_force_ss(table).items():
                assert got[effect] == pytest.approx(value_ss, rel=1e-10, abs=1e-9)
            assert got[name] > 1.0
            for effect in (*EFFECTS, "residual"):
                if not set(EFFECTS.get(effect, (0, 1, 2))) <= set(axes):
                    assert got[effect] == pytest.approx(0.0, abs=1e-9), (name, effect)

    def test_additivity(self):
        rng = random.Random(44)
        for _ in range(25):
            ss = decompose(random_table(rng))
            effects = sum(ss[name] for name in EFFECTS) + ss["residual"]
            assert effects == pytest.approx(ss["total"], rel=1e-10)

    def test_method_only_construction(self):
        # cells = mu + alpha(method): all SS except Method vanish, residual too
        alpha = {"m0": 1.0, "m1": -1.0}
        table = table_of(lambda cell: 50.0 + alpha[cell[0]])
        ss = decompose(table)
        assert ss["Method"] == pytest.approx(24.0)  # 12 cells * 1 + 12 cells * 1
        for name in list(EFFECTS)[1:]:
            assert ss[name] == pytest.approx(0.0, abs=1e-18)
        assert ss["residual"] == pytest.approx(0.0, abs=1e-18)
        with pytest.raises(ZeroResidual):
            anova(table)

    def test_all_cells_equal_signals_zero_residual(self):
        table = table_of(lambda cell: 42.0)
        ss = decompose(table)
        assert ss["total"] == 0.0
        with pytest.raises(ZeroResidual):
            anova(table)


class TestAnovaTable:
    def test_reference_grid_statistics(self):
        table = anova(load_grid_table())
        method = table.effect("Method")
        assert (method.df, table.residual_df) == (1, 6)
        assert method.f == pytest.approx(0.42, abs=0.01)
        assert method.p == pytest.approx(0.543, abs=0.005)
        model = table.effect("Model")
        assert model.df == 2
        assert model.f == pytest.approx(33.43, abs=0.05)
        assert model.p < 0.001
        assert model.eta_squared == pytest.approx(0.462, abs=0.002)
        dataset = table.effect("Dataset")
        assert dataset.df == 3
        assert dataset.f == pytest.approx(16.81, abs=0.05)
        assert dataset.p == pytest.approx(0.003, abs=0.001)
        assert dataset.eta_squared == pytest.approx(0.348, abs=0.002)
        mm = table.effect("Method:Model")
        assert mm.f == pytest.approx(0.11, abs=0.01)
        assert mm.p == pytest.approx(0.894, abs=0.005)
        md = table.effect("Model:Dataset")
        assert (md.df, table.residual_df) == (6, 6)
        assert md.f == pytest.approx(3.40, abs=0.02)
        assert md.p == pytest.approx(0.081, abs=0.003)

    def test_df_sum_is_cells_minus_one(self):
        table = anova(load_grid_table())
        total_df = sum(e.df for e in table.effects) + table.residual_df
        assert total_df == 23
        rng = random.Random(5)
        for a, b, c in ((3, 2, 5), (4, 4, 2), (2, 3, 6)):
            table = anova(random_table(rng, a, b, c))
            assert [e.df for e in table.effects] == [
                a - 1, b - 1, c - 1, (a - 1) * (b - 1), (a - 1) * (c - 1), (b - 1) * (c - 1)
            ]
            assert table.residual_df == (a - 1) * (b - 1) * (c - 1)

    def test_eta_squared_sums_to_one(self):
        rng = random.Random(3)
        for _ in range(10):
            table = anova(random_table(rng))
            total = sum(e.eta_squared for e in table.effects)
            total += table.residual_ss / table.total_ss
            assert total == pytest.approx(1.0, rel=1e-10)

    def test_constant_shift_invariance(self):
        rng = random.Random(12)
        table = random_table(rng)
        base, shifted = anova(table), anova(moved(table, lambda v: v + 1000.0))
        for e1, e2 in zip(base.effects, shifted.effects):
            assert e2.ss == pytest.approx(e1.ss, rel=1e-6)
            assert e2.f == pytest.approx(e1.f, rel=1e-6)
            assert e2.p == pytest.approx(e1.p, rel=1e-6, abs=1e-12)
            assert e2.eta_squared == pytest.approx(e1.eta_squared, rel=1e-6)

    def test_positive_scale_invariance(self):
        rng = random.Random(13)
        table = random_table(rng)
        k = 3.5
        base, scaled = anova(table), anova(moved(table, lambda v: v * k))
        for e1, e2 in zip(base.effects, scaled.effects):
            assert e2.ss == pytest.approx(e1.ss * k * k, rel=1e-9)
            assert e2.f == pytest.approx(e1.f, rel=1e-9)
            assert e2.p == pytest.approx(e1.p, rel=1e-9)
            assert e2.eta_squared == pytest.approx(e1.eta_squared, rel=1e-9)

    def test_render(self):
        text = render_anova_table(anova(load_grid_table()))
        assert "Method" in text and "Residual" in text and "Total" in text


class TestFUpperTail:
    def test_degenerate_statistic(self):
        assert f_upper_tail(0.0, 1, 6) == 1.0
        assert f_upper_tail(-3.0, 2, 8) == 1.0

    def test_equal_df_median(self):
        for df in (1, 2, 5, 6, 20):
            assert f_upper_tail(1.0, df, df) == pytest.approx(0.5, abs=1e-12)

    def test_reference_point_against_quadrature(self):
        p = f_upper_tail(16.81, 3, 6)
        assert p == pytest.approx(0.0025, abs=0.0002)
        assert p == pytest.approx(f_upper_tail_quadrature(16.81, 3, 6), abs=1e-8)
        assert round(p, 3) == 0.003

    def test_monotone_decreasing_in_f(self):
        grid = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0]
        for d1, d2 in [(1, 6), (2, 6), (3, 6), (6, 6), (4, 17)]:
            values = [f_upper_tail(f, d1, d2) for f in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounds_and_infinity(self):
        assert f_upper_tail(math.inf, 3, 6) == 0.0
        for f, d1, d2 in itertools.product((0.3, 1.7, 9.0), (1, 4), (2, 9)):
            assert 0.0 <= f_upper_tail(f, d1, d2) <= 1.0

    def test_validates_df(self):
        with pytest.raises(ValueError):
            f_upper_tail(1.0, 0, 5)
