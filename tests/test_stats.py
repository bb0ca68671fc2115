import itertools
import math
import random
from pathlib import Path

import pytest
from helpers import f_upper_tail_quadrature

from acsa_harness.metrics import ScoreTable, read_score_rows, score_table
from acsa_harness.stats import (
    EFFECT_NAMES,
    AnovaTable,
    FactorialDesign,
    IncompleteDesign,
    ZeroResidual,
    anova,
    decompose,
    effect_dfs,
    f_upper_tail,
    render_anova_table,
)

FIXTURES = Path(__file__).parent / "fixtures"


def design_of(table: ScoreTable) -> FactorialDesign:
    """The design ``acsa anova`` builds from a score table."""
    return FactorialDesign(table.methods, table.models, table.datasets, table.values())


def load_grid_design() -> FactorialDesign:
    return design_of(score_table(read_score_rows(FIXTURES / "scores_grid.csv")))


def random_design(rng, a=2, b=3, c=4) -> FactorialDesign:
    methods = tuple(f"method{i}" for i in range(a))
    models = tuple(f"model{i}" for i in range(b))
    datasets = tuple(f"data{i}" for i in range(c))
    values = tuple(rng.uniform(0.0, 100.0) for _ in range(a * b * c))
    return FactorialDesign(methods, models, datasets, values)


def brute_force_ss(design: FactorialDesign) -> dict:
    """Sums of squares via explicit loops over marginal means."""
    a = len(design.methods)
    b = len(design.models)
    c = len(design.datasets)
    y = {}
    pos = 0
    for i in range(a):
        for j in range(b):
            for k in range(c):
                y[(i, j, k)] = design.values[pos]
                pos += 1
    total = sum(y.values())
    mu = total / (a * b * c)
    m_a = [sum(y[(i, j, k)] for j in range(b) for k in range(c)) / (b * c) for i in range(a)]
    m_b = [sum(y[(i, j, k)] for i in range(a) for k in range(c)) / (a * c) for j in range(b)]
    m_c = [sum(y[(i, j, k)] for i in range(a) for j in range(b)) / (a * b) for k in range(c)]
    m_ab = {(i, j): sum(y[(i, j, k)] for k in range(c)) / c for i in range(a) for j in range(b)}
    m_ac = {(i, k): sum(y[(i, j, k)] for j in range(b)) / b for i in range(a) for k in range(c)}
    m_bc = {(j, k): sum(y[(i, j, k)] for i in range(a)) / a for j in range(b) for k in range(c)}
    ss = {
        "Method": b * c * sum((m - mu) ** 2 for m in m_a),
        "Model": a * c * sum((m - mu) ** 2 for m in m_b),
        "Dataset": a * b * sum((m - mu) ** 2 for m in m_c),
        "Method:Model": c
        * sum((m_ab[(i, j)] - m_a[i] - m_b[j] + mu) ** 2 for i in range(a) for j in range(b)),
        "Method:Dataset": b
        * sum((m_ac[(i, k)] - m_a[i] - m_c[k] + mu) ** 2 for i in range(a) for k in range(c)),
        "Model:Dataset": a
        * sum((m_bc[(j, k)] - m_b[j] - m_c[k] + mu) ** 2 for j in range(b) for k in range(c)),
        "total": sum((v - mu) ** 2 for v in y.values()),
    }
    residual = 0.0
    for i in range(a):
        for j in range(b):
            for k in range(c):
                fitted = (
                    m_ab[(i, j)] + m_ac[(i, k)] + m_bc[(j, k)] - m_a[i] - m_b[j] - m_c[k] + mu
                )
                residual += (y[(i, j, k)] - fitted) ** 2
    ss["residual"] = residual
    return ss


class TestDesign:
    def test_table_orders_levels_by_appearance(self):
        design = load_grid_design()
        assert design.methods == ("baseline", "umr")
        assert design.models == ("Qwen3-4B", "Qwen3-8B", "Gemini-2.5-Pro")
        assert design.datasets == ("Laptop16", "Restaurant16", "MAMS", "Shoes")
        assert len(design.values) == 24

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
        with pytest.raises(IncompleteDesign):
            design_of(score_table(rows))

    def test_incomplete_values_rejected(self):
        design = load_grid_design()
        with pytest.raises(IncompleteDesign):
            FactorialDesign(design.methods, design.models, design.datasets, design.values[:-1])


class TestDecomposition:
    def test_matches_brute_force_oracle(self):
        rng = random.Random(8)
        designs = [load_grid_design()] + [random_design(rng) for _ in range(20)]
        designs.append(random_design(rng, a=3, b=2, c=5))
        for design in designs:
            got = decompose(design)
            want = brute_force_ss(design)
            for name, value in want.items():
                assert got[name] == pytest.approx(value, rel=1e-10, abs=1e-9)

    def test_values_index_order(self):
        # 2x3x4 levels, so a transposed index reads the wrong cells: a cell
        # value that varies with only some factors must put its sums of
        # squares on exactly the effects built from those factors
        levels = (("m0", "m1"), ("a", "b", "c"), ("w", "x", "y", "z"))
        factors = {"Method": {0}, "Model": {1}, "Dataset": {2}}
        factors.update({
            f"{x}:{y}": factors[x] | factors[y]
            for x, y in itertools.combinations(("Method", "Model", "Dataset"), 2)
        })
        for name, axes in factors.items():
            def value(cell):
                return float(math.prod(cell[axis] ** 2 + 1 for axis in axes))

            cells = list(itertools.product(*(range(len(ls)) for ls in levels)))
            rows = [
                (levels[0][i], levels[1][j], levels[2][k], value((i, j, k)))
                for i, j, k in cells
            ]
            design = design_of(score_table(rows))
            for i, j, k in cells:
                assert design.values[(i * 3 + j) * 4 + k] == value((i, j, k))
            got = decompose(design)
            for effect, value_ss in brute_force_ss(design).items():
                assert got[effect] == pytest.approx(value_ss, rel=1e-10, abs=1e-9)
            assert got[name] > 1.0
            for effect in EFFECT_NAMES + ("residual",):
                if not factors.get(effect, {0, 1, 2}) <= axes:
                    assert got[effect] == pytest.approx(0.0, abs=1e-9), (name, effect)

    def test_additivity(self):
        rng = random.Random(44)
        for _ in range(25):
            ss = decompose(random_design(rng))
            effects = sum(ss[name] for name in EFFECT_NAMES) + ss["residual"]
            assert effects == pytest.approx(ss["total"], rel=1e-10)

    def test_method_only_construction(self):
        # cells = mu + alpha(method): all SS except Method vanish, residual too
        methods = ("m0", "m1")
        models = ("a", "b", "c")
        datasets = ("w", "x", "y", "z")
        alpha = {("m0"): 1.0, ("m1"): -1.0}
        values = tuple(
            50.0 + alpha[m] for m in methods for _ in models for _ in datasets
        )
        design = FactorialDesign(methods, models, datasets, values)
        ss = decompose(design)
        assert ss["Method"] == pytest.approx(24.0)  # 12 cells * 1 + 12 cells * 1
        for name in EFFECT_NAMES[1:]:
            assert ss[name] == pytest.approx(0.0, abs=1e-18)
        assert ss["residual"] == pytest.approx(0.0, abs=1e-18)
        with pytest.raises(ZeroResidual):
            anova(design)

    def test_all_cells_equal_signals_zero_residual(self):
        design = FactorialDesign(
            ("m0", "m1"),
            ("a", "b", "c"),
            ("w", "x", "y", "z"),
            tuple([42.0] * 24),
        )
        ss = decompose(design)
        assert ss["total"] == 0.0
        with pytest.raises(ZeroResidual):
            anova(design)


class TestAnovaTable:
    def test_reference_grid_statistics(self):
        table = anova(load_grid_design())
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
        table = anova(load_grid_design())
        total_df = sum(e.df for e in table.effects) + table.residual_df
        assert total_df == 23

    def test_eta_squared_sums_to_one(self):
        rng = random.Random(3)
        for _ in range(10):
            table = anova(random_design(rng))
            total = sum(e.eta_squared for e in table.effects)
            total += table.residual_ss / table.total_ss
            assert total == pytest.approx(1.0, rel=1e-10)

    def test_constant_shift_invariance(self):
        rng = random.Random(12)
        design = random_design(rng)
        shifted = FactorialDesign(
            design.methods,
            design.models,
            design.datasets,
            tuple(v + 1000.0 for v in design.values),
        )
        base, moved = anova(design), anova(shifted)
        for e1, e2 in zip(base.effects, moved.effects):
            assert e2.ss == pytest.approx(e1.ss, rel=1e-6)
            assert e2.f == pytest.approx(e1.f, rel=1e-6)
            assert e2.p == pytest.approx(e1.p, rel=1e-6, abs=1e-12)
            assert e2.eta_squared == pytest.approx(e1.eta_squared, rel=1e-6)

    def test_positive_scale_invariance(self):
        rng = random.Random(13)
        design = random_design(rng)
        k = 3.5
        scaled = FactorialDesign(
            design.methods,
            design.models,
            design.datasets,
            tuple(v * k for v in design.values),
        )
        base, moved = anova(design), anova(scaled)
        for e1, e2 in zip(base.effects, moved.effects):
            assert e2.ss == pytest.approx(e1.ss * k * k, rel=1e-9)
            assert e2.f == pytest.approx(e1.f, rel=1e-9)
            assert e2.p == pytest.approx(e1.p, rel=1e-9)
            assert e2.eta_squared == pytest.approx(e1.eta_squared, rel=1e-9)

    def test_render(self):
        text = render_anova_table(anova(load_grid_design()))
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
