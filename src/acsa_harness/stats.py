"""Balanced three-factor ANOVA over per-cell micro-F1 scores.

The design is Method x Model x Dataset with one observation per cell, so
the three-way interaction serves as the error term: every F statistic is
MS(effect) / MS(three-way interaction). Effect sizes are classical
eta-squared, SS(effect) / SS(total). Upper-tail F probabilities come from
the regularized incomplete beta function evaluated by continued fraction.

A FactorialDesign takes a ``metrics.ScoreTable``'s levels and values,
the table having checked that the grid is complete.

The grid holds a few dozen cells, so everything is pure Python: marginal
means come from index arithmetic over the flattened cell values and
every sum goes through ``math.fsum``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import fsum

EFFECT_NAMES = (
    "Method",
    "Model",
    "Dataset",
    "Method:Model",
    "Method:Dataset",
    "Model:Dataset",
)


class StatsError(Exception):
    pass


class IncompleteDesign(StatsError):
    pass


class ZeroResidual(StatsError):
    """All cells fit the additive+two-way model exactly; F is undefined."""


@dataclass(frozen=True)
class FactorialDesign:
    """Complete crossed design with one observation per cell."""

    methods: tuple[str, ...]
    models: tuple[str, ...]
    datasets: tuple[str, ...]
    values: tuple[float, ...]  # flattened, index = (i * |models| + j) * |datasets| + k

    def __post_init__(self):
        expected = len(self.methods) * len(self.models) * len(self.datasets)
        if len(self.values) != expected:
            raise IncompleteDesign(
                f"expected {expected} cell values, got {len(self.values)}"
            )
        for label, levels in (
            ("method", self.methods),
            ("model", self.models),
            ("dataset", self.datasets),
        ):
            if len(levels) < 2:
                raise IncompleteDesign(
                    f"factor {label!r} needs at least 2 levels to estimate the error term"
                )
            if len(set(levels)) != len(levels):
                raise IncompleteDesign(f"factor {label!r} has duplicate levels")


@dataclass(frozen=True)
class EffectStats:
    name: str
    df: int
    ss: float
    ms: float
    f: float
    p: float
    eta_squared: float


@dataclass(frozen=True)
class AnovaTable:
    effects: tuple[EffectStats, ...]
    residual_df: int
    residual_ss: float
    residual_ms: float
    total_ss: float
    grand_mean: float

    def effect(self, name: str) -> EffectStats:
        for effect in self.effects:
            if effect.name == name:
                return effect
        raise KeyError(name)


def decompose(design: FactorialDesign) -> dict[str, float]:
    """Sums of squares by the standard balanced marginal-means identities.

    Cell (i, j, k) is ``values[(i * b + j) * c + k]``, so each marginal
    mean is an exactly rounded sum over a slice of the flattened values.
    """
    y = design.values
    a, b, c = len(design.methods), len(design.models), len(design.datasets)
    bc = b * c
    mu = fsum(y) / len(y)
    mean_a = [fsum(y[i * bc : (i + 1) * bc]) / bc for i in range(a)]
    mean_b = [
        fsum(v for i in range(a) for v in y[(i * b + j) * c : (i * b + j + 1) * c]) / (a * c)
        for j in range(b)
    ]
    mean_c = [fsum(y[k::c]) / (a * b) for k in range(c)]
    mean_ab = [
        [fsum(y[(i * b + j) * c : (i * b + j + 1) * c]) / c for j in range(b)]
        for i in range(a)
    ]
    mean_ac = [
        [fsum(y[i * bc + k : (i + 1) * bc : c]) / b for k in range(c)] for i in range(a)
    ]
    mean_bc = [[fsum(y[j * c + k :: bc]) / a for k in range(c)] for j in range(b)]

    def squares(deviations) -> float:
        return fsum(d * d for d in deviations)

    return {
        "Method": bc * squares(m - mu for m in mean_a),
        "Model": a * c * squares(m - mu for m in mean_b),
        "Dataset": a * b * squares(m - mu for m in mean_c),
        "Method:Model": c
        * squares(
            mean_ab[i][j] - mean_a[i] - mean_b[j] + mu for i in range(a) for j in range(b)
        ),
        "Method:Dataset": b
        * squares(
            mean_ac[i][k] - mean_a[i] - mean_c[k] + mu for i in range(a) for k in range(c)
        ),
        "Model:Dataset": a
        * squares(
            mean_bc[j][k] - mean_b[j] - mean_c[k] + mu for j in range(b) for k in range(c)
        ),
        "residual": squares(
            v
            - mean_ab[i][j]
            - mean_ac[i][k]
            - mean_bc[j][k]
            + mean_a[i]
            + mean_b[j]
            + mean_c[k]
            - mu
            for (i, j, k), v in zip(itertools.product(range(a), range(b), range(c)), y)
        ),
        "total": squares(v - mu for v in y),
    }


def effect_dfs(design: FactorialDesign) -> dict[str, int]:
    a = len(design.methods) - 1
    b = len(design.models) - 1
    c = len(design.datasets) - 1
    return {
        "Method": a,
        "Model": b,
        "Dataset": c,
        "Method:Model": a * b,
        "Method:Dataset": a * c,
        "Model:Dataset": b * c,
        "residual": a * b * c,
    }


def anova(design: FactorialDesign) -> AnovaTable:
    """Full ANOVA table with F tests against the three-way interaction.

    Raises ZeroResidual when the residual sum of squares is (numerically)
    zero, since the F statistics are then undefined rather than infinite.
    """
    ss = decompose(design)
    dfs = effect_dfs(design)
    total = ss["total"]
    residual = ss["residual"]
    if total == 0.0 or residual <= 1e-12 * total:
        raise ZeroResidual(
            "the three-way interaction sum of squares is zero; "
            "F statistics are undefined for this design"
        )
    ms_residual = residual / dfs["residual"]
    effects = []
    for name in EFFECT_NAMES:
        df = dfs[name]
        ms = ss[name] / df
        f_stat = ms / ms_residual
        p = f_upper_tail(f_stat, df, dfs["residual"])
        effects.append(EffectStats(name, df, ss[name], ms, f_stat, p, ss[name] / total))
    mu = fsum(design.values) / len(design.values)
    return AnovaTable(
        tuple(effects), dfs["residual"], residual, ms_residual, total, mu
    )


# ---------------------------------------------------------------------------
# F-distribution upper tail via the regularized incomplete beta function


def f_upper_tail(f_stat: float, d1: int, d2: int) -> float:
    """P(F(d1, d2) > f_stat).

    Uses P(F > f) = I_x(d2/2, d1/2) with x = d2 / (d2 + d1 f), which is
    the complement form of 1 - I_{d1 f/(d1 f + d2)}(d1/2, d2/2) and avoids
    cancellation for small tail probabilities.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isnan(f_stat):
        raise ValueError("F statistic is NaN")
    if f_stat <= 0.0:
        return 1.0
    if math.isinf(f_stat):
        return 0.0
    x = d2 / (d2 + d1 * f_stat)
    return _reg_inc_beta(0.5 * d2, 0.5 * d1, x)


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_cf(a, b, x) / a
    else:
        value = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    return min(max(value, 0.0), 1.0)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge "
                          f"(a={a}, b={b}, x={x})")


# ---------------------------------------------------------------------------
# Rendering


def render_anova_table(table: AnovaTable) -> str:
    header = (
        f"{'Effect':<16}{'df':>4}{'SS':>12}{'MS':>12}{'F':>9}{'p':>9}{'eta^2':>8}"
    )
    lines = [header]
    for e in table.effects:
        lines.append(
            f"{e.name:<16}{e.df:>4}{e.ss:>12.4f}{e.ms:>12.4f}"
            f"{e.f:>9.4f}{e.p:>9.4f}{e.eta_squared:>8.4f}"
        )
    lines.append(
        f"{'Residual':<16}{table.residual_df:>4}{table.residual_ss:>12.4f}"
        f"{table.residual_ms:>12.4f}{'':>9}{'':>9}"
        f"{table.residual_ss / table.total_ss:>8.4f}"
    )
    lines.append(f"{'Total':<16}{'':>4}{table.total_ss:>12.4f}")
    return "\n".join(lines)


def anova_to_json(table: AnovaTable) -> dict:
    return {
        "effects": [
            {
                "name": e.name,
                "df": e.df,
                "ss": e.ss,
                "ms": e.ms,
                "F": e.f,
                "p": e.p,
                "eta_squared": e.eta_squared,
            }
            for e in table.effects
        ],
        "residual": {
            "df": table.residual_df,
            "ss": table.residual_ss,
            "ms": table.residual_ms,
        },
        "total_ss": table.total_ss,
        "grand_mean": table.grand_mean,
    }
