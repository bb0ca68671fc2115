"""Balanced three-factor ANOVA over per-cell micro-F1 scores.

The design is Method x Model x Dataset with one observation per cell, so
the three-way interaction serves as the error term: every F statistic is
MS(effect) / MS(three-way interaction). Effect sizes are classical
eta-squared, SS(effect) / SS(total). Upper-tail F probabilities come from
the regularized incomplete beta function evaluated by continued fraction.

``decompose`` and ``anova`` read a ``metrics.ScoreTable``, its levels and
its scores by (method, model, dataset); the table has checked that the
grid is complete. ``EFFECTS`` names each effect once, with the factors
it spans. Its sum of squares is its weight, the product of the sizes of
the factors outside it, times the sum of its squared inclusion-exclusion
deviations of marginal means; its degrees of freedom are the product of
(levels - 1) over its factors. The residual is the same rule over all
three factors. Every sum goes through ``math.fsum``, so a few dozen cells
need nothing beyond pure Python, and the order of the rows changes no
bit of the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import fsum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .metrics import ScoreTable

# effect -> the factors it spans, by their place in a cell: method, model, dataset
EFFECTS = {
    "Method": (0,),
    "Model": (1,),
    "Dataset": (2,),
    "Method:Model": (0, 1),
    "Method:Dataset": (0, 2),
    "Model:Dataset": (1, 2),
}
RESIDUAL = (0, 1, 2)  # the three-way interaction


class StatsError(Exception):
    pass


class IncompleteDesign(StatsError):
    pass


class ZeroResidual(StatsError):
    """All cells fit the additive+two-way model exactly; F is undefined."""


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


def decompose(table: ScoreTable) -> dict[str, float]:
    """Sums of squares of each effect, the residual and the total, by the
    balanced marginal-means identities."""
    levels = table.methods, table.models, table.datasets
    factors = range(len(levels))

    def weight(span: tuple[int, ...]) -> int:  # the cells a mean over span's levels averages
        return math.prod(len(levels[f]) for f in factors if f not in span)

    means = {}  # a subset of the factors -> its levels -> the mean score at them
    for size in range(len(levels) + 1):
        for span in itertools.combinations(factors, size):
            cells: dict[tuple[str, ...], list[float]] = {}
            for cell, value in table.scores.items():
                cells.setdefault(tuple(cell[f] for f in span), []).append(value)
            means[span] = {key: fsum(values) / weight(span) for key, values in cells.items()}

    def sum_of_squares(span: tuple[int, ...]) -> float:
        # a deviation starts at the mean over span's levels, then takes off and
        # puts back the means over its subsets: the larger first, and those of
        # one size in factor order
        subsets = [
            subset
            for size in reversed(range(len(span)))
            for subset in itertools.combinations(span, size)
        ]
        squares = []
        for key, d in means[span].items():
            level = dict(zip(span, key))
            for subset in subsets:
                mean = means[subset][tuple(level[f] for f in subset)]
                d = d - mean if (len(span) - len(subset)) % 2 else d + mean
            squares.append(d * d)
        return weight(span) * fsum(squares)

    ss = {name: sum_of_squares(span) for name, span in EFFECTS.items()}
    ss["residual"] = sum_of_squares(RESIDUAL)
    mu = means[()][()]
    ss["total"] = fsum(d * d for d in (v - mu for v in table.scores.values()))
    return ss


def anova(table: ScoreTable) -> AnovaTable:
    """Full ANOVA table with F tests against the three-way interaction.

    Raises IncompleteDesign when a factor has a single level, which
    leaves no degrees of freedom for the error term, and ZeroResidual
    when the residual sum of squares is (numerically) zero, since the F
    statistics are then undefined rather than infinite.
    """
    levels = table.methods, table.models, table.datasets
    for label, factor in zip(("method", "model", "dataset"), levels):
        if len(factor) < 2:
            raise IncompleteDesign(
                f"factor {label!r} needs at least 2 levels to estimate the error term"
            )

    def df(span: tuple[int, ...]) -> int:
        return math.prod(len(levels[f]) - 1 for f in span)

    ss = decompose(table)
    total = ss["total"]
    residual = ss["residual"]
    if total == 0.0 or residual <= 1e-12 * total:
        raise ZeroResidual(
            "the three-way interaction sum of squares is zero; "
            "F statistics are undefined for this design"
        )
    residual_df = df(RESIDUAL)
    ms_residual = residual / residual_df
    effects = []
    for name, span in EFFECTS.items():
        effect_df = df(span)
        ms = ss[name] / effect_df
        f_stat = ms / ms_residual
        p = f_upper_tail(f_stat, effect_df, residual_df)
        effects.append(EffectStats(name, effect_df, ss[name], ms, f_stat, p, ss[name] / total))
    mu = fsum(table.scores.values()) / len(table.scores)
    return AnovaTable(tuple(effects), residual_df, residual, ms_residual, total, mu)


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
