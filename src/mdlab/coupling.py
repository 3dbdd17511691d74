"""Quantile coupling of the normalized sum with a standard normal.

The construction is the classical one: push a standard normal Z through the
composition of Phi with the generalized inverse of the target CDF.  The
output Y then has exactly the target law and is a monotone function of Z, and
the theory predicts that the gap |Y - Z| is quadratically enveloped inside an
admissible region and that the normalized gap has an exponential tail.

Only the functional form of those statements is falsifiable at desk scale
(the absolute constants are existential), so the report checks shapes with
configurable constants and fits the exponential slope for the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .bounds import varsigma
from .errors import DegenerateGap, ParamOutOfRange, TooFewSamples
from .exact import DRAW_CHUNK, QuantileTransform, TailTable, distribution_of_Sn
from .models import _check_cost, _require_count, _require_scale, child_rng
from .normal import normal_cdf, normal_quantile

PAIR_BYTES = 128  # peak per draw of `mdlab coupling`, its CSV streamed (50-60 B measured)


def build_quantile_transform(table: TailTable) -> QuantileTransform:
    """Quantile transform of the normalized sum W_n / sigma_n: the exact
    table's own, built once (`TailTable.transform`); anything else is
    ParamOutOfRange.

    Kept as a name, not a read of `table.transform`, only because
    perfbench/spans.py wraps it when tracing and perfbench/workloads.py calls it.
    """
    if not isinstance(table, TailTable):
        raise ParamOutOfRange(f"a quantile transform is built from a TailTable, "
                              f"not a {type(table).__name__}")
    return table.transform


def induced_atom_probabilities(transform: QuantileTransform) -> np.ndarray:
    """Analytic law of Y = H(Phi(Z)): the mass sent to each atom is the normal
    measure of its quantile interval, Phi(z_k) - Phi(z_{k-1}) at the
    breakpoints z_k = Phi^{-1}(cum_k).  No sampling involved."""
    z = normal_quantile(np.clip(transform.cum, 0.0, 1.0))
    phi = np.where(np.isposinf(z), 1.0, normal_cdf(z))
    return np.diff(phi, prepend=0.0)


def sample_coupled_pairs(transform: QuantileTransform, draws: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Coupled pairs (Y, Z): Z i.i.d. standard normal, Y = H(Phi(Z)).

    Y carries exactly the transform's law and is non-decreasing in Z.
    Both are filled DRAW_CHUNK draws at a time, one child seed per chunk in
    fixed order, so the pairs are reproducible and no full-length
    intermediate is built.  Priced at PAIR_BYTES a draw (`_check_cost`).
    """
    draws, seed = _require_count(draws, "draws"), _require_count(seed, "seed", 0)
    _check_cost(f"coupling {draws} chains", draws * PAIR_BYTES)
    y, z = np.empty(draws), np.empty(draws)
    for block, lo in enumerate(range(0, draws, DRAW_CHUNK)):
        hi = min(lo + DRAW_CHUNK, draws)
        child_rng(seed, block).standard_normal(out=z[lo:hi])
        y[lo:hi] = transform(normal_cdf(z[lo:hi]))
    return y, z


@dataclass(frozen=True)
class CouplingReport:
    """Shape checks for the coupling: the quadratic gap envelope inside the
    admissible region, and the exponential-tail fit of the normalized gap."""

    n: int
    m: int
    draws: int
    seed: int
    varsigma_n: float
    alpha: float
    c_alpha: float
    admissible_count: int
    violation_fraction: float
    gap_median: float
    lambda_hat: float
    lambda_se: float
    survival_x: np.ndarray
    survival_logp: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "schema": "coupling_report/1",
            "n": self.n, "m": self.m, "draws": self.draws, "seed": self.seed,
            "varsigma_n": self.varsigma_n,
            "alpha": self.alpha, "c_alpha": self.c_alpha,
            "admissible_count": self.admissible_count,
            "violation_fraction": self.violation_fraction,
            "gap_median": self.gap_median,
            "lambda_hat": self.lambda_hat, "lambda_se": self.lambda_se,
        }


def coupling_report(model, coeffs: CoefficientSet, draws: int, seed: int,
                    alpha: float = 1.0, c_alpha: float = 1.0) -> CouplingReport:
    """Run the coupling construction for an exact-tier model at the horizon
    and block length of `coeffs`, the model's coefficient set, and measure the
    gap statistics against the predicted shapes.

    The quadratic envelope |Y - Z| <= 2 c_alpha (Y^2 + 1) varsigma is checked
    on draws inside |Y| <= alpha / varsigma; the exponential slope of the
    normalized gap's log-survival is fitted on its upper decile.
    """
    alpha, c_alpha = _require_scale(alpha, "alpha"), _require_scale(c_alpha, "c_alpha")
    draws, seed = _require_count(draws, "draws"), _require_count(seed, "seed", 0)
    vs = varsigma(coeffs)
    if not (np.isfinite(vs) and vs > 1e-300):
        raise DegenerateGap(f"varsigma underflows: {vs!r}")
    table = distribution_of_Sn(model, coeffs.n)
    y, z = sample_coupled_pairs(table.transform, draws, seed)

    gap = np.abs(y - z)
    admissible = np.abs(y) <= alpha / vs
    envelope = 2.0 * c_alpha * (y * y + 1.0) * vs
    n_adm = int(admissible.sum())
    violations = int(np.sum(gap[admissible] > envelope[admissible]))
    frac = violations / n_adm if n_adm else 0.0

    g = np.sort(gap / vs)
    lam, se, sx, slog = _fit_survival_slope(g)
    return CouplingReport(n=coeffs.n, m=coeffs.m, draws=draws, seed=seed, varsigma_n=vs,
                          alpha=alpha, c_alpha=c_alpha, admissible_count=n_adm,
                          violation_fraction=frac,
                          gap_median=float(np.median(g)),
                          lambda_hat=lam, lambda_se=se,
                          survival_x=sx, survival_logp=slog)


def _fit_survival_slope(sorted_g: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Least-squares slope of ln P(G >= g) against g over the upper decile
    of the sorted normalized gaps (the survival's final point is dropped:
    its log is -inf)."""
    n = sorted_g.size
    start = int(0.9 * n)
    xs = sorted_g[start:n - 1]
    logs = np.log(1.0 - np.arange(start, n - 1) / n)
    if xs.size < 8 or np.ptp(xs) == 0.0:
        raise TooFewSamples("not enough distinct upper-decile gaps for a slope fit")
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, _, _, _ = np.linalg.lstsq(a, logs, rcond=None)
    resid = logs - a @ coef
    dof = xs.size - 2
    s2 = float(resid @ resid) / dof
    dev = xs - xs.mean()
    se = math.sqrt(s2 / float(np.sum(dev * dev)))
    return float(coef[0]), se, xs, logs
