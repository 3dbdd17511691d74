"""Deterministic evaluators for the explicit deviation inequalities.

Two kinds of object live here.  Shape envelopes (the Cramér log-ratio
envelope and the Berry-Esseen combination) carry
an unknown absolute constant; they are evaluated with caller-supplied
constants, default 1, and are reporting tools, not assertions.  Fully
explicit bounds (the Bernstein-type tail bound, Freedman, the maximal
inequality, the Gaussian tail sandwich) have no free constants and must
dominate the exact probabilities wherever their preconditions hold; the test
suite enforces that as hard assertions.

Convention: t |ln t| extends continuously to 0 at t = 0, which is exactly the
martingale case of a vanishing drift coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import CoefficientSet, GateReport, admissibility
from .errors import ParamOutOfRange
from .models import _require_count, _require_scale

SQRT_E4 = 4.0 * math.sqrt(math.e)
X_CAP = 1e150  # a larger finite x reads as this: x^2 terms stay finite; the bounds fall in x


def _read_x(x, what: str, strict: bool = False) -> np.ndarray:
    """x as a float array, ParamOutOfRange unless every point is >= 0 (> 0 if
    `strict`): NaN fails, +inf passes."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0 if strict else xs >= 0):
        raise ParamOutOfRange(f"{what} is stated for x {'>' if strict else '>='} 0, "
                              f"not for NaN or below")
    return xs


def _like(out: np.ndarray, x) -> np.ndarray | float:
    """`out` as x was given: an array for an array or list, a float for a scalar."""
    return out if np.ndim(x) else float(out)


def xlnx(t) -> np.ndarray | float:
    """t |ln t| with the continuous extension 0 at t = 0."""
    ts = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ts > 0.0, ts * np.abs(np.log(np.where(ts > 0, ts, 1.0))), 0.0)
    return _like(out, t)


# ---------------------------------------------------------------------------
# Cramér-type envelopes (shape mode: constant supplied by caller)
# ---------------------------------------------------------------------------

def cramer_envelope(coeffs: CoefficientSet, x, c: float = 1.0):
    """Envelope for |ln of the tail ratio| of the stationary sum:

        c ( x^3 eps + x^2 (delta^2 + m/n + g) + (1+x)(eps|ln eps| + g + delta
            + sqrt(m/n)) ),   g = gamma |ln gamma|.
    """
    xs = _read_x(x, "the envelope")
    c = _require_scale(c, "the envelope constant c")
    g = xlnx(coeffs.gamma_m)
    mn = coeffs.m / coeffs.n
    quad = coeffs.delta_sq + mn + g
    lin = xlnx(coeffs.eps_m) + g + coeffs.delta_m + math.sqrt(mn)
    return _like(c * (xs * xs * xs * coeffs.eps_m + xs * xs * quad + (1.0 + xs) * lin), x)


def envelope_curve(coeffs: CoefficientSet, x_grid, c: float = 1.0,
                   gate_mode: str = "practical") -> tuple[np.ndarray, np.ndarray]:
    """Cramér envelope on a grid and its validity flags: true where the
    admissibility gates hold and x stays inside the admissible range."""
    gates: GateReport = admissibility(coeffs, gate_mode)
    xs = _read_x(x_grid, "the envelope")
    return np.asarray(cramer_envelope(coeffs, xs, c)), (xs <= gates.x_max) & gates.all_ok


def berry_esseen_bound(coeffs: CoefficientSet, c: float = 1.0) -> float:
    """Uniform normal-approximation bound
    c (gamma|ln gamma| + eps|ln eps| + delta + sqrt(m/n))."""
    c = _require_scale(c, "the constant c")
    return c * (xlnx(coeffs.gamma_m) + xlnx(coeffs.eps_m) + coeffs.delta_m
                + math.sqrt(coeffs.m / coeffs.n))


def varsigma(coeffs: CoefficientSet) -> float:
    """The combined small parameter gamma|ln gamma| + eps|ln eps| + delta
    + sqrt(m/n) used by the Berry-Esseen bound and the coupling gap."""
    return berry_esseen_bound(coeffs, 1.0)


# ---------------------------------------------------------------------------
# fully explicit bounds (no free constants; assertable)
# ---------------------------------------------------------------------------

def bernstein_bound(coeffs: CoefficientSet, x):
    """Two-term Bernstein-type tail bound on P(W_n >= x sigma_n):

        exp{ -(1-g)^2 x^2 / (2 (1 + tau^2 + (2/3) eps (1-g) x)) }
        + 4 sqrt(e) exp{ -(ln gamma)^2 x^2 / (2 * 81^2) },   g = gamma|ln gamma|.

    The second term vanishes in the martingale limit gamma = 0; x = +inf gives
    the limit, and a finite x past X_CAP the value at X_CAP (the limit unless
    tau^2 or eps is huge).
    """
    xs = _read_x(x, "the Bernstein bound", strict=True)
    fin = np.minimum(xs, X_CAP)  # the formula is NaN at +inf: its limit goes back
    g = xlnx(coeffs.gamma_m)
    if g >= 1.0:
        raise ParamOutOfRange(f"gamma|ln gamma| = {g} >= 1; the bound degenerates")
    one_g, fin_sq = 1.0 - g, fin * fin
    first = np.exp(-(one_g * one_g) * fin_sq
                   / (2.0 * (1.0 + coeffs.tau_sq + (2.0 / 3.0) * coeffs.eps_m * one_g * fin)))
    second = 0.0
    if coeffs.gamma_m:
        log_gamma = math.log(coeffs.gamma_m)
        second = SQRT_E4 * np.exp(-(log_gamma * log_gamma) * fin_sq / (2.0 * (81.0 * 81.0)))
    return _like(np.where(xs < math.inf, first + second, SQRT_E4 * (coeffs.gamma_m == 1.0)), x)


def freedman_bound(x, v2: float, a: float):
    """exp{-x^2 / (2 (v^2 + a x / 3))}: bounds the probability that a
    martingale with differences <= a reaches x while its quadratic
    characteristic stays below v^2; 0, its limit, at x = +inf, and at a finite
    x past X_CAP the value at X_CAP (0 unless v^2 or a is huge)."""
    v2, a = _require_scale(v2, "v2"), _require_scale(a, "a", zero=True)
    xs = _read_x(x, "Freedman's bound")
    fin = np.minimum(xs, X_CAP)  # the formula is NaN at +inf: its limit goes back
    return _like(np.where(xs < math.inf, np.exp(-(fin * fin) / (2.0 * (v2 + a * fin / 3.0))), 0.0),
                 x)


def peligrad_bound(x, n: int, bound_x1: float, cond_norms):
    """Maximal inequality for the running sums of an adapted stationary
    sequence:

        P(max_{i<=n} |S_i| >= x)
          <= 4 sqrt(e) exp{ -x^2 / (2 n (||X_1|| + 80 sum_j j^{-3/2} nu_j)^2) }

    where nu_j = ||E[S_j | F_0]||_inf for j = 1..n.
    """
    n, bound_x1 = _require_count(n, "n"), _require_scale(bound_x1, "bound_x1")
    norms = np.asarray(cond_norms, dtype=float)
    if norms.size < n:
        raise ParamOutOfRange(f"need conditional-sum norms for j = 1..{n}, got {norms.size}")
    if np.any(norms[:n] < 0):
        raise ParamOutOfRange("conditional-sum norms must be >= 0")
    xs = _read_x(x, "the maximal inequality")
    js = np.arange(1, n + 1, dtype=float)
    denom = bound_x1 + 80.0 * float(np.sum(1.0 / (js * np.sqrt(js)) * norms[:n]))
    return _like(SQRT_E4 * np.exp(-(xs * xs) / (2.0 * n * (denom * denom))), x)


def gaussian_tail_sandwich(x):
    """Two-sided bound on the standard normal tail:

        e^{-x^2/2} / (sqrt(2 pi) (1+x)) <= 1 - Phi(x) <= e^{-x^2/2} / (sqrt(pi) (1+x)).
    """
    xs = _read_x(x, "the sandwich")
    core = np.exp(-(xs * xs) / 2.0) / (1.0 + xs)
    return _like(core / math.sqrt(2.0 * math.pi), x), _like(core / math.sqrt(math.pi), x)

