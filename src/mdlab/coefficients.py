"""Deviation coefficients of the block-martingale construction.

For a block length m inside a horizon n, the three scalar summaries driving
every bound downstream are

  eps   = m ||X_0||_inf / (sqrt(n) sigma_n)                (boundedness)
  gamma = (1 / (sqrt(m) sigma_n)) sum_j j^{-3/2} ||E[S_{mj} | F_0]||_inf
                                                           (conditional drift)
  delta^2 = ||E[S_m|F_0]||_inf^2 / (m sigma_n^2)
          + || E[S_m^2|F_0] / (m sigma_n^2) - 1 ||_inf     (variance deviation)

plus tau^2 = delta^2 + m/n + 4 eps^2 for the Bernstein-type bound.

The drift series converges like a zeta tail, so naive truncation at any
useful tolerance is hopeless.  Instead the conditional-sum norms converge to
the norm of the Poisson solution h, which lets the tail be summed in closed
form (a Hurwitz zeta factor); E[S_t | F_0] = h - P^t h, and P^t h is the
series' own iterate, whose sup norm never grows and bounds the remainder.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import zeta

from .errors import BetaOutOfRange, NoDecayCertificate, ParamOutOfRange
from .exact import (
    conditional_block_moments,
    poisson_solution,
    sigma_n as exact_sigma_n,
)
from .models import (
    DecayCertificate,
    FiniteLatticeModel,
    SampledModel,
    _check_cost,
    _dense_step_seconds,
    _require_count,
    _require_exact,
    _require_horizon,
    _require_scale,
)

GAMMA_TOL = 1e-10  # certified bound on the drift series' truncation error
MAX_DOUBLINGS = 22  # the drift series sums at most J = 2^22 terms

# Admissibility gates.  Strict mode uses the paper-style constants (with the
# proof's upper end 1/2 standing in for the existential alpha_0); practical
# mode relaxes the drift gate, which is unreachable at desk scale.
STRICT_LOG_GAMMA_GATE = -6400.0  # gamma <= e^{-80^2}, compared in log space
PRACTICAL_LOG_GAMMA_GATE = -1.0
EPS_GATE = 0.25
ALPHA0 = 0.5


@dataclass(frozen=True)
class CoefficientSet:
    """Deviation coefficients for one (n, m) pair, with the certified error
    committed in truncating the drift series."""

    n: int
    m: int
    eps_m: float
    gamma_m: float
    delta_sq: float
    tau_sq: float
    sigma_n: float
    gamma_truncation_error: float

    @property
    def delta_m(self) -> float:
        return math.sqrt(self.delta_sq)

    @property
    def tau_m(self) -> float:
        return math.sqrt(self.tau_sq)

    def to_json_dict(self) -> dict:
        return {"schema": "coefficients/1", **asdict(self), "delta_m": self.delta_m,
                "tau_m": self.tau_m}


@dataclass(frozen=True)
class GateReport:
    """Which admissibility gates hold, and the x-range they buy."""

    mode: str
    eps_ok: bool
    gamma_ok: bool
    variance_ok: bool
    x_max: float

    @property
    def all_ok(self) -> bool:
        return self.eps_ok and self.gamma_ok and self.variance_ok

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "eps_ok": self.eps_ok, "gamma_ok": self.gamma_ok,
                "variance_ok": self.variance_ok, "x_max": self.x_max,
                "all_ok": self.all_ok}


def admissibility(coeffs: CoefficientSet, mode: str = "practical") -> GateReport:
    """Evaluate the gates eps <= 1/4, gamma below the mode's drift gate and
    delta^2 + m/n <= alpha_0.  The gamma comparison runs in log space because
    the strict gate underflows any float."""
    if mode not in ("strict", "practical"):
        raise ParamOutOfRange(f"gate mode must be strict or practical, got {mode!r}")
    log_gate = STRICT_LOG_GAMMA_GATE if mode == "strict" else PRACTICAL_LOG_GAMMA_GATE
    gamma_ok = coeffs.gamma_m == 0.0 or math.log(coeffs.gamma_m) <= log_gate
    return GateReport(
        mode=mode,
        eps_ok=coeffs.eps_m <= EPS_GATE,
        gamma_ok=bool(gamma_ok),
        variance_ok=coeffs.delta_sq + coeffs.m / coeffs.n <= ALPHA0,
        x_max=ALPHA0 / coeffs.eps_m if coeffs.eps_m > 0 else math.inf,
    )


# ---------------------------------------------------------------------------
# coefficient_set
# ---------------------------------------------------------------------------

def coefficient_set(model: FiniteLatticeModel, n: int, m: int) -> CoefficientSet:
    """Exact deviation coefficients for an exact-tier model.

    The drift series is summed term by term up to an index J, the remaining
    tail is replaced by the Hurwitz zeta closed form around the Poisson-limit
    norm, and the bound on what that misses (below GAMMA_TOL) is reported.
    """
    _require_exact(model)
    n, m = _require_count(n, "n"), _require_count(m, "m")
    if m > n:
        raise ParamOutOfRange(f"need 1 <= m <= n, got m={m}, n={n}")
    sig = exact_sigma_n(model, n)
    eps = m * model.bound / (math.sqrt(n) * sig)

    moments = conditional_block_moments(model, m)
    sup_mean = moments.sup_mean
    delta_sq = sup_mean * sup_mean / (m * (sig * sig)) + moments.sup_second_dev(sig)

    gamma, trunc = _drift_series(model, m, sig)
    tau_sq = delta_sq + m / n + 4.0 * (eps * eps)
    return CoefficientSet(n=n, m=m, eps_m=eps, gamma_m=gamma, delta_sq=delta_sq,
                          tau_sq=tau_sq, sigma_n=sig,
                          gamma_truncation_error=trunc)


def _drift_series(model: FiniteLatticeModel, m: int, sig: float) -> tuple[float, float]:
    """(gamma_m, its certified truncation error): ||h - P^{im} h||_inf weighted by i^-1.5
    to J, then the zeta tail ||h||_inf zeta(1.5, J + 1).  A stochastic P never raises a
    sup norm, so ||P^{im} h||_inf falls with i and the tail is off by at most
    zeta(1.5, J + 1) ||P^{Jm} h||_inf; J is the least power of two that puts this, over
    sqrt(m) sigma_n, at most GAMMA_TOL, read off the squarings of P^m."""
    s = model.n_states
    _check_cost(f"drift series' power P to m = {m} and its {MAX_DOUBLINGS} squarings on {s} "
                "states", secs=(m.bit_length() + m.bit_count() - 2 + MAX_DOUBLINGS)
                * _dense_step_seconds(s, s))  # matrix_power's products, then the squarings
    scale = math.sqrt(m) * sig
    h = poisson_solution(model)
    p_m = np.linalg.matrix_power(model.transition, m)
    power, j = p_m, 1  # P^{Jm}
    while ((err := float(zeta(1.5, j + 1)) * float(np.max(np.abs(power @ h))) / scale)
           > GAMMA_TOL and j < 1 << MAX_DOUBLINGS):
        power, j = power @ power, 2 * j
    if err > GAMMA_TOL:
        raise NoDecayCertificate(
            f"drift series tail cannot be certified below {GAMMA_TOL} (J={j}, err={err})")
    _check_cost(f"drift series to J = {j} on {s} states",
                secs=j * _dense_step_seconds(s))  # J mat-vec steps

    # E[S_t | Y_0] = h - P^t h, stepped through t = m, 2m, ..., Jm with P^m
    u, norms = h, np.empty(j)
    for i in range(j):
        u = p_m @ u
        norms[i] = float(np.max(np.abs(h - u)))
    js = np.arange(1, j + 1, dtype=float)
    partial = float(np.sum(1.0 / (js * np.sqrt(js)) * norms))
    tail = float(np.max(np.abs(h))) * float(zeta(1.5, j + 1))
    return (partial + tail) / scale, err


# ---------------------------------------------------------------------------
# decay certificates
# ---------------------------------------------------------------------------

def eta_certificate(model) -> DecayCertificate:
    """The decay certificate of a sampled model's conditional-mean and
    conditional-cross dependence sequences: its own analytic `model.decay`.
    An exact-tier chain has no certificate here (NoDecayCertificate); its
    coefficients come exactly from `coefficient_set`.

    Not called by any subcommand: kept only because perfbench/spans.py wraps
    this name when tracing.
    """
    if isinstance(model, SampledModel):
        return model.decay
    raise NoDecayCertificate(f"{getattr(model, 'name', model)!r} has no decay certificate: "
                             "only a sampled model carries one")


# ---------------------------------------------------------------------------
# certificate-based coefficient bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedCoefficientBounds:
    """Certificate-driven upper bounds on the drift and variance coefficients,
    and the decay regime of delta_m: m^-1/2, as every certificate decays
    geometrically."""

    gamma_bound: float
    delta_sq_bound: float
    regime: str


def certified_coefficient_bounds(cert: DecayCertificate, m: int, n: int, sigma_n: float,
                                 bound_x0: float) -> CertifiedCoefficientBounds:
    """Evaluate the eta-based envelopes

      gamma_m  <= (1 / (sqrt(m) sigma_n)) (sum_{i<=m} eta1_i
                                           + sqrt(m) sum_{i>=m} eta1_i / sqrt(i))
      delta_m^2 <= (1 / (m sigma_n^2)) [ (sum_{i<=m} eta1_i)^2
                    + sum_{i<=m/2} i eta2_i
                    + ||X_0|| sum_{i<=m/2} sum_{j>=2i} eta1_j
                    + m sum_{i>=m/2} eta2_i ]

    as shapes: the true absolute constants in front are not pinned by the
    theory, and are taken as 1.  So they are not upper bounds as they stand.
    On the moving average they sit below the exact values of its dyadic twin,
    coefficient_set(dyadic_contracting(L_trunc + 1), n, m): the twin's gamma
    is 2.39 times gamma_bound at (L_trunc, n, m) = (3, 1024, 16) and 2.57
    times at (5, 1024, 32), near zeta(3/2) = 2.612, the weight sum the shape
    leaves out; delta_sq_bound is 0.0684 there against the twin's 0.0711.
    """
    n, m = _require_count(n, "n"), _require_count(m, "m")
    if m > n:
        raise ParamOutOfRange(f"need 1 <= m <= n, got m={m}, n={n}")
    sigma_n, bound_x0 = _require_scale(sigma_n, "sigma_n"), _require_scale(bound_x0, "bound_x0")
    _check_cost(f"certified_coefficient_bounds at m = {m}", 6 * 8 * m, of="six float arrays of m")

    p = math.ldexp(1.0, math.frexp(sigma_n)[1] - 1)  # in units of p ~ sigma_n: exact, c cancels
    eta1, eta2, sigma_n, bound_x0 = cert.eta1 / p, cert.eta2 / p / p, sigma_n / p, bound_x0 / p
    s_head = float(cert.upto(eta1, m).sum())
    series = float(cert.tail_sums(eta1, np.array([m]), over_sqrt=True)[0])
    gamma_bound = 1.0 / (math.sqrt(m) * sigma_n) * (s_head + math.sqrt(m) * series)

    ks = np.arange(1, m // 2 + 1)
    t_weighted = float(np.sum(ks * cert.upto(eta2, ks.size)))
    t_cross = bound_x0 * float(np.sum(cert.tail_sums(eta1, 2 * ks)))
    t_far = m * float(cert.tail_sums(eta2, np.array([max(1, ks.size)]))[0])
    delta_sq_bound = 1.0 / (m * (sigma_n * sigma_n)) * (
        s_head * s_head + t_weighted + t_cross + t_far)

    return CertifiedCoefficientBounds(gamma_bound=gamma_bound, delta_sq_bound=delta_sq_bound,
                                      regime="m^-1/2")


# ---------------------------------------------------------------------------
# block-size selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSizeChoice:
    m: int
    exponent: float
    range_scale: float
    range_label: str
    purpose: str


def select_block_size(n: int, beta: float, purpose: str) -> BlockSizeChoice:
    """Rate-optimal block length for a polynomial decay exponent beta.

    purpose="cramer": beta >= 3/2 gives m = floor(n^{2/7}) with claimed
    x-range o(n^{1/14} / sqrt(ln n)); beta in (1, 3/2) gives
    m = floor(n^{1/(3 beta - 1)}) with range o(n^{(beta-1)/(6 beta - 2)}).

    purpose="berry_esseen": beta >= 2 gives m = floor(n^{1/3}) with rate
    n^{-1/6} ln n; beta in (1, 2) gives m = floor(n^{1/(beta+1)}) with rate
    n^{-(beta-1)/(2 beta + 2)} ln n.
    """
    n = _require_horizon(n, 2)
    if not beta > 1:
        raise BetaOutOfRange(f"beta must exceed 1, got {beta}")
    if purpose == "cramer":
        if beta >= 1.5:
            expo = 2.0 / 7.0
            scale = n ** (1.0 / 14.0) / math.sqrt(math.log(n))
            label = "o(n^(1/14) / sqrt(ln n))"
        else:
            expo = 1.0 / (3.0 * beta - 1.0)
            r = (beta - 1.0) / (6.0 * beta - 2.0)
            scale = n ** r
            label = f"o(n^{r:g})"
    elif purpose == "berry_esseen":
        if beta >= 2.0:
            expo = 1.0 / 3.0
            scale = n ** (-1.0 / 6.0) * math.log(n)
            label = "n^(-1/6) ln n"
        else:
            expo = 1.0 / (beta + 1.0)
            r = (beta - 1.0) / (2.0 * beta + 2.0)
            scale = n ** -r * math.log(n)
            label = f"n^(-{r:g}) ln n"
    else:
        raise ParamOutOfRange(f"purpose must be cramer or berry_esseen, got {purpose!r}")
    m = int(math.floor(n ** expo + 1e-9))
    m = max(1, min(m, n))
    return BlockSizeChoice(m=m, exponent=expo, range_scale=scale,
                           range_label=label, purpose=purpose)
