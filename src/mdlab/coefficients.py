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
useful tolerance is hopeless.  Instead the conditional-sum norms converge
geometrically to the norm of the Poisson solution h, which lets the tail be
summed in closed form (a Hurwitz zeta factor) with a certified geometric
remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import zeta

from .errors import (
    BetaOutOfRange,
    BudgetExceeded,
    NoDecayCertificate,
    ParamOutOfRange,
    WindowTooSmall,
)
from .exact import (
    WORK_CAP_S,
    _block_moment_steps,
    conditional_block_moments,
    long_run_variance,
    poisson_solution,
    sigma_n as exact_sigma_n,
)
from .models import (
    DecayCertificate,
    FiniteLatticeModel,
    SampledModel,
    _require_count,
    _require_exact,
    _require_scale,
    geometric_mixing_certificate,
)

GAMMA_TOL = 1e-10  # certified bound on the drift series' truncation error

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
        return {
            "schema": "coefficients/1",
            "n": self.n,
            "m": self.m,
            "eps_m": self.eps_m,
            "gamma_m": self.gamma_m,
            "delta_m": self.delta_m,
            "delta_sq": self.delta_sq,
            "tau_m": self.tau_m,
            "tau_sq": self.tau_sq,
            "sigma_n": self.sigma_n,
            "gamma_truncation_error": self.gamma_truncation_error,
        }


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
# certified geometric envelopes
# ---------------------------------------------------------------------------

class _MixingEnvelope:
    """phi_1(k) <= min(1, C r^k), certified via Dobrushin contraction."""

    def __init__(self, model: FiniteLatticeModel):
        try:
            self.c, self.r, self.n0 = geometric_mixing_certificate(model)
        except Exception as exc:
            raise NoDecayCertificate(f"cannot certify geometric mixing: {exc}") from exc
        self.bound_x = model.bound

    def phi_bar(self, k: int) -> float:
        if self.r == 0.0:
            return 1.0 if k < self.n0 else 0.0
        return min(1.0, self.c * self.r ** k)

    def residual(self, n: int) -> float:
        """Upper bound on max_s |sum_{k>n} E[X_k | Y_0 = s]| (and on the sum of
        the conditional-mean norms beyond n)."""
        if self.r == 0.0:
            return 2.0 * self.bound_x * max(0, self.n0 - 1 - n)
        # split where C r^k crosses 1
        kstar = 0 if self.c <= 1.0 else math.ceil(math.log(self.c) / -math.log(self.r))
        flat = max(0, kstar - 1 - n)
        start = max(n + 1, kstar)
        geo = self.c * self.r ** start / (1.0 - self.r)
        return 2.0 * self.bound_x * (flat + geo)


# ---------------------------------------------------------------------------
# coefficient_set
# ---------------------------------------------------------------------------

def coefficient_set(model: FiniteLatticeModel, n: int, m: int) -> CoefficientSet:
    """Exact deviation coefficients for an exact-tier model.

    The drift series is summed term by term up to an index J, the remaining
    tail is replaced by the Hurwitz zeta closed form around the Poisson-limit
    norm, and the certified remainder (below GAMMA_TOL) is reported.
    """
    _require_exact(model)
    n, m = _require_count(n, "n"), _require_count(m, "m")
    if m > n:
        raise ParamOutOfRange(f"need 1 <= m <= n, got m={m}, n={n}")
    sig = exact_sigma_n(model, n)
    eps = m * model.bound / (math.sqrt(n) * sig)

    moments = conditional_block_moments(model, m)
    delta_sq = moments.sup_mean ** 2 / (m * sig ** 2) + moments.sup_second_dev(sig)

    gamma, trunc = _drift_series(model, m, sig)
    tau_sq = delta_sq + m / n + 4.0 * eps ** 2
    return CoefficientSet(n=n, m=m, eps_m=eps, gamma_m=gamma, delta_sq=delta_sq,
                          tau_sq=tau_sq, sigma_n=sig,
                          gamma_truncation_error=trunc)


def _drift_series(model: FiniteLatticeModel, m: int, sig: float) -> tuple[float, float]:
    env = _MixingEnvelope(model)
    scale = math.sqrt(m) * sig
    h = poisson_solution(model)
    h_norm = float(np.max(np.abs(h)))

    j = 64  # doubled until the tail is certified below GAMMA_TOL, or up to 2^22
    while ((err := float(zeta(1.5, j + 1)) * env.residual(m * (j + 1)) / scale) > GAMMA_TOL
           and j < 1 << 22):
        j *= 2
    if err > GAMMA_TOL:
        raise NoDecayCertificate(
            f"drift series tail cannot be certified below {GAMMA_TOL} (J={j}, err={err})")
    # J steps of 0.25 ns per s^2 term and 8 us besides (fitted on a shared 2-core x86 host)
    if (secs := j * (2.5e-10 * model.n_states ** 2 + 8e-6)) > WORK_CAP_S:
        raise BudgetExceeded(f"drift series to J = {j} on {model.n_states} states would run "
                             f"about {secs:.3g} s, past the cap of {WORK_CAP_S:g} s")

    # E[S_t | Y_0] = h - P^t h, stepped through t = m, 2m, ..., Jm with P^m
    p_m = np.linalg.matrix_power(model.transition, m)
    u, norms = h, np.empty(j)
    for i in range(j):
        u = p_m @ u
        norms[i] = float(np.max(np.abs(h - u)))
    js = np.arange(1, j + 1, dtype=float)
    partial = float(np.sum(js ** -1.5 * norms))
    tail = h_norm * float(zeta(1.5, j + 1))
    return (partial + tail) / scale, err


# ---------------------------------------------------------------------------
# decay certificates
# ---------------------------------------------------------------------------

def eta_certificate(model, n_max: int, window: int = 64) -> DecayCertificate:
    """Decay certificate for the conditional-mean and conditional-cross
    dependence sequences.

    Exact tier: per-index suprema are exact up to n_max + window, with a
    certified geometric bound standing in for everything beyond.  Sampled
    builtins return their analytic certificate.
    """
    if isinstance(model, SampledModel):
        return model.decay
    _require_exact(model)
    n_max = _require_count(n_max, "n_max")
    try:
        env = _MixingEnvelope(model)
    except NoDecayCertificate as exc:
        raise WindowTooSmall(str(exc)) from exc

    p = model.transition
    x = model.x_values
    bx = model.bound
    far = n_max + window

    # eta1: suffix maxima of ||P^k x||_inf, tail-bounded geometrically; the
    # same pass keeps the columns w_d = x * P^d x, d = 0..window, for eta2
    u = x.copy()
    u_norms = np.empty(far)
    w = np.empty((x.size, window + 1))
    w[:, 0] = x * x
    for k in range(1, far + 1):
        u = p @ u
        u_norms[k - 1] = float(np.max(np.abs(u)))
        if k <= window:
            w[:, k] = x * u
    tail1 = 2.0 * bx * env.phi_bar(far + 1)
    suffix = np.maximum.accumulate(u_norms[::-1])[::-1]
    eta1 = np.maximum(suffix[:n_max], tail1)

    # eta2: exact centered cross-moment deviations over a (lag i, gap d) grid
    means = model.pi @ w
    dev = np.empty((far, window + 1))
    pw = w.copy()
    for i in range(1, far + 1):
        pw = p @ pw
        dev[i - 1] = np.max(np.abs(pw - means), axis=0)
    tail_i = 2.0 * bx * bx * env.phi_bar(far + 1)
    worst_by_i = dev.max(axis=1)
    suffix2 = np.maximum.accumulate(worst_by_i[::-1])[::-1]
    phi = np.array([env.phi_bar(k) for k in range(1, n_max + 1)])
    eta2 = np.maximum(np.maximum(suffix2[:n_max], tail_i),
                      4.0 * bx * bx * phi * env.phi_bar(window + 1))
    eta2 = np.maximum.accumulate(eta2[::-1])[::-1]  # enforce monotone after tails

    return DecayCertificate(eta1=eta1, eta2=eta2, rate_constant=2.0 * bx * env.c,
                            geometric_rho=(env.r if env.r > 0 else None))


# ---------------------------------------------------------------------------
# certificate-based coefficient bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedCoefficientBounds:
    """Certificate-driven upper bounds on the drift and variance coefficients,
    and the predicted decay regime of delta_m."""

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

    s_head = float(cert.upto(cert.eta1, m).sum())
    series = float(cert.tail_sums(cert.eta1, np.array([m]), over_sqrt=True)[0])
    gamma_bound = 1.0 / (math.sqrt(m) * sigma_n) * (s_head + math.sqrt(m) * series)

    ks = np.arange(1, m // 2 + 1)
    t_weighted = float(np.sum(ks * cert.upto(cert.eta2, ks.size)))
    t_cross = bound_x0 * float(np.sum(cert.tail_sums(cert.eta1, 2 * ks)))
    t_far = m * float(cert.tail_sums(cert.eta2, np.array([max(1, ks.size)]))[0])
    delta_sq_bound = 1.0 / (m * sigma_n ** 2) * (
        s_head ** 2 + t_weighted + t_cross + t_far)

    return CertifiedCoefficientBounds(gamma_bound=gamma_bound, delta_sq_bound=delta_sq_bound,
                                      regime=_delta_regime(cert.beta_effective))


def _delta_regime(beta: float) -> str:
    if beta > 2:
        return "m^-1/2"
    if beta == 2:
        return "m^-1/2 sqrt(ln m)"
    return f"m^-{(beta - 1) / 2:g}"


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
    n = _require_count(n, "n", 2)
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


# ---------------------------------------------------------------------------
# Dedecker-type condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DedeckerReport:
    """Numerical status of the two summability conditions behind the theory:
    the weighted drift series and the uniform variance stabilization."""

    n_max: int
    partial_sums: np.ndarray
    series_value: float
    series_uncertainty: float
    closed_form_tail: float
    second_moment_dev: np.ndarray
    sigma_sq: float
    series_converges: bool
    variance_stabilizes: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": "dedecker/1",
            "n_max": self.n_max,
            "series_value": self.series_value,
            "series_uncertainty": self.series_uncertainty,
            "closed_form_tail": self.closed_form_tail,
            "sigma_sq": self.sigma_sq,
            "series_converges": self.series_converges,
            "variance_stabilizes": self.variance_stabilizes,
            "partial_sum_final": float(self.partial_sums[-1]),
            "second_moment_dev_final": float(self.second_moment_dev[-1]),
        }


def check_dedecker_conditions(model: FiniteLatticeModel, n_max: int) -> DedeckerReport:
    """Partial sums of sum_t t^{-3/2} ||E[S_t|F_0]||_inf with a certified tail,
    and the trajectory of || (1/t) E[S_t^2|F_0] - sigma^2 ||_inf."""
    _require_exact(model)
    n_max = _require_count(n_max, "n_max", 2)
    env = _MixingEnvelope(model)
    sig_sq = long_run_variance(model)
    norms, dev = np.empty(n_max), np.empty(n_max)
    for t, (mean, second) in enumerate(islice(_block_moment_steps(model), n_max), start=1):
        norms[t - 1] = np.max(np.abs(mean))
        dev[t - 1] = np.max(np.abs(second / t - sig_sq))
    ts = np.arange(1, n_max + 1, dtype=float)
    partial = np.cumsum(ts ** -1.5 * norms)

    h_norm = float(np.max(np.abs(poisson_solution(model))))
    ztail = float(zeta(1.5, n_max + 1))
    tail = h_norm * ztail
    uncertainty = env.residual(n_max + 1) * ztail
    value = float(partial[-1]) + tail

    anchor = dev[max(0, n_max // 10 - 1)]
    stabilizes = bool(dev[-1] <= max(1e-8, 0.5 * anchor))

    return DedeckerReport(n_max=n_max, partial_sums=partial, series_value=value,
                          series_uncertainty=float(uncertainty),
                          closed_form_tail=float(tail),
                          second_moment_dev=dev, sigma_sq=sig_sq,
                          series_converges=bool(np.isfinite(value)),
                          variance_stabilizes=stabilizes)
