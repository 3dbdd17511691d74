"""Seeded simulation of tails, ratio curves, Kolmogorov distances and the
moderate-deviation scaling diagnostic.

Exact-tier models at reachable horizons should be checked against the DP
oracle instead; simulation exists for everything beyond its reach.  All
output is a pure function of (model, parameters, seed): chains are generated
in fixed-size blocks whose child seeds derive from (seed, block index), and
reductions happen in block order, so any parallel schedule reproduces the
sequential result bit for bit.  An exact-tier chain needs only S_n, so it
jumps k steps per uniform through the exact k-step kernel of (state, sum)
(`models._simulate_states`), k the power of two <= n that `models._jump_length`
estimates quickest for (model, n, chains), kernel build and jumps together,
one forward pass building it and the remainder's (`models._jump_kernels`).  A
sampled S_n is one weighted reduction of the innovations
(`SampledModel.sum_weights`), not BLAS, whose summation order varies by build.

Confidence intervals use the Wilson score form, which stays honest when the
tail count is a handful out of many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import envelope_curve
from .coefficients import CoefficientSet, coefficient_set
from .errors import (
    ExponentOutOfRange,
    ParamOutOfRange,
    SampledTierUnsupported,
    TooFewSamples,
    ZeroDenominator,
)
from .exact import (
    _csv_chunks,
    _grid_log_tails,
    _ks_sweep,
    distribution_of_Sn,
    exact_lower_tail,
    exact_tail,
    long_run_variance,
    sigma_any,
)
from .models import (CHAIN_BYTES, INNOVATION_SECONDS, _check_cost, _innovation_blocks,
                     _jump_length, _jump_seconds, _require_count, _require_horizon,
                     _require_lattice_horizon, _require_scale, _simulate_states, _sublattice)
from .normal import normal_log_sf, normal_sf

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    trials = _require_count(trials, "trials")
    if not 0 <= successes <= trials:
        raise ParamOutOfRange(f"need 0 <= successes <= trials, got {successes}, {trials}")
    p = successes / trials
    z2 = z * z
    center = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class TailEstimate:
    x: float
    estimate: float
    lo: float
    hi: float
    chains: int
    seed: int


@dataclass(frozen=True)
class RatioCurve:
    """Tail ratios against the normal tail, in both directions, with the
    envelope overlay where coefficients are available."""

    x_grid: np.ndarray
    right: np.ndarray
    left: np.ndarray
    source: str
    right_lo: Optional[np.ndarray] = None
    right_hi: Optional[np.ndarray] = None
    left_lo: Optional[np.ndarray] = None
    left_hi: Optional[np.ndarray] = None
    envelope: Optional[np.ndarray] = None
    envelope_valid: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def csv_chunks(self):
        return _csv_chunks("x,ratio,lo,hi,envelope,ratio_left,lo_left,hi_left",
                           [self.x_grid, self.right, self.right_lo, self.right_hi,
                            self.envelope, self.left, self.left_lo, self.left_hi])


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate_W(model, n: int, chains: int, seed: int) -> np.ndarray:
    """Samples of W_n = S_n / sqrt(n) over independent stationary trajectories,
    in O(chains) memory plus one block and, on an exact model, one jump kernel
    of a length set by (model, n, chains) alone (`_jump_length`), priced with
    its jumps (`_jump_seconds`); a sampled run is priced per innovation
    (INNOVATION_SECONDS).  A sampled S_n is the sum of
    `sample_trajectory`'s path where the arithmetic is exact (the moving average
    at c = 1 with L_trunc + log2(2n) <= 52), else within rounding of it.  An
    exact S_n is summed in int64, priced first and then refused where it could
    wrap (`_require_lattice_horizon`)."""
    chains, n = _require_count(chains, "chains"), _require_count(n, "n")
    seed = _require_count(seed, "seed", 0)
    k = _jump_length(model, n, chains) if model.tier == "exact" else 0  # 0: sampled
    _check_cost(f"simulating {chains} chains to n = {n}", chains * CHAIN_BYTES,
                _jump_seconds(model, n, chains, k) if k
                else chains * (model.burn_in + n) * INNOVATION_SECONDS)
    if k:
        _require_lattice_horizon(model, n)
        sums = np.full(chains, n * _sublattice(model)[0], dtype=np.int64)
        for _, d in _simulate_states(model, n, chains, seed, k):
            sums += d  # raw lattice sums: exact in any order
        out = sums / model.denom - float(n * model.mean_fraction)  # TailTable.center
    else:
        blocks = _innovation_blocks(model, n, chains, seed)  # the budget check comes first
        a = model.sum_weights(n)
        out = np.concatenate([(eps[:, -a.size:] * a).sum(axis=-1) for eps in blocks])
    return out / math.sqrt(n)


def estimate_tails(model, n: int, x_grid, chains: int, seed: int,
                   sigma: Optional[float] = None) -> list[TailEstimate]:
    """Monte Carlo estimates of P(W_n >= x sigma_n) with 95% score intervals."""
    seed = _require_count(seed, "seed", 0)
    xs = np.asarray(x_grid, dtype=float)
    if np.any(np.isnan(xs)):
        raise ParamOutOfRange("tail thresholds must not be nan")
    sig = sigma_any(model, n) if sigma is None else _require_scale(sigma, "sigma")
    upper, _ = _tail_counts(simulate_W(model, n, chains, seed), xs * sig)
    return [TailEstimate(float(x), k / chains, *wilson_interval(k, chains), chains, seed)
            for x, k in zip(xs, upper.tolist())]


def _tail_counts(w: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """#{w >= t} and #{w <= -t} for each threshold t, inclusive at sample atoms,
    counted on one sorted copy of w."""
    s = np.sort(w)
    return (s.size - np.searchsorted(s, thresholds, side="left"),
            np.searchsorted(s, -thresholds, side="right"))


# ---------------------------------------------------------------------------
# ratio curves
# ---------------------------------------------------------------------------

def ratio_curve(model, n: int, m: int, x_grid, mode: str = "exact",
                chains: Optional[int] = None, seed: int = 0,
                coeffs: Optional[CoefficientSet] = None, envelope_c: float = 1.0,
                gate_mode: str = "practical") -> RatioCurve:
    """Tail ratios P(W_n >= x sigma_n) / (1 - Phi(x)) and the mirrored left
    ratio, either exact from the DP table or estimated from chains.  `coeffs`, its
    envelope and its sigma_n (mc mode), must be this (n, m)'s, else ParamOutOfRange."""
    seed = _require_count(seed, "seed", 0)
    if coeffs is not None and (coeffs.n, coeffs.m) != (n, m):
        raise ParamOutOfRange(f"coefficient set of (n, m) = {coeffs.n, coeffs.m}, not {n, m}")
    xs = np.asarray(x_grid, dtype=float)
    if not np.all(xs >= 0):
        raise ParamOutOfRange("ratio grid must be nonnegative numbers")
    sf = normal_sf(xs)
    if np.any(sf == 0.0):
        raise ZeroDenominator("1 - Phi(x) underflows on this grid; keep x <= 37")

    if coeffs is None and model.tier == "exact":
        coeffs = coefficient_set(model, n, m)
    env = env_valid = None
    if coeffs is not None:
        curve = envelope_curve(coeffs, xs, envelope_c, gate_mode)
        env, env_valid = curve.value, curve.valid

    if mode == "exact":
        if model.tier != "exact":
            raise SampledTierUnsupported("exact ratio mode needs an exact-tier model")
        table = distribution_of_Sn(model, n)
        log_sf = normal_log_sf(xs)
        right = np.exp(exact_tail(table, xs) - log_sf)
        left = np.exp(exact_lower_tail(table, xs) - log_sf)
        return RatioCurve(x_grid=xs, right=right, left=left, source="exact",
                          envelope=env, envelope_valid=env_valid,
                          meta={"n": n, "m": m})
    if mode != "mc":
        raise ParamOutOfRange(f"mode must be exact or mc, got {mode!r}")
    if chains is None:
        raise ParamOutOfRange("mc mode needs a chains count")
    sig = coeffs.sigma_n if coeffs is not None else sigma_any(model, n)
    kr, kl = _tail_counts(simulate_W(model, n, chains, seed), xs * sig)
    (r_lo, r_hi), (l_lo, l_hi) = (
        np.array([wilson_interval(k, chains) for k in counts.tolist()]).reshape(-1, 2).T / sf
        for counts in (kr, kl))
    return RatioCurve(x_grid=xs, right=kr / chains / sf, left=kl / chains / sf, source="mc",
                      right_lo=r_lo, right_hi=r_hi, left_lo=l_lo, left_hi=l_hi,
                      envelope=env, envelope_valid=env_valid,
                      meta={"n": n, "m": m, "chains": chains, "seed": seed})


# ---------------------------------------------------------------------------
# Kolmogorov distance and MDP scaling
# ---------------------------------------------------------------------------

def empirical_ks(samples, sigma_n: float) -> float:
    """Kolmogorov distance between the empirical law of W_n / sigma_n and the
    standard normal, evaluated on both sides of every jump."""
    w = np.sort(np.asarray(samples, dtype=float)) / _require_scale(sigma_n, "sigma_n")
    n = w.size
    if n < 100:
        raise TooFewSamples(f"need at least 100 samples, got {n}")
    if not np.all(np.isfinite(w)):
        raise ParamOutOfRange("samples must be finite numbers")
    return _ks_sweep(w, np.arange(1, n + 1) / n)


@dataclass(frozen=True)
class MdpDiagnostic:
    """Scaled log tails a_n^2 ln P(a_n W_n >= c) along a horizon grid, next to
    the claimed limit -c^2 / (2 sigma^2).  ``error_bound[i]`` bounds the
    relative error of the i-th tail probability: 0 where it comes from the
    binomial closed form or the DP; from the tilted transform, its truncation
    (at most TAIL_RTOL) plus its round-off (at most ROUNDOFF_RTOL)."""

    c: float
    a_exponent: float
    n_grid: np.ndarray
    scaled: np.ndarray
    limit: float
    error_bound: np.ndarray

    def csv_chunks(self):
        return _csv_chunks("n,scaled_log_tail,limit",
                           [self.n_grid, self.scaled, np.full(len(self.scaled), float(self.limit))])


def mdp_diagnostic(model, c: float, a_exponent: float, n_grid) -> MdpDiagnostic:
    """a_n = n^{-a}: compute a_n^2 ln P(W_n >= c / a_n) exactly along n_grid.

    One call of `exact._grid_log_tails` gives the tails and picks how: the
    binomial closed form for i.i.d. fair signs, else whichever it estimates
    quicker of `tilted_log_tail`'s transform per n (two states at n = 10^6 in
    under a tenth of a second) and one sum-law DP pass to the largest n (on
    many states at small n), which also reads what the transform cannot.
    """
    if not 0.0 < a_exponent < 0.5:
        raise ExponentOutOfRange(f"a_exponent must lie in (0, 1/2), got {a_exponent}")
    c = _require_scale(c, "c", zero=True)
    ns = [_require_horizon(n) for n in n_grid]  # Python ints until priced: 2^63 is refused
    ans = [float(n) ** -a_exponent for n in ns]  # a_n; the threshold of S_n is c sqrt(n) / a_n
    logp, bound = _grid_log_tails(model, ns, [c / an * math.sqrt(n) for n, an in zip(ns, ans)])
    scaled = np.array([an * an * lp for an, lp in zip(ans, logp)], dtype=float)
    limit = -c * c / (2.0 * long_run_variance(model))
    return MdpDiagnostic(c=c, a_exponent=a_exponent, n_grid=np.array(ns, dtype=np.int64),
                         scaled=scaled, limit=limit, error_bound=bound)
