"""Exact computations for finite lattice models.

Everything here is deterministic linear algebra on the chain: stationary
autocovariances, the normalized-sum standard deviation, per-state conditional
block moments by one recursion on the first step (two mat-vecs with P per
step, which also gives the conditional-sum norms), and the law of S_n by one
forward DP over (state, lattice value) that steps only the sublattice
t min f_num + g Z the sums occupy, g = gcd(f_num - min f_num); one pass to the
largest n of a horizon grid marginalises at every n of the grid on its way.
The DP keeps log-masses, so tails far below the double-precision linear range
remain representable, and mixes each column in linear space after shifting it
by its maximum, summing in log space where a term could underflow.

The resulting TailTable is the brute-force oracle that every bound and every
Monte Carlo estimate in the package is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateVariance,
    MdlabError,
    OutOfRange,
    ParamOutOfRange,
)
from .models import DEFAULT_BUDGET_BYTES, FiniteLatticeModel, _require_exact
from .normal import normal_cdf

MASS_TOL = 1e-10
SNAP_ULPS = 16  # rounding slack of a threshold against the integer lattice


@dataclass(frozen=True)
class TailTable:
    """Exact law of the partial sum S_n from a stationary start.

    ``offsets`` are the integer lattice numerators of the raw payoff sums:
    the centered sum takes the value offsets[i] / denom - center with
    log-probability logp[i], where ``center`` is n times the stationary
    payoff mean (exactly zero for symmetric models).  ``sigma_n`` is the
    standard deviation of W_n = S_n / sqrt(n).
    """

    n: int
    denom: int
    offsets: np.ndarray
    logp: np.ndarray
    sigma_n: float
    center: float = 0.0

    @property
    def sum_values(self) -> np.ndarray:
        """Support of S_n."""
        return self.offsets / self.denom - self.center

    @property
    def w_values(self) -> np.ndarray:
        """Support of W_n = S_n / sqrt(n)."""
        return self.sum_values / np.sqrt(self.n)

    @property
    def what_values(self) -> np.ndarray:
        """Support of the fully normalized sum W_n / sigma_n."""
        return self.w_values / self.sigma_n

    def probabilities(self) -> np.ndarray:
        return np.exp(self.logp)

    def cdf_points(self) -> np.ndarray:
        """Cumulative probabilities at the atoms (last snapped to 1)."""
        cdf = np.cumsum(self.probabilities())
        cdf[-1] = 1.0
        return cdf

    def to_json_dict(self) -> dict:
        return {
            "schema": "tail_table/1",
            "n": self.n,
            "denom": self.denom,
            "sigma_n": self.sigma_n,
            "center": self.center,
            "offsets": [int(k) for k in self.offsets],
            "logp": [float(v) for v in self.logp],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TailTable":
        if obj.get("schema") != "tail_table/1":
            raise OutOfRange(f"unsupported tail table schema {obj.get('schema')!r}")
        return cls(n=int(obj["n"]), denom=int(obj["denom"]),
                   offsets=np.asarray(obj["offsets"], dtype=np.int64),
                   logp=np.asarray(obj["logp"], dtype=float),
                   sigma_n=float(obj["sigma_n"]), center=float(obj.get("center", 0.0)))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        lines = ["sum,logp"]
        lines += [f"{int(k)},{v:.17g}" for k, v in zip(self.offsets, self.logp)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConditionalMoments:
    """Per-state conditional first and second moments of a block sum."""

    m: int
    mean_by_state: np.ndarray
    second_by_state: np.ndarray

    @property
    def sup_mean(self) -> float:
        return float(np.max(np.abs(self.mean_by_state)))

    def sup_second_dev(self, sigma_n: float) -> float:
        """Uniform deviation of the normalized conditional second moment from 1,
        measured against the ambient n's sigma_n."""
        return float(np.max(np.abs(self.second_by_state / (self.m * sigma_n ** 2) - 1.0)))


# ---------------------------------------------------------------------------
# covariances and sigma_n
# ---------------------------------------------------------------------------

def autocovariance(model: FiniteLatticeModel, k: int) -> float:
    """Cov(X_0, X_k) of the centered payoff under the stationary law."""
    _require_exact(model)
    if k < 0:
        raise ParamOutOfRange("lag must be >= 0")
    x = model.x_values
    a = model.transition - model.pi  # A = P - 1 pi^T: P^k x = A^k x, and A^k -> 0
    return float(model.pi @ (x * (np.linalg.matrix_power(a, k) @ x)))


def sigma_n(model: FiniteLatticeModel, n: int) -> float:
    """Standard deviation of W_n = S_n / sqrt(n): sigma_n^2 = gamma(0) + 2 pi(x v),
    v = sum_{k=1}^{n-1} (1 - k/n) A^k x = S x - x - T x / n with S = sum_{k<n} A^k
    and T = sum_{k<n} k A^k, by binary powering in O(s^3 log n).  A block of
    lags of length L carries (A^L, S_L x, T_L x); prepending it to (S x, T x)
    gives (S_L x + A^L S x, T_L x + A^L (T x + L S x)), and doubling is
    prepending it to itself, so only A^L is ever a matrix."""
    _require_exact(model)
    if n < 1:
        raise ParamOutOfRange("n must be >= 1")
    x = model.x_values
    power = model.transition - model.pi  # A^L, from L = 1
    s_blk, t_blk = x, np.zeros_like(x)
    s_x = t_x = np.zeros_like(x)
    length = 1
    while True:
        if n & length:
            s_x, t_x = s_blk + power @ s_x, t_blk + power @ (t_x + length * s_x)
        if 2 * length > n:
            break
        s_blk, t_blk = s_blk + power @ s_blk, t_blk + power @ (t_blk + length * s_blk)
        power = power @ power
        length *= 2
    v = s_x - x - t_x / n
    var = float(model.pi @ (x * x)) + 2.0 * float(model.pi @ (x * v))
    if var <= 1e-14:
        raise DegenerateVariance(f"sigma_n^2 = {var!r} at n = {n}")
    return float(np.sqrt(var))


def sigma_any(model, n: int) -> float:
    """sigma_n for either tier: exact on the lattice, or the lag-weighted sum
    over a sampled model's analytic autocovariances, up to their support."""
    if getattr(model, "tier", None) == "exact":
        return sigma_n(model, n)
    if getattr(model, "autocov", None) is None:
        raise DegenerateVariance(
            f"{model.name!r} has no analytic autocovariance; sigma_n unavailable")
    lags = n if model.autocov_support is None else min(n, model.autocov_support + 1)
    g = np.array([model.autocov(k) for k in range(lags)])
    ks = np.arange(1, lags)
    var = g[0] + 2.0 * float(np.sum((1.0 - ks / n) * g[1:]))
    if var <= 1e-14:
        raise DegenerateVariance(f"sigma_n^2 = {var!r} at n = {n}")
    return float(np.sqrt(var))


def poisson_solution(model: FiniteLatticeModel) -> np.ndarray:
    """h(s) = sum_{k>=1} E[X_k | Y_0 = s], by solving (I - P + 1 pi^T) h = P x."""
    _require_exact(model)
    p = model.transition
    x = model.x_values
    a = np.eye(model.n_states) - p + np.outer(np.ones(model.n_states), model.pi)
    return np.linalg.solve(a, p @ x)


def long_run_variance(model: FiniteLatticeModel) -> float:
    """sigma^2 = gamma(0) + 2 sum_{k>=1} gamma(k), in closed form."""
    x = model.x_values
    h = poisson_solution(model)
    var = float(model.pi @ (x * x) + 2.0 * model.pi @ (x * h))
    if var <= 1e-14:
        raise DegenerateVariance(f"long-run variance {var!r}")
    return var


def conditional_sum_norms(model: FiniteLatticeModel, n_max: int) -> np.ndarray:
    """Uniform norms of the conditional sums: ||E[S_t | F_0]||_inf, t = 1..n_max."""
    _require_exact(model)
    if n_max < 1:
        raise ParamOutOfRange("n_max must be >= 1")
    steps = islice(_block_moment_steps(model), n_max)
    return np.fromiter((np.max(np.abs(mean)) for mean, _ in steps), float, count=n_max)


def _block_moment_steps(model: FiniteLatticeModel):
    """Yield a_t = E[S_t | Y_0 = s] and b_t = E[S_t^2 | Y_0 = s] per state for
    t = 1, 2, ...  Conditioning on Y_1, S_t = X_1 + S'_{t-1} with S' the sum
    from Y_1, so a_t = P(x + a_{t-1}) and b_t = P(x^2 + 2x a_{t-1} + b_{t-1}):
    two mat-vecs a step."""
    p, x = model.transition, model.x_values
    first = second = np.zeros(model.n_states)
    while True:
        first, second = p @ (x + first), p @ (x * x + 2.0 * x * first + second)
        yield first, second


def conditional_block_moments(model: FiniteLatticeModel, m: int) -> ConditionalMoments:
    """Exact E[S_m | Y_0 = s] and E[S_m^2 | Y_0 = s] for every state."""
    _require_exact(model)
    if m < 1:
        raise ParamOutOfRange("m must be >= 1")
    mean, second = next(islice(_block_moment_steps(model), m - 1, None))
    return ConditionalMoments(m=m, mean_by_state=mean, second_by_state=second)


# ---------------------------------------------------------------------------
# distribution of S_n
# ---------------------------------------------------------------------------

def _sum_law_steps(model: FiniteLatticeModel, n: int,
                   budget_bytes: int = DEFAULT_BUDGET_BYTES):
    """Yield (k0, g, logp) for t = 1..n from a stationary start, logp[j, i] =
    log P(Y_t = j, S_t = (k0 + g i) / denom) on the live window.  S_t lies on
    the sublattice t min f_num + g Z, g = gcd(f_num - min f_num), so only its
    points are stepped.  Scaled forward algorithm (Rabiner 1989): each column
    is shifted by its largest log-mass, mixed by one product with P^T, logged
    and shifted back; row j moves right by (f_num[j] - min f_num) / g.  Columns
    where a term could fall below 2^-960 are summed in log space.  Entries set
    to -inf drop out; logp is reused."""
    _require_exact(model)
    if n < 1:
        raise ParamOutOfRange("n must be >= 1")
    p, xnum = model.transition, model.f_num.astype(np.int64)
    xmin = int(xnum.min())
    g = int(np.gcd.reduce(xnum - xmin))  # a built model's payoff is not constant
    rise = (xnum - xmin) // g
    spread = int(rise.max())
    s, width = model.n_states, n * spread + 1
    if (need := s * width * (3 * 8 + 2) + 2 * width * 8) > budget_bytes:
        raise BudgetExceeded(f"DP needs {need} bytes ({s} states x {width} sublattice points "
                             f"of step {g}, 3 float and 2 flag buffers), budget {budget_bytes}")
    cur, nxt = (np.full((s, width), -np.inf) for _ in range(2))
    spare = np.empty((s, width))  # log-space scratch, touched only when a column needs it
    low, live = (np.empty((s, width), dtype=bool) for _ in range(2))
    top = np.empty(width)
    with np.errstate(divide="ignore"):
        log_t, cur[:, 0] = np.log(p), np.log(model.pi)
    log_floor = np.log(2.0 ** -960 / p[p > 0].min())  # min P * exp(log_floor) = 2^-960
    for t in range(1, n + 1):
        w = (t - 1) * spread + 1
        lin, prod, mx, flag = cur[:, :w], nxt[:, :w], top[:w], low[:, :w]
        with np.errstate(divide="ignore"):
            np.max(lin, axis=0, out=mx)
            np.maximum(mx, np.finfo(float).min, out=mx)  # an empty column stays empty
            lin -= mx
            np.less(lin, log_floor, out=flag)
            flag &= np.greater(lin, -np.inf, out=live[:, :w])
            rare = np.flatnonzero(flag.any(axis=0)) if flag.any() else None
            if rare is not None:  # sum over source states in log space
                acc, tmp = spare[:, :rare.size], nxt[:, :rare.size]
                acc.fill(-np.inf)
                for i in range(s):
                    np.add(log_t[i, :, None], lin[i, rare] + mx[rare], out=tmp)
                    np.logaddexp(acc, tmp, out=acc)
            np.exp(lin, out=lin)
            np.matmul(p.T, lin, out=prod)
            np.log(prod, out=prod)
            prod += mx
            if rare is not None:
                prod[:, rare] = acc
        cur[:, :w + spread] = -np.inf  # lin is spent: the shifted rows land in cur
        for j, d in enumerate(rise):
            cur[j, d:d + w] = prod[j]
        yield t * xmin, g, cur[:, :w + spread]


def distribution_of_Sn(model: FiniteLatticeModel, n: int,
                       budget_bytes: int = DEFAULT_BUDGET_BYTES) -> TailTable:
    """Exact law of S_n from a stationary start: the sum-law DP, marginalised."""
    return _sum_law_tables(model, [n], budget_bytes)[0]


def _sum_law_tables(model: FiniteLatticeModel, ns: list[int],
                    budget_bytes: int = DEFAULT_BUDGET_BYTES) -> list[TailTable]:
    """The laws of S_n for every n in ns (order and repeats kept), read off one
    sum-law pass to max(ns) by marginalising over the state at each wanted t."""
    want, tables = set(ns), {}
    for t, (k0, g, logp) in enumerate(_sum_law_steps(model, max(ns), budget_bytes), start=1):
        if t not in want:
            continue
        marg = np.logaddexp.reduce(logp, axis=0)
        keep = np.flatnonzero(marg > -np.inf)
        total = float(np.logaddexp.reduce(marg[keep]))
        if abs(total) > MASS_TOL:
            raise MdlabError(f"DP mass check failed: log total mass {total!r}")
        tables[t] = TailTable(n=t, denom=model.denom, offsets=k0 + g * keep, logp=marg[keep],
                              sigma_n=sigma_n(model, t), center=float(t * model.mean_fraction))
    return [tables[n] for n in ns]


def _max_abs_tail(model: FiniteLatticeModel, n: int, x: float) -> float:
    """P(max_{1<=i<=n} |S_i| >= x): mass leaves the DP once its centred |S_i| >= x."""
    hit, mean = 0.0, float(model.mean_fraction)
    for i, (k0, g, logp) in enumerate(_sum_law_steps(model, n), start=1):
        crossed = np.abs((k0 + g * np.arange(logp.shape[1])) / model.denom - i * mean) >= x
        hit += float(np.exp(logp[:, crossed]).sum())
        logp[:, crossed] = -np.inf
    return hit


# ---------------------------------------------------------------------------
# tail, quantile, Kolmogorov distance
# ---------------------------------------------------------------------------

def exact_tail(table: TailTable, x) -> np.ndarray | float:
    """log P(W_n >= x sigma_n), inclusive at atoms; -inf beyond the support."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    suffix = _suffix_logsum(table.logp)
    idx = np.searchsorted(table.offsets, _lattice_threshold(table, xs), side="left")
    out = np.where(idx < table.offsets.size,
                   suffix[np.minimum(idx, table.offsets.size - 1)], -np.inf)
    return out if np.ndim(x) else float(out[0])


def exact_lower_tail(table: TailTable, x) -> np.ndarray | float:
    """log P(W_n <= -x sigma_n), inclusive at atoms (mirror of exact_tail)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    prefix = _prefix_logsum(table.logp)
    idx = np.searchsorted(table.offsets, _lattice_threshold(table, -xs), side="right") - 1
    out = np.where(idx >= 0, prefix[np.maximum(idx, 0)], -np.inf)
    return out if np.ndim(x) else float(out[0])


def _lattice_threshold(table: TailTable, xs: np.ndarray) -> np.ndarray:
    """W_n = xs sigma_n in lattice numerator units.  A value within rounding
    of an integer is snapped to it, so an atom's own x hits the atom."""
    thr = (xs * table.sigma_n * np.sqrt(table.n) + table.center) * table.denom
    near = np.rint(thr)
    slack = SNAP_ULPS * np.spacing(np.maximum(np.abs(thr), abs(table.center * table.denom)))
    with np.errstate(invalid="ignore"):  # x = +-inf has no lattice neighbour
        return np.where(np.abs(thr - near) <= slack, near, thr)


def _suffix_logsum(logp: np.ndarray) -> np.ndarray:
    return np.logaddexp.accumulate(logp[::-1])[::-1]


def _prefix_logsum(logp: np.ndarray) -> np.ndarray:
    return np.logaddexp.accumulate(logp)


def quantile(table: TailTable, s) -> np.ndarray | float:
    """Left-continuous generalized inverse of the CDF of W_n / sigma_n."""
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any((ss <= 0.0) | (ss >= 1.0)):
        raise OutOfRange("quantile argument must lie strictly inside (0, 1)")
    cdf = table.cdf_points()
    idx = np.searchsorted(cdf, ss, side="left")
    out = table.what_values[np.minimum(idx, cdf.size - 1)]
    return out if np.ndim(s) else float(out[0])


def ks_distance_exact(table: TailTable) -> float:
    """sup_x |P(W_n <= x sigma_n) - Phi(x)|, evaluating both sides of every atom."""
    return _ks_sweep(table.what_values, table.cdf_points())


def _ks_sweep(atoms: np.ndarray, cdf: np.ndarray) -> float:
    """sup_x |F(x) - Phi(x)| for the step cdf F that reaches cdf[i] at the
    sorted atoms[i], checked on both sides of every jump."""
    phi = normal_cdf(atoms)
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(left - phi))))
