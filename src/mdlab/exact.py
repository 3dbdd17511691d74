"""Exact computations for finite lattice models.

Everything here is deterministic linear algebra on the chain: the
normalized-sum standard deviation, per-state conditional
block moments by one recursion on the first step (two mat-vecs with P per
step, which also gives the conditional-sum norms), and the law of S_n by one
forward DP over (state, lattice value) that steps only the sublattice
t min f_num + g Z the sums occupy, g = gcd(f_num - min f_num); one pass to the
largest n of a horizon grid marginalises at every n of the grid on its way.
The DP holds each column in linear space over its largest log-mass and logs the
table once a block of at most BLOCK_STEPS steps; where a term could underflow,
the block is one step and sums in log space.  It steps s (n + spread n (n - 1)
/ 2) cells; a pass `_sum_law_seconds` prices past the cap is refused at once.

The resulting TailTable is the brute-force oracle that every bound and every
Monte Carlo estimate in the package is checked against.

Single tails at large n come from `tilted_log_tail` instead: the generating
function of the law of the sublattice sum, tilted so that its mean sits at the
threshold, evaluated at M roots of unity by batched binary powering and
inverted by one aliased irfft on a window of M points, O(M s^3 log n) with M
about 20 tilted standard deviations.  Chernoff bounds hold its truncation
error to TAIL_RTOL of the tail, and standard floating-point bounds its
round-off; a tail whose round-off bound passes ROUNDOFF_RTOL (a lumpy tilted
law near the threshold) is read off the DP instead.

Both engines and the moment recursion are priced by `models._check_cost`
before they allocate or step.  `_grid_log_tails` alone picks how a tail is
computed, and reads every tail the DP answers for a grid off one pass.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, islice

import numpy as np
from scipy.special import gammaln

from .errors import (
    DegenerateVariance,
    MdlabError,
    ParamOutOfRange,
)
from .models import (SLAB_BYTES, FiniteLatticeModel, _affordable, _check_cost,
                     _dense_step_seconds, _require_count, _require_exact, _require_horizon,
                     _require_lattice_horizon, _sublattice)
from .normal import normal_cdf

MASS_TOL = 1e-10
SNAP_ULPS = 16  # rounding slack of a threshold against the integer lattice
TILT_REACH = 300.0  # largest |theta| * spread: a product of two e^-300 stays normal
TAIL_RTOL = 1e-13  # largest Chernoff bound on a tilted tail's relative truncation error
ROUNDOFF_RTOL = 1e-4  # largest bound on a tilted tail's relative round-off; past it the DP answers
TILT_EVALS = 7  # jet powers a tilted tail's Newton solves and Chernoff bounds take (median)
CSV_CHUNK = 4096  # rows `_csv_chunks` formats per block
DRAW_CHUNK = 1 << 16  # values a quantile transform inverts per step; coupled draws per seed
BLOCK_STEPS = 64  # most sum-law DP steps between two logs of the table
LIN_RANGE = 1000 * math.log(2.0)  # a block holds live masses in e^+-LIN_RANGE of their reference
TAIL_NATS = 750.0  # e^-750 underflows to 0.0: a log-term further below the largest adds nothing
VAR_RTOL = 1e-14  # a variance at most this share of gamma(0) = Var(X_0) (same units) is degenerate
BINOM_TERM_BYTES, BINOM_TERM_SECONDS = 20, 1e-7  # a summed binomial term (16 B, 30-40 ns measured)
_LAST_LAW = weakref.WeakKeyDictionary()  # model -> the last TailTable distribution_of_Sn built


def _csv_chunks(header: str, columns):
    """The header line, then blocks of CSV_CHUNK rows, each formatted when asked for: floats
    as %.17g (the bytes of f"{x:.17g}"), integers and bools as %d, None as blank cells."""
    cols = [None if c is None else (np.asarray(c), {}) for c in columns]
    yield header + "\n"
    for lo in range(0, len(next(c for c in cols if c is not None)[0]), CSV_CHUNK):
        cells = [(None, "") if c is None else _cells(c[0][lo:lo + CSV_CHUNK], c[1]) for c in cols]
        live = [v for v, _ in cells if v is not None]
        fmt = ",".join(f for _, f in cells) + "\n"
        yield fmt * len(live[0]) % tuple(chain.from_iterable(zip(*live)))


def _cells(block: np.ndarray, memo: dict) -> tuple[list, str]:
    """(values, cell format) of a block: a float block at most half distinct (by bits: -0.0 is
    not 0.0) becomes %.17g strings, kept in `memo` for later blocks until it passes CSV_CHUNK."""
    if block.dtype.kind != "f":
        return block.tolist(), "%d"
    bits, inv = np.unique(block.astype(float).view(np.int64), return_inverse=True)
    if 2 * bits.size > block.size:
        return block.tolist(), "%.17g"
    if len(memo) > CSV_CHUNK:
        memo.clear()
    new = [b for b in bits.tolist() if b not in memo]
    text = "%.17g," * len(new) % tuple(np.array(new, dtype=np.int64).view(float).tolist())
    memo.update(zip(new, text.split(",")))
    return np.array([memo[b] for b in bits.tolist()], dtype=object)[inv].tolist(), "%s"


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
        """Cumulative probabilities at the atoms, capped at 1 (the last snapped
        to 1), so they never decrease."""
        cdf = np.minimum(np.cumsum(self.probabilities()), 1.0)
        cdf[-1] = 1.0
        return cdf

    @cached_property
    def transform(self) -> "QuantileTransform":
        """The quantile transform of W_n / sigma_n, built once per table."""
        return QuantileTransform(self.what_values, self.cdf_points())


@dataclass(frozen=True)
class ConditionalMoments:
    """Per-state conditional first and second moments of a block sum."""

    m: int
    mean_by_state: np.ndarray
    second_by_state: np.ndarray

    @property
    def sup_mean(self) -> float:
        return float(np.max(np.abs(self.mean_by_state)))

    @property
    def var_by_state(self) -> np.ndarray:
        mean = self.mean_by_state
        return self.second_by_state - mean * mean

    def sup_second_dev(self, sigma_n: float) -> float:
        """Uniform deviation of the normalized conditional second moment from 1,
        measured against the ambient n's sigma_n."""
        return float(np.max(np.abs(self.second_by_state / (self.m * (sigma_n * sigma_n)) - 1.0)))


# ---------------------------------------------------------------------------
# covariances and sigma_n
# ---------------------------------------------------------------------------

def sigma_n(model: FiniteLatticeModel, n: int) -> float:
    """Standard deviation of W_n = S_n / sqrt(n): sigma_n^2 = gamma(0) + 2 pi(x v),
    v = sum_{k=1}^{n-1} (1 - k/n) A^k x = S x - x - T x / n with S = sum_{k<n} A^k
    and T = sum_{k<n} k A^k, by binary powering in O(s^3 log n).  A block of
    lags of length L carries (A^L, S_L x, T_L x); prepending it to (S x, T x)
    gives (S_L x + A^L S x, T_L x + A^L (T x + L S x)), and doubling is
    prepending it to itself, so only A^L is ever a matrix.  Once ||A^L||_inf <
    2^-60 with 2L <= n, (S_L x, T_L x) stands for (S x, T x): what it drops is
    A^L S_{n-L} x and A^L (T_{n-L} x + L S_{n-L} x) / n, below 2^-59 of v."""
    _require_exact(model)
    n = _require_horizon(n)
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
        if np.abs(power).sum(axis=1).max() < 2.0 ** -60:
            s_x, t_x = s_blk, t_blk
            break
        s_blk, t_blk = s_blk + power @ s_blk, t_blk + power @ (t_blk + length * s_blk)
        power = power @ power
        length *= 2
    v = s_x - x - t_x / n
    gamma0 = float(model.pi @ (x * x))
    var = gamma0 + 2.0 * float(model.pi @ (x * v))
    return float(np.sqrt(_variance(model, var, gamma0, f"sigma_n^2 at n = {n}")))


def sigma_any(model, n: int) -> float:
    """sigma_n for either tier: exact on the lattice; for a sampled model |a|^2 / n,
    a = sum_weights(n) the weights of S_n = sum_j a_j eps_j, which gains one entry
    sum(weights) a step past n = L = len(weights) - 1: n sigma_n^2 = |sum_weights(
    min(n, L))|^2 + max(0, n - L) sum(weights)^2, no BLAS, in units of 2^k ~ max |weight|;
    past n = 2^960 the sum and n are also in units of 2^j ~ n / 2^960, exactly, so n sigma_n^2
    stays finite up to HORIZON_MAX."""
    if getattr(model, "tier", None) == "exact":
        return sigma_n(model, n)
    n, burn = _require_horizon(n), model.burn_in  # burn_in is L
    w = math.ldexp(1.0, math.frexp(float(np.abs(model.weights).max()))[1] - 1)
    a, b = model.sum_weights(min(n, burn)) / w, model.weights / w
    total = float(np.cumsum(b[::-1])[-1])  # as sum_weights sums it
    j = max(0, n.bit_length() - 960)
    var = (math.ldexp(float(np.sum(a * a)), -j)
           + math.ldexp(max(0, n - burn), -j) * (total * total)) / math.ldexp(n, -j)
    return w * math.sqrt(_variance(model, var, float(np.sum(b * b)), f"sigma_n^2 at n = {n}"))


def _variance(model, var: float, gamma0: float, what: str) -> float:
    """var, unless it is not finite (ParamOutOfRange) or at most VAR_RTOL gamma0
    (DegenerateVariance)."""
    if not math.isfinite(var):
        raise ParamOutOfRange(f"{model.name}: {what} is {var!r}")
    if var <= VAR_RTOL * gamma0:
        raise DegenerateVariance(f"{model.name}: {what} is {var!r}, at most {VAR_RTOL} gamma(0) "
                                 f"= {gamma0!r}")
    return var


def poisson_solution(model: FiniteLatticeModel) -> np.ndarray:
    """h(s) = sum_{k>=1} E[X_k | Y_0 = s], by solving (I - P + 1 pi^T) h = P x."""
    _require_exact(model)
    p = model.transition
    x = model.x_values
    a = np.eye(model.n_states) - p + np.outer(np.ones(model.n_states), model.pi)
    return np.linalg.solve(a, p @ x)


def long_run_variance(model: FiniteLatticeModel) -> float:
    """sigma^2 = gamma(0) + 2 sum_{k>=1} gamma(k), in closed form."""
    h = poisson_solution(model)
    x = model.x_values
    gamma0 = float(model.pi @ (x * x))
    return _variance(model, gamma0 + 2.0 * float(model.pi @ (x * h)), gamma0, "long-run variance")


def conditional_sum_norms(model: FiniteLatticeModel, n_max: int) -> np.ndarray:
    """Uniform norms of the conditional sums: ||E[S_t | F_0]||_inf, t = 1..n_max."""
    _require_exact(model)
    n_max = _require_count(n_max, "n_max")
    return np.fromiter((np.abs(a).max() for a, _ in _block_moments(model, n_max)), float, n_max)


def _block_moments(model: FiniteLatticeModel, steps: int):
    """`_block_moment_steps` to t = steps, priced at two mat-vecs a step."""
    _check_cost(f"block moments to t = {steps}",
                secs=2 * steps * _dense_step_seconds(model.n_states))
    return islice(_block_moment_steps(model), steps)


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
    m = _require_count(m, "m")
    mean, second = next(islice(_block_moments(model, m), m - 1, None))
    return ConditionalMoments(m=m, mean_by_state=mean, second_by_state=second)


# ---------------------------------------------------------------------------
# distribution of S_n
# ---------------------------------------------------------------------------

def _sum_law_seconds(model: FiniteLatticeModel, n: int) -> float:
    """Estimated run time of the sum-law DP to n over its cols = n + spread n (n - 1)
    / 2 column-steps: its products at `_dense_step_seconds` a step of mean width
    cols / n, 1.6 ns a state per column-step for row copies, factors and exp/log, and
    where a transition's square is under 2^-960, 8 ns per s^2 column-step as if all
    summed in log space (1e-200 sent a quarter); fitted on a shared 2-core x86 host."""
    s, cols = model.n_states, n + _sublattice(model)[3] * n * (n - 1) // 2
    rare = model.transition[model.transition > 0].min() < 2.0 ** -480
    return n * _dense_step_seconds(s, cols / n) + s * cols * (1.6e-9 + (8e-9 * s if rare else 0.0))


def _admit_sum_law(model: FiniteLatticeModel, n: int) -> int:
    """n as a count, once a sum-law pass to n on the model is priced (`_check_cost`, its time
    by `_sum_law_seconds`) and its int64 numerators cannot wrap (`_require_lattice_horizon`)."""
    _require_exact(model)
    n = _require_count(n, "n")
    _, g, _, spread = _sublattice(model)
    s, width = model.n_states, n * spread + 1
    _check_cost("DP", s * width * (3 * 8 + 2) + 2 * width * 8, _sum_law_seconds(model, n),
                f"{s} states x {width} sublattice points of step {g}, 3 float and 2 flag buffers")
    _require_lattice_horizon(model, n)
    return n


def _sum_law_steps(model: FiniteLatticeModel, n: int):
    """Yield (k0, g, table, ref) for t = 1..n from a stationary start: logp[j, i] =
    log P(Y_t = j, S_t = (k0 + g i) / denom) is `table` where ref is None, else
    log(table) + ref; S_t lies on t min f_num + g Z, g = gcd(f_num - min f_num).
    Scaled forward algorithm (Rabiner 1989) in blocks of at most BLOCK_STEPS: a
    block holds exp(logp - ref), ref[c] the largest log-mass of column c at its
    start (carried right past empty columns and the edge); a step is one product
    with P^T and a copy of each row, shifted by its rise d and times phi_d[c] =
    exp(ref[c - d] - ref[c]); the last one logs the product.  A block ends before
    a live entry could leave e^+-LIN_RANGE; where a column has an entry under
    2^-960 / min P of its largest, it is one step and sums such columns in log
    space.  Entries set to 0 (-inf where ref is None) drop out.  Admitted and
    priced before the first step (`_admit_sum_law`)."""
    n = _admit_sum_law(model, n)
    p = model.transition
    xmin, g, rise, spread = _sublattice(model)
    s, width = model.n_states, n * spread + 1
    # three buffers, padded for a run's last skewed row: one joint buffer lifted peak RSS 5 %
    flat = [np.full(s * width + 2 * spread, -np.inf) for _ in range(3)]
    cur, nxt, spare = (b[:s * width].reshape(s, width) for b in flat)  # spare: factors, log sums
    runs = [(j0, j1, *(b[j0 * width + rise[j0]:][:(j1 - j0) * (width + q)].reshape(
        j1 - j0, width + q) for b in flat[::2])) for j0, j1, q in _rise_runs(rise)]
    low, live = (np.empty((s, width), dtype=bool) for _ in range(2))
    ref = np.empty(width)
    with np.errstate(divide="ignore"):
        log_t, cur[:, 0] = np.log(p), np.log(model.pi)
    min_p, p_t, empty = p[p > 0].min(), p.T, np.finfo(float).min
    log_floor = np.log(2.0 ** -960 / min_p)  # min P * exp(log_floor) = 2^-960
    grow, shrink = math.log(p.sum(axis=0).max()), -math.log(min_p)  # log bounds on a product
    rows, t = list(enumerate(rise.tolist())), 0
    while t < n:
        w = t * spread + 1
        table, top, flag = cur[:, :w], ref[:w], live[:, :w]
        np.maximum.reduce(table, axis=0, out=top, initial=empty)
        held = top > empty
        top[:] = top[np.maximum.accumulate(np.where(held, np.arange(w), held.argmax()))]
        table -= top
        log_low = np.min(table, where=np.greater(table, -np.inf, out=flag), initial=0.0)
        k, rare, acc = 1, slice(0), spare[:, :0]  # no column summed in log space
        if log_low < log_floor:  # columns past the floor: summed over source states in log space
            flag &= np.less(table, log_floor, out=low[:, :w])
            rare = np.flatnonzero(flag.any(axis=0))
            acc = spare[:, :rare.size]
            acc.fill(-np.inf)
            for i in range(s):
                np.logaddexp(acc, log_t[i, :, None] + (table[i, rare] + top[rare]), out=acc)
        else:  # each row's factors, and the most steps that keep entries in range
            end = min(w + BLOCK_STEPS * spread, width)
            ref[w:end] = top[-1]
            up = down = 0.0
            for j, d in rows:
                lag = np.subtract(ref[:end - d], ref[d:end], out=spare[j, d:end])
                up, down = max(up, lag.max()), max(down, -lag.min())
                np.exp(lag, out=lag)
            room = min((LIN_RANGE - grow) / max(grow + up, 1e-9),
                       (LIN_RANGE + log_low - shrink) / max(shrink + down, 1e-9))
            k += min(BLOCK_STEPS - 1, int(room))
        np.exp(table, out=table)
        cur[:, w:min(w + k * spread, width)] = 0.0
        for step in range(min(k, n - t)):
            t += 1
            w, last = (t - 1) * spread + 1, step == k - 1
            prod, blank = nxt[:, :w], -np.inf if last else 0.0
            np.matmul(p_t, cur[:, :w], out=prod)
            if last:
                with np.errstate(divide="ignore"):  # held across a yield, it would leak
                    np.log(prod, out=prod)
                prod += ref[:w]
                prod[:, rare] = acc
            cur[:, :spread] = cur[:, w:w + spread] = blank
            for j0, j1, row, factor in runs:  # row[j - j0, i] is cur[j, rise[j] + i]
                np.multiply(prod[j0:j1], 1.0 if last else factor[:, :w], out=row[:, :w])
            yield t * xmin, g, cur[:, :w + spread], None if last else ref[:w + spread]


def _rise_runs(rise: np.ndarray) -> list[tuple[int, int, int]]:
    """The states cut, in order, into runs [j0, j1) whose rises step by one q,
    a cut before each state whose step differs from the one before it: the DP
    writes each run's rows through one view of row stride width + q."""
    cuts = [0, *(np.flatnonzero(np.diff(rise, 2)) + 2).tolist(), rise.size]
    return [(j0, j1, int(rise[min(j0 + 1, j1 - 1)] - rise[j0])) for j0, j1 in zip(cuts, cuts[1:])]


def distribution_of_Sn(model: FiniteLatticeModel, n: int) -> TailTable:
    """Exact law of S_n from a stationary start: the sum-law DP, marginalised.  Each model
    keeps the last table built for it, released with the model; a call at that n, admitted
    and priced as any other, returns the same read-only table."""
    n = _admit_sum_law(model, n)
    table = _LAST_LAW.get(model)
    if table is None or table.n != n:
        table = _LAST_LAW[model] = _sum_law_tables(model, [n])[0]
    return table


def _sum_law_tables(model: FiniteLatticeModel, ns: list[int]) -> list[TailTable]:
    """The laws of S_n for every n in ns (order and repeats kept), read off one
    sum-law pass to max(ns) by marginalising over the state at each wanted t."""
    want, tables = set(ns), {}
    for t, (k0, g, table, ref) in enumerate(_sum_law_steps(model, max(ns)), start=1):
        if t not in want:
            continue
        with np.errstate(divide="ignore"):  # an empty column's log is -inf
            marg = (np.logaddexp.reduce(table, axis=0) if ref is None
                    else np.log(table.sum(axis=0)) + ref)
        keep = np.flatnonzero(marg > -np.inf)
        total = float(np.logaddexp.reduce(marg[keep]))
        if abs(total) > MASS_TOL:
            raise MdlabError(f"DP mass check failed: log total mass {total!r}")
        offsets, logp = k0 + g * keep, marg[keep]
        offsets.flags.writeable = logp.flags.writeable = False  # shared by distribution_of_Sn
        tables[t] = TailTable(n=t, denom=model.denom, offsets=offsets, logp=logp,
                              sigma_n=sigma_n(model, t), center=float(t * model.mean_fraction))
    return [tables[n] for n in ns]


def _max_abs_tail(model: FiniteLatticeModel, n: int, x: float) -> float:
    """P(max_{1<=i<=n} |S_i| >= x): mass leaves the DP once its centred S_i is at or
    past -x or x, its integer numerator against the two bounds snapped at step i."""
    hit = 0.0
    for i, (k0, g, table, ref) in enumerate(_sum_law_steps(model, n), start=1):
        lo, hi = _lattice_numerator(np.array([-x, x]), float(i * model.mean_fraction), model.denom)
        num = k0 + g * np.arange(table.shape[1])
        crossed = (num <= lo) | (num >= hi)
        part = table[:, crossed]
        hit += float((np.exp(part) if ref is None else part * np.exp(ref[crossed])).sum())
        table[:, crossed] = -np.inf if ref is None else 0.0
    return hit


# ---------------------------------------------------------------------------
# tails at large n: the tilted generating function, inverted by an aliased FFT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TiltPlan:
    """P(K_n >= k) from q_j = P(K_n = j) e^{theta j} on a window of `size`
    lattice points, for P(S_n >= threshold) of the model; log_norm = log E
    e^{theta K_n}.  `flip`: K_n sums spread - rise, and the tail asked for is
    the complement of this one."""

    model: FiniteLatticeModel
    rise: np.ndarray
    n: int
    k: int
    theta: float
    log_norm: float
    size: int
    flip: bool

    @property
    def top(self) -> int:
        return self.n * int(self.rise.max())

    @property
    def window(self) -> tuple[int, int]:
        """[lo, hi): `size` lattice points from k - size/2, inside [0, top] if they fit."""
        lo = max(0, min(self.k - self.size // 2, self.top + 1 - self.size))
        return lo, lo + self.size

    @property
    def seconds(self) -> float:
        """Estimated run time per bit of n: the transform by its own fit (a batched
        complex s x s squaring, not a real P @ B), per frequency 0.25 ns per s^3 and
        0.8 us besides; and TILT_EVALS jet powers for its tilts and Chernoff bounds,
        each a (3s, 3s) dense step (`_dense_step_seconds`)."""
        s, bits = self.rise.size, max(1, (self.n - 1).bit_length())
        return bits * ((self.size // 2 + 1) * (2.5e-10 * (s * s * s) + 8e-7)
                       + TILT_EVALS * _dense_step_seconds(3 * s, 3 * s))

    @cached_property
    def log_outside(self) -> float:
        """log of a Chernoff bound on 2 U + L, U the tilted mass at or past the
        window's end hi (missed by the tail and aliased into it) and L the mass
        below its start lo (aliased in): sum_{j >= a} q_j <= e^{-(phi - theta) a}
        E e^{phi K_n} / E e^{theta K_n} for any phi >= theta, mirrored below;
        phi is the tilt whose mean is at a."""
        lo, hi = self.window
        terms = []
        for edge, weight, side in ((hi, 2.0, max), (lo - 1, 1.0, min)):
            if 0 <= edge <= self.top:
                phi, log_mgf, _ = _solve_tilt(self.moments(edge), self.theta,
                                              TILT_REACH / int(self.rise.max()))
                if side(phi, self.theta) != phi:
                    phi, log_mgf = self.theta, self.moments(edge)(self.theta)[0]
                terms.append(math.log(weight) + log_mgf - self.log_norm + self.theta * edge)
        return float(np.logaddexp.reduce(terms)) if terms else -math.inf

    def moments(self, a: int):
        """phi -> (log E e^{phi (K_n - a)}, E_phi K_n - a, Var_phi K_n)."""
        m = self.model
        return lambda phi: _tilt_moments(m.transition, m.pi, self.rise, self.n, phi, a / self.n)

    @property
    def slab(self) -> int:
        """Frequencies powered together: their two complex (slab, s, s) stacks
        hold about SLAB_BYTES."""
        return max(1, SLAB_BYTES // (2 * 16 * self.rise.size * self.rise.size))

    @property
    def need_bytes(self) -> int:
        """A slab's two complex stacks, and the M/2 + 1 complex sums, the M
        readings and the window's arrays, 48 bytes a point in all."""
        return 2 * 16 * self.slab * self.rise.size * self.rise.size + 48 * self.size

    @property
    def affordable(self) -> bool:
        return _affordable(self.need_bytes, self.seconds)


def tilted_log_tail(model: FiniteLatticeModel, n: int, threshold: float) -> tuple[float, float]:
    """log P(S_n >= threshold) for the centred sum S_n (inclusive at atoms, as
    exact_tail), and a bound on the relative error of P: its truncation, at
    most TAIL_RTOL, plus its round-off, at most ROUNDOFF_RTOL.

    S_n = n xmin + g K_n on the sublattice of the DP.  The tilted law q_j =
    P(K_n = j) e^{theta j} / E e^{theta K_n} has generating function
    pi^T (P D(e^theta z))^n 1 / E e^{theta K_n}, D(z) = diag(z^rise) (Dembo &
    Zeitouni, Large Deviations Techniques and Applications, 3.1).  theta puts
    its mean at the threshold, by Newton's method on the exact n-step moments
    (a jet of P D and its first two derivatives, raised like the transform's
    powers, TILT_EVALS of them priced in the plan).  The function is evaluated
    at the M/2 + 1 rfft frequencies by binary powering, in slabs of about
    SLAB_BYTES, and one irfft of length M gives q modulo M, read on a window
    of M points from the threshold down and up.  Chernoff bounds on the tilted
    mass outside the window (aliased in, or missed by the tail) bound the
    truncation, and M doubles until it is at most TAIL_RTOL of the tail.  The
    round-off bound grows like n s eps times the tilted sd: about 1e-11 at
    n = 64 and 4e-6 at n = 10^6 on two states, where the error against the
    DP is nearer 1e-14.  The work is O(M s^3 log n) with M about 20 tilted
    standard deviations: n = 10^6 on two states takes under a tenth of a
    second.  A threshold past the top atom is -inf at once, and BudgetExceeded
    is raised before a plan that is not `affordable` allocates.  A tail whose
    round-off bound passes ROUNDOFF_RTOL is read off the DP by `_grid_log_tails`.
    """
    (log_p,), bound = _grid_log_tails(model, [n], [threshold], transform=True)
    return log_p, float(bound[0])


def _grid_log_tails(model: FiniteLatticeModel, ns: list[int], thresholds: list[float],
                    transform: bool = False) -> tuple[list[float], np.ndarray]:
    """log P(S_n >= threshold) for each n of ns and its threshold (centred S_n,
    inclusive at atoms), and bounds on their relative errors: by the binomial
    closed form for i.i.d. fair signs; else by the tilted transform if
    `transform` is set or every plan is `affordable` and their seconds sum
    below `_sum_law_seconds` to max(ns); else by one sum-law pass, which also
    serves every tail the transform hands back (bounds 0), and may refuse.
    Plans are made from the largest n down, and none after the first that is
    not affordable."""
    if not ns:
        return [], np.zeros(0)
    _require_exact(model)
    ns = [_require_count(n, "n") for n in ns]
    rows, x = model.transition, model.x_values
    if (not transform and sorted(x.tolist()) == [-1.0, 1.0] and np.all(rows == rows[0])
            and np.allclose(model.pi, 0.5)):  # i.i.d. fair signs
        return [_binomial_log_tail(n, t) for n, t in zip(ns, thresholds)], np.zeros(len(ns))
    plans = [None] * len(ns)
    for i in sorted(range(len(ns)), key=lambda i: -ns[i]):  # the dearest floor first
        plans[i] = plan = _tilt_plan(model, ns[i], thresholds[i])
        if not (transform or isinstance(plan, float) or plan.affordable):
            break  # the DP answers every tail, or refuses
    tilted = [p for p in plans if isinstance(p, _TiltPlan)]
    runs = [None] * len(ns)
    if transform or (None not in plans and all(p.affordable for p in tilted)
                     and sum(p.seconds for p in tilted) < _sum_law_seconds(model, max(ns))):
        runs = [_tilt_run(p) for p in plans]
    left = [i for i, run in enumerate(runs) if run is None]
    if left:
        for i, tb in zip(left, _sum_law_tables(model, [ns[i] for i in left])):
            runs[i] = float(_sum_log_tail(tb, thresholds[i])), 0.0
    logp, bound = zip(*runs)
    return list(logp), np.array(bound)


def _binomial_log_tail(n: int, t: float) -> float:
    """log P(S_n >= t) for S_n a sum of n i.i.d. fair signs, inclusive at atoms:
    S_n = 2 K - n, K binomial, whose threshold is t / 2 centred by n / 2 on denom 1.  Only
    terms within TAIL_NATS of their peak, at max(k0, n // 2), are summed (the rest add exactly
    0.0), once horizon n's widest window, 2 j + 1 terms with j = 375 + sqrt(375 (n + 375))
    as log C(n, n/2 + j) / C(n, n/2) <= -j^2 / (n/2 + j), is priced."""
    k0 = max(0, math.ceil(_lattice_numerator(t / 2.0, n / 2.0, 1)))
    if k0 > n:
        return -math.inf
    terms = min(n + 1, 2 * (376 + math.isqrt(375 * (n + 375))) + 1)
    _check_cost(f"binomial tail at n = {n}", terms * BINOM_TERM_BYTES,
                terms * BINOM_TERM_SECONDS, f"a window of {terms} terms")
    c, log_term = max(k0, n // 2), lambda k: (gammaln(n + 1) - gammaln(k + 1)
                                               - gammaln(n - k + 1) - n * math.log(2.0))
    floor, ends = log_term(c) - TAIL_NATS, []
    for end in (k0, n):  # bisection: the k furthest from c toward end whose term clears floor
        near, far = c, end + (1 if end >= c else -1)
        while abs(far - near) > 1:
            mid = (near + far) // 2
            near, far = (mid, far) if log_term(mid) >= floor else (near, mid)
        ends.append(near)
    # log-terms in two buffers (k + 1, n - k + 1), then scipy 1.17 logsumexp's steps in place
    logs = np.arange(ends[0] + 1, ends[1] + 2, dtype=float)
    rest = np.subtract(n + 2, logs)
    np.subtract(gammaln(n + 1), gammaln(logs, out=logs), out=logs)
    logs -= gammaln(rest, out=rest)
    del rest
    logs -= n * math.log(2.0)
    hit = logs == (top := logs.max())
    m = np.float64(np.count_nonzero(hit))
    logs[hit] = -np.inf
    s = np.exp(np.subtract(logs, top, out=logs), out=logs).sum()
    return float(np.log1p(s if s == 0 else s / m) + np.log(m) + top)


def _tilt_plan(model: FiniteLatticeModel, n: int, threshold: float) -> _TiltPlan | float:
    """The plan of tilted_log_tail, or the log tail itself (0 or -inf) when the
    threshold lies at or below the lowest sum or past the highest.  Its size is
    the first power of two whose window the Chernoff bounds clear against a
    guess of the tail, or the first that is not `affordable`; a plan's cost
    grows with its size, so when the smallest, 16 points, is not affordable,
    that plan is returned before any powering; `_top_sum` is asked only when no
    state of the top rise loops (one that does reaches n spread alone)."""
    xmin, g, rise, spread = _sublattice(model)
    thr = _lattice_numerator(threshold, float(n * model.mean_fraction), model.denom) - n * xmin
    top = n * spread
    if thr > top * g:
        return -math.inf
    if thr <= 0:
        return 0.0
    k = -int(-thr // g) if thr == int(thr) else math.ceil(thr / g)
    p = model.transition
    flip = k < n * float(model.pi @ rise)  # below the mean: the complement is the small tail
    if flip:
        rise, k = spread - rise, top - k + 1
    floor = _TiltPlan(model, rise, n, k, math.nan, math.nan, 16, flip)
    if not floor.affordable:  # no larger plan is either
        return floor
    if not (np.diag(p)[rise == spread] > 0).any() and k > _top_sum(p, rise, n):  # k unreached
        return 0.0 if flip else -math.inf
    theta, log_norm, sd = _solve_tilt(floor.moments(k), 0.0, TILT_REACH / spread)
    log_norm += theta * k  # log E e^{theta K_n}
    # a guess of the tilted tail: half the mass, or the peak over 1 - e^-theta
    log_guess = -math.log(2.0 * max(1.0, math.sqrt(2 * math.pi) * sd * -math.expm1(-theta)))
    size = 1 << (max(16, math.ceil(16 * sd)) - 1).bit_length()  # about +-8 sd
    while True:
        plan = _TiltPlan(model, rise, n, k, theta, log_norm, size, flip)
        if (size > top or not plan.affordable
                or plan.log_outside <= math.log(TAIL_RTOL / 2) + log_guess):
            return plan
        size *= 2


def _tilt_run(plan: _TiltPlan | float) -> tuple[float, float] | None:
    """Carry out a plan: (log tail, bound on its relative error), the bound
    being the Chernoff bound on the truncation, at most TAIL_RTOL, plus the
    round-off bound of _window_tail; None for a tail whose round-off bound
    passes ROUNDOFF_RTOL, which the transform cannot resolve."""
    if not isinstance(plan, _TiltPlan):
        return plan, 0.0
    while True:
        _check_cost(f"tilted transform of {plan.size} points on {plan.rise.size} states",
                    plan.need_bytes, plan.seconds)
        log_p, log_share, roundoff = _window_tail(plan)
        if roundoff > ROUNDOFF_RTOL:
            return None
        cut = math.exp(plan.log_outside - log_share) if plan.size <= plan.top else 0.0
        if cut <= TAIL_RTOL:
            break
        plan = replace(plan, size=2 * plan.size)
    bound = cut + roundoff
    if not plan.flip:
        return log_p, bound
    # P(K >= k) = 1 - P(K' >= top - k + 1): the error of the complement is absolute
    return math.log1p(-math.exp(log_p)), bound * -math.exp(log_p) / math.expm1(log_p)


def _window_tail(plan: _TiltPlan) -> tuple[float, float, float]:
    """(log P(K_n >= k), log of the tail's share T / sum q of the tilted law,
    bound on the relative round-off of P).  q_j = P(K_n = j) e^{theta j} up
    to a tracked factor is read off one irfft of the generating function at
    the M/2 + 1 frequencies z_f = e^{-2 pi i f / M}, and T = sum q_j
    e^{-theta (j - k)} over k <= j < hi.  Round-off, by the standard bounds
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.5 and 24.1):
    the n factors of each power, their products and rescalings carry at most
    g = sqrt(2) (s + 4) eps each, so |error of G(z_f)| <= ((1 + g)^m - 1) G(1)
    with m = n + 2 log2 n + 2, and the irfft adds 5 log2(M) eps G(1) to every
    reading; the weights and sums add (log2 M + 4 + theta (hi - k)) eps, and
    assembling the log adds eps (2 log2 n + 4) times its terms' magnitudes."""
    size, rise, n = plan.size, plan.rise, plan.n
    a, c = _tilted(plan.model.transition, rise, plan.theta)
    sums, tops = np.empty(size // 2 + 1, dtype=complex), []
    for f in range(0, sums.size, plan.slab):
        fs = np.arange(f, min(f + plan.slab, sums.size))
        phase = np.exp(-2j * np.pi / size * (np.outer(fs, rise) % size))
        rows, log_scale = _power_sums(a[None] * phase[:, None, :], plan.model.pi, n, tops)
        sums[fs] = rows.sum(axis=1)
    q, mass = np.fft.irfft(sums, size), float(sums[0].real)
    ks = np.arange(plan.k, min(plan.window[1], plan.top + 1))
    v, w = q[ks % size], np.exp(-plan.theta * (ks - plan.k))
    t = float(v @ w)
    if not t > 0:  # round-off swamps the tail
        return -math.inf, -math.inf, math.inf
    eps, bits = np.finfo(float).eps, n.bit_length()
    steps = n + 2 * bits + 2
    per_reading = (math.expm1(steps * math.log1p(math.sqrt(2) * (rise.size + 4) * eps))
                   + 5 * math.log2(size) * eps) * mass
    sums_err = (math.log2(size) + 4 + abs(plan.theta) * ks.size) * eps * float(np.abs(v) @ w)
    parts = (math.log(t), log_scale, n * c, plan.theta * plan.k)
    log_err = (2 * bits + 4) * eps * sum(map(abs, parts))
    return (parts[0] + parts[1] + parts[2] - parts[3], math.log(t / mass),
            (per_reading * float(w.sum()) + sums_err) / t + log_err)


def _top_sum(p: np.ndarray, rise: np.ndarray, n: int) -> int:
    """The largest K_n along a path of positive probability: max-plus binary
    powering of w[i, j] = rise[j] where P[i, j] > 0."""
    w = np.where(p > 0, rise.astype(float), -np.inf)
    best = np.zeros(rise.size)  # every state has a stationary start
    rows = max(1, SLAB_BYTES // (8 * rise.size * rise.size))  # a squaring block of about SLAB_BYTES
    while True:
        if n & 1:
            best = np.max(best[:, None] + w, axis=0)
        n >>= 1
        if not n:
            return int(best.max())
        w = np.concatenate([np.max(w[i:i + rows, :, None] + w, axis=1)
                            for i in range(0, rise.size, rows)])


def _tilted(p: np.ndarray, d: np.ndarray, phi: float) -> tuple[np.ndarray, float]:
    """(P diag(e^{phi d - c}), c) with c = max(phi d): entries at most 1."""
    c = float(np.max(phi * d))
    return p * np.exp(phi * d - c), c


def _tilt_moments(p: np.ndarray, pi: np.ndarray, rise: np.ndarray, n: int, phi: float,
                  t: float) -> tuple[float, float, float]:
    """(log E e^{phi (K_n - n t)}, E_phi K_n - n t, Var_phi K_n) under the tilt
    of the law of K_n, exactly: X = P diag(e^{phi d}), d = rise - t, carries
    its first two derivatives in phi, X d and X d^2, in the jet J(X) = [[X, X d,
    X d^2], [0, X, 2 X d], [0, 0, X]], and J(A) J(B) = J(AB) by the product
    rule; so `_power_sums` raises it from [pi, 0, 0], and the three blocks of
    that row sum to E e^{phi (K_n - n t)} and its two derivatives."""
    d = rise - t
    x, c = _tilted(p, d, phi)
    o = np.zeros_like(x)
    jet = np.block([[x, x * d, x * d * d], [o, x, 2.0 * x * d], [o, o, x]])
    (row,), log_scale = _power_sums(jet[None], np.concatenate([pi, 0 * pi, 0 * pi]), n, [])
    m0, m1, m2 = row.reshape(3, -1).sum(axis=1).tolist()
    mean = m1 / m0
    return math.log(m0) + log_scale + n * c, mean, m2 / m0 - mean * mean


def _solve_tilt(moments, phi: float, reach: float) -> tuple[float, float, float]:
    """(phi, log norm, sd) where moments(phi) = (log norm, f, f') and f, the
    tilted mean less its target, is within a quarter of the tilted standard
    deviation of 0: Newton's method from phi, safeguarded by bisection on
    [-reach, reach].  A target no tilt in range reaches gives the nearer end."""
    lo, hi = -reach, reach
    ends = {lo, hi}  # not yet evaluated
    for _ in range(100):
        log_norm, f, var = moments(phi)
        ends.discard(phi)
        sd = math.sqrt(max(var, 0.0))
        if f < 0:
            lo = phi
        else:
            hi = phi
        if abs(f) <= 0.25 * sd or hi <= lo:
            break
        step = phi - f / var if var > 0 else math.nan
        if not lo < step < hi:
            end = hi if f < 0 else lo
            step = end if end in ends else 0.5 * (lo + hi)
        last, phi = phi, step
    else:
        phi = last  # the tilt the returned moments belong to
    return phi, log_norm, sd


def _power_sums(stack: np.ndarray, start: np.ndarray, n: int, tops: list[float]
                ) -> tuple[np.ndarray, float]:
    """The rows start^T stack[f]^n for every f, over a common factor e^{log_scale}
    returned with them, by binary powering in place (stack is consumed).
    Entries are rescaled by the largest of the z = 1 matrix's powers, which
    bound every other frequency's entrywise: an empty `tops` is the first slab,
    whose stack[0] is that matrix, and is filled with the divisors it uses;
    later slabs reuse them, so that slabs of one transform share one scale."""
    x, spare = stack, np.empty_like(stack)
    u = np.repeat(start[None].astype(stack.dtype), stack.shape[0], axis=0)
    divisors = iter(tops) if tops else None
    log_scale = log_x = 0.0

    def rescale(v: np.ndarray) -> float:
        top = next(divisors) if divisors else float(np.abs(v[0]).max())
        if not divisors:
            tops.append(top)
        v /= top
        return math.log(top)

    while True:
        if n & 1:
            u = np.matmul(u[:, None, :], x)[:, 0, :]
            log_scale += log_x + rescale(u)
        n >>= 1
        if not n:
            return u, log_scale
        np.matmul(x, x, out=spare)
        x, spare = spare, x
        log_x = 2.0 * log_x + rescale(x)


# ---------------------------------------------------------------------------
# tail, quantile, Kolmogorov distance
# ---------------------------------------------------------------------------

def exact_tail(table: TailTable, x) -> np.ndarray | float:
    """log P(W_n >= x sigma_n), inclusive at atoms; -inf beyond the support."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = _sum_log_tail(table, xs * table.sigma_n * np.sqrt(table.n))
    return out if np.ndim(x) else float(out[0])


def _sum_log_tail(table: TailTable, thresholds):
    """log P(S_n >= t) of the centred S_n at each threshold t, inclusive at atoms."""
    k = _lattice_numerator(thresholds, table.center, table.denom)
    return np.append(_suffix_logsum(table.logp), -np.inf)[table.offsets.searchsorted(k)]


def exact_lower_tail(table: TailTable, x) -> np.ndarray | float:
    """log P(W_n <= -x sigma_n), inclusive at atoms (mirror of exact_tail)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    k = _lattice_numerator(-xs * table.sigma_n * np.sqrt(table.n), table.center, table.denom)
    out = np.append(-np.inf, _prefix_logsum(table.logp))[table.offsets.searchsorted(k, "right")]
    return out if np.ndim(x) else float(out[0])


def _lattice_numerator(threshold, center: float, denom: int):
    """Where a threshold of the centred S_n lands on the lattice: (threshold + center)
    denom, snapped to an integer within SNAP_ULPS ulps of it or of center denom, so an
    atom's own threshold hits the atom; a float for a scalar, NaN ParamOutOfRange."""
    thr = (np.asarray(threshold, dtype=float) + center) * denom
    if np.isnan(thr).any():
        raise ParamOutOfRange("tail thresholds must not be nan")
    near = np.rint(thr)
    slack = SNAP_ULPS * np.spacing(np.maximum(np.abs(thr), abs(center * denom)))
    with np.errstate(invalid="ignore"):  # a threshold of +-inf has no lattice neighbour
        out = np.where(np.abs(thr - near) <= slack, near, thr)
    return out if np.ndim(threshold) else float(out)


def _suffix_logsum(logp: np.ndarray) -> np.ndarray:
    return np.logaddexp.accumulate(logp[::-1])[::-1]


def _prefix_logsum(logp: np.ndarray) -> np.ndarray:
    return np.logaddexp.accumulate(logp)


def quantile(table: TailTable, s) -> np.ndarray | float:
    """Left-continuous generalized inverse of the CDF of W_n / sigma_n."""
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.isnan(ss)):
        raise ParamOutOfRange("quantile arguments must not be nan")
    if np.any((ss <= 0.0) | (ss >= 1.0)):
        raise ParamOutOfRange("quantile argument must lie strictly inside (0, 1)")
    return table.transform(ss if np.ndim(s) else ss[0])


class QuantileTransform:
    """Left-continuous generalized inverse s -> inf{atoms[i] : cum[i] >= s} of
    a discrete CDF with non-decreasing cum (the last atom past cum[-1]),
    callable on arrays of s in [0, 1].

    A table of B = 2^k buckets, 2 to 4 per atom within [2^10, 2^20], holds
    edges[b] = #{cum < b / B}; the answer for s in bucket b = floor(s B) lies
    in [edges[b], edges[b + 1]].  One probe of cum settles a bucket with at
    most one breakpoint, and np.searchsorted the few crowded ones, DRAW_CHUNK
    values of s at a time."""

    def __init__(self, atoms: np.ndarray, cum: np.ndarray):
        self.atoms = np.asarray(atoms, dtype=float)
        self.cum = np.asarray(cum, dtype=float)
        self._buckets = 1 << min(max((4 * self.cum.size).bit_length() - 1, 10), 20)
        # cum < b / B iff floor(cum B) < b, exactly since B is a power of two,
        # so edges is a running count; s = 1 is bucket B, which ends the table
        slot = np.clip(np.floor(self.cum * self._buckets), -1, self._buckets).astype(np.intp)
        edges = np.cumsum(np.bincount(slot + 1, minlength=self._buckets + 1)[:self._buckets + 1])
        self._edges = np.append(edges, edges[-1])
        self._crowded = np.diff(self._edges) > 1
        self._cum = np.append(self.cum, np.inf)  # index cum.size answers s past cum[-1]
        self._atoms = np.append(self.atoms, self.atoms[-1])

    def __call__(self, s):
        ss = np.asarray(s, dtype=float)
        if ss.size and not (ss.min() >= 0.0 and ss.max() <= 1.0):  # nan fails both
            raise ParamOutOfRange(f"quantile arguments must lie in [0, 1], "
                                  f"got values in [{ss.min()!r}, {ss.max()!r}]")
        flat, out = ss.ravel(), np.empty(ss.size)
        for lo in range(0, flat.size, DRAW_CHUNK):
            out[lo:lo + DRAW_CHUNK] = self._inverse(flat[lo:lo + DRAW_CHUNK])
        return out.reshape(ss.shape) if np.ndim(s) else float(out[0])

    def _inverse(self, s: np.ndarray) -> np.ndarray:
        bucket = (s * self._buckets).astype(np.intp)  # exact: B is a power of two
        idx = self._edges[bucket]
        crowd = np.flatnonzero(self._crowded[bucket])
        idx += self._cum[idx] < s  # a probe past edges[b] still bounds the answer below
        idx[crowd] = np.searchsorted(self.cum, s[crowd], side="left")
        return self._atoms[idx]


def ks_distance_exact(table: TailTable) -> float:
    """sup_x |P(W_n <= x sigma_n) - Phi(x)|, evaluating both sides of every atom."""
    return _ks_sweep(table.transform.atoms, table.transform.cum)


def _ks_sweep(atoms: np.ndarray, cdf: np.ndarray) -> float:
    """sup_x |F(x) - Phi(x)| for the step cdf F that reaches cdf[i] at the
    sorted atoms[i], checked on both sides of every jump."""
    phi = normal_cdf(atoms)
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(left - phi))))
