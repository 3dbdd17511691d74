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
by its maximum, summing in log space where a term could underflow.  It costs
s^2 (n + spread n (n - 1) / 2) cell updates; a run estimated past WORK_CAP_S
(`_sum_law_seconds`) is refused before its first step.

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

Both engines check the module constants DEFAULT_BUDGET_BYTES and WORK_CAP_S
before allocating.  `_grid_log_tails` alone picks how a tail is computed, and
reads every tail the DP answers for a grid off one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, islice

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import (
    BudgetExceeded,
    DegenerateVariance,
    MdlabError,
    OutOfRange,
    ParamOutOfRange,
)
from .models import (DEFAULT_BUDGET_BYTES, SLAB_BYTES, FiniteLatticeModel, _require_count,
                     _require_exact, _sublattice)
from .normal import normal_cdf

MASS_TOL = 1e-10
SNAP_ULPS = 16  # rounding slack of a threshold against the integer lattice
WORK_CAP_S = 60.0  # either route to a law or tail refuses an estimated run past this
TILT_REACH = 300.0  # largest |theta| * spread: a product of two e^-300 stays normal
TAIL_RTOL = 1e-13  # largest Chernoff bound on a tilted tail's relative truncation error
ROUNDOFF_RTOL = 1e-4  # largest bound on a tilted tail's relative round-off; past it the DP answers
TILT_S = 1e-3  # estimated seconds of a tilted tail's tilts and Chernoff bounds
CSV_CHUNK = 4096  # rows `_csv` formats per step


def _csv(header: str, columns) -> str:
    """The header, then one line per row: float columns as %.17g (the bytes of
    f"{x:.17g}"), integer and bool columns as %d, None as blank cells.  Rows
    are formatted CSV_CHUNK at a time, so no full-length list is ever built."""
    cols = [None if c is None else _cells(np.asarray(c)) for c in columns]
    live = [c[0] for c in cols if c is not None]
    fmt = ",".join("" if c is None else c[1] for c in cols) + "\n"
    parts = [header + "\n"]
    for lo in range(0, len(live[0]), CSV_CHUNK):
        chunk = [c[lo:lo + CSV_CHUNK].tolist() for c in live]
        parts.append(fmt * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))
    return "".join(parts)


def _cells(col: np.ndarray) -> tuple[np.ndarray, str]:
    """(column, cell format) for _csv: a float column with at most half its values
    distinct (by bits: -0.0 is not 0.0) becomes %.17g strings, one format each."""
    if col.dtype.kind != "f":
        return col, "%d"
    bits, inv = np.unique(col.astype(float).view(np.int64), return_inverse=True)
    if 2 * bits.size > col.size:
        return col, "%.17g"
    text = ("%.17g," * bits.size % tuple(bits.view(float).tolist())).split(",")[:-1]
    return np.array(text, dtype=object)[inv], "%s"


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

    def to_csv(self) -> str:
        return _csv("sum,logp", [self.offsets, self.logp])


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
    k = _require_count(k, "lag", 0)
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
    n = _require_count(n, "n")
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
    n_max = _require_count(n_max, "n_max")
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
    m = _require_count(m, "m")
    mean, second = next(islice(_block_moment_steps(model), m - 1, None))
    return ConditionalMoments(m=m, mean_by_state=mean, second_by_state=second)


# ---------------------------------------------------------------------------
# distribution of S_n
# ---------------------------------------------------------------------------

def _sum_law_seconds(model: FiniteLatticeModel, n: int) -> float:
    """Estimated run time of the sum-law DP to n, fitted to timings on a shared
    2-core x86 host (two_state, dyadic L=3, 5, 6): per sublattice column and
    step, 0.07 ns per s^2 term of its mixing and 14 ns per state for its
    shifts, exp and log; 25 us per step besides.  A chain with a transition
    whose square is under 2^-960 may sum columns in log space: every column is
    charged 15 ns per s^2 term for it (transitions of 1e-200 sent a quarter)."""
    s, cols = model.n_states, n + _sublattice(model)[3] * n * (n - 1) // 2
    rare = model.transition[model.transition > 0].min() < 2.0 ** -480
    return 7e-11 * cols * s * (s + 200) + 2.5e-5 * n + (1.5e-8 * cols * s * s if rare else 0.0)


def _sum_law_steps(model: FiniteLatticeModel, n: int):
    """Yield (k0, g, logp) for t = 1..n from a stationary start, logp[j, i] =
    log P(Y_t = j, S_t = (k0 + g i) / denom) on the live window.  S_t lies on
    the sublattice t min f_num + g Z, g = gcd(f_num - min f_num), so only its
    points are stepped.  Scaled forward algorithm (Rabiner 1989): each column
    is shifted by its largest log-mass, mixed by one product with P^T, logged
    and shifted back; row j moves right by (f_num[j] - min f_num) / g.  Columns
    where a term could fall below 2^-960 are summed in log space.  Entries set
    to -inf drop out; logp is reused.  BudgetExceeded, before the first step,
    past DEFAULT_BUDGET_BYTES or past an estimated WORK_CAP_S seconds."""
    _require_exact(model)
    n = _require_count(n, "n")
    p = model.transition
    xmin, g, rise, spread = _sublattice(model)
    s, width = model.n_states, n * spread + 1
    if (need := s * width * (3 * 8 + 2) + 2 * width * 8) > DEFAULT_BUDGET_BYTES:
        raise BudgetExceeded(f"DP needs {need} bytes ({s} states x {width} sublattice points "
                             f"of step {g}, 3 float and 2 flag buffers), "
                             f"budget {DEFAULT_BUDGET_BYTES}")
    if (secs := _sum_law_seconds(model, n)) > WORK_CAP_S:
        raise BudgetExceeded(f"DP to n = {n} on {s} states would run about {secs:.3g} s, "
                             f"past the cap of {WORK_CAP_S:g} s")
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


def distribution_of_Sn(model: FiniteLatticeModel, n: int) -> TailTable:
    """Exact law of S_n from a stationary start: the sum-law DP, marginalised."""
    return _sum_law_tables(model, [n])[0]


def _sum_law_tables(model: FiniteLatticeModel, ns: list[int]) -> list[TailTable]:
    """The laws of S_n for every n in ns (order and repeats kept), read off one
    sum-law pass to max(ns) by marginalising over the state at each wanted t."""
    want, tables = set(ns), {}
    for t, (k0, g, logp) in enumerate(_sum_law_steps(model, max(ns)), start=1):
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
        """Estimated run time, timed like _sum_law_seconds: per frequency and
        bit of n, 0.25 ns per s^3 of a complex s x s squaring and 0.8 us
        besides; TILT_S per tail for its tilts and Chernoff bounds."""
        bits = max(1, (self.n - 1).bit_length())
        return (self.size // 2 + 1) * bits * (2.5e-10 * self.rise.size ** 3 + 8e-7) + TILT_S

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
        return max(1, SLAB_BYTES // (2 * 16 * self.rise.size ** 2))

    @property
    def need_bytes(self) -> int:
        """A slab's two complex stacks, and the M/2 + 1 complex sums, the M
        readings and the window's arrays, 48 bytes a point in all."""
        return 2 * 16 * self.slab * self.rise.size ** 2 + 48 * self.size

    @property
    def affordable(self) -> bool:
        """Within DEFAULT_BUDGET_BYTES and WORK_CAP_S."""
        return self.need_bytes <= DEFAULT_BUDGET_BYTES and self.seconds <= WORK_CAP_S


def tilted_log_tail(model: FiniteLatticeModel, n: int, threshold: float) -> tuple[float, float]:
    """log P(S_n >= threshold) for the centred sum S_n (inclusive at atoms, as
    exact_tail), and a bound on the relative error of P: its truncation, at
    most TAIL_RTOL, plus its round-off, at most ROUNDOFF_RTOL.

    S_n = n xmin + g K_n on the sublattice of the DP.  The tilted law q_j =
    P(K_n = j) e^{theta j} / E e^{theta K_n} has generating function
    pi^T (P D(e^theta z))^n 1 / E e^{theta K_n}, D(z) = diag(z^rise) (Dembo &
    Zeitouni, Large Deviations Techniques and Applications, 3.1).  theta puts
    its mean at the threshold, by Newton's method on the exact n-step moments
    (binary powering of P D and its derivatives).  The function is evaluated
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
            runs[i] = float(exact_tail(tb, thresholds[i] / math.sqrt(tb.n) / tb.sigma_n)), 0.0
    logp, bound = zip(*runs)
    return list(logp), np.array(bound)


def _binomial_log_tail(n: int, t: float) -> float:
    """log P(S_n >= t) for S_n a sum of n i.i.d. fair signs, inclusive at
    atoms: S_n = 2 K - n with K binomial, and (n + t) / 2 is snapped to K's
    lattice."""
    k0 = max(0, math.ceil(_snap((n + t) / 2.0, n / 2.0)))
    if k0 > n:
        return -math.inf
    ks = np.arange(k0, n + 1)
    logs = gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1) - n * math.log(2.0)
    return float(logsumexp(logs))


def _tilt_plan(model: FiniteLatticeModel, n: int, threshold: float) -> _TiltPlan | float:
    """The plan of tilted_log_tail, or the log tail itself (0 or -inf) when the
    threshold lies at or below the lowest sum or past the highest.  Its size is
    the first power of two whose window the Chernoff bounds clear against a
    guess of the tail, or the first that is not `affordable`; a plan's cost
    grows with its size, so when the smallest, 16 points, is not affordable,
    that plan is returned before any tilt is solved."""
    if math.isnan(threshold):
        raise ParamOutOfRange("threshold must not be nan")
    xmin, g, rise, spread = _sublattice(model)
    center = float(n * model.mean_fraction)
    thr = float(_snap((threshold + center) * model.denom, center * model.denom)) - n * xmin
    top = n * spread
    if thr > top * g:
        return -math.inf
    if thr <= 0:
        return 0.0
    k = -int(-thr // g) if thr == int(thr) else math.ceil(thr / g)
    p, pi = model.transition, model.pi
    flip = k < n * float(pi @ rise)  # below the mean: the complement is the small tail
    if flip:
        rise, k = spread - rise, top - k + 1
    if k > _top_sum(p, rise, n):  # no path reaches k
        return 0.0 if flip else -math.inf
    floor = _TiltPlan(model, rise, n, k, math.nan, math.nan, 16, flip)
    if not floor.affordable:  # no larger plan is either: skip the tilt's Newton solve
        return floor
    theta, log_norm, sd = _solve_tilt(
        lambda phi: _tilt_moments(p, pi, rise, n, phi, k / n), 0.0, TILT_REACH / spread)
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
        if not plan.affordable:
            raise BudgetExceeded(f"tilted transform of {plan.size} points on "
                                 f"{plan.rise.size} states needs {plan.need_bytes} bytes "
                                 f"(budget {DEFAULT_BUDGET_BYTES}) and about {plan.seconds:.3g} s "
                                 f"(cap {WORK_CAP_S:g} s)")
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
        sums[fs], log_scale = _power_sums(a[None] * phase[:, None, :], plan.model.pi, n, tops)
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
    rows = max(1, SLAB_BYTES // (8 * rise.size ** 2))  # a squaring block of about SLAB_BYTES
    while True:
        if n & 1:
            best = np.max(best[:, None] + w, axis=0)
        n >>= 1
        if not n:
            return int(best.max())
        w = np.concatenate([np.max(w[i:i + rows, :, None] + w, axis=1)
                            for i in range(0, rise.size, rows)])


def _tilted(p: np.ndarray, rise: np.ndarray, phi: float) -> tuple[np.ndarray, float]:
    """(P diag(e^{phi rise - c}), c) with c = max(phi rise): entries at most 1."""
    c = max(phi, 0.0) * int(rise.max())
    return p * np.exp(phi * rise - c), c


def _tilt_moments(p: np.ndarray, pi: np.ndarray, rise: np.ndarray, n: int, phi: float,
                  t: float) -> tuple[float, float, float]:
    """(log E e^{phi (K_n - n t)}, E_phi K_n - n t, Var_phi K_n) under the tilt
    of the law of K_n, exactly: binary powering of X = P diag(e^{phi (rise - t)})
    together with its first two derivatives in phi, X' = X d and X'' = X d^2,
    d = diag(rise - t), by the product rule."""
    d = rise - t
    c = float(np.max(phi * d))
    x = p * np.exp(phi * d - c)
    x1, x2 = x * d, x * d * d
    u, u1, u2 = pi, np.zeros_like(pi), np.zeros_like(pi)
    log_scale, log_x = n * c, 0.0
    while True:
        if n & 1:
            u, u1, u2 = u @ x, u1 @ x + u @ x1, u2 @ x + 2.0 * (u1 @ x1) + u @ x2
            top = float(u.max())
            u, u1, u2 = u / top, u1 / top, u2 / top
            log_scale += log_x + math.log(top)
        n >>= 1
        if not n:
            break
        x, x1, x2 = x @ x, x1 @ x + x @ x1, x2 @ x + 2.0 * (x1 @ x1) + x @ x2
        top = float(x.max())
        x, x1, x2 = x / top, x1 / top, x2 / top
        log_x = 2.0 * log_x + math.log(top)
    m0, mean = float(u.sum()), float(u1.sum() / u.sum())
    return math.log(m0) + log_scale, mean, float(u2.sum() / m0) - mean * mean


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
    """start^T stack[f]^n 1 for every f, over a common factor e^{log_scale}
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
            return u.sum(axis=1), log_scale
        np.matmul(x, x, out=spare)
        x, spare = spare, x
        log_x = 2.0 * log_x + rescale(x)


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
    """W_n = xs sigma_n in lattice numerator units, snapped."""
    if np.any(np.isnan(xs)):
        raise ParamOutOfRange("tail thresholds must not be nan")
    thr = (xs * table.sigma_n * np.sqrt(table.n) + table.center) * table.denom
    return _snap(thr, table.center * table.denom)


def _snap(thr, ref: float):
    """A lattice numerator within rounding of an integer is snapped to it, so
    an atom's own x hits the atom; ref is the size of the centring added."""
    near = np.rint(thr)
    slack = SNAP_ULPS * np.spacing(np.maximum(np.abs(thr), abs(ref)))
    with np.errstate(invalid="ignore"):  # x = +-inf has no lattice neighbour
        return np.where(np.abs(thr - near) <= slack, near, thr)


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
        raise OutOfRange("quantile argument must lie strictly inside (0, 1)")
    out = _left_inverse(table.what_values, table.cdf_points(), ss)
    return out if np.ndim(s) else float(out[0])


def _left_inverse(atoms: np.ndarray, cum: np.ndarray, s: np.ndarray) -> np.ndarray:
    """inf{atoms[i] : cum[i] >= s} for each s, the last atom past cum[-1]."""
    return atoms[np.minimum(np.searchsorted(cum, s, side="left"), atoms.size - 1)]


def ks_distance_exact(table: TailTable) -> float:
    """sup_x |P(W_n <= x sigma_n) - Phi(x)|, evaluating both sides of every atom."""
    return _ks_sweep(table.what_values, table.cdf_points())


def _ks_sweep(atoms: np.ndarray, cdf: np.ndarray) -> float:
    """sup_x |F(x) - Phi(x)| for the step cdf F that reaches cdf[i] at the
    sorted atoms[i], checked on both sides of every jump."""
    phi = normal_cdf(atoms)
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(left - phi))))
