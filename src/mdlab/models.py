"""Stationary bounded process models.

Two tiers are supported.  The exact tier is a finite-state Markov chain with a
rational lattice payoff: everything downstream (sum distributions, conditional
moments, mixing coefficients) can then be computed exactly.  The sampled tier
is a causal linear filter of i.i.d. innovations (Wu 2005) carrying an analytic
decay certificate; it is only accessible through simulation.

Construction is deliberately pedantic: transition rows are renormalized in
exact rational arithmetic, the stationary vector is solved exactly for small
chains, and the payoff is centered on the lattice so that the stationary mean
of the centered payoff is an exact zero, not a float residual.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DegeneratePayoff,
    NonStochasticRow,
    ParamOutOfRange,
    PeriodicChain,
    ReducibleChain,
    SampledTierUnsupported,
)

ROW_SUM_TOL = 1e-12
EXACT_SOLVE_MAX_STATES = 64
DEFAULT_BUDGET_BYTES = 2 << 30  # 2 GiB: the most bytes any run may hold (`_check_cost`)
WORK_CAP_S = 60.0  # the longest any run may take by its estimate (`_check_cost`)
MAX_CONTRACTION_POWER = 4096  # largest P^n0 searched for a Dobrushin coefficient < 1
BUILD_ENTRY_BYTES = 40  # peak bytes per transition entry of a dense build (~34 at 512 states)
MA_MAX_LAG = 1074  # 2^-1074 is the least double: past it every moving-average weight is 0.0
MA_MAX_C = math.sqrt(np.finfo(float).max / 2)  # past it eta2 = 2 eta1^2 overflows (9.48e153)
MA_MIN_C = math.sqrt(np.finfo(float).tiny)  # under it c^2 is subnormal: eta2 loses bits (1.49e-154)
HORIZON_MAX = 2 ** 1024 - 2 ** 970 - 1  # the largest n that float(n) holds (1.798e308)
INT64_MAX = 2 ** 63 - 1  # raw lattice sums and their numerators are int64


@dataclass(frozen=True)
class DecayCertificate:
    """Analytic upper bounds on the conditional-mean and conditional-cross
    dependence sequences: a stored window of each, and past it the geometric
    envelope of rate geometric_rho in [0, 1); rho = 0 declares both zero there.

    ``eta1[k-1]`` bounds the uniform norm of the conditional mean of the
    payoff k steps ahead; ``eta2[k-1]`` bounds the centered conditional cross
    moments from lag k on.  Both sequences must be non-empty and non-increasing.
    """

    eta1: np.ndarray
    eta2: np.ndarray
    geometric_rho: float

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            object.__setattr__(self, name, seq := np.asarray(getattr(self, name), dtype=float))
            if seq.ndim != 1 or not seq.size or not np.all(np.isfinite(seq)) or np.any(seq < 0):
                raise ParamOutOfRange(f"{name} must be one or more finite entries >= 0")
            if np.any(np.diff(seq) > 1e-15):
                raise ParamOutOfRange(f"{name} must be non-increasing")
        rho = self.geometric_rho
        if not (isinstance(rho, numbers.Real) and 0 <= rho < 1):
            raise ParamOutOfRange(f"geometric_rho must lie in [0, 1), got {rho!r}")
        object.__setattr__(self, "geometric_rho", float(rho))

    def upto(self, seq: np.ndarray, k: int) -> np.ndarray:
        """seq_1..seq_k, where seq is eta1 or eta2: the stored window, then
        last * rho^j at the j-th index past it."""
        if k <= seq.size:
            return seq[:k]
        # rho^j <= 2^-1076 past j = 1076 / log2(1 / rho): 0.0, which pow finds slowly
        rho = self.geometric_rho
        stop = min(k - seq.size, math.ceil(-1076 / math.log2(rho))) if rho else 0
        tail = np.pad(rho ** np.arange(1, stop + 1), (0, k - seq.size - stop))
        return np.concatenate((seq, seq[-1] * tail))

    def tail_sums(self, seq: np.ndarray, starts: np.ndarray,
                  over_sqrt: bool = False) -> np.ndarray:
        """sum_{i >= s} seq_i (over sqrt(i) if over_sqrt) for each start s >= 1.
        Terms s through the end of the stored window are summed (term s alone
        past it); beyond the last summed term a, the geometric closed form
        a rho / (1 - rho) stands for the rest."""
        size, rho = seq.size, self.geometric_rho
        ks = np.arange(1, max(size, int(np.max(starts, initial=0))) + 1)
        terms = self.upto(seq, ks.size) / (np.sqrt(ks) if over_sqrt else 1.0)
        heads = np.concatenate((np.cumsum(terms[:size][::-1])[::-1], terms[size:]))
        return heads[starts - 1] + terms[np.maximum(starts, size) - 1] * rho / (1.0 - rho)


@dataclass(frozen=True)
class Trajectory:
    """One simulated path.

    ``values`` holds the centered payoffs X_1..X_n.  Exact-tier paths also
    carry the visited states Y_0..Y_n.
    """

    values: np.ndarray
    states: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class FiniteLatticeModel:
    """Irreducible aperiodic finite-state chain with a lattice payoff.

    The raw payoff of state s is ``f_num[s] / denom``; the centered payoff
    subtracts the stationary mean, which is kept as an exact rational
    (``mean_fraction``), so the centered payoff has stationary mean exactly
    zero in rational arithmetic.  Raw sums stay on the integer lattice
    Z / denom, which is what the distribution DP convolves over.
    """

    states: tuple
    transition: np.ndarray
    f_num: np.ndarray
    denom: int
    pi: np.ndarray
    pi_exact: tuple
    mean_fraction: Fraction
    x_values: np.ndarray
    name: str = "lattice"

    tier = "exact"

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def bound(self) -> float:
        """Uniform norm of the centered payoff."""
        return float(np.max(np.abs(self.x_values)))

    def describe(self) -> dict:
        return {
            "tier": self.tier,
            "name": self.name,
            "states": list(self.states),
            "denom": self.denom,
            "mean": float(self.mean_fraction),
            "bound": self.bound,
        }


@dataclass(frozen=True, eq=False)
class SampledModel:
    """Causal linear filter X_t = sum_k weights[k] eps_{t-k} of i.i.d.
    innovations of mean 0 and variance 1, with an analytic decay certificate.

    Under that unit-variance contract the weights fix every second moment:
    ``autocov(k)`` is sum_j weights[j] weights[j + k], zero past lag
    L = len(weights) - 1.  X_t reads the L + 1 innovations eps_{t-L}..eps_t,
    so ``innovations(rng, shape)`` draws i.i.d. innovations and a path of
    length n reads eps[..., :burn_in + n] along the last axis, with
    ``burn_in`` = L: every drawn innovation is read.
    """

    name: str
    innovations: Callable[[np.random.Generator, tuple], np.ndarray]
    weights: np.ndarray
    bound: float
    decay: DecayCertificate
    params: dict = field(default_factory=dict)

    tier = "sampled"

    def __post_init__(self):
        object.__setattr__(self, "bound", _require_scale(self.bound, "bound"))
        object.__setattr__(self, "weights", w := np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or not w.size or not np.all(np.isfinite(w)):
            raise ParamOutOfRange("weights must be one or more finite numbers")

    @property
    def burn_in(self) -> int:
        return self.weights.size - 1

    def autocov(self, k: int) -> float:
        """Cov(X_0, X_k) = sum_j weights[j] weights[j + k]."""
        k, w = _require_count(k, "lag", 0), self.weights
        return float(np.sum(w[:w.size - k] * w[k:])) if k < w.size else 0.0

    def path(self, eps: np.ndarray) -> np.ndarray:
        """X_1..X_n from eps[..., :burn_in + n]: len(weights) shifted adds."""
        w, burn, n = self.weights, self.burn_in, eps.shape[-1] - self.burn_in
        x = w[0] * eps[..., burn:]
        for k in range(1, w.size):
            x += w[k] * eps[..., burn - k:burn - k + n]
        return x

    def sum_weights(self, n: int) -> np.ndarray:
        """a with S_n = (eps[..., -a.size:] * a).sum(-1) on eps[..., :burn_in + n]:
        the weights convolved with n ones, reversed.  a_j, the sum of weights[k]
        over L - j <= k < L - j + n, is a difference of tail sums of the weights
        (L = len(weights) - 1), exact for dyadic weights."""
        r = np.cumsum(self.weights[::-1])  # r[i] = weights[L - i] + ... + weights[L]
        a = np.concatenate((r[:-1], np.full(n, r[-1])))
        a[n:] -= r[:-1]
        return a

    def describe(self) -> dict:
        return {"tier": self.tier, "name": self.name, "bound": self.bound,
                "burn_in": self.burn_in, "params": dict(self.params)}


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def _bfs_levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first distance of every state from state 0; -1 if unreached."""
    level = np.full(adj.shape[0], -1)
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = adj[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def _exact_stationary(rows: list[dict]) -> list[Fraction]:
    """Solve pi P = pi, sum(pi) = 1 by fraction-free (Bareiss 1968) elimination
    over the integers; ``rows[j]`` maps row j's nonzero columns to exact entries.
    Column j of (P^T - I), last equation sum(pi) = 1, is scaled by D_j = lcm of
    row j's denominators; back-substitution gives X_j = det pi_j / D_j exactly.
    Lazily: a row whose pivot-column entry is 0 at step k would only be scaled by
    p_k / p_{k-1}, so it keeps the entries of its step l until it is next used, as
    pivot or with a nonzero entry, at step k; it is then scaled from column k on by
    p_{k-1} / p_{l-1} (p_{-1} = 1), an exact division since Bareiss minors are integers."""
    n = len(rows)
    scale = [math.lcm(*(v.denominator for v in row.values())) for row in rows]
    a = [[0] * (n + 1) for _ in range(n)]  # [A | b]
    for j, row in enumerate(rows):
        a[j][j] = -scale[j]
        for i, v in row.items():
            a[i][j] += v.numerator * (scale[j] // v.denominator)
    a[-1] = scale + [1]
    det, pivots, since = 1, [1], [0] * n  # pivots[l] = p_{l-1}; a[r] holds step since[r]'s
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise ReducibleChain("stationary system is singular")
        a[k], a[piv], since[k], since[piv] = a[piv], a[k], since[piv], since[k]
        for r in (r for r in range(k, n) if a[r][k] and since[r] < k):
            a[r][k:] = [v * det // pivots[since[r]] for v in a[r][k:]]
        p, top = a[k][k], a[k][k + 1:]
        for r in (r for r in range(k + 1, n) if a[r][k]):
            f, since[r] = a[r][k], k + 1
            a[r][k + 1:] = [(x * p - f * y) // det for x, y in zip(a[r][k + 1:], top)]
        pivots.append(det := p)  # det(A) after the last step
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (det * a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) // a[i][i]
    return [Fraction(d * v, det) for d, v in zip(scale, x)]


def build_finite_lattice_model(states: Sequence, transition, f_num, denom: int,
                               name: str = "lattice") -> FiniteLatticeModel:
    """Build and validate an exact-tier model.

    Rows within 1e-12 of stochastic are renormalized exactly; anything worse
    (or not finite) raises.  The chain must be irreducible and aperiodic, and
    the payoff must be non-constant under the stationary law.
    """
    raw = np.asarray(transition, dtype=float)
    try:
        fn = np.asarray(f_num, dtype=np.int64)
    except OverflowError:
        raise ParamOutOfRange(f"f_num entries must lie in [-2^63, {INT64_MAX}]") from None
    states = tuple(states)
    n = len(states)
    if raw.shape != (n, n):
        raise NonStochasticRow(f"transition must be {n}x{n}, got {raw.shape}")
    if fn.shape != (n,):
        raise ParamOutOfRange("f_num must have one entry per state")
    if denom < 1:
        raise ParamOutOfRange("denom must be a positive integer")
    if n == 0:
        raise ParamOutOfRange("a model needs at least one state")
    if int(fn.max()) - int(fn.min()) > INT64_MAX:
        raise ParamOutOfRange(f"f_num's spread max - min must be at most {INT64_MAX}")
    if np.any(raw < 0):
        raise NonStochasticRow("transition entries must be nonnegative")
    sums = raw.sum(axis=1)
    # negated so that a row holding NaN (whose sum is NaN) fails too
    bad = np.nonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))[0]
    if bad.size:
        raise NonStochasticRow(f"row {bad[0]} sums to {sums[bad[0]]!r}")

    # exact rational renormalization of each row's nonzero entries, written
    # into a fresh array (never into the caller's)
    trans = np.zeros((n, n))
    frac_rows = []
    for r in range(n):
        cols = np.flatnonzero(raw[r])
        vals = [Fraction(float(v)) for v in raw[r, cols]]
        s = sum(vals)
        frac_rows.append({int(c): v / s for c, v in zip(cols, vals)})
        trans[r, cols] = [float(v) for v in frac_rows[r].values()]

    adj = trans > 0.0
    level = _bfs_levels(adj)
    if (level < 0).any() or (_bfs_levels(adj.T) < 0).any():
        raise ReducibleChain("transition graph is not strongly connected")
    # the period is the gcd of level[u] + 1 - level[v] over all edges (u, v)
    u, v = np.nonzero(adj)
    period = int(np.gcd.reduce(level[u] + 1 - level[v]))
    if period != 1:
        raise PeriodicChain(f"chain has period {period}")

    if n <= EXACT_SOLVE_MAX_STATES:
        pi_frac = _exact_stationary(frac_rows)
        pi = np.array([float(v) for v in pi_frac])
    else:  # the same bordered system in floats: P^T - I, last row all ones, right side e_n
        bordered = trans.T - np.eye(n)
        bordered[-1] = 1.0
        pi = np.linalg.solve(bordered, np.eye(1, n, n - 1)[0])
        pi_frac = [Fraction(float(v)) for v in pi]

    if np.any(pi < -1e-15):
        raise ReducibleChain("stationary vector has negative mass")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()

    # center exactly: mu = sum pi f / q as a Fraction, X(s) = f(s)/q - mu
    mean = sum(p * int(v) for p, v in zip(pi_frac, fn)) / denom
    x_exact = [Fraction(int(v), denom) - mean for v in fn]
    if all(v == 0 for v in x_exact):
        raise DegeneratePayoff("payoff is constant under the stationary law")
    x_values = np.array([float(v) for v in x_exact])

    return FiniteLatticeModel(states=states, transition=trans, f_num=fn,
                              denom=int(denom), pi=pi, pi_exact=tuple(pi_frac),
                              mean_fraction=mean, x_values=x_values, name=name)


# ---------------------------------------------------------------------------
# built-in model families
# ---------------------------------------------------------------------------

def _two_state(rho: float, name: str) -> FiniteLatticeModel:
    if not -1.0 < rho < 1.0:
        raise ParamOutOfRange(f"rho must lie in (-1, 1), got {rho}")
    stay = (1.0 + rho) / 2.0
    trans = [[stay, 1.0 - stay], [1.0 - stay, stay]]
    return build_finite_lattice_model(("-1", "+1"), trans, [-1, 1], 1, name=name)


def _dyadic_contracting(L: int) -> FiniteLatticeModel:
    # refused from L itself: 2^L is formed only once 4^L entries fit the budget
    need = BUILD_ENTRY_BYTES << 2 * L if L <= DEFAULT_BUDGET_BYTES.bit_length() else math.inf
    _check_cost(f"dyadic_contracting(L={L})", need, of=f"{BUILD_ENTRY_BYTES} x 4^{L} to build")
    size = 1 << L
    trans = np.zeros((size, size))
    for j in range(size):
        trans[j, j // 2] += 0.5
        trans[j, j // 2 + size // 2] += 0.5
    return build_finite_lattice_model(
        tuple(f"{j}/{size}" for j in range(size)), trans,
        np.arange(size, dtype=np.int64), size, name=f"dyadic_contracting(L={L})")


def _moving_average(c: float, L: int) -> SampledModel:
    c = _require_scale(c, "c")
    if not MA_MIN_C <= c <= MA_MAX_C:
        raise ParamOutOfRange(f"c must be at most {MA_MAX_C:.4g}, where the decay certificate's "
                              f"eta2 = 2 eta1^2 stays finite, and >= {MA_MIN_C:.4g}, got {c!r}")
    if L > MA_MAX_LAG:
        raise ParamOutOfRange(f"L_trunc must lie in [1, {MA_MAX_LAG}], got {L}")
    weights = c * 0.5 ** np.arange(L + 1)
    bound = float(weights.sum())

    # conditional-mean tail: sum_{i>=k} c 2^{-i}; cross terms square it
    ks = np.arange(1, L + 1)
    eta1 = c * (2.0 ** (1 - ks) - 2.0 ** (-L))
    eta2 = 2.0 * (eta1 * eta1)

    def innovations(rng: np.random.Generator, shape) -> np.ndarray:
        count = math.prod(shape)
        bits = np.unpackbits(np.frombuffer(rng.bytes(-(-count // 8)), np.uint8), count=count)
        return (bits * 2.0 - 1.0).reshape(shape)

    return SampledModel(name=f"moving_average(c={c}, L_trunc={L})", innovations=innovations,
                        weights=weights, bound=bound, params={"c": c, "L_trunc": L},
                        decay=DecayCertificate(eta1=eta1, eta2=eta2, geometric_rho=0.5))


def builtin(name: str, **params):
    """Named built-in model families.

    rademacher                i.i.d. +/-1 (exact tier)
    two_state(rho)            symmetric two-state chain, stay prob (1+rho)/2
    dyadic_contracting(L)     binary-shift chain on {j/2^L}, contraction 1/2
    moving_average(c,L_trunc) geometric moving average of i.i.d. signs (sampled)
    """
    try:
        if name == "rademacher":
            model = _two_state(0.0, name="rademacher")
        elif name == "two_state":
            rho = float(params.pop("rho"))
            model = _two_state(rho, name=f"two_state(rho={rho})")
        elif name == "dyadic_contracting":
            model = _dyadic_contracting(_require_count(params.pop("L"), "L"))
        elif name == "moving_average":
            model = _moving_average(float(params.pop("c")),
                                    _require_count(params.pop("L_trunc"), "L_trunc"))
        else:
            raise ParamOutOfRange(f"unknown builtin model {name!r}")
    except KeyError as exc:
        raise ParamOutOfRange(f"missing parameter {exc} for builtin {name!r}") from None
    if params:
        raise ParamOutOfRange(f"unexpected parameters {sorted(params)} for builtin {name!r}")
    return model


# ---------------------------------------------------------------------------
# model definition files
# ---------------------------------------------------------------------------

def parse_model_text(text: str, name: str = "file") -> FiniteLatticeModel:
    """Parse the key = value model grammar:

        states     = up down          (labels, whitespace separated)
        denom      = 1                (positive integer)
        f_num      = 1 -1             (integer payoff numerators, one per state)
        transition = 0.9 0.1  0.2 0.8 (row-major, |states|^2 numbers)

    Lines starting with '#' are comments.  All four keys are required.
    """
    fields: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParamOutOfRange(f"model file line {lineno}: expected key = values")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in ("states", "denom", "f_num", "transition"):
            raise ParamOutOfRange(f"model file line {lineno}: unknown key {key!r}")
        fields.setdefault(key, []).extend(rest.split())
    missing = {"states", "denom", "f_num", "transition"} - fields.keys()
    if missing:
        raise ParamOutOfRange(f"model file is missing keys: {sorted(missing)}")
    states = fields["states"]
    n = len(states)
    try:
        denom = int(fields["denom"][0])
        f_num = [int(v) for v in fields["f_num"]]
        flat = [float(v) for v in fields["transition"]]
    except ValueError as exc:
        raise ParamOutOfRange(f"model file: {exc}") from None
    if len(flat) != n * n:
        raise ParamOutOfRange(
            f"transition needs {n * n} entries for {n} states, got {len(flat)}")
    trans = np.asarray(flat).reshape(n, n)
    return build_finite_lattice_model(states, trans, f_num, denom, name=name)


# ---------------------------------------------------------------------------
# mixing diagnostics
# ---------------------------------------------------------------------------

def phi_mixing_coefficients(model: FiniteLatticeModel, horizon: int) -> np.ndarray:
    """Uniform mixing coefficients phi_1(1..horizon).

    phi_1(n) is the worst total-variation distance between any row of the
    n-step transition matrix and the stationary law; it is non-increasing.
    """
    _require_exact(model)
    horizon, s = _require_count(horizon, "horizon"), model.n_states
    _check_cost(f"phi_mixing_coefficients to horizon {horizon} on {s} states",
                secs=horizon * _dense_step_seconds(s, s))
    out = np.empty(horizon)
    pk = model.transition.copy()
    for k in range(horizon):
        out[k] = 0.5 * np.max(np.abs(pk - model.pi).sum(axis=1))
        if k + 1 < horizon:
            pk = pk @ model.transition
    return out


def geometric_mixing_certificate(model: FiniteLatticeModel) -> tuple[float, float, int]:
    """Certified geometric envelope phi_1(k) <= C * r^k.

    Uses the Dobrushin contraction coefficient of the smallest matrix power
    with coefficient < 1: delta(P^(a+b)) <= delta(P^a) delta(P^b), hence
    phi_1(k) <= delta(P^n0)^(k/n0 - 1).  Returns (C, r, n0).
    """
    _require_exact(model)
    n0 = 1
    pk = model.transition.copy()
    while n0 <= MAX_CONTRACTION_POWER:
        d = _dobrushin(pk)
        if d == 0.0:
            # rows of P^n0 are identical: exact independence after n0 steps
            return (1.0, 0.0, n0)
        if d < 1.0 - 1e-12:
            return (1.0 / d, d ** (1.0 / n0), n0)
        pk = pk @ pk
        n0 *= 2
    raise ReducibleChain("no contracting power found; chain mixes too slowly")


def _dobrushin(p: np.ndarray) -> float:
    """Upper bound on the contraction coefficient max_{i,j} TV(P(i,.), P(j,.)).

    Exact pairwise scan for small chains; the Doeblin column-minimum bound
    1 - sum_c min_i P(i, c) (still a certified upper bound) for large ones.
    """
    n = p.shape[0]
    if n <= 64:
        diff = 0.5 * np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)
        return float(diff.max())
    return float(min(1.0, max(0.0, 1.0 - p.min(axis=0).sum())))


def _require_exact(model) -> None:
    if getattr(model, "tier", None) != "exact":
        raise SampledTierUnsupported(
            f"{getattr(model, 'name', model)!r} is not an exact-tier model")


def _affordable(need: float, secs: float) -> bool:
    """Whether `need` bytes and `secs` estimated seconds fit the budget and the cap."""
    return need <= DEFAULT_BUDGET_BYTES and secs <= WORK_CAP_S


def _dense_step_seconds(s: int, columns: int = 1) -> float:
    """Estimated seconds of one loop step P @ B, B an s x columns block, with its
    elementwise work: 8 us, 0.2 ns per entry of P read and 0.05 ns per multiply-add
    (fitted on a shared 2-core x86 host with OpenBLAS, s = 2..1024, columns = 1..s);
    the one price of the moment loops, drift series, eta, phi and sum-law DP steps."""
    return 8e-6 + s * s * (2e-10 + 5e-11 * columns)


def _check_cost(what: str, need: float = 0, secs: float = 0.0, of: str = "") -> None:
    """BudgetExceeded, before the work, unless it is `_affordable`; `of` says what `need` holds."""
    if not _affordable(need, secs):
        of = f" ({of})" if of else ""
        raise BudgetExceeded(f"{what} needs {need} bytes{of}, over the budget of "
                             f"{DEFAULT_BUDGET_BYTES}" if need > DEFAULT_BUDGET_BYTES else
                             f"{what} would run about {secs:.3g} s{of}, past the cap of "
                             f"{WORK_CAP_S:g} s")


def _require_count(value, name: str, least: int = 1) -> int:
    """`value` as an int if it is an integer >= least (`operator.index`: no
    float, not even an integral one, and no bool), else ParamOutOfRange."""
    try:
        count = least - 1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise ParamOutOfRange(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _require_horizon(value, least: int = 1) -> int:
    """`value` as a horizon n: `_require_count`, and at most HORIZON_MAX, as sigma_n
    and the coefficients read float(n); else ParamOutOfRange."""
    n = _require_count(value, "n", least)
    if n > HORIZON_MAX:
        raise ParamOutOfRange(f"n must be at most {float(HORIZON_MAX):.4g}, the largest horizon "
                              f"a float holds, got an integer of {n.bit_length()} bits")
    return n


def _require_scale(value, name: str, zero: bool = False) -> float:
    """`value` as a float if it is a finite real > 0 (>= 0 if `zero`), else
    ParamOutOfRange: NaN and +-inf fail."""
    scale = float(value) if isinstance(value, numbers.Real) else math.nan
    if not (math.isfinite(scale) and (scale > 0 or zero and scale == 0)):
        raise ParamOutOfRange(f"{name} must be finite and {'>=' if zero else '>'} 0, "
                              f"got {value!r}")
    return scale


def _require_lattice_horizon(model: FiniteLatticeModel, n: int) -> None:
    """ParamOutOfRange unless n steps keep every raw lattice sum and its offset
    from n min f_num in int64: n max(|min f_num|, |max f_num|, max - min) <= INT64_MAX.
    The sum-law DP and exact `simulate_W` ask it before building any array."""
    lo, hi = int(model.f_num.min()), int(model.f_num.max())
    if n * max(abs(lo), abs(hi), hi - lo) > INT64_MAX:
        raise ParamOutOfRange(f"{model.name}: lattice sums of n = {n} steps of f_num in "
                              f"[{lo}, {hi}] pass the int64 range")


def _sublattice(model: FiniteLatticeModel) -> tuple[int, int, np.ndarray, int]:
    """(xmin, g, rise, spread): S_t = t xmin + g K_t, where K_t sums rise[Y_i] =
    (f_num - xmin) / g over i = 1..t, g = gcd(f_num - xmin) and spread = max rise."""
    xmin = int(model.f_num.min())
    g = int(np.gcd.reduce(model.f_num - xmin))  # a built model's payoff is not constant
    rise = (model.f_num - xmin) // g
    return xmin, g, rise, int(rise.max())


# ---------------------------------------------------------------------------
# trajectory simulation
# ---------------------------------------------------------------------------

CHAIN_CHUNK = 4096
SLAB_BYTES = 1 << 20  # uniforms drawn ahead over all blocks; one sampled block at its peak
CHAIN_BYTES = 64  # held per chain while stepping: states, sums, draws, temporaries
PATH_STEP_BYTES = 32  # sizes a sampled block, so its streams: peak ~24 B per innovation
INNOVATION_SECONDS = 5e-9  # a sampled simulation's time per innovation drawn (3-7 ns measured)
KERNEL_ENTRIES = 1 << 16  # most entries s^2 (k spread + 1) of the k-step sum kernel a jump reads


def child_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic child generator for work unit `index` of a master seed,
    which every seeded entry point checks on entry (`_require_count`)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(index,))))


def sample_trajectory(model, n: int, seed: int) -> Trajectory:
    """One stationary trajectory of length n, deterministic per seed."""
    n, seed = _require_count(n, "n"), _require_count(seed, "seed", 0)
    if model.tier == "sampled":
        eps = next(_innovation_blocks(model, n, 1, seed))[0]
        return Trajectory(values=model.path(eps))
    states = sample_state_paths(model, n, 1, seed)[0]
    return Trajectory(values=model.x_values[states[1:]], states=states)


def _innovation_blocks(model: SampledModel, n: int, chains: int, seed: int):
    """Innovations of `chains` sampled paths of length n, one array per block:
    block b draws from child_rng(seed, b) as many chains as peak at SLAB_BYTES
    (one at least).  BudgetExceeded, at the call, if a block cannot fit."""
    width = model.burn_in + n
    size = min(chains, max(1, SLAB_BYTES // (PATH_STEP_BYTES * width)))
    _check_cost(f"a block of {size} paths of {width} innovations", size * PATH_STEP_BYTES * width)
    return (model.innovations(child_rng(seed, b), (min(size, chains - lo), width))
            for b, lo in enumerate(range(0, chains, size)))


def sample_state_paths(model: FiniteLatticeModel, n: int, chains: int,
                       seed: int) -> np.ndarray:
    """State paths Y_0..Y_n for `chains` independent stationary trajectories,
    one column per one-step jump of `_simulate_states`, priced before
    allocating (their steps by `_jump_seconds` at k = 1).

    Each block of CHAIN_CHUNK chains draws from its own child generator of
    (seed, block index), so the paths do not depend on how blocks are scheduled.
    """
    _require_exact(model)
    n, chains = _require_count(n, "n"), _require_count(chains, "chains")
    seed = _require_count(seed, "seed", 0)
    _check_cost(f"sampling {chains} state paths to n = {n}", chains * (CHAIN_BYTES + 8 * (n + 1)),
                _jump_seconds(model, n, chains, 1))
    out = np.empty((chains, n + 1), dtype=np.int64)
    for t, (y, _) in enumerate(_simulate_states(model, n, chains, seed)):
        out[:, t] = y
    return out


def _jump_seconds(model: FiniteLatticeModel, n: int, chains: int, k: int) -> float:
    """Estimated seconds of `chains` chains to n in k-step jumps, spread from `_sublattice`:
    k - 1 steps to K_k (`_jump_kernels`) at 9 us plus 0.14 ns per s^3 width, then ceil(n / k)
    jumps at 2 us plus log2(s (k spread + 1)) probes at 4 us plus 4.5 ns per chain (fitted
    on a shared 2-core x86 host: two_state, dyadic L=2..5, a 3-state and a 5-state chain)."""
    s, width = model.n_states, k * _sublattice(model)[3] + 1
    build = (k - 1) * (9e-6 + 1.4e-10 * (s * s * s) * (width + 1) / 2)  # mean step width
    jump = 2e-6 + math.log2(s * width) * (4e-6 + 4.5e-9 * chains)
    return build + -(-n // k) * jump


def _jump_length(model: FiniteLatticeModel, n: int, chains: int) -> int:
    """The power of two k <= n, K_k within KERNEL_ENTRIES entries s^2 (k spread
    + 1), of least `_jump_seconds`: nothing is timed, so draws repeat anywhere."""
    s, spread = model.n_states, _sublattice(model)[3]
    best, k = (math.inf, 1), 1
    while True:
        best = min(best, (_jump_seconds(model, n, chains, k), k))
        if 2 * k > n or s * s * (2 * k * spread + 1) > KERNEL_ENTRIES:
            return best[1]
        k *= 2


def _jump_kernels(model: FiniteLatticeModel, n: int, k: int) -> list[np.ndarray]:
    """[K_k], then K_r if r = n mod k is not 0, for a power of two k: K_m[y, y',
    i] = P(Y_m = y', sum over t = 1..m of f_num(Y_t) - min f_num = g i | Y_0 =
    y), g the gcd of f_num - min f_num (`_sublattice`).  One forward pass from
    K_1, P at sum rise[y'] in row y': K_{t+1}[:, y'] is (P^T K_t)[:, y'] shifted
    by rise[y'], and K_r is copied on the way.  Row y' of K_t fills only sums
    rise[y'] to rise[y'] + (t - 1) spread, inside its next write, so the two
    swapped buffers are never cleared."""
    _, _, rise, spread = _sublattice(model)
    s, r = model.n_states, n % k
    cur, nxt, step = np.zeros((3, s, s, k * spread + 1))
    cur[:, np.arange(s), rise] = model.transition
    pt, rows, rest = model.transition.T, list(enumerate(rise.tolist())), []
    for t in range(1, k):
        width = t * spread + 1
        if t == r:
            rest.append(cur[:, :, :width].copy())
        prod = np.matmul(pt, cur[:, :, :width], out=step[:, :, :width])
        for y, lo in rows:
            nxt[:, y, lo:lo + width] = prod[:, y]
        cur, nxt = nxt, cur
    return [cur] + rest


def _jump_table(rows: np.ndarray, to_state: np.ndarray, to_rise: np.ndarray):
    """(cuts, states, rises, width) for drawing a jump from row y of a kernel
    whose column e leads to state to_state[e] and adds to_rise[e]: row y's
    nonzero columns in order, at their cumulative sums (full row, so zeros add
    nothing) capped at 1.0, the last set to 1.0, and padded with 1.0 to a
    power-of-two width.  Flattened, so row y starts at y * width."""
    support = np.count_nonzero(rows, axis=1)
    r = int(support.max())
    width = 1 << (r - 1).bit_length()
    cols = np.zeros((rows.shape[0], width), dtype=np.int64)  # padding is never picked
    cols[:, :r] = np.argsort(rows == 0.0, axis=1, kind="stable")[:, :r]
    cuts = np.ones(cols.shape)
    cuts[:, :r] = np.minimum(np.take_along_axis(np.cumsum(rows, axis=1), cols[:, :r], axis=1),
                             1.0)
    cuts[np.arange(width) >= support[:, None] - 1] = 1.0  # u < 1 never passes these
    return cuts.ravel(), to_state[cols].ravel(), to_rise[cols].ravel(), width


def _jump(table, y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(next states, rises) of chains at y for uniforms u: the first entry of
    row y whose cut is >= u, by a binary search of log2(width) vectorised
    probes, each an exact float comparison."""
    cuts, states, rises, width = table
    pos = y * width
    half = width >> 1
    while half:
        ahead = cuts[half - 1:].take(pos) < u
        pos += ahead * half if half > 1 else ahead  # a bool adds 1
        half >>= 1
    return states.take(pos), rises.take(pos)


def _simulate_states(model: FiniteLatticeModel, n: int, chains: int, seed: int, k: int = 1):
    """Yield (Y_0, 0), then (Y, D) after each jump of `chains` stationary
    trajectories to horizon n, one array over all chains each: Y the state
    and D the jump's sum of f_num(Y_t) - min f_num.  n = q k + r is q jumps
    through the k-step kernel of `_jump_kernels` and, if r > 0, one through
    the r-step kernel, rows [start, end, sum] read as they lie; at k = 1 every
    jump is one step of the path.

    Block b of CHAIN_CHUNK chains draws from child_rng(seed, b) its Y_0
    uniforms, then one uniform per jump as (T x size) slabs, the same stream
    as T calls of rng.random(size); one slab over all blocks holds
    SLAB_BYTES.  A uniform u moves a chain to the first nonzero (state, sum)
    entry of its kernel row whose cumulative cut is >= u (`_jump_table`), so
    no u, 0.0 included, takes a zero-probability entry.  The one
    approximation: u is a multiple of 2^-53, so an entry below 2^-53 of its
    row may never be drawn, and a jump's law is within (entries of the row)
    2^-53 of the kernel's in total variation, up to the rounding of the cuts.
    """
    s = model.n_states
    _, g, rise, _ = _sublattice(model)
    if k == 1:  # the rows of P, never a dense (s, s, spread + 1) kernel
        tables = [_jump_table(model.transition, np.arange(s), g * rise)]
    else:
        tables = [_jump_table(kn.reshape(s, -1), np.repeat(np.arange(s), kn.shape[2]),
                              np.tile(np.arange(kn.shape[2]) * g, s))
                  for kn in _jump_kernels(model, n, k)]
    cum_pi = np.cumsum(model.pi)
    cum_pi[-1] = 1.0
    blocks = [(child_rng(seed, b), min(CHAIN_CHUNK, chains - lo))
              for b, lo in enumerate(range(0, chains, CHAIN_CHUNK))]
    y = np.searchsorted(cum_pi, np.concatenate([g.random(m) for g, m in blocks]), side="left")
    yield y, 0
    q = n // k
    jumps = -(-n // k)
    steps = max(1, SLAB_BYTES // (8 * chains))
    for t0 in range(0, jumps, steps):
        t = min(steps, jumps - t0)
        for j, u in enumerate(np.concatenate([g.random((t, m)) for g, m in blocks], axis=1),
                              start=t0):
            y, d = _jump(tables[j >= q], y, u)
            yield y, d
