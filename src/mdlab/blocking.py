"""Block decomposition of a trajectory into martingale differences.

A horizon n is cut into k = floor(n/m) blocks of length m plus a remainder.
Each block sum is recentered by its predictable part, the conditional
expectation given everything up to the block start, which for a Markov chain
is a function of the state observed there.  The recentered blocks are bounded
martingale differences; their normalized quadratic characteristic stays
within delta^2 + m/n of one.

Two variants are provided: the remainder block can be carried additively
("split_remainder") or recentered like the others ("martingale_all").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientSet
from .errors import (
    NestedEstimateUnavailable,
    ParamOutOfRange,
    TrajectoryTooShort,
)
from .exact import _csv, conditional_block_moments, sigma_any
from .models import (INNOVATION_SECONDS, FiniteLatticeModel, Trajectory, _check_cost,
                     _require_count, _require_exact, child_rng)

VARIANTS = ("split_remainder", "martingale_all")
NESTED_DRAWS_DEFAULT = 256


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, predictable parts and martingale differences for one path.

    block_sums has k+1 entries (the last is the remainder, possibly zero);
    predictable/diffs/xi cover the martingalized blocks only (k of them for
    split_remainder, k+1 for martingale_all).  quad_char is the running
    normalized quadratic characteristic of the martingale.
    """

    n: int
    m: int
    k: int
    variant: str
    sigma_n: float
    block_sums: np.ndarray
    predictable: np.ndarray
    diffs: np.ndarray
    xi: np.ndarray
    martingale_path: np.ndarray
    quad_char: np.ndarray
    predictable_se: Optional[np.ndarray] = None

    @property
    def quad_char_total(self) -> float:
        return float(self.quad_char[-1]) if self.quad_char.size else 0.0

    def to_csv(self) -> str:
        """Blocks past the martingalized ones get blank predictable and diff cells."""
        d, i = self.diffs.size, np.arange(1, self.block_sums.size + 1)
        head = "i,block_sum,predictable,martingale_diff"
        full = _csv(head, [i[:d], self.block_sums[:d], self.predictable[:d], self.diffs])
        return full + _csv(head, [i[d:], self.block_sums[d:], None, None]).partition("\n")[2]


def decompose(model, trajectory: Trajectory, m: int,
              variant: str = "split_remainder",
              nested_draws: int = NESTED_DRAWS_DEFAULT,
              seed: int = 0) -> BlockDecomposition:
    """Decompose one trajectory into block martingale differences.

    Exact-tier predictable parts are exact conditional block moments at the
    observed block-start states.  Sampled-tier predictable parts are nested
    resampling estimates over `nested_draws` >= 2 redraws of each block's
    innovations with the past frozen; their standard errors are reported.
    """
    if variant not in VARIANTS:
        raise ParamOutOfRange(f"variant must be one of {VARIANTS}, got {variant!r}")
    m, nested_draws = _require_count(m, "m"), _require_count(nested_draws, "nested_draws", 2)
    seed = _require_count(seed, "seed", 0)
    n = trajectory.n
    if n < m:
        raise TrajectoryTooShort(f"trajectory has n={n} < m={m}")
    k = n // m
    rem = n - k * m
    sig = sigma_any(model, n)

    values = trajectory.values  # block_sums: k blocks of m, then the remainder (0.0 if empty)
    block_sums = np.append(values[:k * m].reshape(k, m).sum(axis=1), values[k * m:].sum())

    n_mart = k + 1 if variant == "martingale_all" else k
    if model.tier == "exact":
        predictable, cond_var = _exact_predictable(model, trajectory, m, rem, k, n_mart)
        predictable_se = None
    else:
        predictable, cond_var, predictable_se = _nested_predictable(
            model, trajectory, m, rem, k, n_mart, nested_draws, seed)

    diffs = block_sums[:n_mart] - predictable
    scale = math.sqrt(n) * sig
    xi = diffs / scale
    path = np.cumsum(xi)
    quad = np.cumsum(cond_var) / scale ** 2
    return BlockDecomposition(n=n, m=m, k=k, variant=variant, sigma_n=sig,
                              block_sums=block_sums, predictable=predictable,
                              diffs=diffs, xi=xi, martingale_path=path,
                              quad_char=quad, predictable_se=predictable_se)


def _exact_predictable(model: FiniteLatticeModel, trajectory: Trajectory,
                       m: int, rem: int, k: int, n_mart: int):
    if trajectory.states is None:
        raise TrajectoryTooShort("exact-tier decomposition needs the state path")
    predictable, cond_var = np.zeros((2, n_mart))  # an empty remainder block stays 0
    for length, lo, hi in ((m, 0, k), (rem, k, n_mart)):  # blocks lo..hi-1, from their states
        if length and hi > lo:
            cm = conditional_block_moments(model, length)
            starts = trajectory.states[lo * m:hi * m:m]
            predictable[lo:hi] = cm.mean_by_state[starts]
            cond_var[lo:hi] = (cm.second_by_state - cm.mean_by_state ** 2)[starts]
    return predictable, cond_var


def _nested_predictable(model, trajectory: Trajectory, m: int, rem: int,
                        k: int, n_mart: int, draws: int, seed: int):
    """Block i keeps the innovations before it that its sum reads and redraws its
    own, all draws at once; a sum is one weighted reduction.  Priced before any draw."""
    if trajectory.innovations is None:
        raise NestedEstimateUnavailable("trajectory carries no innovations")
    width = model.burn_in + m  # a full block's window
    reads = draws * (k * width + (model.burn_in + rem if n_mart > k and rem else 0))
    _check_cost(f"nested resampling of {n_mart} blocks x {draws} draws", 16 * draws * width,
                reads * INNOVATION_SECONDS, of="the widest block's window and product")
    predictable, cond_var = np.zeros((2, n_mart))
    for i in range(n_mart):
        length = m if i < k else rem
        if length == 0:
            continue
        a, lo = model.sum_weights(length), model.burn_in + i * m  # block i starts at lo
        window = np.empty((draws, a.size))
        window[:, :-length] = trajectory.innovations[lo + length - a.size:lo]
        window[:, -length:] = model.innovations(child_rng(seed, i), (draws, length))
        sums = (window * a).sum(axis=1)
        predictable[i] = sums.mean()
        cond_var[i] = sums.var(ddof=1)
    return predictable, cond_var, np.sqrt(cond_var / draws)


@dataclass(frozen=True)
class QuadCharDeviation:
    """Worst-case deviation of the normalized quadratic characteristic from 1,
    next to the analytic bound it must respect."""

    exact_value: float
    bound_value: float
    variant: str


def quadratic_characteristic_deviation(model: FiniteLatticeModel, coeffs: CoefficientSet,
                                       variant: str = "split_remainder") -> QuadCharDeviation:
    """Exact sup over block-start state assignments of |<M> - 1| at the
    horizon and block length of `coeffs`, the model's coefficient set,
    together with the bound delta^2 + m/n (split_remainder) or tau^2
    (martingale_all)."""
    _require_exact(model)
    if variant not in VARIANTS:
        raise ParamOutOfRange(f"variant must be one of {VARIANTS}, got {variant!r}")
    n, m = coeffs.n, coeffs.m
    k = n // m
    rem = n - k * m
    cm = conditional_block_moments(model, m)
    v = cm.second_by_state - cm.mean_by_state ** 2
    hi = k * float(v.max())
    lo = k * float(v.min())
    if variant == "martingale_all" and rem:
        cr = conditional_block_moments(model, rem)
        vr = cr.second_by_state - cr.mean_by_state ** 2
        hi += float(vr.max())
        lo += float(vr.min())
    scale = n * coeffs.sigma_n ** 2
    exact_value = max(abs(hi / scale - 1.0), abs(lo / scale - 1.0))
    bound = coeffs.tau_sq if variant == "martingale_all" else coeffs.delta_sq + m / n
    return QuadCharDeviation(exact_value=exact_value, bound_value=bound,
                             variant=variant)
