"""The quadratic characteristic of the block-martingale construction.

A horizon n is cut into k = floor(n/m) blocks of length m plus a remainder.
Each block sum is recentered by its predictable part, the conditional
expectation given everything up to the block start, which for a Markov chain
is a function of the state observed there.  The recentered blocks are bounded
martingale differences; their normalized quadratic characteristic <M>, the sum
of the blocks' conditional variances over n sigma_n^2, stays within
delta^2 + m/n of one.  `quadratic_characteristic_deviation` gives the exact
sup of |<M> - 1| over the block-start states, next to that bound.

Two variants are provided: the remainder block can be carried additively
("split_remainder") or recentered like the others ("martingale_all").
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import CoefficientSet
from .errors import ParamOutOfRange
from .exact import conditional_block_moments
from .models import FiniteLatticeModel, _require_exact

VARIANTS = ("split_remainder", "martingale_all")


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
    hi = lo = 0.0  # the largest and the least sum of the blocks' conditional variances
    for length, count in ((m, n // m), (n % m if variant == "martingale_all" else 0, 1)):
        if length:
            v = conditional_block_moments(model, length).var_by_state
            hi += count * float(v.max())
            lo += count * float(v.min())
    scale = n * (coeffs.sigma_n * coeffs.sigma_n)
    exact_value = max(abs(hi / scale - 1.0), abs(lo / scale - 1.0))
    bound = coeffs.tau_sq if variant == "martingale_all" else coeffs.delta_sq + m / n
    return QuadCharDeviation(exact_value=exact_value, bound_value=bound,
                             variant=variant)
