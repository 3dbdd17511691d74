"""The quadratic characteristic of the block-martingale construction.

A horizon n is cut into k = floor(n/m) blocks of length m plus a remainder.
Each block sum is recentered by its predictable part, the conditional
expectation given everything up to the block start, which for a Markov chain
is a function of the state observed there.  The recentered blocks are bounded
martingale differences; their normalized quadratic characteristic <M>, the sum
of the blocks' conditional variances over n sigma_n^2, stays within
delta^2 + m/n of one.  `quadratic_characteristic_deviation` gives the exact
sup of |<M> - 1| over the block-start states, next to that bound; the
remainder block is carried additively and adds nothing to <M>.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import CoefficientSet
from .exact import conditional_block_moments
from .models import FiniteLatticeModel, _require_exact


@dataclass(frozen=True)
class QuadCharDeviation:
    """Worst-case deviation of the normalized quadratic characteristic from 1,
    next to the analytic bound it must respect."""

    exact_value: float
    bound_value: float


def quadratic_characteristic_deviation(model: FiniteLatticeModel,
                                       coeffs: CoefficientSet) -> QuadCharDeviation:
    """Exact sup over block-start state assignments of |<M> - 1| at the
    horizon and block length of `coeffs`, the model's coefficient set,
    together with the bound delta^2 + m/n."""
    _require_exact(model)
    n, m = coeffs.n, coeffs.m
    v = conditional_block_moments(model, m).var_by_state
    k = n // m
    # the largest and the least sum of the blocks' conditional variances
    hi, lo = k * float(v.max()), k * float(v.min())
    scale = n * (coeffs.sigma_n * coeffs.sigma_n)
    exact_value = max(abs(hi / scale - 1.0), abs(lo / scale - 1.0))
    return QuadCharDeviation(exact_value=exact_value, bound_value=coeffs.delta_sq + m / n)
