"""Standard normal CDF, survival, log-survival and quantile.

All routines go through the complementary error function (or its log), which
keeps relative accuracy around 1e-14 across |x| <= 8 and stays meaningful far
into the tail where 1 - Phi(x) underflows in linear space.
"""

from __future__ import annotations

import numpy as np
from scipy import special


def normal_cdf(x):
    """Phi(x) = erfc(-x / sqrt(2)) / 2."""
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / np.sqrt(2.0))


def normal_sf(x):
    """1 - Phi(x) = erfc(x / sqrt(2)) / 2, accurate in the right tail."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def normal_log_sf(x):
    """log(1 - Phi(x)), finite far beyond the linear underflow point."""
    return special.log_ndtr(-np.asarray(x, dtype=float))


def normal_quantile(s):
    """Phi^{-1}(s) for s in (0, 1); maps 0 and 1 to -inf and +inf."""
    return special.ndtri(np.asarray(s, dtype=float))
