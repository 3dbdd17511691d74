"""Standard normal CDF, survival, log-survival and quantile, in numpy alone.

1 - Phi(x) = erfc(x / sqrt 2) / 2 comes from Cody's rational Chebyshev forms
(W. J. Cody, Math. Comp. 23, 1969): erf itself for |x / sqrt 2| <= 0.46875, and
past that the scaled erfcx(y) = exp(y^2) erfc(y).  The factor exp(-x^2 / 2) is
taken as exp(-hi^2 / 2) exp(-(x - hi)(x + hi) / 2), hi = x truncated to 1/16,
so its exponent is exact; the log-survival is -x^2 / 2 + log(erfcx / 2), finite
up to the float range with no asymptotic series.  Phi^{-1} is Wichura's AS 241
(Appl. Statist. 37, 1988), refined by one Newton step on Phi.
"""

from __future__ import annotations

import math

import numpy as np

SQRT1_2 = math.sqrt(0.5)
ERF_SPLIT, ERFCX_SPLIT = 0.46875, 4.0  # Cody's ranges of y = |x| / sqrt 2
SF_ZERO = 40.0  # 1 - Phi(x) is 0.0 past about 38.5: x is clipped here to stay finite
BLOCK = 1 << 14  # values a pass: a block's operands stay in a core's cache

# Cody's coefficients, highest power first
_ERF_NUM = [1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
            3.77485237685302021e2, 3.20937758913846947e3]
_ERF_DEN = [1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
            2.84423683343917062e3]
_MID_NUM = [2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
            6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
            1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3]
_MID_DEN = [1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
            1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
            3.43936767414372164e3, 1.23033935480374942e3]
_FAR_NUM = [1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
            1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4]
_FAR_DEN = [1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
            6.05183413124413191e-2, 2.33520497626869185e-3]
_RSQRT_PI = 5.6418958354775628695e-1
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# AS 241 (PPND16): the centre |s - 1/2| <= 0.425 in r = 0.180625 - q^2, then the
# tails in r = sqrt(-log min(s, 1 - s)) - 1.6 up to r = 5 and r - 5 past it
_CENTRE_NUM = [2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
               4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
               1.3314166789178437745e2, 3.3871328727963666080e0]
_CENTRE_DEN = [5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
               2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
               4.2313330701600911252e1, 1.0]
_NEAR_NUM = [7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
             1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
             4.63033784615654529590e0, 1.42343711074968357734e0]
_NEAR_DEN = [1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
             1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
             2.05319162663775882187e0, 1.0]
_DEEP_NUM = [2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
             2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
             5.46378491116411436990e0, 6.65790464350110377720e0]
_DEEP_DEN = [2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
             7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
             5.99832206555887937690e-1, 1.0]


def _ratio(num, den, x):
    """num(x) / den(x), each by Horner's rule from its highest power, in place."""
    out = []
    for coef in (num, den):
        acc = np.full_like(x, coef[0])
        for c in coef[1:]:
            acc *= x
            acc += c
        out.append(acc)
    return np.divide(*out, out=out[0])


def _erf(y):
    """erf(y) for |y| <= ERF_SPLIT."""
    t = y * y
    return y * _ratio(_ERF_NUM, _ERF_DEN, t)


def _half_erfcx(y):
    """erfcx(y) / 2 = exp(y^2) erfc(y) / 2 for y > ERF_SPLIT (+inf gives 0)."""
    mid = _ratio(_MID_NUM, _MID_DEN, y)
    if np.all(y <= ERFCX_SPLIT):  # no value needs the far form (a nan does, and stays nan)
        return 0.5 * mid
    t = np.square(1.0 / y)  # past 4: erfcx(y) = (1/sqrt(pi) - t R(t)) / y in t = 1 / y^2
    far = (_RSQRT_PI - t * _ratio(_FAR_NUM, _FAR_DEN, t)) / y
    return 0.5 * np.where(y <= ERFCX_SPLIT, mid, far)


def _far_sf(x, half):
    """1 - Phi(|x|) past ERF_SPLIT from half = erfcx(|x| / sqrt 2) / 2: exp(-x^2 / 2) with
    an exact exponent, times half."""
    a = np.minimum(np.abs(x), SF_ZERO)
    hi = np.floor(a * 16.0) / 16.0  # few bits: hi * hi is exact, a - hi too
    return np.exp(-0.5 * hi * hi) * (np.exp(-0.5 * (a - hi) * (a + hi)) * half)


def _blockwise(f, x):
    """f over the float array x, BLOCK values at a time.  Every branch of f runs on every
    value and np.where keeps one (so an unkept branch may overflow or divide by zero
    unseen); blocks keep the hundred-odd passes over the values in cache."""
    x = np.asarray(x, dtype=float)
    flat, out = x.ravel(), np.empty(x.shape)
    with np.errstate(all="ignore"):
        for lo in range(0, flat.size, BLOCK):
            out.flat[lo:lo + BLOCK] = f(flat[lo:lo + BLOCK])
    return out[()]


def _sf(x):
    y = np.abs(x) * SQRT1_2
    tail = _far_sf(x, _half_erfcx(y))
    return np.where(y <= ERF_SPLIT, 0.5 - 0.5 * _erf(x * SQRT1_2),
                    np.where(x > 0.0, tail, 1.0 - tail))  # nan takes the tail and stays nan


def _log_sf(x):
    y = np.abs(x) * SQRT1_2
    half = _half_erfcx(y)  # -x^2 / 2 below is -inf past x = 1.9e154
    return np.where(y <= ERF_SPLIT, np.log(0.5 - 0.5 * _erf(x * SQRT1_2)),
                    np.where(x > 0.0, -0.5 * x * x + np.log(half), np.log1p(-_far_sf(x, half))))


def normal_sf(x):
    """1 - Phi(x), accurate in the right tail (0.0 past about x = 38.5)."""
    return _blockwise(_sf, x)


def normal_cdf(x):
    """Phi(x) = 1 - Phi(-x), accurate in the left tail."""
    return normal_sf(-np.asarray(x, dtype=float))


def normal_log_sf(x):
    """log(1 - Phi(x)): -x^2 / 2 + log(erfcx(x / sqrt 2) / 2) in the right tail, finite
    until x^2 / 2 passes the float range; log1p(-Phi(-x)) in the left."""
    return _blockwise(_log_sf, x)


def normal_quantile(s):
    """Phi^{-1}(s) for s in (0, 1); maps 0 and 1 to -inf and +inf, and s outside
    [0, 1] to nan.  AS 241 gives x = Phi^{-1}(t) <= 0 for t = min(s, 1 - s), then one
    Newton step x - (Phi(x) - t) / phi(x) takes Phi(x) - t where it has no cancellation:
    (1/2 - t) - erf(|x| / sqrt 2) / 2 near the centre, Phi(x) (1 - t / Phi(x)) past it."""
    return _blockwise(_quantile, s)


def _quantile(s):
    t = np.where(s < 0.5, s, 1.0 - s)  # exact
    q = t - 0.5
    r = np.sqrt(-np.log(t))  # nan outside [0, 1]
    c = 0.180625 - q * q
    rc = np.minimum(r, 28.0) - np.where(r <= 5.0, 1.6, 5.0)  # r <= 27.3 but at t = 0
    x = np.where(np.abs(q) <= 0.425, q * _ratio(_CENTRE_NUM, _CENTRE_DEN, c),
                 -np.where(r <= 5.0, _ratio(_NEAR_NUM, _NEAR_DEN, rc),
                           _ratio(_DEEP_NUM, _DEEP_DEN, rc)))
    y = -np.maximum(x, -SF_ZERO) * SQRT1_2
    inner = y <= ERF_SPLIT
    y_in, y_out = np.where(inner, y, 0.0), np.where(inner, 1.0, y)
    half = _half_erfcx(y_out)
    lower = _far_sf(x, half)  # Phi(x) = 0 deep in the denormals
    step = np.where(inner, (-q - 0.5 * _erf(y_in)) * np.exp(y_in * y_in),
                    (1.0 - t / lower) * half)
    x = np.where(inner | (lower > 0.0) & (r <= 28.0), x - _SQRT_2PI * step, -r)
    return np.where(s <= 0.5, x, -x)
