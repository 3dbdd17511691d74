"""The closed forms that stand in for scipy.special at run time, against mpmath at
50 digits on dense grids, and beside scipy's own error on the same grids.

Each function has a stated bound in ulps of the true value (np.spacing of the
reference rounded to a double).  A bound may pass scipy's own worst error on its
grid by at most 2 ulps; the tests check that too, so they need scipy only as a
yardstick, never as a reference.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from mdlab import builtin, distribution_of_Sn
from mdlab.coefficients import MAX_DOUBLINGS, _zeta_3_2
from mdlab.models import build_finite_lattice_model
from mdlab.normal import normal_cdf, normal_log_sf, normal_quantile, normal_sf

# largest error, in ulps, measured over each grid on an x86-64 host; scipy 1.17's
# own worst on the same grid is in the comment
ULPS = {
    "sf": 6.0,         # 4.5 measured; scipy's ndtr about 1e13 (it rounds x / sqrt 2 first)
    "cdf": 6.0,        # 5.6 measured; scipy's ndtr about 1e13
    "log_sf": 6.0,     # 5.8 measured; scipy's log_ndtr about 1e13
    "quantile": 4.5,   # 3.3 measured; scipy's ndtri 3.5
}
ZETA_ULPS = 2.0  # zeta(3/2, 2^k + 1): 1.14 measured; scipy's zeta 2.6


def _ulps(got, want) -> np.ndarray:
    """|got - want| in units of np.spacing(want) (want in mpmath, got in doubles)."""
    near = np.array([float(w) for w in want])
    diff = np.array([float(abs(mpmath.mpf(float(g)) - w)) for g, w in zip(got, want)])
    return diff / np.spacing(np.abs(near))


def _check(name, got, scipy_got, want):
    ours, theirs = _ulps(got, want).max(), _ulps(scipy_got, want).max()
    assert ours <= ULPS[name] <= theirs + 2.0, (name, ours, theirs)


X = np.concatenate([np.linspace(-38.0, 38.0, 3041),
                    np.random.default_rng(38).uniform(-38.0, 38.0, 1000)])


def test_normal_sf_and_cdf_on_the_whole_range():
    with mpmath.workdps(50):
        sf = [mpmath.ncdf(-mpmath.mpf(x)) for x in X]
        cdf = [mpmath.ncdf(mpmath.mpf(x)) for x in X]
    _check("sf", normal_sf(X), special.ndtr(-X), sf)
    _check("cdf", normal_cdf(X), special.ndtr(X), cdf)


def test_normal_log_sf_to_x_of_1e5():
    x = np.concatenate([X, np.geomspace(38.0, 1e5, 1500)])
    with mpmath.workdps(50):  # log1p on the left, where 1 - Phi(x) rounds to 1 at 50 digits
        want = [mpmath.log(mpmath.ncdf(-mpmath.mpf(v))) if v > 0
                else mpmath.log1p(-mpmath.ncdf(mpmath.mpf(v))) for v in x]
    _check("log_sf", normal_log_sf(x), special.log_ndtr(-x), want)


def test_normal_quantile_from_1e_300_to_one_less_an_ulp():
    s = np.concatenate([np.geomspace(1e-300, 0.5, 1500), 1.0 - np.geomspace(2.0 ** -53, 0.5, 1000),
                        np.random.default_rng(241).uniform(0.0, 1.0, 1500)])
    got = normal_quantile(s)
    with mpmath.workdps(50):
        want = []
        for p, x in zip(s, got):  # Newton from our own value: 1e-16 -> 1e-32 -> 1e-64
            p, x = mpmath.mpf(p), mpmath.mpf(x)
            for _ in range(3):
                x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
            want.append(x)
    _check("quantile", got, special.ndtri(s), want)


def test_normal_functions_at_their_edges():
    edges = np.array([-np.inf, -1e300, -40.0, 0.0, 40.0, 1e300, np.inf, np.nan])
    assert np.array_equal(normal_sf(edges), [1, 1, 1, 0.5, 0, 0, 0, np.nan], equal_nan=True)
    assert np.array_equal(normal_cdf(edges), [0, 0, 0, 0.5, 1, 1, 1, np.nan], equal_nan=True)
    log_sf = normal_log_sf(edges)
    assert np.array_equal(log_sf[[0, 1, 2, 5, 6, 7]], [0, 0, 0, -np.inf, -np.inf, np.nan],
                          equal_nan=True)
    assert log_sf[3] == math.log(0.5) and -805.0 < log_sf[4] < -804.0
    q = normal_quantile(np.array([0.0, 5e-324, 0.5, 1.0, -0.5, 1.5, np.nan]))
    assert q[0] == -np.inf and -38.5 < q[1] < -38.4 and q[2] == 0.0 and q[3] == np.inf
    assert np.isnan(q[4:]).all()
    assert isinstance(normal_cdf(0.3), np.floating) and normal_cdf(0.3) == normal_sf(-0.3)
    # 1 - Phi is 0.0 past x of about 38.5, as ratio_curve's "keep x <= 37" reads it
    assert normal_sf(37.0) > 0.0 and normal_sf(38.5) == 0.0


FILE_MODEL = build_finite_lattice_model(
    ["lo", "mid", "hi"], [[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]], [-2, 1, 3], 2)


@pytest.mark.parametrize("model, n", [
    (builtin("rademacher"), 64), (builtin("rademacher"), 1024),
    (builtin("two_state", rho=0.4), 512), (builtin("two_state", rho=0.4), 4096),
    (builtin("dyadic_contracting", L=3), 512), (builtin("dyadic_contracting", L=6), 48),
    (FILE_MODEL, 1024)], ids=["rademacher 64", "rademacher 1024", "two_state 512",
                              "two_state 4096", "dyadic L=3 512", "dyadic L=6 48", "file 1024"])
def test_normal_quantile_never_decreases_over_a_tables_cum(model, n):
    # the coupling's breakpoints need no repair on the tables the commands build
    cum = distribution_of_Sn(model, n).cdf_points()
    z = normal_quantile(cum)
    assert np.all(z[1:] >= z[:-1]) and z[-1] == np.inf  # no diff: inf - inf


@pytest.mark.parametrize("k", range(MAX_DOUBLINGS + 1))
def test_zeta_three_halves_and_its_upper_end(k):
    # the drift series reads zeta(3/2, J + 1) at J = 2^k: the value for gamma_m, the upper
    # end for its truncation error
    a = 2 ** k + 1
    value, upper = _zeta_3_2(a)
    with mpmath.workdps(50):
        want = mpmath.zeta(1.5, a)
        ours, theirs = _ulps([value], [want])[0], _ulps([special.zeta(1.5, a)], [want])[0]
        assert mpmath.mpf(upper) >= want
    assert ours <= ZETA_ULPS and upper <= value * (1.0 + 2.0 ** -49), (ours, theirs)


def test_zeta_three_halves_at_small_arguments():
    for a in range(1, 40):
        value, upper = _zeta_3_2(a)
        with mpmath.workdps(50):
            want = mpmath.zeta(1.5, a)
            assert _ulps([value], [want])[0] <= ZETA_ULPS and mpmath.mpf(upper) >= want, a
