import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdlab import (
    CoefficientSet,
    bernstein_bound,
    berry_esseen_bound,
    builtin,
    coefficient_set,
    cramer_envelope,
    distribution_of_Sn,
    envelope_curve,
    exact_tail,
    freedman_bound,
    gaussian_tail_sandwich,
    peligrad_bound,
    sample_state_paths,
    wilson_interval,
)
from mdlab.bounds import xlnx
from mdlab.errors import ParamOutOfRange
from mdlab.exact import conditional_sum_norms
from mdlab.normal import normal_sf

import oracles


def _coeffs(n=400, m=5, eps=None, gamma=0.0, delta_sq=0.0, sigma=1.0):
    eps = eps if eps is not None else m / math.sqrt(n)
    tau = delta_sq + m / n + 4 * eps ** 2
    return CoefficientSet(n=n, m=m, eps_m=eps, gamma_m=gamma, delta_sq=delta_sq,
                          tau_sq=tau, sigma_n=sigma, gamma_truncation_error=0.0)


# -- scalar formula checks (re-evaluated inline as the oracle) -------------------

def test_cramer_envelope_displayed_polynomial():
    cs = _coeffs()
    x = 1.0
    expected = (x ** 3 * 0.25 + x ** 2 * (5 / 400)
                + (1 + x) * (0.25 * abs(math.log(0.25)) + math.sqrt(5 / 400)))
    assert cramer_envelope(cs, x) == pytest.approx(expected, abs=1e-15)
    assert cramer_envelope(cs, x) == pytest.approx(1.1792539783099243, abs=1e-12)


def test_cramer_envelope_at_zero_keeps_linear_block():
    cs = _coeffs(gamma=0.01, delta_sq=0.04)
    expected = (xlnx(0.01) + xlnx(0.25) + 0.2 + math.sqrt(5 / 400))
    assert cramer_envelope(cs, 0.0) == pytest.approx(expected, abs=1e-15)


def test_berry_esseen_scalar():
    cs = _coeffs(n=1000, m=10)
    eps = 10 / math.sqrt(1000)
    expected = eps * abs(math.log(eps)) + math.sqrt(10 / 1000)
    assert berry_esseen_bound(cs) == pytest.approx(expected, abs=1e-15)
    assert berry_esseen_bound(cs) == pytest.approx(0.46407067001059, abs=1e-10)


def test_berry_esseen_vanishes_with_coefficients():
    cs = _coeffs(n=10 ** 8, m=2)
    assert berry_esseen_bound(cs) < 0.01


def test_bernstein_scalar_and_small_x_cap():
    cs = CoefficientSet(n=100, m=1, eps_m=0.1, gamma_m=0.0, delta_sq=0.0,
                        tau_sq=0.0, sigma_n=1.0, gamma_truncation_error=0.0)
    expected = math.exp(-1.0 / (2.0 * (1.0 + (2.0 / 3.0) * 0.1)))
    assert bernstein_bound(cs, 1.0) == pytest.approx(expected, abs=1e-15)
    assert bernstein_bound(cs, 1.0) == pytest.approx(0.6257840096045911, abs=1e-12)
    # with a positive drift coefficient both exponents vanish as x -> 0+
    assert bernstein_bound(_coeffs(gamma=0.1), 1e-9) == pytest.approx(
        1.0 + 4.0 * math.sqrt(math.e), abs=1e-6)


def test_bernstein_martingale_limit_drops_second_term():
    with_gamma = _coeffs(gamma=1e-6)
    without = _coeffs(gamma=0.0)
    x = 2.0
    assert bernstein_bound(without, x) < bernstein_bound(with_gamma, x)
    # the gamma = 0 value is the pure Freedman-type first term
    first = math.exp(-4.0 / (2.0 * (1.0 + without.tau_sq
                                    + (2.0 / 3.0) * without.eps_m * 2.0)))
    assert bernstein_bound(without, x) == pytest.approx(first, abs=1e-15)


def test_freedman_scalars():
    assert freedman_bound(0.0, 1.0, 0.5) == 1.0
    assert freedman_bound(2.0, 1.0, 0.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert freedman_bound(1.0, 1.0, 0.1) == pytest.approx(
        math.exp(-1.0 / (2.0 * (1.0 + 0.1 / 3.0))), abs=1e-15)


def test_peligrad_scalars():
    assert peligrad_bound(0.0, 1, 1.0, [0.0]) == pytest.approx(
        4.0 * math.sqrt(math.e), abs=1e-12)
    assert peligrad_bound(2.0, 1, 1.0, [0.0]) == pytest.approx(
        4.0 * math.sqrt(math.e) * math.exp(-2.0), abs=1e-12)


def test_sandwich_constants():
    lo, hi = gaussian_tail_sandwich(0.0)
    assert lo == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)
    assert hi == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-15)
    lo1, hi1 = gaussian_tail_sandwich(1.0)
    assert lo1 == pytest.approx(math.exp(-0.5) / (math.sqrt(2 * math.pi) * 2), abs=1e-15)
    assert hi1 == pytest.approx(math.exp(-0.5) / (math.sqrt(math.pi) * 2), abs=1e-15)
    assert lo1 < float(normal_sf(1.0)) < hi1


# -- conventions and errors ---------------------------------------------------

def test_xlnx_zero_convention():
    assert xlnx(0.0) == 0.0
    assert xlnx(1.0) == 0.0
    assert xlnx(0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


def test_error_paths():
    cs = _coeffs()
    with pytest.raises(ParamOutOfRange, match="the envelope is stated for x >= 0"):
        cramer_envelope(cs, -0.5)
    with pytest.raises(ParamOutOfRange, match="the sandwich is stated for x >= 0"):
        gaussian_tail_sandwich(-1.0)
    with pytest.raises(ParamOutOfRange, match=r"gamma\|ln gamma\| = .* >= 1; the bound degenerates"):
        bernstein_bound(_coeffs(gamma=3.0), 1.0)
    with pytest.raises(ParamOutOfRange, match=r"need conditional-sum norms for j = 1\.\.5, got 2"):
        peligrad_bound(1.0, 5, 1.0, [0.0, 0.0])
    with pytest.raises(ParamOutOfRange, match="the Bernstein bound is stated for x > 0"):
        bernstein_bound(cs, 0.0)


@pytest.mark.parametrize("call", [
    lambda: freedman_bound([1.0], 1.0, math.nan),
    lambda: freedman_bound([1.0], math.nan, 0.5),
    lambda: peligrad_bound(4.0, 12, math.nan, [0.1] * 12),
    lambda: peligrad_bound(4.0, 12.5, 1.0, [0.1] * 13),
    lambda: peligrad_bound(4.0, 12.0, 1.0, [0.1] * 13),
    lambda: peligrad_bound(4.0, 0, 1.0, [0.1]),
    lambda: cramer_envelope(_coeffs(), 1.0, math.nan),
    lambda: envelope_curve(_coeffs(), [1.0], math.nan),
    lambda: berry_esseen_bound(_coeffs(), math.nan),
])
def test_nan_scales_and_non_integral_counts_are_refused(call):
    # a nan scale fails every "must be positive" guard; n goes through the count check
    with pytest.raises(ParamOutOfRange):
        call()


# the five evaluators of an x grid, each with its smallest allowed x
X_CALLS = {
    "cramer_envelope": (0.0, lambda x: cramer_envelope(_coeffs(), x)),
    "bernstein_bound": (0.5, lambda x: bernstein_bound(_coeffs(gamma=0.01), x)),
    "freedman_bound": (0.0, lambda x: freedman_bound(x, 1.0, 0.5)),
    "peligrad_bound": (0.0, lambda x: peligrad_bound(x, 12, 1.0, [0.1] * 12)),
    "gaussian_tail_sandwich": (0.0, gaussian_tail_sandwich),
}


@pytest.mark.parametrize("shape", ["scalar", "grid"])
@pytest.mark.parametrize("name", X_CALLS)
def test_nan_x_is_refused_like_a_negative_x(name, shape):
    # np.any(xs < 0) is False for NaN: the reader asks np.all(xs >= 0)
    least, call = X_CALLS[name]
    for bad in (math.nan, -1.0):
        with pytest.raises(ParamOutOfRange, match="is stated for x"):
            call(bad if shape == "scalar" else [least, bad, 1.0])


@pytest.mark.parametrize("name", X_CALLS)
def test_infinite_x_stays_allowed_and_shapes_follow_x(name):
    # no RuntimeWarning either (pyproject turns one into an error)
    least, call = X_CALLS[name]
    scalar, grid = call(math.inf), call([least, math.inf])
    for s, g in zip(scalar, grid) if name == "gaussian_tail_sandwich" else [(scalar, grid)]:
        assert isinstance(s, float) and isinstance(g, np.ndarray) and g.shape == (2,)
        assert repr(s) == repr(float(g[1]))


def test_bernstein_and_freedman_take_their_limit_at_infinite_x():
    # their exponents read inf / inf (and Freedman's 0 inf at a = 0) at x = +inf,
    # which gave NaN; every finite x keeps the formula's bits
    xs = np.array([0.25, 1.0, 7.5, 40.0, 1e100])
    for gamma, limit in ((0.0, 0.0), (0.01, 0.0), (1.0, 4.0 * math.sqrt(math.e))):
        cs = _coeffs(gamma=gamma)
        assert bernstein_bound(cs, math.inf) == limit
        assert bernstein_bound(cs, [1.0, math.inf])[1] == limit
        g = float(xlnx(gamma))
        first = np.exp(-(1.0 - g) ** 2 * xs ** 2 / (
            2.0 * (1.0 + cs.tau_sq + (2.0 / 3.0) * cs.eps_m * (1.0 - g) * xs)))
        second = 4.0 * math.sqrt(math.e) * np.exp(
            -math.log(gamma) ** 2 * xs ** 2 / (2.0 * 81.0 ** 2)) if gamma else 0.0
        assert bernstein_bound(cs, xs).tobytes() == (first + second).tobytes()
    for a in (0.0, 0.5, 3.0):
        assert freedman_bound(math.inf, 1.0, a) == 0.0
        assert freedman_bound([0.5, math.inf], 2.0, a)[1] == 0.0
        want = np.exp(-xs ** 2 / (2.0 * (2.0 + a * xs / 3.0)))
        assert freedman_bound(xs, 2.0, a).tobytes() == want.tobytes()


def test_bernstein_and_freedman_take_their_limit_at_large_finite_x():
    # x^2 overflowed past about 1.3e154 (1e151 for Bernstein's second term at a
    # tiny gamma) with a RuntimeWarning, which the suite raises; the bounds fall
    # in x, so past X_CAP they read the value at X_CAP: here their limit
    big = np.array([1e151, 1e155, 1e200, 1e300, 1.7e308])
    for gamma, limit in ((0.0, 0.0), (0.01, 0.0), (1e-300, 0.0), (1.0, 4.0 * math.sqrt(math.e))):
        cs = _coeffs(gamma=gamma)
        assert bernstein_bound(cs, 1e200) == limit
        assert np.all(bernstein_bound(cs, big) == limit)
        assert bernstein_bound(cs, big).tobytes() == bernstein_bound(cs, [1e150] * 5).tobytes()
    for a in (0.0, 0.5, 3.0):
        assert freedman_bound(1e200, 1.0, a) == 0.0
        assert np.all(freedman_bound(big, 2.0, a) == 0.0)


def test_bound_evaluators_are_pure():
    cs = _coeffs(gamma=0.01, delta_sq=0.002)
    xs = np.linspace(0.1, 3, 17)
    assert np.array_equal(bernstein_bound(cs, xs), bernstein_bound(cs, xs))
    assert np.array_equal(cramer_envelope(cs, xs), cramer_envelope(cs, xs))


# -- hard validity assertions ----------------------------------------------------

def test_bernstein_dominates_exact_tail_rademacher(rademacher):
    n, m = 400, 5
    coeffs = coefficient_set(rademacher, n, m)
    table = distribution_of_Sn(rademacher, n)
    xs = np.linspace(0.05, 4.0, 60)
    exact = np.exp(np.asarray(exact_tail(table, xs)))
    bound = np.asarray(bernstein_bound(coeffs, xs))
    assert np.all(exact <= bound)


def test_bernstein_dominates_exact_tail_two_state(two_state04):
    n, m = 64, 4
    coeffs = coefficient_set(two_state04, n, m)
    table = distribution_of_Sn(two_state04, n)
    xs = np.linspace(0.1, 3.0, 40)
    exact = np.exp(np.asarray(exact_tail(table, xs)))
    bound = np.asarray(bernstein_bound(coeffs, xs))
    assert np.all(exact <= bound)


def test_freedman_dominates_binomial():
    for n in (100, 400):
        for x in np.linspace(0.1, 4.0, 20):
            exact = oracles.sign_sum_tail(n, x * math.sqrt(n))
            assert exact <= freedman_bound(x, 1.0, 1.0 / math.sqrt(n)) + 1e-15
    # horizons the CLI reaches, on a 16-point grid of [0.25, 4]
    for n in (4096, 10 ** 5):
        for x in np.linspace(0.25, 4.0, 16):
            exact = math.exp(oracles.sign_sum_log_tail(n, x * math.sqrt(n)))
            assert exact <= freedman_bound(x, 1.0, 1.0 / math.sqrt(n))


def test_peligrad_dominates_exhaustive_max(two_state04, rademacher):
    n = 12
    for model in (two_state04, rademacher):
        norms = conditional_sum_norms(model, n)
        for x in (4.0, 8.0, 12.0):
            exact = oracles.enum_max_abs_tail(model, n, x)
            assert exact <= peligrad_bound(x, n, model.bound, norms) + 1e-15


def test_peligrad_upper_ci_at_n64(two_state04):
    n, chains = 64, 20000
    paths = sample_state_paths(two_state04, n, chains, seed=17)
    partial = np.cumsum(two_state04.x_values[paths[:, 1:]], axis=1)
    peaks = np.abs(partial).max(axis=1)
    norms = conditional_sum_norms(two_state04, n)
    for x in (12.0, 20.0, 30.0):
        hits = int(np.sum(peaks >= x))
        _, hi = wilson_interval(hits, chains)
        assert hi <= peligrad_bound(x, n, two_state04.bound, norms)


def test_sandwich_on_fine_grid():
    xs = np.linspace(0.0, 8.0, 1000)
    lo, hi = gaussian_tail_sandwich(xs)
    sf = normal_sf(xs)
    assert np.all(lo <= sf) and np.all(sf <= hi)


@given(st.floats(min_value=1e-6, max_value=0.5),
       st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_envelope_monotone_in_x(eps, delta, gamma):
    cs = CoefficientSet(n=1000, m=10, eps_m=eps, gamma_m=gamma,
                        delta_sq=delta ** 2, tau_sq=0.1, sigma_n=1.0,
                        gamma_truncation_error=0.0)
    xs = np.linspace(0.0, 5.0, 64)
    vals = np.asarray(cramer_envelope(cs, xs))
    assert np.all(np.diff(vals) >= -1e-12)


def test_envelope_curve_validity_flags(rademacher):
    coeffs = coefficient_set(rademacher, 400, 5)  # x_max = 0.5/0.25 = 2
    _, valid = envelope_curve(coeffs, np.linspace(0, 4, 9), gate_mode="practical")
    assert valid.tolist() == [True] * 5 + [False] * 4
