import dataclasses
import functools
import gc
import math
import re
import tracemalloc
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from mdlab import (
    TailTable,
    mdp_diagnostic,
    build_finite_lattice_model,
    build_quantile_transform,
    builtin,
    conditional_block_moments,
    distribution_of_Sn,
    exact_lower_tail,
    exact_tail,
    ks_distance_exact,
    long_run_variance,
    quantile,
    ratio_curve,
    sigma_n,
    simulate_W,
)
from mdlab import exact, models
from mdlab.errors import (BudgetExceeded, DegenerateVariance, ParamOutOfRange,
                          SampledTierUnsupported)
from mdlab.models import DEFAULT_BUDGET_BYTES
from mdlab.exact import (TILT_REACH, _max_abs_tail, _prefix_logsum, _sum_law_steps,
                         _suffix_logsum, _sum_law_tables, conditional_sum_norms, sigma_any,
                         tilted_log_tail)
from mdlab.normal import normal_cdf, normal_log_sf

import oracles
from test_cli import lattice_chains


# -- covariances and sigma_n -------------------------------------------------

def test_sigma_n_two_state_small_and_limit(two_state04):
    assert sigma_n(two_state04, 2) == pytest.approx(math.sqrt(1.4), abs=1e-12)
    # sigma^2 -> (1+rho)/(1-rho) = 7/3
    assert sigma_n(two_state04, 20000) ** 2 == pytest.approx(7.0 / 3.0, abs=1e-3)
    assert long_run_variance(two_state04) == pytest.approx(7.0 / 3.0, abs=1e-12)


def test_sigma_n_rademacher_is_one(rademacher):
    for n in (1, 7, 100):
        assert sigma_n(rademacher, n) == pytest.approx(1.0, abs=1e-14)


@functools.lru_cache(maxsize=None)
def _oracle_model(name: str):
    if name == "asymmetric3":
        # the 3-state file model's chain: a nonzero stationary payoff mean, so
        # the centering is exercised
        return build_finite_lattice_model(
            ["lo", "mid", "hi"],
            [[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]], [-2, 1, 3], 2)
    if name in ("rare5", "rare_step2", "tiny5"):
        # transition entries of 1e-200: rare5's atoms sit at log-mass near -921;
        # rare_step2's payoffs -2, 0, 4 step its sums by 2, atoms near -1630.
        # tiny5 is rare5 with 1e-30: the DP's range rule cuts its blocks to 2-8 steps
        eps = 1e-30 if name == "tiny5" else 1e-200
        return build_finite_lattice_model(
            [str(i) for i in range(5)],
            [[0.5 - eps, 0.5, eps, 0, 0], [0.5, 0.5, 0, 0, 0], [0.5 - eps, 0.5, 0, eps, 0],
             [0, 0, 0, 0, 1], [0.5, 0.5, 0, 0, 0]],
            [-2, 0, -2, -2, 4] if name == "rare_step2" else [0, 1, 0, 0, 7], 1)
    if name == "step4":
        # payoffs -3, 1, 5 (sums step by 4) with stationary law (1/2, 1/4, 1/4):
        # the payoff mean is exactly zero, so centred sums are lattice values
        return build_finite_lattice_model(
            ["lo", "mid", "hi"], [[0.5, 0.25, 0.25], [0.5, 0.5, 0], [0.5, 0, 0.5]],
            [-3, 1, 5], 2)
    if name == "unsorted5":
        # rises 9 6 3 0 7: one run of states stepping down by 3, then one more
        return build_finite_lattice_model(
            [str(i) for i in range(5)],
            [[0.4, 0.3, 0.1, 0.1, 0.1], [0.1, 0.4, 0.3, 0.1, 0.1], [0.1, 0.1, 0.4, 0.3, 0.1],
             [0.1, 0.1, 0.1, 0.4, 0.3], [0.3, 0.1, 0.1, 0.1, 0.4]], [9, 6, 3, 0, 7], 1)
    if name == "rademacher":
        return builtin("rademacher")
    kind, _, value = name.partition(":")
    if kind == "two_state":
        return builtin("two_state", rho=float(value))
    return builtin("dyadic_contracting", L=int(value))


ORACLE_MODELS = ("two_state:0.4", "two_state:0.99", "two_state:0.999", "asymmetric3",
                 "dyadic:6", "dyadic:9")


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4097, 10 ** 5])
@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_sigma_n_matches_lag_recursion(name, n):
    model = _oracle_model(name)
    assert sigma_n(model, n) == pytest.approx(oracles.sigma_n_by_lags(model, n), rel=1e-13)


@pytest.mark.parametrize("rho", [0.4, 0.99, 0.999])
def test_sigma_n_two_state_closed_form_at_a_million(rho):
    model = builtin("two_state", rho=rho)
    r = model.transition[0, 0] - model.transition[0, 1]  # the stored kernel's eigenvalue
    n = 10 ** 6
    # 1 + 2 sum_{k<n} (1 - k/n) r^k, summed in closed form
    expected = (1 + r) / (1 - r) - 2 * r * (1 - r ** n) / (n * (1 - r) ** 2)
    assert sigma_n(model, n) ** 2 == pytest.approx(expected, rel=1e-13)


def _doubling_horizons(k: int) -> list[int]:
    """Horizons around the doubling's bit boundaries, and two long ones."""
    return [1, 2, 3, 2 ** k - 1, 2 ** k, 2 ** k + 1, 10 ** 6, 10 ** 9]


@st.composite
def _mixing_chains(draw):
    """Irreducible aperiodic chains of 2-12 states: a cycle through every state
    and a loop at state 0 under random weights on a sparse or dense support,
    some made lazy so that ||A^L|| falls past 2^-60 only after many doublings."""
    size = draw(st.integers(min_value=2, max_value=12))
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    lazy = draw(st.sampled_from([0.0, 0.9, 0.999]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    w = rng.integers(1, 10, (size, size)) * (rng.random((size, size)) < density)
    w = w + np.roll(np.eye(size), 1, axis=1) + np.diag(np.arange(size) == 0)
    p = lazy * np.eye(size) + (1.0 - lazy) * w / w.sum(axis=1, keepdims=True)
    f_num = rng.integers(-3, 4, size)
    f_num[0] += int(np.all(f_num == f_num[0]))  # a payoff that is not constant
    return build_finite_lattice_model(range(size), p, f_num, 2)


@given(_mixing_chains(), st.integers(min_value=2, max_value=29))
@settings(max_examples=150, deadline=None)
def test_sigma_n_stops_doubling_without_moving_a_bit(model, k):
    # once ||A^L||_inf < 2^-60 the remaining doublings cannot move sigma_n:
    # bit for bit the value of the loop that runs through every bit of n
    for n in _doubling_horizons(k):
        assert sigma_n(model, n) == oracles.sigma_n_by_doubling(model, n), n


@pytest.mark.parametrize("k", [5, 12, 20])
@pytest.mark.parametrize("name", [*ORACLE_MODELS, "two_state:-0.7", "rademacher", "dyadic:3",
                                  "step4", "unsorted5", "rare5"])
def test_sigma_n_of_builtins_stops_without_moving_a_bit(name, k):
    model = _oracle_model(name)
    for n in _doubling_horizons(k):
        assert sigma_n(model, n) == oracles.sigma_n_by_doubling(model, n), n


class NumpyCountingAbs:
    """numpy, counting its calls of np.abs."""

    def __init__(self):
        self.abs_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, a):
        self.abs_calls += 1
        return np.abs(a)


def test_sigma_n_stops_once_the_power_is_negligible(monkeypatch):
    # dyadic L=9 forgets its start in 9 steps: ||A^16||_inf is 1.1e-17 in floats and
    # ||A^32||_inf 6.5e-36, below 2^-60, so n = 10^9 tests the power (one np.abs
    # each) at L = 1, 2, ..., 32 and stops after 5 squarings of the 512 x 512
    # power, where every bit of n would take 29
    model, counting = _oracle_model("dyadic:9"), NumpyCountingAbs()
    monkeypatch.setattr(exact, "np", counting)
    assert sigma_n(model, 10 ** 9) == oracles.sigma_n_by_doubling(model, 10 ** 9)
    assert counting.abs_calls == 6


def test_sampled_tier_rejected(rademacher):
    ma = builtin("moving_average", c=1.0, L_trunc=5)
    with pytest.raises(SampledTierUnsupported):
        sigma_n(ma, 4)
    with pytest.raises(SampledTierUnsupported):
        distribution_of_Sn(ma, 4)


@pytest.mark.parametrize("L", [4, 20])
def test_sampled_sigma_sums_lags_up_to_the_stated_support(L):
    # the autocovariances vanish past lag L = len(weights) - 1, so sigma_n sums
    # lags 0..L only; the reference correlates the weights and weighs every
    # lag below n, the zero ones included
    ma = builtin("moving_average", c=1.0, L_trunc=L)
    assert all(ma.autocov(k) == 0.0 for k in range(L + 1, 4 * L))
    g = np.correlate(ma.weights, ma.weights, "full")[L:]
    assert np.allclose([ma.autocov(k) for k in range(L + 1)], g, rtol=1e-15, atol=0)
    for n in (2, L, 256, 4096, 10 ** 6):
        every_lag = np.zeros(n)
        every_lag[:min(n, L + 1)] = g[:n]
        ks = np.arange(1, n)
        # the same positive terms, grouped differently by the summation
        want = math.sqrt(every_lag[0] + 2.0 * np.sum((1.0 - ks / n) * every_lag[1:]))
        assert sigma_any(ma, n) == pytest.approx(want, rel=(L + 1) * 2.0 ** -52)


@pytest.mark.parametrize("L", [1, 3, 6])
@pytest.mark.parametrize("c", [1.0, 0.7])
def test_moving_average_sigma_is_4c_times_its_dyadic_twins(L, c):
    # with eps = 2b - 1 for fair bits b, c sum_{k<=L} 2^-k eps_{t-k} is 4c times
    # the centred payoff of dyadic_contracting(L + 1), whose state holds the
    # last L + 1 bits: the weights' sigma_n against the exact tier's
    ma = builtin("moving_average", c=c, L_trunc=L)
    twin = _oracle_model(f"dyadic:{L + 1}")
    for n in (1, 5, 64, 1000, 10 ** 6):
        assert sigma_any(ma, n) == pytest.approx(4 * c * sigma_n(twin, n), rel=1e-14)


def _two_state_in_units(denom: int, stay: float = 0.7):
    """The symmetric two-state chain with payoff +-1 / denom."""
    trans = [[stay, 1.0 - stay], [1.0 - stay, stay]]
    return build_finite_lattice_model(("-1", "+1"), trans, [-1, 1], denom)


def test_sigma_scales_with_the_payoff(two_state04):
    # two_state rho = 0.4 in units of 10^-8: sigma^2 = 2.3e-16 is no degenerate variance
    tiny = _two_state_in_units(10 ** 8)
    for n in (1, 7, 1024, 10 ** 6):
        assert sigma_n(tiny, n) == pytest.approx(1e-8 * sigma_n(two_state04, n), rel=1e-15)
        assert sigma_any(tiny, n) == sigma_n(tiny, n)
    assert long_run_variance(tiny) == pytest.approx(1e-16 * long_run_variance(two_state04),
                                                    rel=1e-15)


@pytest.mark.parametrize("denom", [1, 10 ** 8])
@pytest.mark.parametrize("stay, degenerate", [(1e-15, True), (1e-12, False)])
def test_the_variance_verdict_is_the_same_in_every_unit(denom, stay, degenerate):
    # rho = 2 stay - 1 near -1: sigma^2 = (1 + rho) / (1 - rho), about stay, against
    # gamma(0) = denom^-2; the verdict reads their ratio, whatever the payoff's unit
    model = _two_state_in_units(denom, stay)
    for call in (lambda: long_run_variance(model), lambda: sigma_n(model, 1000)):
        if degenerate:
            with pytest.raises(DegenerateVariance, match="at most 1e-14 gamma"):
                call()
        else:
            assert call() > 0.0


@pytest.mark.parametrize("n", [None, 7])
@pytest.mark.parametrize("var", [math.inf, math.nan])
def test_a_variance_that_is_not_finite_names_the_model_and_n(two_state04, n, var):
    where = "long-run variance" if n is None else "sigma_n^2 at n = 7"
    with pytest.raises(ParamOutOfRange, match=re.escape(f"two_state(rho=0.4): {where} is")):
        exact._variance(two_state04, var, 1.0, where)


def test_sampled_sigma_of_a_zero_filter_is_degenerate():
    zero = models.SampledModel(name="zero", weights=[0.0, 0.0],
                               decay=models.DecayCertificate([0.0], [0.0], 0.5))
    with pytest.raises(DegenerateVariance, match="zero: sigma_n"):
        sigma_any(zero, 4)


@pytest.mark.parametrize("c", [models.MA_MIN_C, 1e-8, 0.7, 1e150, 9e153, models.MA_MAX_C])
def test_sampled_sigma_is_c_times_the_unit_filters_at_every_n(c):
    # the sums run in units of the largest weight: no n sigma_n^2 overflows (c = 9e153
    # once raised OverflowError at n = 1024, and every c past 7e147 gave inf at 10^12)
    ma, unit = (builtin("moving_average", c=v, L_trunc=3) for v in (c, 1.0))
    for n in (1, 3, 1024, 10 ** 12):
        got = sigma_any(ma, n)
        assert math.isfinite(got) and got == pytest.approx(c * sigma_any(unit, n), rel=1e-15)


@pytest.mark.parametrize("c", [0.3, 0.7, 3.0, 1000.0, 1e-8, 1e100])
@pytest.mark.parametrize("L", [1, 3, 12, 20, 1074])
def test_sampled_sigma_in_units_of_a_power_of_two_is_the_plain_sum_bit_for_bit(c, L):
    # scaling by a power of two is exact, so where n sigma_n^2 = |a|^2 + (n - L)+ total^2
    # is finite in the weights' own units, the scaled sums give its root to the bit
    ma = builtin("moving_average", c=c, L_trunc=L)
    total = float(np.cumsum(ma.weights[::-1])[-1])
    for n in (1, 2, 5, L, L + 1, 1000, 4000, 10 ** 6, 10 ** 9, 10 ** 12):
        a = ma.sum_weights(min(n, L))
        plain = (float(np.sum(a * a)) + max(0, n - L) * (total * total)) / n
        assert sigma_any(ma, n) == math.sqrt(plain)


# -- conditional block moments -------------------------------------------------

def test_conditional_mean_two_state_closed_form(two_state04):
    cm = conditional_block_moments(two_state04, 3)
    # E[X_k | Y_0] = rho^k Y_0, summed over the block
    assert cm.sup_mean == pytest.approx(0.4 + 0.16 + 0.064, abs=1e-12)


def test_conditional_moments_rademacher(rademacher):
    cm = conditional_block_moments(rademacher, 2)
    assert cm.sup_mean == pytest.approx(0.0, abs=1e-14)
    # enumeration of the 4 sign paths: E[S_2^2 | Y_0] = 2
    assert cm.second_by_state == pytest.approx([2.0, 2.0], abs=1e-12)


def test_conditional_moments_average_reproduces_variance(two_state04):
    n = 64
    cm = conditional_block_moments(two_state04, n)
    mean_sq = float(two_state04.pi @ cm.second_by_state)
    assert mean_sq == pytest.approx(n * sigma_n(two_state04, n) ** 2, abs=1e-10)


def test_conditional_mean_is_pi_centered(two_state04):
    cm = conditional_block_moments(two_state04, 17)
    assert float(two_state04.pi @ cm.mean_by_state) == pytest.approx(0.0, abs=1e-10)


def _assert_moments_close(got, want):
    # 1e-12 relative to the uniform norm of the reference (at least 1)
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("name", ["two_state:0.4", "rademacher", "asymmetric3",
                                  "dyadic:2", "rare5"])
def test_conditional_moments_match_path_enumeration(name):
    model = _oracle_model(name)
    means, seconds = oracles.enum_block_moments(model, 6)
    for m in range(1, 7):
        cm = conditional_block_moments(model, m)
        _assert_moments_close(cm.mean_by_state, means[m - 1])
        _assert_moments_close(cm.second_by_state, seconds[m - 1])
    _assert_moments_close(conditional_sum_norms(model, 6), np.max(np.abs(means), axis=1))


@pytest.mark.parametrize("name", ["dyadic:6", "asymmetric3"])
def test_conditional_moments_match_forward_recursion(name):
    model = _oracle_model(name)
    means, seconds = oracles.forward_block_moments(model, 200)
    for m in (1, 2, 3, 8, 52, 199, 200):
        cm = conditional_block_moments(model, m)
        _assert_moments_close(cm.mean_by_state, means[m - 1])
        _assert_moments_close(cm.second_by_state, seconds[m - 1])
    _assert_moments_close(conditional_sum_norms(model, 200), np.max(np.abs(means), axis=1))


@pytest.mark.parametrize("name", ["two_state:0.4", "dyadic:6", "asymmetric3"])
def test_conditional_sum_norms_match_running_sum_of_powers(name):
    # to n_max = 2000: the one-pass norms against the running sum of P^k x
    model = _oracle_model(name)
    _assert_moments_close(conditional_sum_norms(model, 2000),
                          oracles.cond_sum_norms_by_powers(model, 2000))


@pytest.mark.parametrize("n_max", [0, -1])
def test_conditional_sum_norms_rejects_an_empty_horizon(two_state04, n_max):
    with pytest.raises(ParamOutOfRange):
        conditional_sum_norms(two_state04, n_max)


# -- distribution of S_n -------------------------------------------------------

def test_rademacher_n4_path_counts(rademacher):
    table = distribution_of_Sn(rademacher, 4)
    assert math.exp(exact_tail(table, 2.0)) == pytest.approx(1.0 / 16.0, abs=1e-14)
    assert math.exp(exact_tail(table, 1.0)) == pytest.approx(5.0 / 16.0, abs=1e-14)


def test_single_step_table_is_stationary_payoff_law(two_state04):
    table = distribution_of_Sn(two_state04, 1)
    assert np.array_equal(table.offsets, [-1, 1])
    assert np.exp(table.logp) == pytest.approx([0.5, 0.5], abs=1e-14)


@pytest.mark.parametrize("n", [6, 10])
def test_dp_matches_enumeration_two_state(two_state04, n):
    table = distribution_of_Sn(two_state04, n)
    offsets, probs = oracles.enum_distribution(two_state04, n)
    assert np.array_equal(table.offsets, offsets)
    tv = 0.5 * np.sum(np.abs(np.exp(table.logp) - probs))
    assert tv <= 1e-12


def test_dp_matches_enumeration_three_state():
    model = build_finite_lattice_model(
        ["a", "b", "c"],
        [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]],
        [-1, 0, 2], 2)
    table = distribution_of_Sn(model, 5)
    offsets, probs = oracles.enum_distribution(model, 5)
    assert np.array_equal(table.offsets, offsets)
    assert 0.5 * np.sum(np.abs(np.exp(table.logp) - probs)) <= 1e-12


def test_dp_handles_one_sided_payoffs():
    # strictly positive payoffs: the walk starts at 0, below the final support
    model = build_finite_lattice_model(
        ["a", "b"], [[0.6, 0.4], [0.3, 0.7]], [1, 2], 1)
    table = distribution_of_Sn(model, 5)
    offsets, probs = oracles.enum_distribution(model, 5)
    assert np.array_equal(table.offsets, offsets)
    assert 0.5 * np.sum(np.abs(np.exp(table.logp) - probs)) <= 1e-12
    assert table.center == pytest.approx(5 * float(model.mean_fraction), abs=1e-12)
    # centered support straddles zero even though raw sums are all positive
    assert table.sum_values.min() < 0 < table.sum_values.max()


@pytest.mark.parametrize("name, n", [
    ("dyadic:3", 40), ("two_state:0.99", 1024), ("asymmetric3", 200),
    ("rare5", 3), ("rare5", 5), ("rare5", 40), ("rare_step2", 64),
])
def test_dp_matches_log_space_reference(name, n):
    model = _oracle_model(name)
    table = distribution_of_Sn(model, n)
    offsets, logp = oracles.log_dp_distribution(model, n)
    assert np.array_equal(table.offsets, offsets)
    assert np.all(np.abs(table.logp - logp) <= 1e-12 * np.maximum(1.0, np.abs(logp)))


@pytest.mark.parametrize("name, n", [
    ("two_state:0.4", 64), ("two_state:0.4", 150), ("asymmetric3", 150), ("dyadic:3", 150),
    ("step4", 150), ("tiny5", 40),
])
def test_dp_matches_integer_law(name, n):
    # the exact law, counted in Python integers on the binary fractions pi and
    # P hold: n = 64 ends a block of the DP, n = 150 reads one mid-block; on
    # tiny5, blocks as long as the cap would lose atoms below the normal range
    model = _oracle_model(name)
    table = distribution_of_Sn(model, n)
    offsets, logp = oracles.integer_law(model, n)
    assert np.array_equal(table.offsets, offsets)
    assert np.all(np.abs(table.logp - logp) <= 1e-13 * np.maximum(1.0, np.abs(logp)))


@pytest.mark.parametrize("rho", [-0.5, 0.4, 0.9])
def test_dp_matches_the_two_state_law_summed_over_flips(rho):
    # the symmetric two-state law in exact integers over the model's own transition
    # entries, at the atoms at 0, near 2 and 4 sigma sqrt(n) and at n: the worst gap
    # measured was 2.2e-15 max(1, |log p|) (rho = -0.5, n = 2048, the atom at 0)
    model, sig = builtin("two_state", rho=rho), math.sqrt((1 + rho) / (1 - rho))
    for n in (64, 512, 2048):
        table = distribution_of_Sn(model, n)
        logp = dict(zip(table.offsets.tolist(), table.logp.tolist()))
        for s in {0, n} | {min(n, 2 * round(z * sig * math.sqrt(n) / 2)) for z in (2, 4)}:
            want = oracles.two_state_log_p(model, n, s)
            assert abs(logp[s] - want) <= 2e-14 * max(1.0, abs(want)), (n, s)


@pytest.mark.parametrize("name", ["two_state:0.4", "dyadic:3", "asymmetric3", "rare5",
                                  "rare_step2", "tiny5"])
def test_grid_tables_from_one_pass_match_per_n_tables(name):
    model = _oracle_model(name)
    grid = [64, 8, 63, 1, 17, 33, 64]
    if not name.startswith("rare"):  # horizons inside a block are read without ending it
        ends = {t for t, (*_, ref) in enumerate(_sum_law_steps(model, 64), start=1)
                if ref is None}
        assert set(grid) - ends and set(grid) & ends
    tables = _sum_law_tables(model, grid)
    assert [t.n for t in tables] == grid
    for table, n in zip(tables, grid):
        ref = distribution_of_Sn(model, n)
        assert table.offsets.dtype == ref.offsets.dtype
        assert np.array_equal(table.offsets, ref.offsets)
        assert table.logp.tobytes() == ref.logp.tobytes()
        assert (table.sigma_n, table.center) == (ref.sigma_n, ref.center)


# -- metamorphic relations of the law -------------------------------------------
# each relation rebuilds the chain in another form whose law of S_n is known from the
# original's.  Relabelling and negation reorder the DP's sums, so they hold to a
# tolerance in log, relative to max(1, |log p|): the worst seen on 2400 random chains of
# this family at n <= 512 was 2.7e-15 (relabelling) and 1.7e-15 (negation), and the
# tolerance is about ten times the larger

META_TOL = 3e-14


def _rebuilt(model, transition=None, f_num=None, denom=None):
    return build_finite_lattice_model(
        model.states, model.transition if transition is None else transition,
        model.f_num if f_num is None else f_num, model.denom if denom is None else denom)


@given(lattice_chains(), st.integers(1, 512), st.integers(-5, 5))
@settings(max_examples=50, deadline=None)
def test_shifting_the_payoff_shifts_the_law_bit_for_bit(model, n, c):
    table = distribution_of_Sn(model, n)
    shifted = distribution_of_Sn(_rebuilt(model, f_num=model.f_num + c), n)
    assert np.array_equal(shifted.offsets, table.offsets + n * c)
    assert shifted.logp.tobytes() == table.logp.tobytes()


@given(lattice_chains(), st.integers(1, 512), st.integers(2, 5))
@settings(max_examples=50, deadline=None)
def test_scaling_payoff_and_denominator_together_keeps_the_law_bit_for_bit(model, n, k):
    table = distribution_of_Sn(model, n)
    scaled = distribution_of_Sn(_rebuilt(model, f_num=model.f_num * k, denom=model.denom * k), n)
    assert np.array_equal(scaled.offsets, table.offsets * k)
    assert scaled.logp.tobytes() == table.logp.tobytes()
    assert scaled.sum_values.tobytes() == table.sum_values.tobytes()


@given(lattice_chains(), st.integers(1, 512), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_relabelling_the_states_keeps_the_law(model, n, rnd):
    perm = list(range(model.n_states))
    rnd.shuffle(perm)
    table = distribution_of_Sn(model, n)
    relabelled = distribution_of_Sn(_rebuilt(model, model.transition[np.ix_(perm, perm)],
                                             model.f_num[perm]), n)
    assert np.array_equal(relabelled.offsets, table.offsets)
    assert np.all(np.abs(relabelled.logp - table.logp)
                  <= META_TOL * np.maximum(1.0, np.abs(table.logp)))


@given(lattice_chains(), st.integers(1, 512))
@settings(max_examples=50, deadline=None)
def test_negating_the_payoff_mirrors_the_law(model, n):
    table = distribution_of_Sn(model, n)
    negated = distribution_of_Sn(_rebuilt(model, f_num=-model.f_num), n)
    mirror = table.logp[::-1]
    assert np.array_equal(negated.offsets, -table.offsets[::-1])
    assert np.all(np.abs(negated.logp - mirror) <= META_TOL * np.maximum(1.0, np.abs(mirror)))


# the reversed chain runs other products in the DP; the worst seen on 9800 random chains of
# this family at n <= 512 was 1.7e-14 relative to max(1, |log p|), and the tolerance is about
# twelve times that
REVERSAL_TOL = 2e-13


@given(lattice_chains(), st.integers(1, 512))
@settings(max_examples=50, deadline=None)
def test_reversing_time_keeps_the_law(model, n):
    # P^(i, j) = pi_j P(j, i) / pi_i from the exact pi: each row sums to 1 within an ulp or two
    pi, p = model.pi_exact, model.transition
    s = model.n_states
    reversed_p = [[float(pi[j] * Fraction(float(p[j, i])) / pi[i]) for j in range(s)]
                  for i in range(s)]
    table = distribution_of_Sn(model, n)
    reversed_table = distribution_of_Sn(_rebuilt(model, reversed_p), n)
    assert np.array_equal(reversed_table.offsets, table.offsets)
    assert np.all(np.abs(reversed_table.logp - table.logp)
                  <= REVERSAL_TOL * np.maximum(1.0, np.abs(table.logp)))


# -- each model's last law ------------------------------------------------------

@pytest.fixture
def dp_passes(monkeypatch):
    """The horizon of every sum-law pass that starts."""
    passes, steps = [], exact._sum_law_steps

    def counted(model, n):
        passes.append(n)
        return steps(model, n)

    monkeypatch.setattr(exact, "_sum_law_steps", counted)
    return passes


def test_a_repeat_call_returns_the_same_table_without_a_pass(dp_passes):
    model = builtin("two_state", rho=0.4)
    table = distribution_of_Sn(model, 64)
    assert distribution_of_Sn(model, 64) is table and dp_passes == [64]
    assert distribution_of_Sn(model, 64).transform is table.transform


def test_another_horizon_runs_the_dp_and_takes_the_one_slot(dp_passes):
    model = builtin("two_state", rho=0.4)
    first = distribution_of_Sn(model, 64)
    other = distribution_of_Sn(model, 32)
    assert dp_passes == [64, 32] and exact._LAST_LAW[model] is other
    again = distribution_of_Sn(model, 64)
    assert again is not first and dp_passes == [64, 32, 64]
    assert again.offsets.tobytes() == first.offsets.tobytes()
    assert again.logp.tobytes() == first.logp.tobytes()


def test_a_fresh_model_with_equal_parameters_misses(dp_passes):
    table = distribution_of_Sn(builtin("two_state", rho=0.4), 64)
    twin = distribution_of_Sn(builtin("two_state", rho=0.4), 64)
    assert twin is not table and dp_passes == [64, 64]
    assert twin.logp.tobytes() == table.logp.tobytes()


def test_the_law_is_released_with_its_model():
    model = builtin("two_state", rho=0.4)
    distribution_of_Sn(model, 64)
    gc.collect()
    held, alive = len(exact._LAST_LAW), weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None and len(exact._LAST_LAW) == held - 1


@pytest.mark.parametrize("field", ["offsets", "logp"])
def test_a_shared_table_is_read_only(field):
    column = getattr(distribution_of_Sn(builtin("two_state", rho=0.4), 16), field)
    with pytest.raises(ValueError, match="read-only"):
        column[0] = column[1]


# -- the sublattice the sums occupy ---------------------------------------------

@pytest.mark.parametrize("name, g", [
    ("two_state:0.4", 2), ("two_state:0.99", 2), ("rademacher", 2), ("step4", 4),
    ("rare_step2", 2), ("dyadic:3", 1), ("asymmetric3", 1), ("tiny5", 1), ("unsorted5", 1),
])
def test_sublattice_tables_match_full_lattice_bit_for_bit(name, g):
    # dropping the empty columns leaves every other column's arithmetic as it was
    model = _oracle_model(name)
    grid = [1, 2, 3, 17, 256, 1024]
    full = oracles.full_lattice_tables(model, grid, exact.BLOCK_STEPS, exact.LIN_RANGE)
    for table, (offsets, logp) in zip(_sum_law_tables(model, grid), full):
        assert table.offsets.dtype == offsets.dtype
        assert table.offsets.tobytes() == offsets.tobytes()
        assert table.logp.tobytes() == logp.tobytes()
    assert np.gcd.reduce(np.diff(offsets)) == g


def test_rare_step2_sums_columns_in_log_space():
    # the bit-identity above covers the log-space fallback only if it fires:
    # some live entry sits more than 2^-960 / min P below its column's largest
    model = _oracle_model("rare_step2")
    floor = np.log(2.0 ** -960 / model.transition[model.transition > 0].min())

    def fires(logp):
        with np.errstate(invalid="ignore"):
            lin = logp - logp.max(axis=0)
        return bool(np.any((lin < floor) & (lin > -np.inf)))

    steps = oracles.full_lattice_sum_law_steps(model, 64, exact.BLOCK_STEPS, exact.LIN_RANGE)
    with np.errstate(divide="ignore"):
        assert any(fires(table if ref is None else np.log(table) + ref) for _, table, ref in steps)


class _CountingLogaddexp:
    """np.logaddexp, counting its direct calls: in the sum-law DP only the
    log-space column sums make them (its marginals call .reduce)."""

    def __init__(self):
        self.calls = 0
        self.reduce, self.accumulate = np.logaddexp.reduce, np.logaddexp.accumulate

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return np.logaddexp(*args, **kwargs)


class _NumpyCountingLogaddexp:
    def __init__(self):
        self.logaddexp = _CountingLogaddexp()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("name, n, rare", [
    ("rare5", 40, True), ("rare_step2", 64, True), ("two_state:0.4", 256, False),
    ("dyadic:3", 64, False),
])
def test_one_step_blocks_sum_rare_columns_in_log_space(name, n, rare, monkeypatch):
    # on chains with 1e-200 transitions every step is a block of its own whose
    # columns below 2^-960 / min P of their largest are summed in log space, one
    # call per source state; the other chains never take that path
    model = _oracle_model(name)
    counting = _NumpyCountingLogaddexp()
    monkeypatch.setattr(exact, "np", counting)
    block_ends = sum(ref is None for *_, ref in _sum_law_steps(model, n))
    calls = counting.logaddexp.calls
    if rare:
        assert calls == model.n_states * block_ends == model.n_states * n
    else:
        assert calls == 0 and block_ends < n


def test_max_abs_tail_at_every_reachable_peak_on_a_step4_sublattice():
    # thresholds at every value of max_i |S_i| that a path reaches, so the
    # crossing test must map column i to k0 + 4 i to decide each tie
    model, n = _oracle_model("step4"), 6
    assert model.mean_fraction == 0
    paths = oracles.all_state_paths(model.n_states, n + 1)
    live = np.all(model.transition[paths[:, :-1], paths[:, 1:]] > 0, axis=1)
    peaks = np.abs(np.cumsum(model.f_num[paths[live, 1:]], axis=1)).max(axis=1)
    for k in np.unique(peaks):
        x = k / model.denom
        expected = oracles.enum_max_abs_tail(model, n, x)
        assert _max_abs_tail(model, n, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_budget_counts_the_sublattice(two_state04, monkeypatch):
    # at n = 1000 two_state sums fill 1001 of the 2001 lattice points; a point
    # costs 2 states x 26 bytes plus 2 x 8 bytes of column scratch
    need, full = 1001 * 68, 2001 * 68
    monkeypatch.setattr(models, "DEFAULT_BUDGET_BYTES", (need + full) // 2)
    table = distribution_of_Sn(two_state04, 1000)
    assert table.offsets.size == 1001
    monkeypatch.setattr(models, "DEFAULT_BUDGET_BYTES", need)
    assert distribution_of_Sn(two_state04, 1000).offsets.size == 1001
    monkeypatch.setattr(models, "DEFAULT_BUDGET_BYTES", need - 1)
    with pytest.raises(BudgetExceeded, match="1001 sublattice points of step 2"):
        distribution_of_Sn(two_state04, 1000)


def test_table_second_moment_consistent_with_sigma(table_two_state_256):
    t = table_two_state_256
    second = float(np.sum(np.exp(t.logp) * t.w_values ** 2))
    assert second == pytest.approx(t.sigma_n ** 2, abs=1e-10)


def test_table_mass_and_support_bound(table_two_state_256):
    t = table_two_state_256
    assert abs(np.logaddexp.reduce(t.logp)) <= 1e-10
    assert np.max(np.abs(t.offsets)) <= 256


def test_log_space_survives_deep_tails(rademacher):
    table = distribution_of_Sn(rademacher, 2000)
    edge = exact_tail(table, 2000.0 / math.sqrt(2000.0))
    assert edge == pytest.approx(-2000.0 * math.log(2.0), rel=1e-12)
    assert edge < -700.0  # far below linear-space underflow


def test_budget_guard(monkeypatch):
    big = builtin("dyadic_contracting", L=8)
    monkeypatch.setattr(models, "DEFAULT_BUDGET_BYTES", 1 << 20)
    with pytest.raises(BudgetExceeded):
        distribution_of_Sn(big, 4096)


def test_work_guard_refuses_the_dense_dp_before_its_first_step():
    # dyadic L=6 at n = 4096 fits in about 0.43 GB but needs 2.2e12 cell updates
    model = builtin("dyadic_contracting", L=6)
    assert exact._sum_law_seconds(model, 4096) > models.WORK_CAP_S
    with pytest.raises(BudgetExceeded, match="past the cap"):
        next(_sum_law_steps(model, 4096))
    # the largest DP mdp --n 48 could take on 64 states is admitted
    assert exact._sum_law_seconds(model, 16 * 48) <= models.WORK_CAP_S


def test_work_guard_admits_two_state_to_70000_and_refuses_300000(two_state04):
    # one pass to 70000 took about 8 s (estimated 8.9 s); 300000 is estimated at 155 s
    assert exact._sum_law_seconds(two_state04, 70000) <= models.WORK_CAP_S
    next(_sum_law_steps(two_state04, 70000))
    assert exact._sum_law_seconds(two_state04, 300000) > models.WORK_CAP_S
    with pytest.raises(BudgetExceeded, match="past the cap"):
        next(_sum_law_steps(two_state04, 300000))


@pytest.mark.parametrize("name", ["rare5", "rare_step2", "two_state:0.4", "two_state:0.999",
                                  "asymmetric3", "dyadic:6", "step4", "rademacher"])
def test_work_estimate_charges_log_space_columns_on_rare_transitions(name):
    # the DP's products at the shared dense-step price and 1.6 ns per state
    # and column-step besides; a column with an entry under 2^-960 of its
    # largest is summed in log space, a transition whose square is under
    # 2^-960 (1e-200) can put columns there, and only such a chain is charged
    # 8 ns per s^2 column-step for it
    model = _oracle_model(name)
    s, spread = model.n_states, exact._sublattice(model)[3]
    for n in (10, 1000, 2000):
        cols = n + spread * n * (n - 1) // 2
        plain = n * models._dense_step_seconds(s, cols / n) + 1.6e-9 * s * cols
        got = exact._sum_law_seconds(model, n)
        if name.startswith("rare"):
            assert got == pytest.approx(plain + 8e-9 * cols * s * s, rel=1e-12)
            # rare5 took 18-20 times the plain estimate at n = 1000 and 2000
            assert got > 10 * plain or n < 1000
        else:
            assert got == pytest.approx(plain, rel=1e-12)


def _top_sum_by_steps(model, rise, n):
    """max over positive-probability paths of rise[Y_1] + ... + rise[Y_n],
    one max-plus step at a time."""
    best = np.zeros(model.n_states)
    for _ in range(n):
        best = np.array([max(best[i] for i in range(model.n_states) if model.transition[i, j] > 0)
                         for j in range(model.n_states)]) + rise
    return int(best.max())


@pytest.mark.parametrize("slab_rows", [None, 3])
@pytest.mark.parametrize("name, enum_n", [("dyadic3", 5), ("file", 9), ("gapped", 7)])
def test_top_sum_matches_path_enumeration(name, enum_n, slab_rows, monkeypatch):
    from test_montecarlo import MODELS
    model = MODELS[name]()
    xmin, g, rise, _ = exact._sublattice(model)
    if slab_rows:  # each squaring in blocks of 3 rows, the last one short
        monkeypatch.setattr(exact, "SLAB_BYTES", 8 * slab_rows * model.n_states ** 2)
    for n in range(1, enum_n + 1):
        offsets, _ = oracles.enum_distribution(model, n)
        assert exact._top_sum(model.transition, rise, n) == (int(offsets.max()) - n * xmin) // g
    for n in (63, 64, 100, 1000):
        assert exact._top_sum(model.transition, rise, n) == _top_sum_by_steps(model, rise, n)


# -- the tilt's Newton moments: a jet raised by _power_sums ---------------------

def _assert_jet_matches_the_product_rule(model):
    """`_tilt_moments` (the jet) against the product rule written out, at n in
    {1, 2, 63, 4096, 10^6} and phi in {-reach/2, 0, reach/2}, with t at the mean
    and at 2/3 of the spread.  Both round every step's terms, so each gap is held
    to a few eps of those terms' size: the log norm to 4 eps n (1 + |phi| spread),
    the mean to 16 eps (|mean| + n spread), and the variance, which both form as
    m2/m0 - mean^2 with the same cancellation, to 16 eps (var + mean^2 + n
    spread^2).  On 80 random 2-3 state chains and dyadic L=6 the worst gaps were
    1.3, 3.7 and 4.8 eps of those sizes."""
    _, _, rise, spread = exact._sublattice(model)
    p, pi, eps, reach = model.transition, model.pi, np.finfo(float).eps, TILT_REACH / spread
    for n in (1, 2, 63, 4096, 10 ** 6):
        for phi in (-reach / 2, 0.0, reach / 2):
            for t in (float(pi @ rise), 2 * spread / 3):
                log_norm, mean, var = exact._tilt_moments(p, pi, rise, n, phi, t)
                want = oracles.tilt_moments_by_product_rule(p, pi, rise, n, phi, t)
                case = (n, phi, t, want)
                assert abs(log_norm - want[0]) <= 4 * eps * n * (1 + abs(phi) * spread), case
                assert abs(mean - want[1]) <= 16 * eps * (abs(want[1]) + n * spread), case
                scale = abs(want[2]) + want[1] ** 2 + n * spread ** 2
                assert abs(var - want[2]) <= 16 * eps * scale, case


@given(lattice_chains())
@settings(max_examples=40, deadline=None)
def test_tilt_jet_matches_the_product_rule_on_small_chains(model):
    _assert_jet_matches_the_product_rule(model)


def test_tilt_jet_matches_the_product_rule_on_64_states():
    _assert_jet_matches_the_product_rule(_oracle_model("dyadic:6"))


def test_tilt_plan_refuses_on_its_floor_before_any_powering(monkeypatch):
    # "hi" never repeats, so the plan would ask _top_sum; with the cap just
    # below the 16-point floor's price, the floor comes back before it and
    # before any Newton solve, priced with TILT_EVALS (3s, 3s) jet powers a bit
    model = build_finite_lattice_model(["lo", "hi"], [[0.5, 0.5], [1.0, 0.0]], [0, 1], 1)
    n, thr = 4096, 4096 ** 0.75
    plan = exact._tilt_plan(model, n, thr)
    floor = dataclasses.replace(plan, size=16)
    jet = 12 * exact.TILT_EVALS * models._dense_step_seconds(6, 6)
    assert floor.seconds == pytest.approx(12 * 9 * (2.5e-10 * 8 + 8e-7) + jet, rel=1e-12)

    def fail(*args):
        raise AssertionError("powered before the floor was priced")
    monkeypatch.setattr(exact, "_top_sum", fail)
    monkeypatch.setattr(exact, "_solve_tilt", fail)
    monkeypatch.setattr(models, "WORK_CAP_S", 0.999 * floor.seconds)
    got = exact._tilt_plan(model, n, thr)
    assert isinstance(got, exact._TiltPlan) and got.size == 16 and math.isnan(got.theta)
    assert (got.k, got.flip, got.rise.tolist()) == (plan.k, plan.flip, plan.rise.tolist())
    with pytest.raises(BudgetExceeded, match="^tilted transform of 16 points"):
        tilted_log_tail(model, n, thr)


@pytest.mark.parametrize("name", ["two_state:0.4", "dyadic:3", "asymmetric3"])
def test_tilted_tail_skips_top_sum_where_a_top_state_loops(name, monkeypatch):
    # a state of the top rise with a self-loop reaches n spread by itself, on
    # either side of the mean (below it the rises are flipped, and the top
    # state is the bottom one), so the max-plus powering is never asked
    model, n = _oracle_model(name), 64
    table = distribution_of_Sn(model, n)
    sd = table.sigma_n * math.sqrt(n)

    def fail(*args):
        raise AssertionError("_top_sum was called")
    monkeypatch.setattr(exact, "_top_sum", fail)
    _no_dp_fallback(monkeypatch)
    for thr in (-2.0 * sd, 0.5 * sd, 3.0 * sd, float(table.sum_values[-1])):
        got, _ = tilted_log_tail(model, n, thr)
        assert _close(got, float(exact_tail(table, thr / sd))), thr


# -- tails at large n: the tilted transform ----------------------------------

def _no_dp_fallback(monkeypatch):
    """Fail if tilted_log_tail hands its tail to the DP: on any sum-law pass."""
    def fail(*args, **kwargs):
        raise AssertionError("the transform fell back to the DP")
    monkeypatch.setattr(exact, "_sum_law_steps", fail)


def _count_sum_law_passes(monkeypatch) -> list[int]:
    """The horizon of every sum-law pass, in order."""
    real, passes = exact._sum_law_steps, []
    monkeypatch.setattr(exact, "_sum_law_steps",
                        lambda model, n: passes.append(n) or real(model, n))
    return passes


def _close(got: float, want: float) -> bool:
    """Within 1e-12 relative of the log tail, or of the tail where it is near 1."""
    return got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [1, 7, 64, 1024])
@pytest.mark.parametrize("name", ["two_state:0.4", "dyadic:3", "asymmetric3"])
def test_tilted_tail_matches_the_dp(name, n, monkeypatch):
    model = _oracle_model(name)
    table = distribution_of_Sn(model, n)
    sd = table.sigma_n * math.sqrt(n)
    _no_dp_fallback(monkeypatch)
    # around the mean (both sides, so the complement is used), moderate and
    # large deviations, and atoms next to both ends
    for thr in (0.0, 0.5 * sd, -2.0 * sd, 3.0 * sd, n ** 0.75, 0.3 * n,
                table.sum_values[1], table.sum_values[-2]):
        got, bound = tilted_log_tail(model, n, float(thr))
        assert _close(got, float(exact_tail(table, thr / sd))), (thr, got)
        # the round-off bound grows like n s times the tilted sd
        assert 0.0 <= bound <= 1e-7


@pytest.mark.parametrize("name, n", [("two_state:0.4", 64), ("two_state:0.4", 200),
                                     ("dyadic:3", 64), ("asymmetric3", 64)])
def test_tilted_tail_bound_covers_its_error(name, n, monkeypatch):
    # against the exact law in integers: the bound (truncation plus round-off)
    # holds, up to the rounding of the returned log itself
    model = _oracle_model(name)
    sd = sigma_n(model, n) * math.sqrt(n)
    _no_dp_fallback(monkeypatch)
    for thr in (0.0, 0.5 * sd, -2.0 * sd, 3.0 * sd, n ** 0.75, 0.3 * n):
        got, bound = tilted_log_tail(model, n, float(thr))
        want = oracles.exact_tail_fraction(model, n, float(thr))
        assert want > 0 and 0.0 < bound <= 1e-9
        assert abs(math.expm1(got - math.log(want))) <= bound + 4 * np.finfo(float).eps, thr


@pytest.mark.parametrize("n", [16, 81, 256, 625, 4096])
def test_tilted_tail_is_inclusive_at_atoms(two_state04, n, monkeypatch):
    # c = 1, a = 1/4: the threshold c n^{3/4} is an integer with the parity of n,
    # an atom of two_state, and n ** 0.75 rounds next to it
    thr = n ** 0.75
    atom = round(thr)
    table = distribution_of_Sn(two_state04, n)
    assert atom in table.sum_values.tolist()
    _no_dp_fallback(monkeypatch)
    got, bound = tilted_log_tail(two_state04, n, thr)
    assert _close(got, float(exact_tail(table, thr / (table.sigma_n * math.sqrt(n)))))
    assert bound <= 1e-8
    # the atom's own mass is in the tail: the next lattice point up is the next atom
    assert tilted_log_tail(two_state04, n, atom + 1.0)[0] == tilted_log_tail(two_state04, n, atom + 2.0)[0] < got
    an = float(n) ** -0.25
    monkeypatch.undo()  # mdp may take the DP at small n
    assert _close(mdp_diagnostic(two_state04, 1.0, 0.25, [n]).scaled[0], an * an * got)


def test_tilted_tail_doubles_a_window_too_small(two_state04, monkeypatch):
    # a plan shrunk eightfold misses the Chernoff cut: the run doubles its
    # window until the cut clears and lands on the unshrunk plan's answer
    n, thr = 4096, 4096 ** 0.75
    want = tilted_log_tail(two_state04, n, thr)
    plan, sizes = exact._tilt_plan, []
    monkeypatch.setattr(exact, "_tilt_plan", lambda *args: dataclasses.replace(
        p := plan(*args), size=p.size // 8))
    window = exact._window_tail
    monkeypatch.setattr(exact, "_window_tail", lambda p: sizes.append(p.size) or window(p))
    _no_dp_fallback(monkeypatch)
    got, bound = tilted_log_tail(two_state04, n, thr)
    assert len(sizes) > 1 and sizes == [sizes[0] << i for i in range(len(sizes))]
    assert (got, bound) == want and bound <= 1e-9
    monkeypatch.undo()
    table = distribution_of_Sn(two_state04, n)
    dp = float(exact_tail(table, thr / (table.sigma_n * math.sqrt(n))))
    assert abs(math.expm1(got - dp)) <= bound


@pytest.mark.parametrize("name", ["two_state:0.4", "dyadic:3", "asymmetric3"])
def test_tilted_tail_at_the_top_atom_and_past_it(name, monkeypatch):
    model, n = _oracle_model(name), 256
    table = distribution_of_Sn(model, n)
    top = float(table.sum_values[-1])
    _no_dp_fallback(monkeypatch)
    got, bound = tilted_log_tail(model, n, top)
    assert _close(got, float(exact_tail(table, top / (table.sigma_n * math.sqrt(n)))))
    # one lattice point past the top atom: -inf, before any linear algebra
    step = float(table.offsets[-1] - table.offsets[-2]) / model.denom
    monkeypatch.setattr(exact, "_top_sum", None)
    assert tilted_log_tail(model, n, top + step) == (-math.inf, 0.0)


def test_tilted_tail_past_the_highest_reachable_sum():
    # "hi" never repeats, so sums stop near n/2 although the lattice runs to n
    model = build_finite_lattice_model(["lo", "hi"], [[0.5, 0.5], [1.0, 0.0]], [0, 1], 1)
    n = 40
    table = distribution_of_Sn(model, n)
    for k in range(18, 26):
        got = tilted_log_tail(model, n, k - n * float(model.mean_fraction))[0]
        assert _close(got, float(exact_tail(table, (k - table.center) / (table.sigma_n * math.sqrt(n)))))
    assert tilted_log_tail(model, n, table.sum_values[-1] + 1.0)[0] == -math.inf


def test_tilted_tail_hands_unresolvable_tails_to_the_dp(monkeypatch):
    # transitions of 1e-200 make the tilted law lumpy: where its mass near the
    # threshold is below the transform's round-off, the DP answers
    model, n = _oracle_model("rare5"), 5
    table = distribution_of_Sn(model, n)
    calls = _count_sum_law_passes(monkeypatch)
    for thr in table.sum_values:
        got, bound = tilted_log_tail(model, n, float(thr))
        assert _close(got, float(exact_tail(table, thr / (table.sigma_n * math.sqrt(n)))))
    assert calls and set(calls) == {n}


def test_grid_reads_its_unresolvable_tails_off_one_pass(monkeypatch):
    # the transform forced on rare5: at c = 0.8, a = 1/4 it cannot resolve the
    # tails at n = 2..6 but resolves n = 7..11, and the five it hands back
    # come off one sum-law pass to the largest of them, not one pass each
    model, grid = _oracle_model("rare5"), [11, 2, 7, 3, 8, 4, 9, 5, 10, 6]
    tables = dict(zip(grid, _sum_law_tables(model, grid)))
    monkeypatch.setattr(exact._TiltPlan, "seconds", property(lambda plan: 0.0))
    passes = _count_sum_law_passes(monkeypatch)
    diag = mdp_diagnostic(model, 0.8, 0.25, grid)
    assert passes == [6]
    for n, got, bound in zip(grid, diag.scaled, diag.error_bound):
        an, table = n ** -0.25, tables[n]
        want = an * an * float(exact_tail(table, 0.8 / an / table.sigma_n))
        assert (bound == 0.0) == (n <= 6)
        assert abs(got - want) <= (1e-12 if n <= 6 else 1e-9) * abs(want), n


@pytest.mark.parametrize("n", [1, 7, 64])
def test_binomial_tail_is_inclusive_at_atoms_like_the_dp(rademacher, n):
    # at each atom and one ulp either side of it, as exact_tail snaps them
    table = distribution_of_Sn(rademacher, n)
    for atom in table.sum_values:
        for t in (atom, np.nextafter(atom, -np.inf), np.nextafter(atom, np.inf)):
            want = float(exact_tail(table, t / math.sqrt(n) / table.sigma_n))
            assert _close(exact._binomial_log_tail(n, float(t)), want), (atom, t)
    assert exact._binomial_log_tail(n, n + 1.0) == -math.inf


@pytest.mark.parametrize("n", [1, 2, 47, 48, 4096, 10 ** 5])
def test_binomial_tail_window_adds_the_terms_of_the_full_sum(n):
    # the window of terms within e^-750 of the largest: against every term of
    # the same closed form to 1e-13, and against plain lgamma sums within
    # their log-gamma rounding, 4 eps (lgamma(n + 1) + n log 2) absolute
    h, lgamma_ulps = n // 2, 4 * np.finfo(float).eps * (math.lgamma(n + 1) + n * math.log(2.0))
    for k0 in {0, 1, h - 1, h, (n + 1) // 2, h + math.isqrt(n), n - 1, n}:
        got = exact._binomial_log_tail(n, float(2 * k0 - n))
        every, plain = oracles.binom_log_tail_every_term(n, k0), oracles.binom_log_tail_from(n, k0)
        assert abs(got - every) <= 1e-13 * max(1.0, abs(every)), k0
        assert abs(got - plain) <= 1e-13 * max(1.0, abs(plain)) + lgamma_ulps, k0
    assert exact._binomial_log_tail(n, n + 2.0) == -math.inf


def test_binomial_tail_holds_its_window_only():
    # the window is the 11855 terms from k0 on (of 484189) that can lie within
    # e^-750 of the largest: the full sum peaked near 28 MB, the window holds well
    # under a megabyte
    tracemalloc.start()
    try:
        got = exact._binomial_log_tail(10 ** 6, (10 ** 6) ** 0.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == pytest.approx(oracles.binom_log_tail_every_term(10 ** 6, 515812), rel=1e-13)


def _exact_binomial_log_tails(n: int, k0s) -> dict:
    """log P(K >= k0) for K binomial(n, 1/2): the integer sum of C(n, k) for k >= k0
    (math.comb at k = n, then C(n, k - 1) = C(n, k) k / (n - k + 1) exactly), its log
    taken at 50 digits less n log 2."""
    out, acc, k, c = {}, 0, n, math.comb(n, n)
    for k0 in sorted(set(k0s), reverse=True):
        while k >= k0:
            acc, c, k = acc + c, c * k // (n - k + 1), k - 1
        with mpmath.workdps(50):
            out[k0] = float(mpmath.log(acc) - n * mpmath.log(2))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 47, 48, 1000, 4096, 10 ** 5])
def test_binomial_terms_match_exact_integer_sums(n):
    # Loader's saddle-point terms hold the whole tail within 1e-13 (3.3e-16 measured);
    # log-gamma differences lost n ln n eps, 1.4e-10 at n = 10^5
    h, r = n // 2, math.isqrt(n)
    k0s = [k for k in {0, 1, h - 1, h, (n + 1) // 2, h + r, h + 4 * r, h + 20 * r, n - 1, n}
           if 0 <= k <= n]
    for k0, want in _exact_binomial_log_tails(n, k0s).items():
        got = exact._binomial_log_tail(n, float(2 * k0 - n))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (k0, got, want)


def _binomial_window(monkeypatch, n, t, keep=True):
    """_binomial_log_tail(n, t) and the k of its window with their log-terms (or only
    their count), read off its call of `_binomial_log_terms`."""
    seen, plain = [], exact._binomial_log_terms

    def spy(n, lo, hi):
        out = plain(n, lo, hi)
        seen.append((np.arange(lo, hi + 1), out.copy()) if keep else hi - lo + 1)
        return out
    monkeypatch.setattr(exact, "_binomial_log_terms", spy)
    return exact._binomial_log_tail(n, t), seen[0]


@pytest.mark.parametrize("n", [1, 2, 48, 10 ** 6, 10 ** 11])
def test_binomial_tail_sums_like_scipy_logsumexp(monkeypatch, n):
    # bit for bit the scipy 1.17 logsumexp of the same log-terms, each in Loader's
    # saddle-point form (their accuracy: test_binomial_terms_match_exact_integer_sums)
    h = n // 2
    k0s = ({0, 1, h - 1, h, (n + 1) // 2, h + math.isqrt(n), n - 1, n} if n <= 10 ** 6
           else {h + 300 * math.isqrt(n), n - 1, n})  # windows of 2 x 10^5 terms or fewer
    for k0 in sorted(k for k in k0s if k >= 0):
        got, (k, terms) = _binomial_window(monkeypatch, n, float(2 * k0 - n))
        assert k[0] >= k0 and np.all(np.diff(k) == 1)
        assert got == float(special.logsumexp(terms)), k0
        if k[-1] < n:  # the window ends only where the terms have fallen past TAIL_NATS
            past = exact._binomial_log_terms(n, k[-1] + 1, k[-1] + 1)[0]
            assert past < terms.max() - exact.TAIL_NATS, k0


def test_binomial_tail_holds_two_floats_a_term(monkeypatch):
    # the widest window at n = 10^10, 3.9 x 10^6 terms: the log-terms and the
    # buffers of one chunk of them, within the price of a term
    n = 10 ** 10
    tracemalloc.start()
    try:
        _, terms = _binomial_window(monkeypatch, n, -float(n), keep=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms > 3 * 10 ** 6 and peak <= 17 * terms <= exact.BINOM_TERM_BYTES * terms


@pytest.mark.parametrize("n, budget", [(1 << 18, DEFAULT_BUDGET_BYTES), (256, 1 << 20)])
def test_tilted_tail_budget_raises_before_allocating(n, budget, monkeypatch):
    # 64 states: at n = 2^18 the powers of about 1.3e5 frequencies would run
    # for about two and a half minutes; at n = 256 one slab of them passes 1 MiB
    model = builtin("dyadic_contracting", L=6)
    monkeypatch.setattr(models, "DEFAULT_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="tilted transform"):
            tilted_log_tail(model, n, n ** 0.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# -- tails, quantiles, Kolmogorov distance ------------------------------------

def test_exact_tail_edges(rademacher):
    table = distribution_of_Sn(rademacher, 4)
    assert exact_tail(table, -10.0) == pytest.approx(0.0, abs=1e-12)
    assert exact_tail(table, 10.0) == -math.inf
    assert exact_lower_tail(table, 10.0) == -math.inf
    assert exact_lower_tail(table, -10.0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name, n", [("two_state:0.4", 256), ("dyadic:3", 40),
                                     ("asymmetric3", 200), ("two_state:0.99", 1024)])
def test_tails_inclusive_at_every_atom(name, n):
    table = distribution_of_Sn(_oracle_model(name), n)
    at = table.what_values
    np.testing.assert_array_equal(exact_tail(table, at), _suffix_logsum(table.logp))
    np.testing.assert_array_equal(exact_lower_tail(table, -at), _prefix_logsum(table.logp))


# atoms g / denom apart: every other lattice point is empty on two_state
ATOM_TABLES = [("two_state:0.4", 64, 2), ("asymmetric3", 40, 1)]


def _atom_table(name, n, g):
    table = distribution_of_Sn(_oracle_model(name), n)
    assert np.gcd.reduce(np.diff(table.offsets)) == g
    return table


@pytest.mark.parametrize("name, n, g", ATOM_TABLES)
def test_ratio_curve_inclusive_at_every_atom(name, n, g):
    # right ratios at atoms >= 0, left ratios at atoms <= 0, and right ratios
    # midway between atoms (an empty lattice point when g = 2) take the next atom
    table = _atom_table(name, n, g)
    at = table.what_values
    suffix, prefix = _suffix_logsum(table.logp), _prefix_logsum(table.logp)
    up = np.flatnonzero(at >= 0)
    mid = (at[up[:-1]] + at[up[1:]]) / 2
    xs = np.concatenate((at[up], mid))
    right = ratio_curve(_oracle_model(name), n, 4, xs, mode="exact").right
    np.testing.assert_array_equal(
        right, np.exp(np.concatenate((suffix[up], suffix[up[1:]])) - normal_log_sf(xs)))
    down = np.flatnonzero(at <= 0)
    left = ratio_curve(_oracle_model(name), n, 4, -at[down], mode="exact").left
    np.testing.assert_array_equal(left, np.exp(prefix[down] - normal_log_sf(-at[down])))


@pytest.mark.parametrize("name, n, g", ATOM_TABLES)
def test_quantile_and_transform_hit_every_atom(name, n, g):
    # s in (F(a_{i-1}), F(a_i)] maps to a_i, at both ends, for every atom whose
    # cdf rises in double precision below 1
    table = _atom_table(name, n, g)
    cdf, at = table.cdf_points(), table.what_values
    below = np.concatenate(([0.0], cdf[:-1]))
    rises = (cdf > below) & (np.nextafter(below, 1.0) < 1.0)
    lo = np.nextafter(below[rises], 1.0)
    hi = np.minimum(cdf[rises], np.nextafter(1.0, 0.0))
    assert rises.sum() > at.size // 2
    for q in (lambda s: quantile(table, s), build_quantile_transform(table)):
        np.testing.assert_array_equal(q(lo), at[rises])
        np.testing.assert_array_equal(q(hi), at[rises])


def test_one_quantile_transform_per_table(monkeypatch):
    # quantile, build_quantile_transform and ks_distance_exact read the table's
    # one cached transform, whose answers stay those of a plain binary search
    built = []

    class Counting(exact.QuantileTransform):
        def __init__(self, atoms, cum):
            built.append(self)
            super().__init__(atoms, cum)

    monkeypatch.setattr(exact, "QuantileTransform", Counting)
    table = distribution_of_Sn(builtin("two_state", rho=0.4), 256)
    s = np.random.default_rng(5).random(1000)
    want = oracles.searchsorted_inverse(table.what_values, table.cdf_points(), s)
    for _ in range(3):
        np.testing.assert_array_equal(quantile(table, s), want)
        assert quantile(table, s[0]) == want[0]
    h = build_quantile_transform(table)
    np.testing.assert_array_equal(h(s), want)
    assert ks_distance_exact(table) == exact._ks_sweep(table.what_values, table.cdf_points())
    assert len(built) == 1
    assert h is built[0] is table.transform is build_quantile_transform(table)


def test_ks_distance_reads_the_table_not_a_transform():
    # the sweep reads the atoms and cdf points: no bucket table is built for it
    table = distribution_of_Sn(builtin("two_state", rho=0.4), 512)
    assert ks_distance_exact(table) == exact._ks_sweep(table.what_values, table.cdf_points())
    assert "transform" not in vars(table)


@pytest.mark.parametrize("name, n, g", ATOM_TABLES)
def test_ks_distance_takes_both_sides_of_every_atom(name, n, g):
    # the cdf includes each atom's mass at the atom and excludes it just below
    table = _atom_table(name, n, g)
    probs = np.exp(table.logp)
    incl = np.array([math.fsum(probs[:i + 1]) for i in range(probs.size)])
    excl = np.concatenate(([0.0], incl[:-1]))
    phi = normal_cdf(table.what_values)
    sides = np.maximum(np.abs(incl - phi), np.abs(excl - phi))
    assert ks_distance_exact(table) == pytest.approx(float(sides.max()), rel=0.0, abs=1e-13)


def test_tail_symmetry_two_state(table_two_state_256):
    xs = np.linspace(0.0, 2.0, 9)
    right = np.asarray(exact_tail(table_two_state_256, xs))
    left = np.asarray(exact_lower_tail(table_two_state_256, xs))
    assert np.max(np.abs(np.exp(right) - np.exp(left))) <= 1e-10


def test_quantile_two_point_law(rademacher):
    table = distribution_of_Sn(rademacher, 1)
    assert quantile(table, 0.3) == -1.0
    assert quantile(table, 0.7) == 1.0
    assert quantile(table, 0.5) == -1.0  # F(-1) = 0.5 >= s, inf attained at -1
    inside = r"quantile argument must lie strictly inside \(0, 1\)"
    with pytest.raises(ParamOutOfRange, match=inside):
        quantile(table, 0.0)
    with pytest.raises(ParamOutOfRange, match=inside):
        quantile(table, 1.0)


@pytest.mark.parametrize("query", [exact_tail, exact_lower_tail, quantile])
def test_nan_thresholds_raise(two_state04, query):
    # nan fails every comparison, so no range check on the result would catch it
    table = distribution_of_Sn(two_state04, 64)
    for arg in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ParamOutOfRange, match="nan"):
            query(table, arg)


@pytest.mark.parametrize("mode, chains", [("exact", None), ("mc", 1000)])
def test_ratio_curve_rejects_a_nan_level(two_state04, mode, chains):
    with pytest.raises(ParamOutOfRange, match="nonnegative"):
        ratio_curve(two_state04, 64, 4, [1.0, math.nan], mode=mode, chains=chains)


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_quantile_monotone(n):
    table = distribution_of_Sn(builtin("two_state", rho=0.4), n)
    grid = np.linspace(1e-3, 1 - 1e-3, 1000)
    values = np.asarray(quantile(table, grid))
    assert np.all(np.diff(values) >= 0.0)


def test_quantile_inverse_relation(table_two_state_256):
    t = table_two_state_256
    cdf = t.cdf_points()
    atoms = t.what_values
    inner = (cdf > 0) & (cdf < 1)
    assert np.all(np.asarray(quantile(t, cdf[inner])) <= atoms[inner] + 1e-15)


def test_ks_distance_two_point_law(rademacher):
    table = distribution_of_Sn(rademacher, 1)
    expected = 0.5 - float(normal_cdf(-1.0))
    assert ks_distance_exact(table) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.34134474606854293, abs=1e-11)


def test_ks_distance_decreases_with_n(rademacher):
    values = [ks_distance_exact(distribution_of_Sn(rademacher, n))
              for n in (16, 64, 256)]
    assert values[0] > values[1] > values[2]


def test_ks_distance_of_discretized_normal():
    # a fine lattice discretization of Phi itself stays within the step size
    step = 0.01
    zs = np.arange(-600, 601)
    cdf = normal_cdf((zs + 0.5) * step)
    probs = np.diff(cdf, prepend=0.0)
    probs[-1] += 1.0 - probs.sum()
    table = TailTable(n=1, denom=100, offsets=zs.astype(np.int64),
                      logp=np.log(probs), sigma_n=1.0)
    assert ks_distance_exact(table) <= step


def test_a_lattice_in_units_of_2_50_runs_like_the_unit_chain_until_int64_could_wrap():
    # the 0/1 chain in units of 2^-50: its raw sums reach n 2^50, 2^62 at n = 4096 and
    # 2^63 at n = 8192, where the DP's top atom read -12288 and simulated W wrapped
    trans = [[0.7, 0.3], [0.3, 0.7]]
    big = build_finite_lattice_model(["a", "b"], trans, [0, 2 ** 50], 2 ** 50)
    unit = build_finite_lattice_model(["a", "b"], trans, [0, 1], 1)
    tb, tu = distribution_of_Sn(big, 4096), distribution_of_Sn(unit, 4096)
    assert tb.sum_values.tobytes() == tu.sum_values.tobytes()
    assert tb.logp.tobytes() == tu.logp.tobytes()
    assert simulate_W(big, 4096, 1000, 3).tobytes() == simulate_W(unit, 4096, 1000, 3).tobytes()
    for call in (distribution_of_Sn, lambda m, n: _sum_law_tables(m, [16, n]),
                 lambda m, n: _max_abs_tail(m, n, 1.0), lambda m, n: simulate_W(m, n, 10, 3)):
        with pytest.raises(ParamOutOfRange, match="pass the int64 range"):
            call(big, 8192)


def test_invalid_inputs(two_state04):
    with pytest.raises(ParamOutOfRange):
        distribution_of_Sn(two_state04, 0)
    with pytest.raises(ParamOutOfRange):
        sigma_n(two_state04, 0)
    with pytest.raises(ParamOutOfRange):
        conditional_block_moments(two_state04, 0)
