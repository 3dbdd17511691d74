import math

import numpy as np
import pytest

from mdlab import (
    build_quantile_transform,
    builtin,
    coefficient_set,
    coupling_report,
    distribution_of_Sn,
    induced_atom_probabilities,
    sample_coupled_pairs,
)
from mdlab.errors import ParamOutOfRange, TooFewSamples


def test_two_point_transform(rademacher):
    table = distribution_of_Sn(rademacher, 1)
    h = build_quantile_transform(table)
    assert h(0.3) == -1.0
    assert h(0.7) == 1.0
    assert h(0.5) == -1.0  # F(-1) = 0.5 attains the infimum


def test_transform_of_cdf_never_overshoots(table_two_state_256):
    h = build_quantile_transform(table_two_state_256)
    atoms = table_two_state_256.what_values
    cdf = table_two_state_256.cdf_points()
    inner = (cdf > 0) & (cdf < 1)
    assert np.all(h(cdf[inner]) <= atoms[inner] + 1e-15)


def test_transform_reproduces_law_from_uniforms(table_two_state_256):
    h = build_quantile_transform(table_two_state_256)
    rng = np.random.default_rng(5)
    n_draws = 100_000
    draws = h(rng.uniform(size=n_draws))
    atoms = table_two_state_256.what_values
    cdf = table_two_state_256.cdf_points()
    emp = np.searchsorted(np.sort(draws), atoms, side="right") / n_draws
    assert np.max(np.abs(emp - cdf)) <= 1.36 / np.sqrt(n_draws)


def test_coupled_pairs_two_point_split(rademacher):
    table = distribution_of_Sn(rademacher, 1)
    y, z = sample_coupled_pairs(build_quantile_transform(table), 50_000, seed=1)
    assert np.array_equal(np.unique(y), [-1.0, 1.0])
    assert np.all((y == -1.0) == (z <= 0.0))
    assert abs(np.mean(y == -1.0) - 0.5) <= 0.02


def test_coupled_pairs_monotone_and_correlated(table_two_state_256):
    y, z = sample_coupled_pairs(build_quantile_transform(table_two_state_256),
                                20_000, seed=2)
    order = np.argsort(z)
    assert np.all(np.diff(y[order]) >= 0.0)
    assert np.corrcoef(y, z)[0, 1] > 0.9


def test_coupled_pairs_deterministic(table_two_state_256):
    h = build_quantile_transform(table_two_state_256)
    y1, z1 = sample_coupled_pairs(h, 5000, seed=3)
    y2, z2 = sample_coupled_pairs(h, 5000, seed=3)
    assert np.array_equal(y1, y2) and np.array_equal(z1, z2)


def test_induced_atom_probabilities_match_table(table_two_state_256):
    h = build_quantile_transform(table_two_state_256)
    induced = induced_atom_probabilities(h)
    assert np.max(np.abs(induced - table_two_state_256.probabilities())) <= 1e-12
    assert induced.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_exactness_smaller_horizon(two_state04):
    table = distribution_of_Sn(two_state04, 64)
    h = build_quantile_transform(table)
    induced = induced_atom_probabilities(h)
    assert np.max(np.abs(induced - table.probabilities())) <= 1e-12


def test_empirical_transform_needs_enough_samples():
    with pytest.raises(TooFewSamples):
        build_quantile_transform(np.zeros(100))


def test_empirical_transform_tracks_gaussian():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(50_000)
    h = build_quantile_transform(samples)
    for s in (0.25, 0.5, 0.9):
        from mdlab.normal import normal_quantile
        assert h(s) == pytest.approx(float(normal_quantile(s)), abs=0.03)


def test_gap_median_tightens_with_n(two_state04):
    reports = {}
    for n in (256, 4096):
        m = int(n ** (2.0 / 7.0) + 1e-9)
        reports[n] = coupling_report(two_state04, coefficient_set(two_state04, n, m), 20_000,
                                     seed=7)
    assert reports[4096].gap_median <= reports[256].gap_median


def test_coupling_report_shapes(two_state04):
    rep = coupling_report(two_state04, coefficient_set(two_state04, 256, 5), 20_000, seed=11)
    assert rep.varsigma_n > 0
    assert rep.lambda_hat < 0
    assert rep.lambda_se > 0
    assert 0 <= rep.violation_fraction <= 1
    assert rep.admissible_count > 0
    assert np.all(np.diff(rep.survival_logp) <= 0)  # survival is non-increasing
    doc = rep.to_json_dict()
    for key in ("varsigma_n", "lambda_hat", "lambda_se", "violation_fraction",
                "admissible_count", "alpha", "c_alpha"):
        assert key in doc


def test_coupling_report_validation(two_state04):
    with pytest.raises(ParamOutOfRange):
        coupling_report(two_state04, coefficient_set(two_state04, 64, 4), 1000, seed=0,
                        alpha=0.0)
    with pytest.raises(ParamOutOfRange):
        sample_coupled_pairs(
            build_quantile_transform(distribution_of_Sn(two_state04, 8)), 0, seed=0)


@pytest.mark.parametrize("alpha, c_alpha", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                                            (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)])
def test_coupling_report_needs_finite_positive_parameters(two_state04, alpha, c_alpha):
    with pytest.raises(ParamOutOfRange):
        coupling_report(two_state04, coefficient_set(two_state04, 64, 4), 1000, seed=0,
                        alpha=alpha, c_alpha=c_alpha)


def test_normalized_gap_concentrates_for_iid(rademacher):
    medians = []
    for n in (256, 1024, 4096):
        m = int(n ** (1.0 / 3.0) + 1e-9)
        rep = coupling_report(rademacher, coefficient_set(rademacher, n, m), 20_000, seed=13)
        medians.append(rep.gap_median)
    assert medians[2] <= medians[0]
