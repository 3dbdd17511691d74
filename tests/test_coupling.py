import math
import tracemalloc

import numpy as np
import pytest

import oracles
from mdlab import (
    build_quantile_transform,
    builtin,
    coefficient_set,
    coupling_report,
    distribution_of_Sn,
    induced_atom_probabilities,
    sample_coupled_pairs,
)
from mdlab.coupling import DRAW_CHUNK
from mdlab.errors import ParamOutOfRange
from mdlab.exact import QuantileTransform
from mdlab.models import build_finite_lattice_model, child_rng
from mdlab.normal import normal_cdf


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


@pytest.mark.parametrize("source", [np.zeros(1000), [0.0, 1.0], None],
                         ids=["samples", "list", "None"])
def test_transform_is_built_from_a_table_only(source):
    # a sample array once became an empirical CDF; no command, workload or item built one
    with pytest.raises(ParamOutOfRange, match="TailTable"):
        build_quantile_transform(source)


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


# -- the bucketed inverse and the chunked draws --------------------------------

# the benchmark's 3-state file model: its cumulative sums pass 1 in rounding
FILE_MODEL = build_finite_lattice_model(
    ["lo", "mid", "hi"], [[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]], [-2, 1, 3], 2)


def _inverse_sources():
    for name, model, n in (("two_state 4096", builtin("two_state", rho=0.4), 4096),
                           ("dyadic L=6 48", builtin("dyadic_contracting", L=6), 48),
                           ("file 1024", FILE_MODEL, 1024),
                           ("rademacher 64", builtin("rademacher"), 64)):
        yield name, build_quantile_transform(distribution_of_Sn(model, n))
    # the empirical CDF of 10^5 normal draws: many atoms, each of mass 1e-5
    samples = np.sort(np.random.default_rng(21).standard_normal(10 ** 5))
    cum = np.arange(1, samples.size + 1) / samples.size
    yield "empirical 1e5", QuantileTransform(samples, cum)


@pytest.fixture(scope="module")
def inverse_sources():
    return dict(_inverse_sources())


def _bucket_probes(h) -> np.ndarray:
    # both ends and a spread of points inside every bucket holding 2+ breakpoints
    b = np.flatnonzero(h._crowded)
    frac = np.linspace(0.0, 1.0, 9)[:-1]
    return np.concatenate([((b[:, None] + frac) / h._buckets).ravel(),
                           (b + 1) / h._buckets])


@pytest.mark.parametrize("name", [name for name, _ in _inverse_sources()])
def test_bucketed_inverse_is_searchsorted_bit_for_bit(inverse_sources, name):
    h = inverse_sources[name]
    cum = h.cum
    assert np.all(np.diff(cum) >= 0.0) and cum[-1] == 1.0
    keys = np.arange(h._buckets + 1) / h._buckets
    assert np.array_equal(h._edges, np.append(np.searchsorted(cum, keys), h._edges[-2]))
    # a table's tails crowd breakpoints into shared buckets; k / 10^5 never does
    assert h._crowded.any() == (name != "empirical 1e5")
    s = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [0.0, 1.0],
                        _bucket_probes(h),
                        normal_cdf(np.random.default_rng(5).standard_normal(10 ** 6))])
    s = np.clip(s, 0.0, 1.0)
    want = oracles.searchsorted_inverse(h.atoms, cum, s)
    got = h(s)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))
    assert h(0.0) == h.atoms[0] and h(1.0) == oracles.searchsorted_inverse(h.atoms, cum, 1.0)


@pytest.mark.parametrize("draws", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
                                   3 * DRAW_CHUNK + 7])
def test_chunked_draws_match_one_search_and_the_seed_blocks(inverse_sources, draws):
    # z is child_rng(seed, b)'s normals for chunk b; y the plain inverse of Phi(z);
    # a shorter request is a prefix of a longer one
    h = inverse_sources["two_state 4096"]
    y, z = sample_coupled_pairs(h, draws, seed=17)
    blocks = [child_rng(17, b).standard_normal(min(DRAW_CHUNK, draws - lo))
              for b, lo in enumerate(range(0, draws, DRAW_CHUNK))]
    assert np.array_equal(z, np.concatenate(blocks))
    assert np.array_equal(y, oracles.searchsorted_inverse(h.atoms, h.cum, normal_cdf(z)))
    assert np.array_equal(h(normal_cdf(z)), y)
    y_all, z_all = sample_coupled_pairs(h, 3 * DRAW_CHUNK + 7, seed=17)
    assert np.array_equal(y, y_all[:draws]) and np.array_equal(z, z_all[:draws])


def test_coupled_draws_peak_memory_per_draw(inverse_sources):
    # y and z are 16 bytes a draw; the rest is one chunk's temporaries
    h, draws = inverse_sources["two_state 4096"], 10 ** 6
    tracemalloc.start()
    try:
        sample_coupled_pairs(h, draws, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * draws


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, -math.inf, math.inf])
def test_transform_refuses_nan_and_values_outside_unit_interval(inverse_sources, bad):
    h = inverse_sources["rademacher 64"]
    with pytest.raises(ParamOutOfRange, match=r"must lie in \[0, 1\]"):
        h(bad)
    with pytest.raises(ParamOutOfRange):
        h(np.array([0.25, bad, 0.75]))
    assert h(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("model, n, overshoots", [(FILE_MODEL, 1024, 1576),
                                                  (builtin("rademacher"), 64, 0)])
def test_cdf_points_never_decrease_past_rounding(model, n, overshoots):
    # the running sum of the atoms' masses may pass 1 in rounding; it is capped
    # there.  The counts are figures of the DP's last digits
    table = distribution_of_Sn(model, n)
    assert int(np.sum(np.cumsum(table.probabilities()) > 1.0)) == overshoots
    cdf = table.cdf_points()
    assert np.all(np.diff(cdf) >= 0.0) and cdf.max() == cdf[-1] == 1.0
