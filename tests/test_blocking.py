import itertools
import math

import numpy as np
import pytest

from mdlab import build_finite_lattice_model, coefficient_set, quadratic_characteristic_deviation
from mdlab.models import sample_state_paths

import oracles


def test_martingale_property_empirically(two_state04):
    # conditional mean of the recentered block given its starting state
    n, m, chains = 30, 3, 10_000
    paths = sample_state_paths(two_state04, n, chains, seed=11)
    values = two_state04.x_values[paths[:, 1:]]
    k = n // m
    cm_means = np.array([0.624 * s for s in two_state04.x_values])
    for i in range(k):
        starts = paths[:, i * m]
        sums = values[:, i * m:(i + 1) * m].sum(axis=1)
        diffs = sums - cm_means[starts]
        for s in (0, 1):
            sel = diffs[starts == s]
            se = sel.std(ddof=1) / math.sqrt(sel.size)
            assert abs(sel.mean()) <= 4.0 * se


def test_quadratic_characteristic_deviation_rademacher(rademacher):
    qd = quadratic_characteristic_deviation(rademacher, coefficient_set(rademacher, 120, 6))
    assert qd.exact_value <= 6 / 120 + 1e-12
    assert qd.exact_value == pytest.approx(0.0, abs=1e-12)  # m divides n
    qd2 = quadratic_characteristic_deviation(rademacher, coefficient_set(rademacher, 100, 7))
    assert qd2.exact_value == pytest.approx(1 - 14 * 7 / 100, abs=1e-12)
    assert qd2.exact_value <= qd2.bound_value + 1e-12


def test_quadratic_characteristic_deviation_two_state(two_state04):
    qd = quadratic_characteristic_deviation(two_state04, coefficient_set(two_state04, 120, 6))
    # independent path: conditional block variance enumerated over 2^6 paths
    per_state = []
    for s0 in (0, 1):
        paths = oracles.all_state_paths(2, 7)
        keep = paths[:, 0] == s0
        paths = paths[keep]
        prob = np.ones(paths.shape[0])
        for t in range(1, 7):
            prob *= two_state04.transition[paths[:, t - 1], paths[:, t]]
        sums = two_state04.x_values[paths[:, 1:]].sum(axis=1)
        mean = float(prob @ sums)
        second = float(prob @ sums ** 2)
        per_state.append(second - mean ** 2)
    sig_sq = oracles.two_state_sigma_sq(0.4, 120)
    k = 20
    expected = max(abs(k * max(per_state) / (120 * sig_sq) - 1),
                   abs(k * min(per_state) / (120 * sig_sq) - 1))
    assert qd.exact_value == pytest.approx(expected, abs=1e-12)
    assert qd.exact_value <= qd.bound_value


@pytest.mark.parametrize("n, m", [(7, 3), (11, 4), (5, 5)])
def test_martingale_all_deviation_against_every_block_start(n, m):
    # the remainder block is recentered too: brute force over the start states
    # of all k + 1 blocks, with variances from path enumeration
    model = build_finite_lattice_model(
        ["lo", "mid", "hi"], [[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]],
        [-2, 1, 3], 2)
    coeffs = coefficient_set(model, n, m)
    qd = quadratic_characteristic_deviation(model, coeffs, variant="martingale_all")
    k, rem = divmod(n, m)

    def variances(length):
        first, second = oracles.enum_block_moments(model, length)
        return second[-1] - first[-1] ** 2

    lengths = [m] * k + ([rem] if rem else [])
    var = {length: variances(length) for length in set(lengths)}
    scale = n * oracles.sigma_n_by_lags(model, n) ** 2
    expected = max(abs(sum(var[length][s] for length, s in zip(lengths, starts)) / scale - 1)
                   for starts in itertools.product(range(model.n_states), repeat=len(lengths)))
    assert qd.exact_value == pytest.approx(expected, rel=1e-12, abs=1e-14)
    assert qd.bound_value == coeffs.tau_sq and qd.variant == "martingale_all"


def test_single_block_deviation_matches_full_conditional_moment(rademacher):
    n = 8
    qd = quadratic_characteristic_deviation(rademacher, coefficient_set(rademacher, n, n))
    # for a martingale the single-block value is E[S_n^2 | F_0]/(n sigma^2) - 1 = 0
    assert qd.exact_value == pytest.approx(0.0, abs=1e-12)
