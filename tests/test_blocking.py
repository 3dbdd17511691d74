import math

import numpy as np
import pytest

from mdlab import (
    builtin,
    coefficient_set,
    decompose,
    quadratic_characteristic_deviation,
    sample_trajectory,
)
from mdlab.errors import NestedEstimateUnavailable, ParamOutOfRange, TrajectoryTooShort
from mdlab.models import Trajectory, child_rng, sample_state_paths

import oracles


def test_partition_identity(two_state04):
    traj = sample_trajectory(two_state04, 10, seed=1)
    dec = decompose(two_state04, traj, 3)
    assert dec.k == 3
    assert dec.block_sums.size == 4
    assert dec.block_sums.sum() == pytest.approx(traj.values.sum(), abs=1e-12)


@pytest.mark.parametrize("m", [1, 7, 128, 333, 1000])
def test_block_sums_are_the_slice_sums_bit_for_bit(m):
    # values of c = 0.7 round, so a different order of adds would show
    ma = builtin("moving_average", c=0.7, L_trunc=5)
    traj = sample_trajectory(ma, 1000, seed=4)
    k, values = 1000 // m, traj.values
    want = [values[i * m:(i + 1) * m].sum() for i in range(k)]
    want.append(values[k * m:].sum() if 1000 % m else 0.0)
    assert decompose(ma, traj, m, nested_draws=2).block_sums.tobytes() == np.array(want).tobytes()


def test_remainder_empty_when_m_divides(two_state04):
    traj = sample_trajectory(two_state04, 12, seed=1)
    dec = decompose(two_state04, traj, 3)
    assert dec.block_sums[-1] == 0.0


def test_rademacher_blocks_are_already_martingale(rademacher):
    traj = sample_trajectory(rademacher, 20, seed=3)
    dec = decompose(rademacher, traj, 4)
    assert np.max(np.abs(dec.predictable)) <= 1e-14
    assert dec.diffs == pytest.approx(dec.block_sums[:5], abs=1e-14)


def test_predictable_part_matches_conditional_mean(two_state04):
    traj = sample_trajectory(two_state04, 30, seed=7)
    dec = decompose(two_state04, traj, 3)
    expected = 0.4 + 0.16 + 0.064
    for i in range(dec.k):
        start_state = traj.states[3 * i]
        sign = two_state04.x_values[start_state]
        assert dec.predictable[i] == pytest.approx(sign * expected, abs=1e-12)


def test_martingale_all_variant_covers_remainder(two_state04):
    traj = sample_trajectory(two_state04, 11, seed=2)
    dec = decompose(two_state04, traj, 3, variant="martingale_all")
    assert dec.diffs.size == dec.k + 1
    assert dec.block_sums.sum() == pytest.approx(traj.values.sum(), abs=1e-12)
    # recentered remainder uses the conditional mean of a length-2 block
    assert abs(dec.predictable[-1]) <= 0.4 + 0.16 + 1e-12


def test_xi_norm_bound_holds_pointwise(two_state04):
    n, m = 60, 6
    coeffs = coefficient_set(two_state04, n, m)
    cap = 2.0 * coeffs.eps_m + 1e-12
    for seed in range(200):
        traj = sample_trajectory(two_state04, n, seed=seed)
        for variant in ("split_remainder", "martingale_all"):
            dec = decompose(two_state04, traj, m, variant=variant)
            assert np.max(np.abs(dec.xi)) <= cap


def test_diff_bound_two_m_bound(two_state04):
    n, m = 40, 5
    for seed in range(50):
        dec = decompose(two_state04, sample_trajectory(two_state04, n, seed=seed), m)
        assert np.max(np.abs(dec.diffs)) <= 2.0 * m * two_state04.bound + 1e-12


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


def test_quad_char_stays_in_band(two_state04):
    n, m = 64, 4
    coeffs = coefficient_set(two_state04, n, m)
    band = coeffs.delta_sq + m / n
    for seed in range(100):
        dec = decompose(two_state04, sample_trajectory(two_state04, n, seed=seed), m)
        assert 1.0 - band - 1e-12 <= dec.quad_char_total <= 1.0 + band + 1e-12


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


def test_single_block_deviation_matches_full_conditional_moment(rademacher):
    n = 8
    qd = quadratic_characteristic_deviation(rademacher, coefficient_set(rademacher, n, n))
    # for a martingale the single-block value is E[S_n^2 | F_0]/(n sigma^2) - 1 = 0
    assert qd.exact_value == pytest.approx(0.0, abs=1e-12)


def test_nested_resampling_tracks_analytic_conditional_mean():
    ma = builtin("moving_average", c=1.0, L_trunc=10)
    n, m = 40, 20
    traj = sample_trajectory(ma, n, seed=21)
    dec = decompose(ma, traj, m, nested_draws=1024, seed=5)
    # analytic predictable part: only innovations at or before the block start
    # contribute, with the tail weights of the moving average
    w = 0.5 ** np.arange(11)
    burn = ma.burn_in
    for i, start in enumerate((0, m)):
        acc = 0.0
        for j in range(1, m + 1):
            idx = np.arange(j + start - 10, start + 1)  # times <= start
            lags = (start + j) - idx
            ok = lags <= 10
            acc += float(np.sum(w[lags[ok]] * traj.innovations[burn - 1 + idx[ok]]))
        assert dec.predictable[i] == pytest.approx(acc, abs=4.5 * dec.predictable_se[i])


def test_nested_resampling_needs_capability():
    # a sampled path without its innovations has no past to freeze
    ma = builtin("moving_average", c=1.0, L_trunc=4)
    bare = Trajectory(values=sample_trajectory(ma, 12, seed=0).values)
    with pytest.raises(NestedEstimateUnavailable):
        decompose(ma, bare, 3)


def test_nested_resampling_matches_per_draw_convolution():
    # reference: each draw substitutes its redrawn block into the whole
    # innovation sequence and convolves it, as a one-path sampler would
    ma = builtin("moving_average", c=1.0, L_trunc=6)
    n, m, draws, seed = 30, 8, 16, 3
    traj = sample_trajectory(ma, n, seed=9)
    dec = decompose(ma, traj, m, variant="martingale_all", nested_draws=draws, seed=seed)
    w = 0.5 ** np.arange(7)
    burn = ma.burn_in
    for i, start in enumerate(range(0, n, m)):
        length = min(m, n - start)
        redrawn = ma.innovations(child_rng(seed, i), (draws, length))
        sums = []
        for d in range(draws):
            eps = traj.innovations.copy()
            eps[burn + start:burn + start + length] = redrawn[d]
            x = np.convolve(eps, w)[burn:burn + n]
            sums.append(x[start:start + length].sum())
        assert dec.predictable[i] == pytest.approx(np.mean(sums), abs=1e-12)
        assert dec.predictable_se[i] ** 2 * draws == pytest.approx(np.var(sums, ddof=1), abs=1e-12)


@pytest.mark.parametrize("L, variant", [(6, "martingale_all"), (20, "split_remainder"),
                                        (45, "martingale_all")])
def test_nested_sums_are_the_shifted_add_path_sums_bit_for_bit(L, variant):
    # c = 1: every weight is a power of two, so each redrawn window's weighted
    # reduction is its path's sum exactly, whatever the order of the adds
    ma = builtin("moving_average", c=1.0, L_trunc=L)
    n, m, draws, seed = 100, 30, 16, 3
    traj = sample_trajectory(ma, n, seed=9)
    dec = decompose(ma, traj, m, variant=variant, nested_draws=draws, seed=seed)
    burn = ma.burn_in
    for i in range(dec.predictable.size):
        length = min(m, n - i * m)
        window = np.empty((draws, burn + length))
        window[:, :burn] = traj.innovations[i * m:i * m + burn]
        window[:, burn:] = ma.innovations(child_rng(seed, i), (draws, length))
        sums = ma.path(window).sum(axis=1)
        assert dec.predictable[i] == sums.mean()
        assert dec.predictable_se[i] == math.sqrt(sums.var(ddof=1) / draws)


@pytest.mark.parametrize("draws", [0, 1])
def test_nested_draws_below_two_are_rejected(draws):
    ma = builtin("moving_average", c=1.0, L_trunc=4)
    traj = sample_trajectory(ma, 12, seed=0)
    with pytest.raises(ParamOutOfRange):
        decompose(ma, traj, 3, nested_draws=draws)


def test_decompose_validation(two_state04):
    traj = sample_trajectory(two_state04, 5, seed=0)
    with pytest.raises(TrajectoryTooShort):
        decompose(two_state04, traj, 6)
    with pytest.raises(ParamOutOfRange):
        decompose(two_state04, traj, 0)
    with pytest.raises(ParamOutOfRange):
        decompose(two_state04, traj, 2, variant="bogus")


def test_csv_dump_layout(two_state04):
    traj = sample_trajectory(two_state04, 10, seed=1)
    dec = decompose(two_state04, traj, 3)
    lines = dec.to_csv().strip().splitlines()
    assert lines[0] == "i,block_sum,predictable,martingale_diff"
    assert len(lines) == 1 + dec.block_sums.size
    assert lines[-1].endswith(",,")  # remainder block is not martingalized
