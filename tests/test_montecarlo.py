import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from mdlab import (
    builtin,
    coefficient_set,
    distribution_of_Sn,
    empirical_ks,
    estimate_tails,
    exact_tail,
    ks_distance_exact,
    mdp_diagnostic,
    ratio_curve,
    sigma_n,
    simulate_W,
    wilson_interval,
)
from mdlab import exact, models, montecarlo
from mdlab.errors import (
    BudgetExceeded,
    ExponentOutOfRange,
    ParamOutOfRange,
    SampledTierUnsupported,
    TooFewSamples,
    ZeroDenominator,
)
from mdlab.models import (
    CHAIN_CHUNK,
    build_finite_lattice_model,
    parse_model_text,
    sample_state_paths,
    sample_trajectory,
)
from mdlab.normal import normal_sf

import oracles


def test_simulate_support_and_determinism(rademacher):
    w = simulate_W(rademacher, 1, 4, seed=0)
    assert set(np.unique(w)) <= {-1.0, 1.0}
    w1 = simulate_W(rademacher, 16, 5000, seed=9)
    w2 = simulate_W(rademacher, 16, 5000, seed=9)
    assert np.array_equal(w1, w2)
    w3 = simulate_W(rademacher, 16, 5000, seed=10)
    assert not np.array_equal(w1, w3)


def test_simulate_mean_clt_sanity(two_state04):
    chains = 100_000
    w = simulate_W(two_state04, 64, chains, seed=3)
    sig = sigma_n(two_state04, 64)
    assert abs(w.mean()) <= 4.0 * sig / math.sqrt(chains)


FILE_MODEL = """\
states = lo mid hi
denom = 2
f_num = -2 1 3
transition = 0.5 0.3 0.2  0.25 0.5 0.25  0.1 0.4 0.5
"""


@pytest.mark.parametrize("name", ["two_state", "dyadic6", "file"])
def test_streamed_sums_match_path_reduction(name):
    # sample_state_paths stacks the sampler's one-step jumps, over two full
    # blocks and a ragged third; dyadic L=6 has no kernel within
    # KERNEL_ENTRIES, so simulate_W adds the payoffs of those same jumps
    model = {"two_state": builtin("two_state", rho=0.4),
             "dyadic6": builtin("dyadic_contracting", L=6),
             "file": parse_model_text(FILE_MODEL, name="file.model")}[name]
    n, chains, seed = 24, 2 * CHAIN_CHUNK + 123, 5
    paths = sample_state_paths(model, n, chains, seed)
    if name == "dyadic6":
        assert models._jump_length(model, n, chains) == 1
        reduced = model.x_values[paths[:, 1:]].sum(axis=1) / math.sqrt(n)
        assert simulate_W(model, n, chains, seed).tobytes() == reduced.tobytes()
    # one trajectory is the first chain of block 0
    traj = sample_trajectory(model, n, seed)
    assert np.array_equal(traj.states, sample_state_paths(model, n, 1, seed)[0])
    assert traj.states.dtype == paths.dtype == np.int64


# row 0 ends at column 3 with a float cumulative sum of 1 - 2^-52, so the
# dense rule sends u = 1 - 2^-53 to state 4; rows 1-3 put no mass on state 0
GAPPED_ROWS = [[3 / 27, 14 / 27, 1 / 27, 9 / 27, 0.0], [0.0, 0.5, 0.5, 0.0, 0.0],
               [0.0, 0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5, 0.5],
               [0.5, 0.0, 0.0, 0.0, 0.5]]
MODELS = {"two_state": lambda: builtin("two_state", rho=0.4),
          "rademacher": lambda: builtin("rademacher"),
          "dyadic3": lambda: builtin("dyadic_contracting", L=3),
          "dyadic6": lambda: builtin("dyadic_contracting", L=6),
          "file": lambda: parse_model_text(FILE_MODEL, name="file.model"),
          "gapped": lambda: build_finite_lattice_model(range(5), GAPPED_ROWS, range(5), 1)}


class FixedDraws:
    """Stands in for a block's generator: Y_0 uniforms first, then one jump's uniforms."""

    def __init__(self, start, steps):
        self.draws = [np.asarray(start, dtype=float), np.asarray(steps, dtype=float)]

    def random(self, size):
        return self.draws.pop(0).reshape(size)


@pytest.mark.parametrize("name", ["dyadic3", "file", "gapped"])
def test_no_move_along_a_zero_probability_entry(name, monkeypatch):
    # one jump of k steps: every kernel row meets u = 0.0, each cumulative sum
    # of the row, its neighbours on both sides and the largest double below 1;
    # k = 1 is one step through the rows of P
    model = MODELS[name]()
    s, g = model.n_states, int(np.gcd.reduce(model.f_num - model.f_num.min()))
    for k in (1, 2, 8):
        if k == 1:
            p, width = model.transition, 1
        else:
            kernel = models._jump_kernels(model, k, k)[0]
            p, width = oracles.kernel_rows(kernel), kernel.shape[2]
        exact = oracles.enum_sum_kernel(model, k)  # [y, raw sum, y']
        rows, us = [], []
        for y, cum in enumerate(np.cumsum(p, axis=1)):
            cand = {0.0, 1.0 - 2.0 ** -53}
            for c in cum:
                cand |= {c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)}
            cand = sorted(u for u in cand if 0.0 <= u < 1.0)
            rows += [y] * len(cand)
            us += cand
        rows, us = np.array(rows), np.array(us)
        cum_pi = np.concatenate([[0.0], np.cumsum(model.pi)])
        start = (cum_pi[rows] + cum_pi[rows + 1]) / 2  # a Y_0 uniform inside state y's slice
        cut = [slice(b, b + CHAIN_CHUNK) for b in range(0, rows.size, CHAIN_CHUNK)]
        monkeypatch.setattr(models, "child_rng",
                            lambda seed, b: FixedDraws(start[cut[b]], us[cut[b]]))
        (y0, _), (picked, rise) = models._simulate_states(model, k, rows.size, seed=0, k=k)
        assert np.array_equal(y0, rows)
        assert np.all(exact[rows, rise, picked] > 0.0)
        col = picked * width + rise // g if k > 1 else picked
        dense = oracles.dense_next_state(p, rows, us)
        legal = p[rows, dense] > 0.0
        assert np.array_equal(col[legal], dense[legal])
        # the dense rule's zero-probability moves, which the table cannot make
        if name != "file":
            at_zero = (us == 0.0) & (p[rows, 0] == 0.0)
            assert at_zero.any() and np.all(dense[at_zero] == 0)
        if name == "gapped" and k == 1:
            gap = (rows == 0) & (us > np.cumsum(p[0])[3])
            assert gap.any() and np.all(dense[gap] == 4) and np.all(picked[gap] == 3)


@pytest.mark.parametrize("slab_steps", [1, 3, None])
@pytest.mark.parametrize("chains", [1, CHAIN_CHUNK - 1, CHAIN_CHUNK, 2 * CHAIN_CHUNK + 123])
@pytest.mark.parametrize("name", ["two_state", "rademacher", "dyadic3", "dyadic6", "file"])
def test_lockstep_blocks_match_per_block_stepping(name, chains, slab_steps, monkeypatch):
    # slabs of 1 and 3 steps put slab boundaries at small n; the default slab
    # holds 15 steps of 2 * CHAIN_CHUNK + 123 chains
    model = MODELS[name]()
    n, seed = 10 if slab_steps else 40, 7
    if slab_steps:
        monkeypatch.setattr(models, "SLAB_BYTES", slab_steps * 8 * chains)
    ref = oracles.state_paths_by_block(model, n, chains, seed, CHAIN_CHUNK)
    assert sample_state_paths(model, n, chains, seed).tobytes() == ref.tobytes()
    if name == "dyadic6":  # held at k = 1: simulate_W steps as the paths do
        assert models._jump_length(model, n, chains) == 1
        k = model.f_num[ref[:, 1:]].sum(axis=1)
        w = (k / model.denom - n * float(model.mean_fraction)) / math.sqrt(n)
        assert simulate_W(model, n, chains, seed).tobytes() == w.tobytes()
    if chains == 1:
        traj = sample_trajectory(model, n, seed)
        assert traj.states.tobytes() == ref[0].tobytes()
        assert traj.values.tobytes() == model.x_values[ref[0, 1:]].tobytes()


@pytest.mark.parametrize("name", ["two_state", "dyadic3", "file", "gapped"])
def test_sum_kernels_match_path_enumeration(name):
    # K_k for k = 1, 2, 4, 8 and, at n = k + r, every remainder K_r with r < k,
    # copied on the way through the same forward pass; K_k has the same bytes
    # whatever n mod k is
    model = MODELS[name]()
    g = int(np.gcd.reduce(model.f_num - model.f_num.min()))
    exact = {m: oracles.enum_sum_kernel(model, m) for m in range(1, 9)}  # [y, raw sum, y']
    for e in exact.values():
        assert not np.any(np.delete(e, np.s_[::g], axis=1))  # off the sublattice
    for k in (1, 2, 4, 8):
        whole = models._jump_kernels(model, k, k)
        assert len(whole) == 1
        for n in range(k, 2 * k):
            kernels = models._jump_kernels(model, n, k)
            assert kernels[0].tobytes() == whole[0].tobytes()
            assert len(kernels) == 1 + (n % k > 0)
            for m, kernel in zip((k, n % k), kernels):
                want = exact[m][:, ::g].transpose(0, 2, 1)  # [y, y', sum]
                assert kernel.shape == want.shape
                assert np.max(np.abs(kernel - want)) <= 1e-15
                assert np.all(np.abs(kernel.sum(axis=(1, 2)) - 1.0) <= 1e-14)


# (model, n, chains): the k of least estimated kernel build plus jumps
JUMP_LENGTHS = {("two_state", 4096, 10 ** 4): 512, ("two_state", 1024, 5 * 10 ** 4): 512,
                ("two_state", 4096, 10 ** 5): 1024, ("two_state", 256, 10 ** 5): 256,
                ("two_state", 10 ** 6, 1): 2048, ("rademacher", 4096, 10 ** 4): 512,
                ("dyadic3", 200, 10 ** 5): 128, ("dyadic3", 10 ** 6, 10): 128,
                ("file", 300, 10 ** 5): 256, ("file", 1000, 20000): 256,
                ("dyadic6", 10 ** 6, 1): 1, ("dyadic6", 10 ** 6, 10 ** 6): 1}


def test_jump_length_picks_the_cheapest_power_of_two():
    for (name, n, chains), k in JUMP_LENGTHS.items():
        assert models._jump_length(MODELS[name](), n, chains) == k, (name, n, chains)


@pytest.mark.parametrize("name", ["two_state", "rademacher", "dyadic3", "dyadic6", "file",
                                  "gapped"])
def test_jump_length_is_a_power_of_two_within_n_and_the_cap_and_grows_with_chains(name):
    model = MODELS[name]()
    s, spread = model.n_states, models._sublattice(model)[3]
    for n in (1, 2, 3, 7, 64, 200, 1000, 4097, 10 ** 6):
        ks = [models._jump_length(model, n, chains)
              for chains in (1, 2, 10, 100, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 8)]
        for k in ks:
            assert k & (k - 1) == 0 and 1 <= k <= n
            assert k == 1 or s * s * (k * spread + 1) <= models.KERNEL_ENTRIES
        assert ks == sorted(ks), (n, ks)


# (model, n, KERNEL_ENTRIES or None for the module's, jumps per slab or None):
# every case takes several k-step jumps and a remainder jump
JUMP_CASES = [("two_state", 23, 64, None), ("two_state", 23, 64, 1),
              ("rademacher", 1000, None, None), ("dyadic3", 421, None, None),
              ("dyadic3", 421, None, 1), ("file", 77, 1 << 10, None), ("gapped", 77, None, None)]


@pytest.mark.parametrize("name, n, entries, slab_jumps", JUMP_CASES)
def test_jump_sums_match_a_per_chain_sampler(name, n, entries, slab_jumps, monkeypatch):
    model = MODELS[name]()
    chains, seed = 2 * CHAIN_CHUNK + 123, 11
    if entries:
        monkeypatch.setattr(models, "KERNEL_ENTRIES", entries)
    if slab_jumps:
        monkeypatch.setattr(models, "SLAB_BYTES", slab_jumps * 8 * chains)
    k = models._jump_length(model, n, chains)
    assert 1 < 2 * k < n and n % k
    kernels = models._jump_kernels(model, n, k)
    sums = oracles.jump_sums_by_chain(model, n, chains, seed, CHAIN_CHUNK, k, kernels)
    w = (sums / model.denom - float(n * model.mean_fraction)) / math.sqrt(n)
    assert simulate_W(model, n, chains, seed).tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [5, 10, 13])
def test_simulated_sums_are_the_tables_atoms(mean_13_12, n):
    # simulate_W centres as TailTable does, so every draw is one of its atoms, bit for bit
    atoms = distribution_of_Sn(mean_13_12, n).w_values
    w = simulate_W(mean_13_12, n, 2000, 1)
    assert np.isin(w.view(np.int64), atoms.view(np.int64)).all()


def test_simulation_refuses_sizes_beyond_the_budget():
    two = builtin("two_state", rho=0.4)
    ma = builtin("moving_average", c=1.0, L_trunc=4)
    for call in (lambda: sample_state_paths(two, 10 ** 6, 10 ** 4, 0),
                 lambda: sample_trajectory(two, 10 ** 9, 0),
                 lambda: sample_trajectory(ma, 10 ** 9, 0),
                 lambda: simulate_W(ma, 10 ** 9, 1, 0),
                 lambda: simulate_W(two, 10, 10 ** 9, 0),
                 lambda: simulate_W(ma, 10, 10 ** 9, 0)):
        with pytest.raises(BudgetExceeded) as err:
            call()
        assert err.value.exit_code == 2


def test_sampled_tier_simulation_deterministic():
    ma = builtin("moving_average", c=1.0, L_trunc=8)
    w1 = simulate_W(ma, 32, 200, seed=1)
    w2 = simulate_W(ma, 32, 200, seed=1)
    assert np.array_equal(w1, w2)
    assert np.max(np.abs(w1)) <= ma.bound * math.sqrt(32)


@pytest.mark.parametrize("n", [1, 7, 256, 3000])
def test_sampled_simulation_is_block_zero_of_trajectories(n):
    ma = builtin("moving_average", c=1.0, L_trunc=8)
    for seed in (0, 5, 91):
        traj = sample_trajectory(ma, n, seed)
        assert simulate_W(ma, n, 1, seed)[0] == traj.values.sum() / math.sqrt(n)


def test_sampled_simulation_over_many_blocks():
    ma = builtin("moving_average", c=1.0, L_trunc=20)
    n = 256
    block = models.SLAB_BYTES // (models.PATH_STEP_BYTES * (ma.burn_in + n))
    chains = 9 * block + 17  # ten blocks, the last one short
    w = simulate_W(ma, n, chains, seed=12)
    assert w.shape == (chains,) and np.unique(w).size > chains // 2
    sigma = exact.sigma_any(ma, n)
    mean = float(w.mean())
    var = float(np.mean((w - mean) ** 2))
    se_var = math.sqrt(float(np.mean((w - mean) ** 4)) - var ** 2) / math.sqrt(chains)
    assert abs(mean) <= 5 * sigma / math.sqrt(chains)
    assert abs(var - sigma ** 2) <= 5 * se_var


def test_sampled_path_sums_over_time_pieces_match_one_pass():
    # two chains of 10^5 steps: the time axis is cut into pieces of
    # SLAB_BYTES / (PATH_STEP_BYTES * 2) steps, each reading its own window
    ma = builtin("moving_average", c=1.0, L_trunc=20)
    n, burn = 10 ** 5, ma.burn_in
    step = models.SLAB_BYTES // (models.PATH_STEP_BYTES * 2)
    assert step < n
    eps = ma.innovations(np.random.default_rng(3), (2, burn + n))
    whole = ma.path(eps)
    pieces = [ma.path(eps[:, t:burn + t + step]) for t in range(0, n, step)]
    assert np.concatenate(pieces, axis=1).tobytes() == whole.tobytes()
    # c = 1 makes every X_t and every sum weight a multiple of 2^-20, so the
    # weighted reduction that simulate_W runs is the path's sum, bit for bit
    a = ma.sum_weights(n)
    assert (eps[:, -a.size:] * a).sum(axis=-1).tobytes() == whole.sum(axis=-1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 40, 1000])
@pytest.mark.parametrize("c", [1.0, 0.7])
def test_sum_weights_are_the_weights_convolved_with_n_ones(n, c):
    # L = 6: n below, at and past the filter length
    ma = builtin("moving_average", c=c, L_trunc=6)
    a = ma.sum_weights(n)
    want = np.convolve(ma.weights, np.ones(n))[::-1]
    assert a.shape == (n + 6,)
    if c == 1.0:  # dyadic weights: every tail sum and difference is exact
        assert a.tobytes() == want.tobytes()
    else:
        assert np.allclose(a, want, rtol=4e-16, atol=0)
    # a_j weighs the innovation j places before the last n + L: S_n of a path
    eps = ma.innovations(np.random.default_rng(n), (3, ma.burn_in + n))
    assert np.allclose((eps[:, -a.size:] * a).sum(axis=-1), ma.path(eps).sum(axis=-1),
                       rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("c, L, n", [(0.7, 20, 10 ** 5), (0.7, 20, 256), (1.0, 60, 4096),
                                     (0.3, 1074, 300)])
def test_sampled_sums_of_inexact_weights_agree_with_the_paths(c, L, n):
    # weights that are not dyadic (or, at L = 60, too many bits) round in a
    # different order than the shifted adds: over seeds 0-4 the gap was at most
    # 3.8e-16 of the largest |S_n|, bounded here by 1e-12
    ma = builtin("moving_average", c=c, L_trunc=L)
    chains = 8 if n > 10 ** 4 else 200
    slow = np.concatenate([ma.path(eps).sum(axis=-1)
                           for eps in models._innovation_blocks(ma, n, chains, 5)])
    fast = simulate_W(ma, n, chains, 5) * math.sqrt(n)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_sampled_model_weights_must_fit_the_burn_in():
    ma = builtin("moving_average", c=1.0, L_trunc=8)
    for bad in (np.zeros(0), np.ones((2, 2)), np.array([1.0, np.nan])):
        with pytest.raises(ParamOutOfRange, match="weights"):
            dataclasses.replace(ma, weights=bad)
    assert dataclasses.replace(ma, weights=[1, 2]).weights.dtype == np.float64


@pytest.mark.parametrize("L", [1, 6, 20, 45])
def test_the_burn_in_reads_every_drawn_innovation(L):
    # burn_in = len(weights) - 1: X_1 weighs the first innovation drawn by
    # weights[L] and the sum weights cover every one
    ma = builtin("moving_average", c=0.7, L_trunc=L)
    assert ma.burn_in == L
    for n in (1, 7, 100):
        assert ma.sum_weights(n).size == ma.burn_in + n
        eps = ma.innovations(np.random.default_rng(n), (4, ma.burn_in + n))
        flipped = eps.copy()
        flipped[..., 0] *= -1
        assert np.all(ma.path(flipped)[:, 0] != ma.path(eps)[:, 0])


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1.0
    lo, hi = wilson_interval(7, 100)
    assert lo <= 0.07 <= hi
    with pytest.raises(ParamOutOfRange):
        wilson_interval(0, 0)


@pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 10), (math.nan, 10)])
def test_wilson_interval_refuses_counts_off_zero_to_trials(successes, trials):
    with pytest.raises(ParamOutOfRange, match="successes"):
        wilson_interval(successes, trials)


@pytest.mark.parametrize("sigma", [math.nan, 0.0, -1.0, math.inf])
def test_estimate_tails_and_empirical_ks_refuse_a_bad_scale(two_state04, sigma, monkeypatch):
    # nan thresholds count no sample (estimate 0.0); sigma = 0 or < 0 flips or
    # collapses every threshold; checked before any chain is simulated
    samples = np.random.default_rng(3).standard_normal(1000)
    monkeypatch.setattr(montecarlo, "simulate_W", None)
    with pytest.raises(ParamOutOfRange, match="sigma"):
        estimate_tails(two_state04, 16, [0.5], 100, 0, sigma=sigma)
    with pytest.raises(ParamOutOfRange, match="sigma"):
        empirical_ks(samples, sigma)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_samples_must_be_finite(bad):
    # a NaN sample made empirical_ks nan
    samples = np.append(np.random.default_rng(4).standard_normal(1000), bad)
    with pytest.raises(ParamOutOfRange, match="finite"):
        empirical_ks(samples, 1.0)


def test_estimate_tails_reproducible(two_state04):
    a = estimate_tails(two_state04, 32, [0.5, 1.0], chains=4000, seed=2)
    b = estimate_tails(two_state04, 32, [0.5, 1.0], chains=4000, seed=2)
    assert [(t.estimate, t.lo, t.hi) for t in a] == [(t.estimate, t.lo, t.hi) for t in b]
    for t in a:
        assert t.lo <= t.estimate <= t.hi
    assert [t.x for t in a] == [0.5, 1.0]


@pytest.mark.parametrize("grid", [[math.nan], [0.5, math.nan]])
def test_estimate_tails_rejects_a_nan_level(two_state04, grid, monkeypatch):
    # nan counts no sample, so it would read as a zero tail with an interval
    monkeypatch.setattr(montecarlo, "simulate_W", None)
    with pytest.raises(ParamOutOfRange, match="nan"):
        estimate_tails(two_state04, 16, grid, 100, 0)


def test_tail_counts_are_inclusive_at_sample_atoms(two_state04):
    # exact-tier samples sit on a lattice: a grid through every atom and x = 0
    n, chains, seed = 16, 3000, 4
    w = simulate_W(two_state04, n, chains, seed)
    xs = np.concatenate(([0.0], np.unique(np.abs(w)), [w.max() + 1.0]))
    upper, lower = montecarlo._tail_counts(w, xs)
    assert upper.tolist() == [int(np.sum(w >= x)) for x in xs]
    assert lower.tolist() == [int(np.sum(w <= -x)) for x in xs]
    est = estimate_tails(two_state04, n, xs, chains, seed, sigma=1.0)
    assert [t.estimate for t in est] == [int(np.sum(w >= x)) / chains for x in xs]
    sig = sigma_n(two_state04, n)
    grid = xs[:-1] / sig
    curve = ratio_curve(two_state04, n, 4, grid, mode="mc", chains=chains, seed=seed)
    for got, counts in ((curve.right, [np.sum(w >= x * sig) for x in grid]),
                        (curve.left, [np.sum(w <= -x * sig) for x in grid])):
        assert np.array_equal(got, np.array(counts) / chains / normal_sf(grid))


def test_ratio_exact_rademacher_binomial_oracle(rademacher):
    # P(S_100 >= 10) = P(Bin(100, 1/2) >= 55) in exact rational arithmetic
    p = float(Fraction(sum(math.comb(100, h) for h in range(55, 101)), 2 ** 100))
    curve = ratio_curve(rademacher, 100, 5, [1.0], mode="exact")
    expected = p / float(normal_sf(1.0))
    assert curve.right[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.16, abs=0.005)


def test_ratio_at_zero_counts_the_atom(rademacher):
    curve = ratio_curve(rademacher, 100, 5, [0.0], mode="exact")
    atom = float(Fraction(math.comb(100, 50), 2 ** 100))
    assert curve.right[0] == pytest.approx((0.5 + atom / 2) / 0.5, rel=1e-12)


def test_ratio_left_right_symmetry(two_state04):
    curve = ratio_curve(two_state04, 128, 4, np.linspace(0, 2, 9), mode="exact")
    assert np.max(np.abs(curve.right - curve.left)) <= 1e-10


def test_ratio_envelope_attached(two_state04):
    curve = ratio_curve(two_state04, 128, 4, [0.0, 1.0], mode="exact")
    assert curve.envelope is not None and curve.envelope.size == 2
    assert curve.envelope[1] > curve.envelope[0]


def test_ratio_mc_brackets_exact(two_state04):
    xs = np.array([0.0, 0.5, 1.0, 1.5])
    curve = ratio_curve(two_state04, 64, 4, xs, mode="mc", chains=40_000, seed=4)
    table = distribution_of_Sn(two_state04, 64)
    exact = np.exp(np.asarray(exact_tail(table, xs))) / normal_sf(xs)
    assert np.all(curve.right_lo <= exact) and np.all(exact <= curve.right_hi)
    text = "".join(curve.csv_chunks())
    assert text.splitlines()[0] == "x,ratio,lo,hi,envelope,ratio_left,lo_left,hi_left"


def test_ratio_mc_on_sampled_tier():
    ma = builtin("moving_average", c=1.0, L_trunc=8)
    curve = ratio_curve(ma, 32, 4, [0.0, 1.0], mode="mc", chains=20_000, seed=6)
    assert curve.source == "mc"
    assert curve.right[0] == pytest.approx(2.0 * 0.5 / 1.0, rel=0.1)  # ~1 at x=0
    assert curve.right_lo[1] <= curve.right[1] <= curve.right_hi[1]


def test_ratio_guards(two_state04):
    with pytest.raises(ZeroDenominator):
        ratio_curve(two_state04, 16, 2, [40.0], mode="exact")
    with pytest.raises(ParamOutOfRange):
        ratio_curve(two_state04, 16, 2, [1.0], mode="mc")
    ma = builtin("moving_average", c=1.0, L_trunc=4)
    with pytest.raises(SampledTierUnsupported):
        ratio_curve(ma, 16, 2, [1.0], mode="exact")


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_ratio_refuses_a_coefficient_set_of_another_horizon(two_state04, mode):
    # the n = 1024 set would put its envelope beside n = 64 tails and, in mc
    # mode, scale the thresholds by its own sigma_1024; another block length
    # is refused too, and the set of (64, 4) gives the curve computed without one
    xs, kw = [0.0, 1.0], {"mode": mode, "chains": 2000, "seed": 3}
    for n, m in ((1024, 8), (1024, 4), (64, 8)):
        with pytest.raises(ParamOutOfRange, match="coefficient set"):
            ratio_curve(two_state04, 64, 4, xs, coeffs=coefficient_set(two_state04, n, m), **kw)
    got = ratio_curve(two_state04, 64, 4, xs, coeffs=coefficient_set(two_state04, 64, 4), **kw)
    want = ratio_curve(two_state04, 64, 4, xs, **kw)
    assert np.array_equal(got.right, want.right) and np.array_equal(got.envelope, want.envelope)


def test_exact_mc_coverage_over_seeds(two_state04):
    # the exact tail should sit inside the 95% interval at most grid points
    n, chains = 256, 100_000
    xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    table = distribution_of_Sn(two_state04, n)
    exact = np.exp(np.asarray(exact_tail(table, xs)))
    sig = table.sigma_n
    covered = total = 0
    for seed in range(20):
        w = simulate_W(two_state04, n, chains, seed=seed)
        for x, p in zip(xs, exact):
            k = int(np.sum(w >= x * sig))
            lo, hi = wilson_interval(k, chains)
            covered += int(lo <= p <= hi)
            total += 1
    assert covered / total >= 0.9


@pytest.mark.parametrize("name", ["dyadic3", "file"])
def test_jump_mc_coverage_over_seeds(name):
    # one jump of 128 steps and one of 72 on dyadic L=3 at n = 200; one of
    # 256 and one of 44 on the file model at n = 300
    model = MODELS[name]()
    (n, k), chains = {"dyadic3": (200, 128), "file": (300, 256)}[name], 100_000
    assert models._jump_length(model, n, chains) == k
    xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    table = distribution_of_Sn(model, n)
    exact = np.exp(np.asarray(exact_tail(table, xs)))
    sig = table.sigma_n
    covered = total = 0
    for seed in range(20):
        w = simulate_W(model, n, chains, seed=seed)
        for x, p in zip(xs, exact):
            lo, hi = wilson_interval(int(np.sum(w >= x * sig)), chains)
            covered += int(lo <= p <= hi)
            total += 1
    assert covered / total >= 0.9


def test_empirical_ks_normal_draws_dkw():
    rng = np.random.default_rng(12)
    samples = rng.standard_normal(100_000)
    assert empirical_ks(samples, 1.0) <= 0.01


def test_empirical_ks_matches_exact_two_point(rademacher):
    table = distribution_of_Sn(rademacher, 1)
    w = simulate_W(rademacher, 1, 200_000, seed=8)
    ks = empirical_ks(w, 1.0)
    assert ks == pytest.approx(ks_distance_exact(table), abs=0.01)
    assert empirical_ks(w, 1.0) == ks  # same samples, same statistic
    with pytest.raises(TooFewSamples):
        empirical_ks(w[:50], 1.0)


@pytest.mark.parametrize("name, params", [("two_state", {"rho": 0.4}), ("rademacher", {}),
                                          ("dyadic_contracting", {"L": 3})])
def test_empirical_ks_equals_the_one_sided_maxima(name, params):
    # lattice sums tie often; each tied sample is its own jump in both formulas
    model = builtin(name, **params)
    for seed, (n, chains) in enumerate([(4, 100), (64, 1000), (9, 2000)]):
        w = simulate_W(model, n, chains, seed)
        sig = sigma_n(model, n)
        assert np.unique(w).size < w.size
        assert empirical_ks(w, sig) == oracles.empirical_ks_by_one_sided_maxima(w, sig)


def test_mdp_rademacher_binomial_oracle(rademacher):
    diag = mdp_diagnostic(rademacher, 1.0, 0.25, [10 ** 6])
    assert abs(diag.scaled[0] + 0.5) <= 0.05
    assert diag.limit == -0.5
    # cross-check the log tail against a plain lgamma oracle at a smaller n
    small = mdp_diagnostic(rademacher, 1.0, 0.25, [4096])
    t = 4096 ** 0.75
    expected = oracles.sign_sum_log_tail(4096, t) / math.sqrt(4096)
    assert small.scaled[0] == pytest.approx(expected, abs=1e-10)


def test_mdp_binomial_tail_keeps_its_atom_at_large_n(rademacher):
    # c / a_n * sqrt(n) is 2^19 up to rounding, so the tail starts at the atom
    # K = (2^20 + 2^19) / 2; a slack of 1e-12 is below one ulp there
    n = 2 ** 20
    diag = mdp_diagnostic(rademacher, 2.0, 0.4, [n])
    an = float(n) ** -0.4
    expected = an * an * oracles.binom_log_tail_from(n, 786432)
    assert diag.scaled[0] == pytest.approx(expected, rel=1e-10)


def test_mdp_zero_level(rademacher):
    diag = mdp_diagnostic(rademacher, 0.0, 0.25, [10 ** 6])
    assert abs(diag.scaled[0]) <= 0.01
    assert diag.limit == 0.0


def test_mdp_two_state_limit_and_exact_route(two_state04):
    diag = mdp_diagnostic(two_state04, 1.0, 0.25, [256, 1024])
    assert diag.limit == pytest.approx(-3.0 / 14.0, abs=1e-12)
    assert np.all(np.isfinite(diag.scaled)) and np.all(diag.scaled < 0)
    lines = "".join(diag.csv_chunks()).strip().splitlines()
    assert lines[0] == "n,scaled_log_tail,limit"
    assert len(lines) == 3


def test_mdp_exponent_guard(rademacher):
    with pytest.raises(ExponentOutOfRange):
        mdp_diagnostic(rademacher, 1.0, 0.5, [100])
    with pytest.raises(ExponentOutOfRange):
        mdp_diagnostic(rademacher, 1.0, 0.0, [100])


@pytest.mark.parametrize("grid", [[16.7], [64, 16.5], [math.nan], [math.inf], [64.0], [True],
                                  [64, True]])
def test_mdp_rejects_non_integer_horizons(two_state04, grid):
    # np.asarray(..., dtype=np.int64) alone would truncate 16.7 to 16 and read
    # True as 1; as at every other horizon, even 64.0 is refused
    with pytest.raises(ParamOutOfRange, match="n must be an integer >= 1, got"):
        mdp_diagnostic(two_state04, 1.0, 0.25, grid)


def _count_sum_law_passes(monkeypatch):
    """Record the horizon and the steps taken of every sum-law pass, and fail
    on any per-n table."""
    passes = []

    def counted(model, n, *args, **kwargs):
        passes.append([n, 0])
        for step in real(model, n, *args, **kwargs):
            passes[-1][1] += 1
            yield step

    def per_n(*args, **kwargs):
        raise AssertionError("mdp_diagnostic must not build a table per n")

    real = exact._sum_law_steps
    monkeypatch.setattr(exact, "_sum_law_steps", counted)
    monkeypatch.setattr(montecarlo, "distribution_of_Sn", per_n)
    return passes


@pytest.mark.parametrize("name", ["two_state", "dyadic3", "file"])
def test_mdp_grid_matches_per_n_tables(name):
    # one pass to max(grid) must give the per-n DP's tails bit for bit,
    # in grid order and with the repeated n kept
    model = {"two_state": lambda: builtin("two_state", rho=0.4),
             "dyadic3": lambda: builtin("dyadic_contracting", L=3),
             "file": lambda: parse_model_text(FILE_MODEL, name="file.model")}[name]()
    grid, c, a = [64, 8, 64, 1], 1.0, 0.25
    want = []
    for n in grid:
        an = float(n) ** -a
        table = distribution_of_Sn(model, n)
        want.append(an * an * float(exact_tail(table, c / an / table.sigma_n)))
    with pytest.MonkeyPatch.context() as mp:
        passes = _count_sum_law_passes(mp)
        diag = mdp_diagnostic(model, c, a, grid)
    assert passes == [[64, 64]]  # this small grid is cheaper on the DP than by the transform
    assert diag.n_grid.tolist() == grid
    assert diag.scaled.tobytes() == np.array(want).tobytes()
    assert diag.error_bound.tolist() == [0.0] * 4
    assert [line.split(",")[0] for line in "".join(diag.csv_chunks()).splitlines()[1:]] == \
        ["64", "8", "64", "1"]


def test_mdp_grid_takes_one_pass_to_its_largest_n(two_state04, monkeypatch):
    # mdp sends this grid to the DP (estimated 0.0022 s against 0.0042 s for
    # the transform), and one pass to 256 serves the whole grid
    grid = [64, 16, 256]
    passes = _count_sum_law_passes(monkeypatch)
    tables = exact._sum_law_tables(two_state04, grid)
    assert passes == [[256, 256]]
    assert [t.n for t in tables] == grid
    passes.clear()
    diag = mdp_diagnostic(two_state04, 1.0, 0.25, grid)
    assert passes == [[256, 256]]
    assert diag.n_grid.tolist() == grid
    want = []
    for n, t in zip(grid, tables):
        an = float(n) ** -0.25
        want.append(an * an * float(exact_tail(t, 1.0 / an / t.sigma_n)))
    assert diag.scaled.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name, grid, engine", [("dyadic6", [48, 192, 768], "DP"),
                                                ("two_state", [512, 2048, 8192], "transform")])
def test_mdp_routes_a_grid_to_the_engine_estimated_quicker(name, grid, engine, monkeypatch):
    # dyadic L=6: one pass to 768 is estimated at 5.7 s (3.7-4.7 s measured)
    # against 8.4 s for the transform (6.5-7.9 s measured); two_state: 0.020 s
    # by the transform (0.012-0.013 s measured) against 0.18 s for the DP
    # (0.12-0.19 s measured).  Neither engine runs: the DP's stub stops the
    # call, and the transform's returns a log tail of 0.
    class Stop(Exception):
        pass

    ran = []

    def dp(model, n):
        ran.append(("DP", n))
        raise Stop

    monkeypatch.setattr(exact, "_sum_law_steps", dp)
    monkeypatch.setattr(exact, "_tilt_run", lambda plan: ran.append(("transform", plan.n)) or (0.0, 0.0))
    model = {"dyadic6": lambda: builtin("dyadic_contracting", L=6),
             "two_state": lambda: builtin("two_state", rho=0.4)}[name]()
    try:
        mdp_diagnostic(model, 1.0, 0.25, grid)
    except Stop:
        pass
    assert ran == ([("DP", max(grid))] if engine == "DP" else [("transform", n) for n in grid])


def test_mdp_dense_small_grid_takes_the_dp_bit_for_bit(monkeypatch):
    # 64 states at small n: one DP pass is cheaper than s^3 per frequency
    model = builtin("dyadic_contracting", L=6)
    grid = [8, 32]
    passes = _count_sum_law_passes(monkeypatch)
    diag = mdp_diagnostic(model, 1.0, 0.25, grid)
    assert passes == [[32, 32]]
    want = []
    for n, table in zip(grid, exact._sum_law_tables(model, grid)):
        an = float(n) ** -0.25
        want.append(an * an * float(exact_tail(table, 1.0 / an / table.sigma_n)))
    assert diag.scaled.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name, grid", [("two_state", [512, 2048, 8192]),
                                        ("dyadic3", [64, 256, 1024]),
                                        ("file", [256, 1024, 4096]),
                                        ("two_state", [512, 128, 2048])])
def test_mdp_transform_matches_the_dp(name, grid, monkeypatch):
    # the last grid, out of order, is estimated at 0.010 s by the transform
    # against 0.024 s for one pass to 2048
    model = {"two_state": lambda: builtin("two_state", rho=0.4),
             "dyadic3": lambda: builtin("dyadic_contracting", L=3),
             "file": lambda: parse_model_text(FILE_MODEL, name="file.model")}[name]()
    tables = exact._sum_law_tables(model, grid)
    passes = _count_sum_law_passes(monkeypatch)
    diag = mdp_diagnostic(model, 1.0, 0.25, grid)
    assert passes == []
    want = [n ** -0.5 * float(exact_tail(t, n ** 0.25 / t.sigma_n)) for n, t in zip(grid, tables)]
    assert np.allclose(diag.scaled, want, rtol=1e-12, atol=0)
    assert np.all((0.0 < diag.error_bound) & (diag.error_bound <= 1e-7))


def test_mdp_reaches_a_million_steps_on_a_chain(two_state04):
    diag = mdp_diagnostic(two_state04, 1.0, 0.25, [10 ** 6])
    assert abs(diag.scaled[0] - (-3.0 / 14.0)) < 0.01
    assert 0.0 < diag.error_bound[0] <= exact.ROUNDOFF_RTOL


@pytest.mark.parametrize("model", ["two_state04", "rademacher"])
def test_mdp_empty_grid_is_an_empty_diagnostic(model, monkeypatch, request):
    passes = _count_sum_law_passes(monkeypatch)
    diag = mdp_diagnostic(request.getfixturevalue(model), 1.0, 0.25, [])
    assert passes == []
    assert diag.n_grid.size == 0 and diag.scaled.size == 0
    assert math.isfinite(diag.limit) and diag.limit < 0
    assert "".join(diag.csv_chunks()) == "n,scaled_log_tail,limit\n"


def test_mdp_budget_is_checked_for_the_largest_n_before_any_step(monkeypatch):
    # dyadic L=8 at n = 4096 needs about 7 GB; n = 8 alone would fit
    passes = _count_sum_law_passes(monkeypatch)
    with pytest.raises(BudgetExceeded):
        mdp_diagnostic(builtin("dyadic_contracting", L=8), 1.0, 0.25, [8, 4096])
    assert passes == [[4096, 0]]


def test_mdp_refuses_before_solving_a_tilt_whose_smallest_plan_is_too_dear(monkeypatch):
    # dyadic L=8 at n = 4096: a 16-point transform with its Newton solve's jet
    # powers is estimated at about 2.4 s, past a cap of 1.5 s, so no tilt is
    # solved before the DP refuses, not even n = 64's, whose own floor (about
    # 1.2 s) is within the cap
    monkeypatch.setattr(models, "WORK_CAP_S", 1.5)
    solves = []
    solve = exact._solve_tilt
    monkeypatch.setattr(exact, "_solve_tilt", lambda *a: solves.append(a) or solve(*a))
    model = builtin("dyadic_contracting", L=8)
    for grid in ([8, 4096], [64, 4096]):
        with pytest.raises(BudgetExceeded, match="^DP needs"):
            mdp_diagnostic(model, 1.0, 0.25, grid)
    assert solves == []
    with pytest.raises(BudgetExceeded, match="^tilted transform of 16 points"):
        exact.tilted_log_tail(model, 4096, 1.0 * 4096 ** 0.75)
    assert solves == []


def test_mdp_refuses_a_1024_state_chain_before_any_powering(monkeypatch):
    # dyadic L=10 at n = 64: the 16-point floor, with TILT_EVALS jet powers of
    # 3072 x 3072, is past the 60 s cap, and one DP pass is estimated at about
    # 112 s, so mdp refuses with no max-plus powering and no Newton solve
    def fail(*args):
        raise AssertionError("powered before refusing")
    monkeypatch.setattr(exact, "_top_sum", fail)
    monkeypatch.setattr(exact, "_solve_tilt", fail)
    model = builtin("dyadic_contracting", L=10)
    with pytest.raises(BudgetExceeded, match="^DP would run"):
        mdp_diagnostic(model, 1.0, 0.25, [64])
