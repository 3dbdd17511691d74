import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mdlab import (
    DecayCertificate,
    build_finite_lattice_model,
    build_quantile_transform,
    builtin,
    coefficient_set,
    conditional_block_moments,
    distribution_of_Sn,
    geometric_mixing_certificate,
    phi_mixing_coefficients,
    sample_coupled_pairs,
    sample_trajectory,
    sigma_n,
    simulate_W,
    tilted_log_tail,
)
from mdlab.errors import (
    DegeneratePayoff,
    NoDecayCertificate,
    NonStochasticRow,
    ParamOutOfRange,
    PeriodicChain,
    ReducibleChain,
    SampledTierUnsupported,
)
from mdlab import coupling, models, montecarlo
from mdlab.coefficients import certified_coefficient_bounds, select_block_size
from mdlab.exact import conditional_sum_norms
from mdlab.models import SampledModel, child_rng, parse_model_text, sample_state_paths
from mdlab.bounds import (
    berry_esseen_bound,
    cramer_envelope,
    freedman_bound,
    peligrad_bound,
)
from mdlab.coupling import coupling_report
from mdlab.montecarlo import (
    empirical_ks,
    estimate_tails,
    mdp_diagnostic,
    ratio_curve,
    wilson_interval,
)
from test_cli import lattice_chains


def test_two_state_stationary_vector_solved_by_hand():
    # stay probability 0.7: pi solves pi = pi P, symmetric, so (1/2, 1/2)
    model = build_finite_lattice_model(
        ["-1", "+1"], [[0.7, 0.3], [0.3, 0.7]], [-1, 1], 1)
    assert np.allclose(model.pi, [0.5, 0.5], atol=1e-15)
    assert model.mean_fraction == 0
    assert model.bound == 1.0


def test_constant_payoff_rejected():
    with pytest.raises(DegeneratePayoff):
        build_finite_lattice_model(["a"], [[1.0]], [0], 1)


def test_identity_transition_rejected_as_reducible():
    with pytest.raises(ReducibleChain):
        build_finite_lattice_model(["a", "b"], np.eye(2), [0, 1], 1)


def test_periodic_chain_rejected():
    flip = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(PeriodicChain):
        build_finite_lattice_model(["a", "b"], flip, [0, 1], 1)


def test_non_stochastic_row_rejected():
    from mdlab.errors import NonStochasticRow
    with pytest.raises(NonStochasticRow):
        build_finite_lattice_model(["a", "b"], [[0.9, 0.2], [0.5, 0.5]], [0, 1], 1)


def test_row_sums_exactly_one_after_renormalization():
    model = builtin("two_state", rho=0.4)
    assert np.max(np.abs(model.transition.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(model.pi @ model.transition - model.pi)) <= 1e-12


def test_stationary_pair_law_is_shift_invariant():
    model = builtin("two_state", rho=0.7)
    joint01 = model.pi[:, None] * model.transition
    # law of (Y_1, Y_2): start from pi, take one step, then the same kernel
    pi1 = model.pi @ model.transition
    joint12 = pi1[:, None] * model.transition
    assert np.max(np.abs(joint01 - joint12)) <= 1e-12


def test_centered_payoff_means_zero_in_rationals():
    from fractions import Fraction
    for model in (builtin("dyadic_contracting", L=4),
                  build_finite_lattice_model(
                      ["a", "b", "c"],
                      [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]],
                      [-1, 0, 2], 2)):
        total = sum(p * (Fraction(int(f), model.denom) - model.mean_fraction)
                    for p, f in zip(model.pi_exact, model.f_num))
        assert total == 0


@pytest.mark.parametrize("name,params", [
    ("rademacher", {}),
    ("two_state", {"rho": 0.4}),
    ("dyadic_contracting", {"L": 3}),
])
def test_boundedness_matches_declared_norm(name, params):
    model = builtin(name, **params)
    assert np.max(np.abs(model.x_values)) == pytest.approx(model.bound, abs=0)


def test_unknown_builtin_and_bad_params():
    with pytest.raises(ParamOutOfRange, match="unknown builtin model 'ornstein'"):
        builtin("ornstein")
    with pytest.raises(ParamOutOfRange):
        builtin("two_state", rho=1.0)
    with pytest.raises(ParamOutOfRange):
        builtin("two_state")
    with pytest.raises(ParamOutOfRange):
        builtin("moving_average", c=1.0, L_trunc=0)


def test_rademacher_is_iid():
    model = builtin("rademacher")
    assert np.allclose(model.transition, 0.5)
    assert phi_mixing_coefficients(model, 5) == pytest.approx([0.0] * 5, abs=1e-15)


def test_phi_mixing_two_state_closed_form():
    model = builtin("two_state", rho=0.4)
    phis = phi_mixing_coefficients(model, 6)
    assert phis[0] == pytest.approx(0.2, abs=1e-12)
    assert phis[2] == pytest.approx(0.032, abs=1e-12)
    expected = 0.4 ** np.arange(1, 7) / 2.0
    assert np.max(np.abs(phis - expected)) <= 1e-12
    assert np.all(np.diff(phis) <= 1e-15)
    assert np.all(phis <= 1.0)


def test_phi_mixing_rejects_sampled_tier():
    ma = builtin("moving_average", c=1.0, L_trunc=8)
    with pytest.raises(SampledTierUnsupported):
        phi_mixing_coefficients(ma, 3)


def test_mixing_certificate_dominates_phi():
    model = builtin("two_state", rho=0.6)
    assert geometric_mixing_certificate(model) == (pytest.approx(0.6, abs=1e-15), 1)
    _assert_certificate_dominates_phi(model)


def _dense_random_chain(states: int, seed: int):
    p = np.random.default_rng(seed).random((states, states))
    return build_finite_lattice_model(range(states), p / p.sum(axis=1, keepdims=True),
                                      range(states), 1)


def _assert_certificate_dominates_phi(model, horizon: int = 40):
    d, n0 = geometric_mixing_certificate(model)
    assert 0.0 <= d < 1.0 - 1e-12 and n0 & (n0 - 1) == 0 and n0 <= models.MAX_CONTRACTION_POWER
    ks = np.arange(1, horizon + 1)
    assert np.all(phi_mixing_coefficients(model, horizon) <= d ** (ks // n0) + 1e-12)


CERTIFIED_CHAINS = {
    **{f"dyadic{L}": lambda L=L: builtin("dyadic_contracting", L=L) for L in range(1, 8)},
    **{f"two_state{rho}": lambda rho=rho: builtin("two_state", rho=rho) for rho in (0.4, -0.9)},
    "file": lambda: parse_model_text("states = lo mid hi\ndenom = 2\nf_num = -2 1 3\n"
                                     "transition = 0.5 0.3 0.2  0.25 0.5 0.25  0.1 0.4 0.5\n"),
    "dense40": lambda: _dense_random_chain(40, 40),
    "dense100": lambda: _dense_random_chain(100, 100),  # past 64 states: the Doeblin bound
}


@pytest.mark.parametrize("name", CERTIFIED_CHAINS)
def test_mixing_certificate_bounds_phi_at_every_lag(name):
    # phi_1(k) <= d^floor(k/n0): a dyadic chain's rows agree only after L steps, so it is
    # no certificate of independence from the first step (phi_1(1) = 1/2 at L = 2)
    _assert_certificate_dominates_phi(CERTIFIED_CHAINS[name]())


@pytest.mark.parametrize("L", range(1, 8))
def test_dyadic_certificate_decouples_at_the_first_power_of_two_past_its_depth(L):
    # the rows of P^k agree from k = L on, and the entries are dyadic: exact in any order
    assert geometric_mixing_certificate(builtin("dyadic_contracting", L=L)) == (
        0.0, 1 << (L - 1).bit_length())


@given(lattice_chains())
@settings(max_examples=50, deadline=None)
def test_mixing_certificate_bounds_phi_on_random_chains(model):
    _assert_certificate_dominates_phi(model)


def test_dense_doeblin_bound_is_at_least_the_pairwise_coefficient():
    p = _dense_random_chain(100, 100).transition
    pairwise = 0.5 * np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2).max()
    assert pairwise <= models._dobrushin(p) < 1.0


def test_a_slowly_mixing_chain_has_no_certificate():
    # two copies of two_state:rho=0.4 linked by switches of 1e-17: irreducible, but no
    # power up to MAX_CONTRACTION_POWER contracts by 1e-12
    eps = 1e-17
    model = build_finite_lattice_model(
        ["a0", "a1", "b0", "b1"],
        [[0.7, 0.3, eps, 0.0], [0.3, 0.7, 0.0, eps],
         [eps, 0.0, 0.7, 0.3], [0.0, eps, 0.3, 0.7]], [-1, 1, -1, 1], 1)
    with pytest.raises(NoDecayCertificate, match="no contracting power"):
        geometric_mixing_certificate(model)


def test_moving_average_certificate_and_determinism():
    ma = builtin("moving_average", c=1.0, L_trunc=20)
    # geometric tail sum of the write coefficients
    for k in (1, 3, 8):
        assert ma.decay.upto(ma.decay.eta1, k)[-1] <= 2.0 ** (2 - k)
    t1 = sample_trajectory(ma, 200, seed=42)
    t2 = sample_trajectory(ma, 200, seed=42)
    assert np.array_equal(t1.values, t2.values)
    t3 = sample_trajectory(ma, 200, seed=43)
    assert not np.array_equal(t1.values, t3.values)
    assert np.max(np.abs(t1.values)) <= ma.bound


def test_moving_average_path_is_the_convolution_of_its_window():
    ma = builtin("moving_average", c=1.5, L_trunc=7)
    w = 1.5 * 0.5 ** np.arange(8)
    burn, n = ma.burn_in, 50
    eps = ma.innovations(np.random.default_rng(4), (3, burn + n))
    assert set(np.unique(eps)) == {-1.0, 1.0}
    x = ma.path(eps)
    assert x.shape == (3, n)
    for row, e in zip(x, eps):  # the former one-path sampler's arithmetic
        assert np.allclose(row, np.convolve(e, w)[burn:burn + n], rtol=0, atol=1e-14)
    # X_t reads eps[t-1 : burn_in + t] only: changing anything outside it
    # leaves X_t bit for bit as it was
    t = 20
    outside = eps.copy()
    outside[:, :t - 1] *= -1
    outside[:, burn + t:] *= -1
    assert np.array_equal(ma.path(outside)[:, t - 1], x[:, t - 1])


def test_moving_average_signs_are_fair_and_pairwise_independent():
    # eight signs a byte: lag 1 and 7 pair bits within a byte and across its
    # edge, lag 8 the same bit of neighbouring bytes
    ma = builtin("moving_average", c=1.0, L_trunc=4)
    eps = ma.innovations(child_rng(23, 0), (4, 2 ** 18 + 3)).ravel()
    assert eps.size >= 10 ** 6 and eps.size % 8
    assert eps.dtype == np.float64 and np.all((eps == 1.0) | (eps == -1.0))
    plus = eps > 0
    assert abs(np.sum(plus) - eps.size / 2) <= 5 * math.sqrt(eps.size / 4)
    for lag in (1, 7, 8):
        a, b = plus[:-lag], plus[lag:]
        # overlapping pairs: a pattern's count varies by at most 5/16 a pair
        se = math.sqrt(5 / 16 * a.size)
        for count in (a & b, a & ~b, ~a & b, ~a & ~b):
            assert abs(np.sum(count) - a.size / 4) <= 5 * se, lag


@pytest.mark.parametrize("shape", [(1,), (7,), (9,), (3, 5), (2, 3, 13), (0, 4)])
def test_moving_average_signs_fill_any_shape_and_repeat_per_generator_state(shape):
    ma = builtin("moving_average", c=1.0, L_trunc=4)
    rng = child_rng(5, 2)
    rng.random(3)
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    eps = ma.innovations(rng, shape)
    assert eps.shape == shape and eps.dtype == np.float64
    assert np.all(np.abs(eps) == 1.0)
    assert eps.tobytes() == ma.innovations(twin, shape).tobytes()
    assert rng.random() == twin.random()


def test_a_sampled_model_is_its_weights():
    # the signs are the generator's bits read as 2b - 1, and the bound is
    # sum |weights|: neither can be set against the weights
    decay = DecayCertificate(eta1=[0.2, 0.1], eta2=[0.1, 0.0], geometric_rho=0.5)
    model = SampledModel(name="filter", weights=[0.6, -0.3, 0.1], decay=decay)
    for shape in ((1,), (9,), (3, 5), (2, 3, 13)):
        rng, twin = child_rng(11, len(shape)), child_rng(11, len(shape))
        count = math.prod(shape)
        bits = np.unpackbits(np.frombuffer(twin.bytes(-(-count // 8)), np.uint8), count=count)
        want = (bits * 2.0 - 1.0).reshape(shape)
        assert model.innovations(rng, shape).tobytes() == want.tobytes()
    assert model.bound == 0.6 + 0.3 + 0.1
    for c in (1.0, 0.7, models.MA_MIN_C, models.MA_MAX_C):
        for L in (1, 20, 1074):
            ma = builtin("moving_average", c=c, L_trunc=L)
            assert repr(ma.bound) == repr(float(ma.weights.sum()))
    for extra in ("innovations", "bound"):
        with pytest.raises(TypeError):
            SampledModel(name="filter", weights=[1.0], decay=decay, **{extra: 1.0})


def test_moving_average_autocov_matches_empirical():
    ma = builtin("moving_average", c=1.0, L_trunc=10)
    xs = sample_trajectory(ma, 200_000, seed=1).values
    for k in (0, 1, 3):
        emp = float(np.mean(xs[: xs.size - k] * xs[k:]))
        assert emp == pytest.approx(ma.autocov(k), abs=0.02)


def test_decay_certificate_validation():
    with pytest.raises(ParamOutOfRange):
        DecayCertificate(eta1=[0.1, 0.5], eta2=[0.0], geometric_rho=0.5)
    with pytest.raises(TypeError):  # a decay exponent is no longer a field
        DecayCertificate(eta1=[0.5, 0.1], eta2=[0.0], beta=0.5, geometric_rho=0.5)
    cert = DecayCertificate(eta1=[0.5, 0.25], eta2=[0.1], geometric_rho=0.5)
    assert cert.upto(cert.eta1, 2)[-1] == 0.25
    assert cert.upto(cert.eta1, 4)[-1] == pytest.approx(0.0625)
    assert [f.name for f in dataclasses.fields(cert)] == ["eta1", "eta2", "geometric_rho"]


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.3, 1e-3, 0.99, 2.0 ** -0.5])
def test_geometric_tail_is_every_power_bit_for_bit(rho):
    # rho^j first rounds to 0.0 near j = 1075 / log2(1 / rho); the tail stops
    # taking powers past it and pads zeros, bit for bit as if it had not
    edge = int(1075 / -math.log2(rho))
    ks = (1, 2, edge - 60, edge - 2, edge - 1, edge, edge + 1, edge + 2, edge + 60, 2 * edge,
          20000)
    for window in ([0.5, 0.25], [0.3] * 40):
        cert = DecayCertificate(eta1=window, eta2=window, geometric_rho=rho)
        last = cert.eta1[-1]
        for k in ks:
            if k > len(window):
                old = np.concatenate((cert.eta1, last * rho ** np.arange(1, k - len(window) + 1)))
                assert cert.upto(cert.eta1, k).tobytes() == old.tobytes(), (window, k)
        tail = cert.upto(cert.eta1, 2 * edge + 60)
        subnormal = tail[len(window) + int(1050 / -math.log2(rho)) - 1]
        assert 0.0 < subnormal < 2.0 ** -1022 and tail[-1] == 0.0


def test_exact_trajectories_are_seeded_and_stationary():
    model = builtin("two_state", rho=0.4)
    t1 = sample_trajectory(model, 50, seed=7)
    t2 = sample_trajectory(model, 50, seed=7)
    assert np.array_equal(t1.states, t2.states)
    assert t1.values.size == 50
    assert set(np.unique(t1.values)) <= {-1.0, 1.0}


def test_parse_model_text_round_trip():
    text = """
    # tiny chain
    states = up down
    denom = 2
    f_num = 1 -1
    transition = 0.8 0.2  0.4 0.6
    """
    model = parse_model_text(text)
    assert model.n_states == 2
    assert model.denom == 2
    # pi solves the 2x2 stationarity equations: pi_up = 2/3
    assert model.pi[0] == pytest.approx(2.0 / 3.0, abs=1e-14)


@st.composite
def _small_chains(draw):
    size = draw(st.integers(min_value=2, max_value=4))
    rows = []
    for _ in range(size):
        raw = draw(st.lists(st.integers(min_value=1, max_value=9),
                            min_size=size, max_size=size))
        total = sum(raw)
        rows.append([v / total for v in raw])
    f_num = draw(st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=size, max_size=size))
    return rows, f_num


@given(_small_chains())
@settings(max_examples=40, deadline=None)
def test_random_chain_invariants(chain):
    from fractions import Fraction
    from mdlab import distribution_of_Sn
    from mdlab.errors import DegeneratePayoff
    rows, f_num = chain
    size = len(rows)
    try:
        model = build_finite_lattice_model(
            [str(i) for i in range(size)], rows, f_num, 2)
    except DegeneratePayoff:
        return
    assert np.max(np.abs(model.pi @ model.transition - model.pi)) <= 1e-12
    assert model.pi.sum() == pytest.approx(1.0, abs=1e-12)
    total = sum(p * (Fraction(int(f), 2) - model.mean_fraction)
                for p, f in zip(model.pi_exact, model.f_num))
    assert total == 0
    table = distribution_of_Sn(model, 4)
    assert abs(np.logaddexp.reduce(table.logp)) <= 1e-10


def test_parse_model_text_errors():
    with pytest.raises(ParamOutOfRange):
        parse_model_text("states = a b\ndenom = 1\nf_num = 1 -1\n")
    with pytest.raises(ParamOutOfRange):
        parse_model_text("states = a\ndenom = 1\nf_num = 1\ntransition = 0.5 0.5\n")


@st.composite
def _random_supports(draw):
    """Weighted transition matrices on random supports of 1-8 states:
    unrestricted, block-triangular (reducible) or cyclic over 2 or 3 classes."""
    size = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["free", "reducible", "cyclic2", "cyclic3"]))
    cls = [draw(st.integers(min_value=0, max_value=size - 1)) for _ in range(size)]
    if kind == "reducible":
        split = draw(st.integers(min_value=0, max_value=size))
        allowed = [[not (i >= split > j) for j in range(size)] for i in range(size)]
    elif kind.startswith("cyclic"):
        d = int(kind[-1])
        allowed = [[cls[j] % d == (cls[i] + 1) % d for j in range(size)]
                   for i in range(size)]
    else:
        allowed = [[True] * size for _ in range(size)]
    rows = []
    for i in range(size):
        cols = [j for j in range(size) if allowed[i][j]] or [i]
        picked = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=2 * size))
        weights = np.zeros(size)
        for j in picked:
            weights[j] += draw(st.integers(min_value=1, max_value=9))
        row = weights / weights.sum()
        if draw(st.booleans()):
            row[row == 0] = -0.0
        rows.append(row)
    return np.array(rows)


@given(_random_supports())
@settings(max_examples=300, deadline=None)
def test_construction_matches_dense_oracle(trans):
    from fractions import Fraction
    from oracles import dense_renormalise, period, strongly_connected
    size = trans.shape[0]
    expected = dense_renormalise(trans)
    adj = expected > 0.0
    args = ([str(i) for i in range(size)], trans, np.arange(size), 1)
    if not strongly_connected(adj):
        with pytest.raises(ReducibleChain):
            build_finite_lattice_model(*args)
        return
    if period(adj) != 1:
        with pytest.raises(PeriodicChain, match=f"chain has period {period(adj)}$"):
            build_finite_lattice_model(*args)
        return
    if size == 1:
        with pytest.raises(DegeneratePayoff):
            build_finite_lattice_model(*args)
        return
    model = build_finite_lattice_model(*args)
    assert model.transition.tobytes() == expected.tobytes()
    # pi_exact is stationary for the exactly renormalised rows
    rows = [[Fraction(float(v)) for v in r] for r in trans]
    rows = [[v / sum(r) for v in r] for r in rows]
    for j in range(size):
        assert sum(model.pi_exact[i] * rows[i][j] for i in range(size)) == model.pi_exact[j]


def test_caller_transition_is_not_modified():
    trans = np.array([[0.3, 0.7 + 1e-13, -0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    before = trans.tobytes()
    model = build_finite_lattice_model(["a", "b", "c"], trans, [0, 1, 2], 1)
    assert trans.tobytes() == before
    assert model.transition is not trans
    assert not np.signbit(model.transition).any()


def _birth_death(size, up, down):
    trans = np.zeros((size, size))
    for i in range(size):
        if i + 1 < size:
            trans[i, i + 1] = up
        if i > 0:
            trans[i, i - 1] = down
        trans[i, i] = 1.0 - trans[i].sum()
    return trans


@pytest.mark.parametrize("up", [0.0101, 0.02])
def test_large_birth_death_chain_matches_product_form(up):
    from oracles import birth_death_stationary
    # 65 states: above the exact-solve size, slowly mixing
    model = build_finite_lattice_model(range(65), _birth_death(65, up, 0.01),
                                       np.arange(65), 1)
    exact = np.array([float(v) for v in birth_death_stationary(model.transition)])
    assert np.max(np.abs(model.pi - exact)) <= 1e-12
    assert np.max(np.abs(np.array([float(v) for v in model.pi_exact]) - exact)) <= 1e-12


def test_empty_and_non_finite_models_rejected():
    from mdlab.errors import NonStochasticRow
    with pytest.raises(ParamOutOfRange, match="at least one state"):
        build_finite_lattice_model([], np.zeros((0, 0)), [], 1)
    nan = float("nan")
    for trans in ([[nan, nan], [0.5, 0.5]], [[nan, 1.0], [0.5, 0.5]],
                  [[0.5, 0.5], [np.inf, nan]]):
        with pytest.raises(NonStochasticRow):
            build_finite_lattice_model(["a", "b"], trans, [0, 1], 1)


def _dense_chain(size, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((size, size))
    return p / p.sum(axis=1, keepdims=True)


def _stationary_case(name):
    """(raw transition, f_num, denom) handed to the model builder."""
    from test_montecarlo import GAPPED_ROWS
    if name.startswith("dyadic"):
        model = builtin("dyadic_contracting", L=int(name[6:]))
        return model.transition, model.f_num, model.denom
    if name == "file":
        return [[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]], [-2, 1, 3], 2
    if name == "gapped":
        return GAPPED_ROWS, range(5), 1
    if name == "renormalised":
        # float rows a few ulps off stochastic: every row is rescaled exactly
        trans = _dense_chain(6, 3)
        trans[0, 1:3] = 0.0
        trans /= trans.sum(axis=1, keepdims=True)
        return trans * (1.0 + 1e-14 * np.arange(1, 7))[:, None], range(6), 1
    size = int(name[5:])
    return _dense_chain(size, size), range(size), 1


@pytest.mark.parametrize("name", [*(f"dyadic{L}" for L in range(1, 7)), "file", "gapped",
                                  "renormalised", "dense8", "dense16", "dense32"])
def test_exact_stationary_matches_fraction_elimination(name):
    from oracles import fraction_stationary
    trans, f_num, denom = _stationary_case(name)
    size = np.asarray(trans).shape[0]
    if name == "renormalised":
        assert all(sum(Fraction(float(v)) for v in row) != 1 for row in trans)
    model = build_finite_lattice_model(range(size), trans, f_num, denom)
    assert list(model.pi_exact) == fraction_stationary(trans)


@st.composite
def _sparse_stationary_systems(draw):
    """Rows of 2-20 states, each summing to 1, at least half their entries 0.
    Chains with one closed class: a cycle, each transient state stepping to the
    class or to an earlier transient state and a few more edges, the states then
    shuffled.  Where the first k + 1 states hold the class, Bareiss's pivot of
    step k is 0 and the dense last equation, never skipped, is swapped in: on
    chains no skipped row is.  So also signed rows (the elimination never looks
    at signs), multiples of 1/64 but for a last column that makes each sum 1 (so
    columns are scaled and pivots are not 1), where row k of P^T - I is a
    multiple of row k - 1 on columns 0..k (a 0 pivot at step k) and row k + 1
    is 0 left of column k and not at k: every earlier step skips it, and step k
    swaps it in."""
    size = draw(st.integers(min_value=2, max_value=20))
    index = st.integers(min_value=0, max_value=size - 1)
    weights = np.zeros((size, size))
    if size < 3 or draw(st.booleans()):
        closed = draw(st.integers(min_value=1, max_value=size))
        edges = {(i, (i + 1) % closed) for i in range(closed)}
        edges |= {(i, draw(st.integers(min_value=0, max_value=i - 1)))
                  for i in range(closed, size)}
        for _ in range(draw(st.integers(min_value=0, max_value=size * size // 2 - len(edges)))):
            i = draw(index)
            top = (closed if i < closed else size) - 1  # a state of the class stays in it
            edges.add((i, draw(st.integers(min_value=0, max_value=top))))
        order = draw(st.permutations(range(size)))
        for i, j in edges:
            weights[order[i], order[j]] = draw(st.integers(min_value=1, max_value=999))
        return weights / weights.sum(axis=1, keepdims=True)
    for _ in range(draw(st.integers(min_value=1, max_value=size))):
        weights[draw(index), draw(index)] = draw(st.integers(min_value=-999, max_value=999)) / 64
    k = draw(st.integers(min_value=1, max_value=size - 2))
    nonzero = st.sampled_from([-2, -1, 1, 2])
    a = weights[:k + 1, k - 1] - (np.arange(k + 1) == k - 1)  # row k - 1 of P^T - I
    weights[:k + 1, k] = draw(nonzero) * a + (np.arange(k + 1) == k)
    weights[:k + 1, k + 1] = np.arange(k + 1) == k
    # row k is no multiple of row k - 1 past column k, or few systems would be solvable
    weights[draw(st.integers(min_value=k + 1, max_value=size - 1)), k] = draw(nonzero)
    weights[:, -1] = 1.0 - weights[:, :-1].sum(axis=1)
    assume(2 * np.count_nonzero(weights) <= weights.size)
    return weights


@given(_sparse_stationary_systems())
@settings(max_examples=200, deadline=None)
def test_lazy_bareiss_matches_fraction_elimination(trans):
    # rows renormalised exactly, as the model builder hands them over; a
    # singular system is refused by both eliminations
    from oracles import fraction_stationary
    assert 2 * np.count_nonzero(trans) <= trans.size
    rows = []
    for raw in trans:
        cols = np.flatnonzero(raw)
        total = sum(Fraction(float(v)) for v in raw[cols])
        rows.append({int(c): Fraction(float(raw[c])) / total for c in cols})
    try:
        want = fraction_stationary(trans)
    except StopIteration:
        with pytest.raises(ReducibleChain, match="singular"):
            models._exact_stationary(rows)
        return
    assert models._exact_stationary(rows) == want


def test_exact_stationary_of_a_dense_64_state_chain_is_exact():
    # the Fraction elimination takes ~10 s here: check pi P = pi, sum pi = 1 instead
    trans = _dense_chain(64, 64)
    model = build_finite_lattice_model(range(64), trans, np.arange(64), 1)
    rows = [[Fraction(float(v)) for v in r] for r in trans]
    rows = [[v / sum(r) for v in r] for r in rows]
    pi = model.pi_exact
    assert sum(pi) == 1
    for j in range(64):
        assert sum(pi[i] * rows[i][j] for i in range(64)) == pi[j]


def test_oversized_dyadic_chain_is_refused_before_any_array(monkeypatch):
    # 2^13 states would hold several dense 512 MiB arrays; the benchmark's
    # 512-state chain still builds
    from mdlab import models
    from mdlab.errors import BudgetExceeded
    assert builtin("dyadic_contracting", L=9).n_states == 512

    def no_array(*args, **kwargs):
        raise AssertionError("an array was allocated")
    monkeypatch.setattr(models.np, "zeros", no_array)
    for L in (13, 40, 1000, 10 ** 20):  # 2^(10^20) is never formed
        with pytest.raises(BudgetExceeded):
            builtin("dyadic_contracting", L=L)
    monkeypatch.setattr(models, "DEFAULT_BUDGET_BYTES", 64 * 64 * models.BUILD_ENTRY_BYTES - 1)
    with pytest.raises(BudgetExceeded):
        builtin("dyadic_contracting", L=6)


@pytest.mark.parametrize("name, params", [("dyadic_contracting", {"L": 2.5}),
                                          ("dyadic_contracting", {"L": float("nan")}),
                                          ("dyadic_contracting", {"L": 3.0}),
                                          ("moving_average", {"c": 1.0, "L_trunc": 3.9})])
def test_integer_builtin_parameters_are_not_truncated(name, params):
    # L = 2.5 once built L = 2 and L_trunc = 3.9 built 3; nan raised a bare ValueError
    key = "L" if "L" in params else "L_trunc"
    with pytest.raises(ParamOutOfRange, match=f"{key} must be an integer >= 1, got"):
        builtin(name, **params)


def test_moving_average_past_the_last_nonzero_weight_is_refused_before_any_array(monkeypatch):
    # c 2^-k is 0.0 past k = 1074: a longer window adds only zero weights, and
    # L_trunc = 10^12 would ask for terabytes
    from mdlab import models
    ma = builtin("moving_average", c=1.0, L_trunc=1074)
    assert ma.burn_in == 1074 and ma.autocov(1074) > 0.0 and ma.autocov(1075) == 0.0

    def no_array(*args, **kwargs):
        raise AssertionError("an array was allocated")
    monkeypatch.setattr(models.np, "arange", no_array)
    for L in (1075, 10 ** 5, 10 ** 12):
        with pytest.raises(ParamOutOfRange, match="L_trunc"):
            builtin("moving_average", c=1.0, L_trunc=L)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moving_average_c_past_its_certificate_is_refused(tmp_path, capsys):
    # eta2 = 2 eta1^2 with eta1 up to c: past sqrt(max double / 2) = 9.48e153 it
    # overflowed, a RuntimeWarning, and without one the run said only "eta2 must be
    # one or more finite entries"
    from mdlab import cli, models
    top = builtin("moving_average", c=models.MA_MAX_C, L_trunc=3)
    assert np.all(np.isfinite(top.decay.eta2))
    for c in (math.nextafter(models.MA_MAX_C, math.inf), 1e200):
        with pytest.raises(ParamOutOfRange, match=r"^c must be at most 9\.481e\+153, .* got"):
            builtin("moving_average", c=c, L_trunc=3)
    out = tmp_path / "out"
    argv = ["coeffs", "--model", "moving_average:c=1e200,L_trunc=3", "--n", "1024", "--m", "16",
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert "c must be at most 9.481e+153" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moving_average_c_under_its_certificate_is_refused(tmp_path, capsys):
    # under sqrt(least normal double) = 1.49e-154, c^2 is subnormal and eta2 = 2 eta1^2
    # loses its digits (0.0 from about 1e-162): the certified bounds would drop whole
    # terms and come out below those of c = 1, with exit 0
    from mdlab import cli, models
    low = builtin("moving_average", c=models.MA_MIN_C, L_trunc=3)
    assert low.decay.eta2[0] >= np.finfo(float).tiny
    for c in (math.nextafter(models.MA_MIN_C, 0.0), 1e-200, 1e-320, 5e-324):
        with pytest.raises(ParamOutOfRange, match=r"and >= 1\.492e-154, got"):
            builtin("moving_average", c=c, L_trunc=3)
    out = tmp_path / "out"
    argv = ["coeffs", "--model", "moving_average:c=1e-200,L_trunc=3", "--n", "1024", "--m", "16",
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert ">= 1.492e-154, got 1e-200" in capsys.readouterr().err
    assert not out.exists()



# entry points that take a horizon, lag, block length, chain or draw count:
# (least count, call of the test's models and the count)
COUNT_CALLS = {
    "distribution_of_Sn": (1, lambda c, v: distribution_of_Sn(c.ts, v)),
    "sigma_n": (1, lambda c, v: sigma_n(c.ts, v)),
    "coefficient_set n": (1, lambda c, v: coefficient_set(c.ts, v, 4)),
    "coefficient_set m": (1, lambda c, v: coefficient_set(c.ts, 64, v)),
    "conditional_block_moments": (1, lambda c, v: conditional_block_moments(c.ts, v)),
    "conditional_sum_norms": (1, lambda c, v: conditional_sum_norms(c.ts, v)),
    "tilted_log_tail": (1, lambda c, v: tilted_log_tail(c.ts, v, 3.0)),
    "tilted_log_tail binomial": (1, lambda c, v: tilted_log_tail(c.rad, v, 3.0)),
    "phi_mixing_coefficients": (1, lambda c, v: phi_mixing_coefficients(c.ts, v)),
    "sample_trajectory": (1, lambda c, v: sample_trajectory(c.ts, v, 0)),
    "sample_trajectory sampled": (1, lambda c, v: sample_trajectory(c.ma, v, 0)),
    "sample_state_paths n": (1, lambda c, v: sample_state_paths(c.ts, v, 2, 0)),
    "sample_state_paths chains": (1, lambda c, v: sample_state_paths(c.ts, 8, v, 0)),
    "simulate_W n": (1, lambda c, v: simulate_W(c.ts, v, 3, 0)),
    "simulate_W chains": (1, lambda c, v: simulate_W(c.ts, 16, v, 0)),
    "simulate_W sampled": (1, lambda c, v: simulate_W(c.ma, v, 3, 0)),
    "sample_coupled_pairs": (1, lambda c, v: sample_coupled_pairs(c.transform, v, 0)),
    "wilson_interval": (1, lambda c, v: wilson_interval(0, v)),
    "peligrad_bound": (1, lambda c, v: peligrad_bound(4.0, v, 1.0, [0.1] * 65)),
    "moving_average autocov": (0, lambda c, v: c.ma.autocov(v)),
    "select_block_size": (2, lambda c, v: select_block_size(v, 2.0, "cramer")),
    "mdp_diagnostic": (1, lambda c, v: mdp_diagnostic(c.ts, 1.0, 0.25, [v])),
    "mdp_diagnostic grid": (1, lambda c, v: mdp_diagnostic(c.ts, 1.0, 0.25, [16, v])),
}


@pytest.fixture(scope="module")
def count_models():
    ts = builtin("two_state", rho=0.4)
    ma = builtin("moving_average", c=1.0, L_trunc=4)
    return SimpleNamespace(ts=ts, rad=builtin("rademacher"), ma=ma,
                           coeffs=coefficient_set(ts, 16, 4),
                           samples=np.random.default_rng(3).standard_normal(1000),
                           transform=build_quantile_transform(distribution_of_Sn(ts, 16)))


@pytest.mark.parametrize("value", [64.5, float("nan"), "least - 1", -1, 2.0, True])
@pytest.mark.parametrize("name", COUNT_CALLS)
def test_counts_must_be_integers_of_at_least_their_least(count_models, name, value):
    # a float, even an integral one, is refused as a typed error (exit 2); so
    # is a bool, which operator.index would read as 0 or 1
    least, call = COUNT_CALLS[name]
    with pytest.raises(ParamOutOfRange, match=f"must be an integer >= {least}, got"):
        call(count_models, least - 1 if value == "least - 1" else value)


@pytest.mark.parametrize("name", COUNT_CALLS)
def test_numpy_integer_counts_are_counts(count_models, name):
    call = COUNT_CALLS[name][1]
    got, want = (call(count_models, v) for v in (np.int64(4), 4))
    assert repr(got) == repr(want)


# every entry point that draws from a seed: a call of the test's models and the seed
SEED_CALLS = {
    "sample_trajectory": lambda c, v: sample_trajectory(c.ts, 5, v),
    "sample_trajectory sampled": lambda c, v: sample_trajectory(c.ma, 5, v),
    "sample_state_paths": lambda c, v: sample_state_paths(c.ts, 5, 3, v),
    "simulate_W": lambda c, v: simulate_W(c.ts, 10, 10, v),
    "simulate_W sampled": lambda c, v: simulate_W(c.ma, 10, 10, v),
    "estimate_tails": lambda c, v: estimate_tails(c.ts, 10, [0.5], 10, v),
    "ratio_curve": lambda c, v: ratio_curve(c.ts, 16, 4, [0.5], mode="mc", chains=10, seed=v),
    "sample_coupled_pairs": lambda c, v: sample_coupled_pairs(c.transform, 10, v),
    "coupling_report": lambda c, v: coupling_report(c.ts, c.coeffs, 10, v),
}


@pytest.mark.parametrize("seed", [-1, 1.0, 1.5, float("nan"), True])
@pytest.mark.parametrize("name", SEED_CALLS)
def test_seeds_must_be_integers_of_at_least_zero(count_models, name, seed):
    # numpy's SeedSequence raised a bare ValueError or TypeError for these
    with pytest.raises(ParamOutOfRange, match="seed must be an integer >= 0, got"):
        SEED_CALLS[name](count_models, seed)


def test_checked_seeds_draw_the_same_streams():
    for seed in (0, 7, np.int64(7), 2 ** 70):
        for index in (0, 3):
            want = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=int(seed), spawn_key=(index,))))
            assert child_rng(seed, index).random(4).tobytes() == want.random(4).tobytes()


# each seeded entry point, the step it must not reach with a bad seed (module,
# name) and a call: a kernel, table, coefficient set, sigma or allocation
EARLY_SEED_CALLS = {
    "simulate_W": (montecarlo, "_jump_length", lambda c, v: simulate_W(c.ts, 64, 10, v)),
    "simulate_W sampled": (SampledModel, "sum_weights", lambda c, v: simulate_W(c.ma, 64, 10, v)),
    "estimate_tails": (montecarlo, "sigma_any",
                       lambda c, v: estimate_tails(c.ts, 64, [0.5], 10, v)),
    "ratio_curve": (montecarlo, "coefficient_set",
                    lambda c, v: ratio_curve(c.ts, 16, 4, [0.5], mode="mc", chains=10, seed=v)),
    "coupling_report": (coupling, "distribution_of_Sn",
                        lambda c, v: coupling_report(c.ts, c.coeffs, 10, v)),
    "sample_coupled_pairs": (coupling, "_check_cost",
                             lambda c, v: sample_coupled_pairs(c.transform, 10, v)),
    "sample_trajectory": (models, "_check_cost",
                          lambda c, v: sample_trajectory(c.ts, 5, v)),
    "sample_trajectory sampled": (models, "_check_cost",
                                  lambda c, v: sample_trajectory(c.ma, 5, v)),
    "sample_state_paths": (models, "_check_cost",
                           lambda c, v: sample_state_paths(c.ts, 5, 3, v)),
}


@pytest.mark.parametrize("seed", [-1, True])
@pytest.mark.parametrize("name", EARLY_SEED_CALLS)
def test_bad_seeds_are_refused_before_any_work(count_models, monkeypatch, name, seed):
    owner, step, call = EARLY_SEED_CALLS[name]

    def reached(*args, **kwargs):
        raise AssertionError(f"{step} ran before the seed was checked")

    monkeypatch.setattr(owner, step, reached)
    with pytest.raises(ParamOutOfRange, match="seed must be an integer >= 0, got"):
        call(count_models, seed)


# input checks no other test reaches: the typed error and a call of the test's models
TYPED_INPUT_CALLS = {
    "transition shape": (NonStochasticRow, lambda c: build_finite_lattice_model(
        ["a", "b"], [[0.5, 0.5]], [0, 1], 1)),
    "f_num length": (ParamOutOfRange, lambda c: build_finite_lattice_model(
        ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [0, 1, 2], 1)),
    "denom": (ParamOutOfRange, lambda c: build_finite_lattice_model(
        ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [0, 1], 0)),
    "negative entry": (NonStochasticRow, lambda c: build_finite_lattice_model(
        ["a", "b"], [[1.5, -0.5], [0.5, 0.5]], [0, 1], 1)),
    "builtin extra parameter": (ParamOutOfRange, lambda c: builtin("rademacher", rho=0.4)),
    "ratio_curve mode": (ParamOutOfRange, lambda c: ratio_curve(
        c.ts, 16, 4, [0.5], mode="exactly", coeffs=c.coeffs)),
    "peligrad_bound norms": (ParamOutOfRange, lambda c: peligrad_bound(4.0, 12, 1.0, [-0.1] * 12)),
    "certified m past n": (ParamOutOfRange, lambda c: certified_coefficient_bounds(
        c.ma.decay, 17, 16, 1.0, 1.0)),
    "quantile transform of samples": (ParamOutOfRange, lambda c: build_quantile_transform(
        c.samples)),
    "f_num past int64": (ParamOutOfRange, lambda c: build_finite_lattice_model(
        ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [0, 2 ** 63], 1)),
    "f_num below int64": (ParamOutOfRange, lambda c: build_finite_lattice_model(
        ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [-2 ** 63 - 1, 0], 1)),
    "f_num spread past int64": (ParamOutOfRange, lambda c: build_finite_lattice_model(
        ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [-2 ** 62, 2 ** 62], 1)),
}


@pytest.mark.parametrize("name", TYPED_INPUT_CALLS)
def test_bad_inputs_raise_their_typed_errors(count_models, name):
    error, call = TYPED_INPUT_CALLS[name]
    with pytest.raises(error):
        call(count_models)


# every scale: a call of the test's models and the value, and whether 0 is one
SCALE_CALLS = {
    "cramer_envelope c": (False, lambda c, v: cramer_envelope(c.coeffs, 1.0, v)),
    "berry_esseen_bound c": (False, lambda c, v: berry_esseen_bound(c.coeffs, v)),
    "freedman_bound v2": (False, lambda c, v: freedman_bound(1.0, v, 0.5)),
    "freedman_bound a": (True, lambda c, v: freedman_bound(1.0, 1.0, v)),
    "peligrad_bound bound_x1": (False, lambda c, v: peligrad_bound(4.0, 12, v, [0.1] * 12)),
    "certified sigma_n": (False, lambda c, v: certified_coefficient_bounds(
        c.ma.decay, 4, 64, v, 1.0)),
    "certified bound_x0": (False, lambda c, v: certified_coefficient_bounds(
        c.ma.decay, 4, 64, 1.0, v)),
    "coupling_report alpha": (False, lambda c, v: coupling_report(c.ts, c.coeffs, 100, 0,
                                                                  alpha=v)),
    "coupling_report c_alpha": (False, lambda c, v: coupling_report(c.ts, c.coeffs, 100, 0,
                                                                    c_alpha=v)),
    "moving_average c": (False, lambda c, v: builtin("moving_average", c=v,
                                                     L_trunc=4).describe()),
    "empirical_ks sigma_n": (False, lambda c, v: empirical_ks(c.samples, v)),
    "mdp_diagnostic c": (True, lambda c, v: mdp_diagnostic(c.rad, v, 0.25, [16])),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", SCALE_CALLS)
def test_scales_must_be_finite_and_positive(count_models, name, value):
    # one helper, models._require_scale, checks them all: NaN and +-inf too
    zero, call = SCALE_CALLS[name]
    if zero and value == 0.0:
        call(count_models, value)
        return
    with pytest.raises(ParamOutOfRange, match=f"must be finite and {'>=' if zero else '>'} 0"):
        call(count_models, value)


@pytest.mark.parametrize("name", SCALE_CALLS)
def test_checked_scales_compute_the_same_bits(count_models, name):
    # the helper hands back float(value): an int or numpy scale reads the same
    call = SCALE_CALLS[name][1]
    got, want = (call(count_models, v) for v in (np.float64(2.0), 2.0))
    assert repr(got) == repr(want)
