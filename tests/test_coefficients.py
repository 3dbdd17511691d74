import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

from mdlab import (
    DecayCertificate,
    admissibility,
    builtin,
    coefficient_set,
    eta_certificate,
    certified_coefficient_bounds,
    parse_model_text,
    select_block_size,
    sigma_n,
)
from mdlab.coefficients import GAMMA_TOL
from mdlab.errors import NoDecayCertificate, ParamOutOfRange
from mdlab.exact import poisson_solution

import oracles
from test_cli import lattice_chains


# -- coefficient_set -----------------------------------------------------------

def test_rademacher_coefficients_vanish(rademacher):
    for n in (64, 256):
        for m in (1, 3, 16):
            cs = coefficient_set(rademacher, n, m)
            assert cs.gamma_m <= 1e-12
            assert cs.delta_m <= 1e-12
            assert cs.eps_m == pytest.approx(m / math.sqrt(n), abs=1e-14)
            assert cs.tau_sq == pytest.approx(m / n + 4 * cs.eps_m ** 2, abs=1e-12)


def test_eps_direct_substitution(rademacher):
    cs = coefficient_set(rademacher, 400, 5)
    assert cs.eps_m == pytest.approx(0.25, abs=1e-14)
    assert cs.sigma_n == pytest.approx(1.0, abs=1e-14)


def test_eps_strictly_increasing_in_m(two_state04):
    eps = [coefficient_set(two_state04, 256, m).eps_m for m in range(1, 12)]
    assert np.all(np.diff(eps) > 0)


def test_gamma_against_direct_series_summation(two_state04):
    # oracle: closed-form conditional-sum norms for the two-state chain,
    # summed brute force to J = 1e6, then the exact zeta tail at the limit
    rho = 0.4
    n, m = 120, 6
    cs = coefficient_set(two_state04, n, m)
    assert cs.gamma_m > 0
    assert cs.gamma_truncation_error < 1e-10
    sig = math.sqrt(oracles.two_state_sigma_sq(rho, n))
    js = np.arange(1, 10 ** 6 + 1, dtype=float)
    norms = rho * (1.0 - rho ** (m * js)) / (1.0 - rho)
    direct = float(np.sum(js ** -1.5 * norms)) / (math.sqrt(m) * sig)
    tail = rho / (1 - rho) * float(zeta(1.5, 10 ** 6 + 1)) / (math.sqrt(m) * sig)
    assert cs.gamma_m == pytest.approx(direct + tail, abs=1e-9)
    # the crude bound on what the direct truncation leaves behind
    assert abs(cs.gamma_m - direct) <= 2 * (rho / (1 - rho)) / (
        math.sqrt(10 ** 6) * math.sqrt(m) * sig)


def test_delta_two_state_closed_form(two_state04):
    n, m = 1024, 7
    cs = coefficient_set(two_state04, n, m)
    rho = 0.4
    sig_sq = oracles.two_state_sigma_sq(rho, n)
    drift = oracles.two_state_cond_sum_norm(rho, m) ** 2 / (m * sig_sq)
    ks = np.arange(1, m)
    block_second = m + 2 * float(np.sum((m - ks) * rho ** ks))
    var_dev = abs(block_second / (m * sig_sq) - 1.0)
    assert cs.delta_sq == pytest.approx(drift + var_dev, abs=1e-12)


def test_coefficient_set_validation(two_state04):
    with pytest.raises(ParamOutOfRange):
        coefficient_set(two_state04, 10, 11)
    with pytest.raises(ParamOutOfRange):
        coefficient_set(two_state04, 10, 0)


def test_coefficient_json_fields(two_state04):
    doc = coefficient_set(two_state04, 64, 4).to_json_dict()
    for key in ("n", "m", "eps_m", "gamma_m", "delta_m", "tau_m", "sigma_n",
                "gamma_truncation_error"):
        assert key in doc


# -- eta certificates ------------------------------------------------------------

def test_eta_certificate_of_sampled_builtin():
    ma = builtin("moving_average", c=1.0, L_trunc=12)
    assert eta_certificate(ma) is ma.decay


def test_exact_models_have_no_eta_certificate(rademacher, two_state04):
    # an exact chain's coefficients come exactly from coefficient_set
    for model in (rademacher, two_state04, builtin("dyadic_contracting", L=3)):
        with pytest.raises(NoDecayCertificate, match="has no decay certificate") as err:
            eta_certificate(model)
        assert err.value.exit_code == 3


# -- certificate-driven coefficient bounds -----------------------------------------

def test_zero_certificate_gives_zero_bounds():
    cert = DecayCertificate(eta1=np.zeros(32), eta2=np.zeros(32), geometric_rho=0.5)
    rb = certified_coefficient_bounds(cert, 8, 64, 1.0, 1.0)
    assert rb.gamma_bound == 0.0
    assert rb.delta_sq_bound == 0.0


def test_bounds_need_tail_information():
    # a certificate without a geometric rate is refused where it is built
    with pytest.raises(TypeError, match="geometric_rho"):
        DecayCertificate(eta1=[0.5, 0.25], eta2=[0.5, 0.25])


def test_bounds_past_a_window_without_a_geometric_tail_are_refused():
    # m = 8 reads eta1 past its two stored entries, which only a rate extends:
    # no rate, no certificate; an empty window is refused too
    for rho in (None, math.nan, 1.0, -0.1, "0.5"):
        with pytest.raises(ParamOutOfRange, match=r"geometric_rho must lie in \[0, 1\), got"):
            DecayCertificate(eta1=[0.5, 0.25], eta2=[0.5, 0.25], geometric_rho=rho)
    for eta1, eta2 in (([], [0.5]), ([0.5], []), ([[0.5]], [0.5])):
        with pytest.raises(ParamOutOfRange, match="must be one or more finite entries"):
            DecayCertificate(eta1=eta1, eta2=eta2, geometric_rho=0.5)
    cert = DecayCertificate(eta1=[0.5, 0.25], eta2=[0.5, 0.25], geometric_rho=0.5)
    rb = certified_coefficient_bounds(cert, 8, 64, 1.0, 1.0)
    gamma, delta_sq = oracles.certified_bounds_by_index(cert, 8, 1.0, 1.0)
    assert (rb.gamma_bound, rb.delta_sq_bound) == pytest.approx((gamma, delta_sq), rel=1e-13)


CERTIFIED_CASES = [f"moving_average:{c}:{L}" for c in (1.0, 0.7) for L in (1, 20, 1074)]


# rho = 0: every eta is zero past a window that ends in zeros, as for a chain that decouples
DECOUPLED = DecayCertificate(eta1=[0.5, 0.25, 0.125, 0.0], eta2=[0.25, 0.0625, 0.0, 0.0],
                             geometric_rho=0.0)


@pytest.mark.parametrize("name", CERTIFIED_CASES + ["decoupled"])
def test_certified_bounds_match_the_per_index_sums(name):
    # suffix sums and one geometric closed form against the sums taken one
    # index at a time, at m below, at and past the stored window
    if name.startswith("moving_average"):
        _, c, L = name.split(":")
        model = builtin("moving_average", c=float(c), L_trunc=int(L))
        cert, bound = model.decay, model.bound
    else:
        cert, bound = DECOUPLED, 1.0
        assert not cert.upto(cert.eta1, 5000)[3:].any() and cert.upto(cert.eta2, 5000).size == 5000
    window = cert.eta1.size
    for m in sorted({1, 2, 8, window, window + 1, 52, 5000}):
        got = certified_coefficient_bounds(cert, m, 5000, 0.9, bound)
        gamma, delta_sq = oracles.certified_bounds_by_index(cert, m, 0.9, bound)
        assert abs(got.gamma_bound - gamma) <= 1e-13 * gamma
        assert abs(got.delta_sq_bound - delta_sq) <= 1e-13 * delta_sq
        assert got.regime == "m^-1/2"


# -- block-size selection ----------------------------------------------------------

def test_select_block_size_closed_forms():
    assert select_block_size(128, 2.0, "cramer") == 4
    assert select_block_size(1000, 2.5, "berry_esseen") == 10
    assert select_block_size(1024, 1.5, "berry_esseen") == 16
    assert select_block_size(1024, 2.0, "cramer") == 7


def test_select_block_size_powers_of_two():
    # closed forms at exact powers: 2^(2k/7) and 2^(k/3) floored
    for k in range(3, 15):
        n = 1 << k
        assert select_block_size(n, 3.0, "cramer") == math.floor(
            2.0 ** (2.0 * k / 7.0) + 1e-9)
        choice = select_block_size(n, 2.0, "berry_esseen")
        assert choice == math.floor(2.0 ** (k / 3.0) + 1e-9)
        assert 1 <= choice <= n


def test_select_block_size_low_beta_branches():
    c = select_block_size(10 ** 4, 1.25, "cramer")
    assert c == math.floor((10 ** 4) ** (1.0 / (3 * 1.25 - 1)) + 1e-9)
    b = select_block_size(10 ** 4, 1.25, "berry_esseen")
    assert b == math.floor((10 ** 4) ** (1.0 / 2.25) + 1e-9)


def test_select_block_size_errors():
    with pytest.raises(ParamOutOfRange, match="beta must exceed 1, got 1.0"):
        select_block_size(100, 1.0, "cramer")
    with pytest.raises(ParamOutOfRange):
        select_block_size(100, 2.0, "nonsense")
    with pytest.raises(ParamOutOfRange):
        select_block_size(1, 2.0, "cramer")


# -- admissibility gates ---------------------------------------------------------------

def test_gates_rademacher_pass_both_modes(rademacher):
    cs = coefficient_set(rademacher, 400, 5)
    for mode in ("strict", "practical"):
        gates = admissibility(cs, mode)
        assert gates.all_ok
        assert gates.x_max == pytest.approx(2.0)


def test_gates_two_state_drift_gate_fails(two_state04):
    cs = coefficient_set(two_state04, 1024, 7)
    strict = admissibility(cs, "strict")
    practical = admissibility(cs, "practical")
    assert not strict.gamma_ok
    assert not practical.gamma_ok  # gamma ~ 0.43 > 1/e
    assert practical.eps_ok  # eps ~ 0.14
    assert practical.variance_ok
    assert strict.mode == "strict" and practical.mode == "practical"


def test_gates_reject_unknown_mode(rademacher):
    cs = coefficient_set(rademacher, 64, 2)
    with pytest.raises(ParamOutOfRange):
        admissibility(cs, "lenient")


def test_runaway_drift_series_is_refused_before_its_first_mat_vec(monkeypatch, tmp_path, capsys):
    # rho = 0.99999 needs J = 2^22 mat-vecs at m = 1: about 33 s on a 2-core host.
    # The bound's one norm at each J = 1, 2, ..., 2^22 takes 23 calls of np.abs; a
    # 24th would be the norm of the series' first step
    from mdlab import cli, coefficients, models
    from mdlab.errors import BudgetExceeded
    from test_exact import NumpyCountingAbs

    class Trap(NumpyCountingAbs):
        def abs(self, a):
            if self.abs_calls == coefficients.MAX_DOUBLINGS + 1:
                raise AssertionError("the drift series stepped past its cap")
            return super().abs(a)

    model = builtin("two_state", rho=0.99999)
    monkeypatch.setattr(models, "WORK_CAP_S", 1.0)
    monkeypatch.setattr(coefficients, "np", Trap())
    with pytest.raises(BudgetExceeded, match="drift series to J = 4194304 on 2 states"):
        coefficients._drift_series(model, 1, 1.0)
    monkeypatch.setattr(coefficients, "np", Trap())
    argv = ["coeffs", "--model", "two_state:rho=0.99999", "--n", "1000000", "--m", "1",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "past the cap of 1 s" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- the drift series' fixed point --------------------------------------------

@pytest.mark.parametrize("name, kw, n, m", [
    ("dyadic_contracting", {"L": 9}, 4096, 8), ("dyadic_contracting", {"L": 9}, 10 ** 6, 52),
    ("dyadic_contracting", {"L": 3}, 100, 2), ("two_state", {"rho": 0.4}, 10 ** 6, 52),
    ("two_state", {"rho": 0.999}, 4096, 4)])
def test_drift_series_stops_at_its_fixed_point_without_moving_a_bit(monkeypatch, name, kw, n, m):
    # the series stops at the least power of two J whose bound on the distance of
    # P^{Jm} h from its fixed point 0 certifies the tail: J = 1 on the dyadic chains
    # and on two_state(0.4) at m = 52, J = 8192 on two_state(0.999) at m = 4.  Either
    # way gamma_m is bit for bit the loop that makes every one of the J mat-vecs, and
    # the series makes each of them
    from mdlab import coefficients
    from test_exact import NumpyCountingAbs
    model = builtin(name, **kw)
    cs, j = _priced_drift(model, n, m)
    assert cs.gamma_m == oracles.drift_series_every_step(model, m, cs.sigma_n, j)
    counting = NumpyCountingAbs()
    monkeypatch.setattr(coefficients, "np", counting)
    assert coefficients._drift_series(model, m, cs.sigma_n)[0] == cs.gamma_m
    # one norm for the bound at each J = 1, 2, ..., j, one a step, and ||h||_inf
    steps = counting.abs_calls - j.bit_length() - 1
    assert steps == j
    assert j == (8192 if kw.get("rho") == 0.999 else 1)


# -- the drift series' own tail bound -------------------------------------------

def _priced_drift(model, n, m):
    """coefficient_set(model, n, m) and the J its drift series priced."""
    from mdlab import coefficients
    check, costs = coefficients._check_cost, []

    def recorded(what, *args, **kwargs):
        costs.append(what)
        return check(what, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coefficients, "_check_cost", recorded)
        cs = coefficient_set(model, n, m)
    return cs, int(next(c for c in costs if c.startswith("drift series to")).split()[5])


def _tail_bound(model, m, sig, j):
    """zeta(1.5, j + 1) ||P^{jm} h||_inf / (sqrt(m) sigma_n), P^{jm} squared from P^m, with
    the upper end of the package's zeta (held against mpmath in test_special.py)."""
    from mdlab.coefficients import _zeta_3_2
    power = np.linalg.matrix_power(model.transition, m)
    for _ in range(j.bit_length() - 1):
        power = power @ power
    h_norm = float(np.max(np.abs(power @ poisson_solution(model))))
    return _zeta_3_2(j + 1)[1] * h_norm / (math.sqrt(m) * sig)


def _check_drift_series_is_sound(model, n, m):
    # the series at 4J is off from the one at J by less than the reported bound:
    # every term past J differs from ||h||_inf by at most ||P^{Jm} h||_inf; rounding
    # is a few ulps of gamma (the two partial sums add in different orders)
    cs, j = _priced_drift(model, n, m)
    err = cs.gamma_truncation_error
    assert err <= GAMMA_TOL
    assert err == _tail_bound(model, m, cs.sigma_n, j)
    assert j == 1 or _tail_bound(model, m, cs.sigma_n, j // 2) > GAMMA_TOL
    far = oracles.drift_series_every_step(model, m, cs.sigma_n, 4 * j)
    assert abs(cs.gamma_m - far) <= err + 4 * math.ulp(cs.gamma_m)


@given(lattice_chains(), st.integers(1, 12), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_drift_series_bound_holds_on_random_chains(model, m, extra):
    _check_drift_series_is_sound(model, m + extra, m)


@pytest.mark.parametrize("name, n, m", [
    ("rademacher", 64, 3), ("two_state:0.4", 512, 6), ("two_state:0.4", 4096, 8),
    ("two_state:0.99", 1024, 4), ("two_state:0.999", 4096, 1), ("asymmetric3", 1024, 8),
    ("dyadic:3", 100, 2), ("dyadic:6", 48, 4), ("dyadic:9", 4096, 8), ("rare5", 256, 4),
    ("tiny5", 256, 3)])
def test_drift_series_bound_holds_on_the_example_chains(name, n, m):
    from test_exact import _oracle_model
    _check_drift_series_is_sound(_oracle_model(name), n, m)


TWIN_TEXT = ("states = a0 a1 b0 b1\ndenom = 1\nf_num = -1 1 -1 1\ntransition = "
             "0.699999999 0.3 0.000000001 0  0.3 0.699999999 0 0.000000001  "
             "0.000000001 0 0.699999999 0.3  0 0.000000001 0.3 0.699999999")


def test_weakly_linked_twin_of_two_state_is_certified(two_state04):
    # a0 a1 and b0 b1 are each two_state(0.4), linked by a switch of 1e-9 that keeps
    # the payoff: the payoff process is two_state(0.4)'s.  A Dobrushin rate of
    # 1 - 2e-9 left its tail at about 2e5 at J = 2^22; the iterate's own bound
    # certifies it
    twin = parse_model_text(TWIN_TEXT)
    got, ref = coefficient_set(twin, 4096, 8), coefficient_set(two_state04, 4096, 8)
    assert got.gamma_truncation_error <= GAMMA_TOL
    assert abs(got.gamma_m - ref.gamma_m) <= (got.gamma_truncation_error
                                              + ref.gamma_truncation_error)
    assert got.sigma_n == pytest.approx(ref.sigma_n, rel=1e-13)
    assert got.delta_sq == pytest.approx(ref.delta_sq, rel=1e-13)
