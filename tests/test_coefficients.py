import json
import math

import numpy as np
import pytest
from scipy.special import zeta

from mdlab import (
    DecayCertificate,
    admissibility,
    build_finite_lattice_model,
    builtin,
    check_dedecker_conditions,
    coefficient_set,
    eta_certificate,
    certified_coefficient_bounds,
    geometric_mixing_certificate,
    select_block_size,
    sigma_n,
)
from mdlab.errors import BetaOutOfRange, ParamOutOfRange

import oracles


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

def test_eta1_two_state_geometric(two_state04):
    cert = eta_certificate(two_state04, 12)
    expected = 0.4 ** np.arange(1, 13)
    assert np.max(np.abs(cert.eta1 - expected)) <= 1e-12
    # conditional second moments are deterministic for this chain
    assert np.max(cert.eta2) <= 1e-12


def test_eta_rademacher_zero(rademacher):
    cert = eta_certificate(rademacher, 8)
    assert np.max(cert.eta1) <= 1e-15
    assert np.max(cert.eta2) <= 1e-15


def test_eta_dyadic_contraction():
    model = builtin("dyadic_contracting", L=10)
    cert = eta_certificate(model, 8, window=32)
    for k in range(1, 9):
        assert cert.eta1[k - 1] <= 2.0 ** -(k + 1) + 2.0 ** -9


def test_eta_certificate_of_sampled_builtin():
    ma = builtin("moving_average", c=1.0, L_trunc=12)
    cert = eta_certificate(ma, 6)
    assert cert is ma.decay


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


@pytest.mark.parametrize("n_max", [12, 64, 192])
@pytest.mark.parametrize("rho", [0.4, 0.9, 0.99])
def test_geometric_chains_read_the_geometric_regime(rho, n_max):
    # the certificate's own geometric rate sets the regime; a log-log slope
    # fitted to eta would read m^-0.47993 at rho = 0.9, n_max = 64
    model = builtin("two_state", rho=rho)
    cert = eta_certificate(model, n_max)
    assert 0 < cert.geometric_rho < 1 and cert.eta1.size == n_max
    rb = certified_coefficient_bounds(cert, 4, 64, sigma_n(model, 64), model.bound)
    assert rb.regime == "m^-1/2"


@pytest.mark.parametrize("L", [3, 6])
def test_chains_that_decouple_declare_no_decay_exponent(L):
    # eta vanish from index L on (a fitted slope read beta = 2.02 at L = 6), and
    # P^n0 has equal rows: rho = 0, zero past a window that reaches n0 - 1,
    # which a shorter n_max is stretched to, so every window gets bounds
    model = builtin("dyadic_contracting", L=L)
    n0 = {3: 4, 6: 8}[L]
    assert geometric_mixing_certificate(model) == (1.0, 0.0, n0)
    sig = sigma_n(model, 64)
    cert = eta_certificate(model, 64)
    assert cert.geometric_rho == 0.0
    assert not cert.eta1[L - 1:].any() and not cert.eta2[L - 1:].any()
    assert not cert.upto(cert.eta1, 5000)[64:].any() and cert.upto(cert.eta2, 5000).size == 5000
    for m in (1, 4, 63, 64, 65, 130, 5000):
        got = certified_coefficient_bounds(cert, m, 5000, sig, model.bound)
        gamma, delta_sq = oracles.certified_bounds_by_index(cert, m, sig, model.bound)
        assert abs(got.gamma_bound - gamma) <= 1e-13 * gamma
        assert abs(got.delta_sq_bound - delta_sq) <= 1e-13 * delta_sq
        assert got.regime == "m^-1/2"
    rb = certified_coefficient_bounds(cert, 4, 64, sig, model.bound)
    assert (round(rb.gamma_bound, 3), round(rb.delta_sq_bound, 3)) == {
        3: (0.287, 0.139), 6: (0.480, 0.424)}[L]
    assert eta_certificate(model, n0 - 1).geometric_rho == 0.0
    for short in (eta_certificate(model, n0 - 2), eta_certificate(model, 2)):
        assert short.geometric_rho == 0.0
        assert short.eta1.size == short.eta2.size == n0 - 1
        for m in (1, 4, 64, 5000):
            got = certified_coefficient_bounds(short, m, 5000, sig, model.bound)
            gamma, delta_sq = oracles.certified_bounds_by_index(short, m, sig, model.bound)
            assert abs(got.gamma_bound - gamma) <= 1e-13 * gamma
            assert abs(got.delta_sq_bound - delta_sq) <= 1e-13 * delta_sq
            assert got.regime == "m^-1/2"


CERTIFIED_CASES = [f"moving_average:{c}:{L}" for c in (1.0, 0.7) for L in (1, 20, 1074)]


@pytest.mark.parametrize("name", CERTIFIED_CASES + ["two_state:192"])
def test_certified_bounds_match_the_per_index_sums(name, two_state04):
    # suffix sums and one geometric closed form against the sums taken one
    # index at a time, at m below, at and past the stored window
    if name.startswith("moving_average"):
        _, c, L = name.split(":")
        model = builtin("moving_average", c=float(c), L_trunc=int(L))
        cert = model.decay
    else:
        model = two_state04
        cert = eta_certificate(model, 192)
    window = cert.eta1.size
    for m in sorted({1, 2, 8, window, window + 1, 52, 5000}):
        got = certified_coefficient_bounds(cert, m, 5000, 0.9, model.bound)
        gamma, delta_sq = oracles.certified_bounds_by_index(cert, m, 0.9, model.bound)
        assert abs(got.gamma_bound - gamma) <= 1e-13 * gamma
        assert abs(got.delta_sq_bound - delta_sq) <= 1e-13 * delta_sq


def test_gamma_bound_calibrated_at_largest_anchor_dominates(two_state04):
    # the exact-to-shape ratio grows with m toward the zeta constant, so the
    # anchor must sit at the top of the grid; with that constant the bound
    # dominates every smaller m
    n = 1024
    cert = eta_certificate(two_state04, 192)
    sig = sigma_n(two_state04, n)
    ms = [1, 2, 4, 8, 16, 32, 64]
    exact = {m: coefficient_set(two_state04, n, m).gamma_m for m in ms}
    shape = {m: certified_coefficient_bounds(cert, m, n, sig, 1.0).gamma_bound for m in ms}
    c1 = exact[64] / shape[64]
    for m in ms:
        assert c1 * shape[m] >= exact[m] - 1e-12


def test_delta_bound_calibrated_at_smallest_anchor_dominates(two_state04):
    n = 1024
    cert = eta_certificate(two_state04, 192)
    sig = sigma_n(two_state04, n)
    ms = [1, 2, 4, 8, 16, 32, 64]
    exact = {m: coefficient_set(two_state04, n, m).delta_sq for m in ms}
    shape = {m: certified_coefficient_bounds(cert, m, n, sig, 1.0).delta_sq_bound for m in ms}
    c2 = exact[1] / shape[1]
    for m in ms:
        assert c2 * shape[m] >= exact[m] - 1e-12


# -- block-size selection ----------------------------------------------------------

def test_select_block_size_closed_forms():
    assert select_block_size(128, 2.0, "cramer").m == 4
    assert select_block_size(1000, 2.5, "berry_esseen").m == 10
    assert select_block_size(1024, 1.5, "berry_esseen").m == 16
    assert select_block_size(1024, 2.0, "cramer").m == 7


def test_select_block_size_powers_of_two():
    # closed forms at exact powers: 2^(2k/7) and 2^(k/3) floored
    for k in range(3, 15):
        n = 1 << k
        assert select_block_size(n, 3.0, "cramer").m == math.floor(
            2.0 ** (2.0 * k / 7.0) + 1e-9)
        choice = select_block_size(n, 2.0, "berry_esseen")
        assert choice.m == math.floor(2.0 ** (k / 3.0) + 1e-9)
        assert 1 <= choice.m <= n


def test_select_block_size_low_beta_branches():
    c = select_block_size(10 ** 4, 1.25, "cramer")
    assert c.m == math.floor((10 ** 4) ** (1.0 / (3 * 1.25 - 1)) + 1e-9)
    assert "o(n^" in c.range_label
    b = select_block_size(10 ** 4, 1.25, "berry_esseen")
    assert b.m == math.floor((10 ** 4) ** (1.0 / 2.25) + 1e-9)


def test_select_block_size_errors():
    with pytest.raises(BetaOutOfRange):
        select_block_size(100, 1.0, "cramer")
    with pytest.raises(ParamOutOfRange):
        select_block_size(100, 2.0, "nonsense")
    with pytest.raises(ParamOutOfRange):
        select_block_size(1, 2.0, "cramer")


# -- Dedecker conditions -------------------------------------------------------------

def test_dedecker_rademacher_identically_zero(rademacher):
    rep = check_dedecker_conditions(rademacher, 100)
    assert rep.series_value == pytest.approx(0.0, abs=1e-14)
    assert np.max(rep.second_moment_dev) <= 1e-12
    assert rep.series_converges and rep.variance_stabilizes


def test_dedecker_two_state_certified(two_state04):
    n_max = 10 ** 4
    rep = check_dedecker_conditions(two_state04, n_max)
    assert rep.series_converges
    assert rep.series_uncertainty < 1e-8
    # oracle: closed-form norms rho(1 - rho^t)/(1 - rho) plus the zeta tail
    ts = np.arange(1, n_max + 1, dtype=float)
    head = float(np.sum(ts ** -1.5 * (0.4 * (1 - 0.4 ** ts) / 0.6)))
    tail = (0.4 / 0.6) * float(zeta(1.5, n_max + 1))
    assert rep.series_value == pytest.approx(head + tail, abs=1e-10)
    assert rep.variance_stabilizes


def test_dedecker_slow_chain_converges_with_large_constant():
    slow = builtin("two_state", rho=0.99)
    fast = builtin("two_state", rho=0.4)
    rep_slow = check_dedecker_conditions(slow, 2000)
    rep_fast = check_dedecker_conditions(fast, 2000)
    assert rep_slow.series_converges
    assert rep_slow.series_value > 20 * rep_fast.series_value
    assert rep_slow.second_moment_dev[-1] > rep_fast.second_moment_dev[-1]


def test_dedecker_report_json(two_state04):
    rep = check_dedecker_conditions(two_state04, 200)
    doc = json.loads(json.dumps(rep.to_json_dict()))
    assert sorted(doc) == ["closed_form_tail", "n_max", "partial_sum_final", "schema",
                           "second_moment_dev_final", "series_converges", "series_uncertainty",
                           "series_value", "sigma_sq", "variance_stabilizes"]
    assert doc["schema"] == "dedecker/1" and doc["n_max"] == 200
    assert doc["partial_sum_final"] == float(rep.partial_sums[-1])
    assert doc["second_moment_dev_final"] == float(rep.second_moment_dev[-1])
    assert doc["series_value"] == rep.series_value and doc["sigma_sq"] == rep.sigma_sq
    assert doc["series_converges"] is True and doc["variance_stabilizes"] is True


@pytest.mark.parametrize("name", ["two_state", "dyadic6", "asymmetric3"])
def test_dedecker_one_pass_matches_two_pass_reference(name):
    model = {"two_state": lambda: builtin("two_state", rho=0.4),
             "dyadic6": lambda: builtin("dyadic_contracting", L=6),
             "asymmetric3": lambda: build_finite_lattice_model(
                 ["lo", "mid", "hi"], [[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]],
                 [-2, 1, 3], 2)}[name]()
    n_max = 2000
    rep = check_dedecker_conditions(model, n_max)
    # reference: the norms from the running sum of P^k x, the second moments
    # from a separate forward pass
    ts = np.arange(1, n_max + 1, dtype=float)
    partial = np.cumsum(ts ** -1.5 * oracles.cond_sum_norms_by_powers(model, n_max))
    _, seconds = oracles.forward_block_moments(model, n_max)
    dev = np.max(np.abs(seconds / ts[:, None] - rep.sigma_sq), axis=1)
    np.testing.assert_allclose(rep.partial_sums, partial, rtol=1e-12)
    assert rep.series_value == pytest.approx(partial[-1] + rep.closed_form_tail, rel=1e-12)
    # each deviation is a difference of terms of size sigma^2
    np.testing.assert_allclose(rep.second_moment_dev, dev, rtol=1e-12,
                               atol=1e-12 * rep.sigma_sq)
    anchor = dev[n_max // 10 - 1]
    assert rep.variance_stabilizes == (dev[-1] <= max(1e-8, 0.5 * anchor))
    assert rep.series_converges


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
    # rho = 0.99999 needs J = 2^22 mat-vecs at m = 1: about 33 s on a 2-core host
    from mdlab import cli, coefficients, models
    from mdlab.errors import BudgetExceeded

    def no_power(*args):
        raise AssertionError("the drift series stepped past its cap")

    model = builtin("two_state", rho=0.99999)
    monkeypatch.setattr(models, "WORK_CAP_S", 1.0)
    monkeypatch.setattr(np.linalg, "matrix_power", no_power)
    with pytest.raises(BudgetExceeded, match="drift series to J = 4194304 on 2 states"):
        coefficients._drift_series(model, 1, 1.0)
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
    # a dyadic chain forgets its start in L steps, so P^m u repeats u bit for bit
    # after a step or two and the rest of the J norms are the last; the two-state
    # chain never repeats and runs all J steps.  Either way gamma_m is bit for bit
    # the loop that makes every one of the J mat-vecs
    from mdlab import coefficients
    from test_exact import NumpyCountingAbs
    check, costs = coefficients._check_cost, []

    def recorded(what, *args, **kwargs):
        costs.append(what)
        return check(what, *args, **kwargs)

    model = builtin(name, **kw)
    monkeypatch.setattr(coefficients, "_check_cost", recorded)
    cs = coefficient_set(model, n, m)
    j = int(next(c for c in costs if c.startswith("drift series")).split("J = ")[1].split()[0])
    assert cs.gamma_m == oracles.drift_series_every_step(model, m, cs.sigma_n, j)
    counting = NumpyCountingAbs()
    monkeypatch.setattr(coefficients, "np", counting)
    assert coefficients._drift_series(model, m, cs.sigma_n)[0] == cs.gamma_m
    steps = counting.abs_calls - 1  # one norm a step, after ||h||_inf
    assert steps <= 3 if name == "dyadic_contracting" else steps == j
