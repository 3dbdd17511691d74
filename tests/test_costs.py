"""One rule for what a run may cost: every refusal of a run too large goes
through `models._check_cost`, against `models.DEFAULT_BUDGET_BYTES` and
`models.WORK_CAP_S`, before the work allocates or takes its first step."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mdlab import (
    DecayCertificate,
    build_quantile_transform,
    builtin,
    certified_coefficient_bounds,
    coefficient_set,
    conditional_block_moments,
    distribution_of_Sn,
    phi_mixing_coefficients,
    sample_coupled_pairs,
    sample_state_paths,
    sample_trajectory,
    simulate_W,
    tilted_log_tail,
)
from mdlab import cli, coefficients, exact, models, montecarlo
from mdlab.errors import BudgetExceeded
from mdlab.exact import conditional_sum_norms


@pytest.fixture(scope="module")
def ts():
    return builtin("two_state", rho=0.4)


# each run the time cap prices: a call and the start of its refusal
TIMED_CALLS = {
    "DP": (lambda m: distribution_of_Sn(m, 16), "DP "),
    "transform": (lambda m: tilted_log_tail(m, 64, 3.0), "tilted transform of 16 points"),
    "drift series": (lambda m: coefficients._drift_series(m, 4, 1.0),
                     "drift series' power P to m = 4 and its 22 squarings on 2 states"),
    "conditional_block_moments": (lambda m: conditional_block_moments(m, 4),
                                  "block moments to t = 4"),
    "conditional_sum_norms": (lambda m: conditional_sum_norms(m, 12),
                              "block moments to t = 12"),
    "simulate_W": (lambda m: simulate_W(m, 64, 10, 0), "simulating 10 chains to n = 64"),
    "simulate_W sampled": (lambda m: simulate_W(builtin("moving_average", c=1.0, L_trunc=4),
                                                64, 10, 0), "simulating 10 chains to n = 64"),
    "phi_mixing_coefficients": (lambda m: phi_mixing_coefficients(m, 8),
                                "phi_mixing_coefficients to horizon 8 on 2 states"),
    "sample_state_paths": (lambda m: sample_state_paths(m, 8, 3, 0),
                           "sampling 3 state paths to n = 8"),
    "sample_trajectory": (lambda m: sample_trajectory(m, 8, 0), "sampling 1 state paths to n = 8"),
    "binomial tail": (lambda m: exact._binomial_log_tail(64, 0.0), "binomial tail at n = 64"),
}


@pytest.mark.parametrize("name", TIMED_CALLS)
def test_lowering_the_one_time_cap_refuses_every_priced_run(ts, monkeypatch, name):
    call, what = TIMED_CALLS[name]
    call(ts)  # runs at the default cap
    monkeypatch.setattr(models, "WORK_CAP_S", 1e-9)
    with pytest.raises(BudgetExceeded, match=f"^{what}.* past the cap of 1e-09 s$") as err:
        call(ts)
    assert err.value.exit_code == 2


# each run the memory budget prices: a call of the test's models and the start of its refusal
SIZED_CALLS = {
    "dyadic build": (lambda c: builtin("dyadic_contracting", L=3), r"dyadic_contracting\(L=3\)"),
    "DP": (lambda c: distribution_of_Sn(c.ts, 16), "DP needs 1156 bytes"),
    "transform": (lambda c: tilted_log_tail(c.ts, 64, 3.0), "tilted transform of 16 points"),
    "simulate_W": (lambda c: simulate_W(c.ts, 16, 100, 0), "simulating 100 chains"),
    "simulate_W sampled": (lambda c: simulate_W(c.ma, 64, 10, 0), "a block of 10 paths"),
    "sample_state_paths": (lambda c: sample_state_paths(c.ts, 16, 8, 0), "sampling 8 state paths"),
    "sample_coupled_pairs": (lambda c: sample_coupled_pairs(c.transform, 10, 0),
                             "coupling 10 chains"),
    "x grid": (lambda c: cli._x_grid({"x_count": 6}), "x-count 6"),  # 6 points pass 1000 bytes
    "certified bounds": (lambda c: certified_coefficient_bounds(c.ma.decay, 64, 128, 1.0, 1.0),
                         "certified_coefficient_bounds at m = 64"),
    "binomial tail": (lambda c: exact._binomial_log_tail(64, 0.0),
                      "binomial tail at n = 64 needs 1300 bytes"),
}


@pytest.mark.parametrize("name", SIZED_CALLS)
def test_lowering_the_one_budget_refuses_every_sized_run(ts, monkeypatch, name):
    given = SimpleNamespace(ts=ts, ma=builtin("moving_average", c=1.0, L_trunc=4),
                            transform=build_quantile_transform(distribution_of_Sn(ts, 16)))
    call, what = SIZED_CALLS[name]
    call(given)  # runs at the default budget
    monkeypatch.setattr(models, "DEFAULT_BUDGET_BYTES", 1000)
    with pytest.raises(BudgetExceeded, match=f"^{what}.* over the budget of 1000$"):
        call(given)


def _unreached(monkeypatch, owner, name):
    def reached(*args, **kwargs):
        raise AssertionError(f"{name} ran before the run was priced")
    monkeypatch.setattr(owner, name, reached)


MOMENT_STEPS, CERTIFICATE_READ = (exact, "_block_moment_steps"), (DecayCertificate, "upto")


# runs that fit in memory but were never priced: a call, the step it must not
# reach (owner, name) and the start of its refusal
HOLES = {
    # 10^8 moment steps at about 6 us each: ten minutes
    "coefficient_set at m = 10^8": (
        lambda: coefficient_set(builtin("two_state", rho=0.4), 10 ** 9, 10 ** 8),
        MOMENT_STEPS, "block moments to t = 100000000"),
    # 44 bytes per unit of m: 13 TB at m = 3 x 10^11, which numpy failed to allocate
    "certified bounds at m = 3 x 10^11": (
        lambda: certified_coefficient_bounds(builtin("moving_average", c=1.0, L_trunc=20).decay,
                                             3 * 10 ** 11, 10 ** 12, 1.0, 2.0),
        CERTIFICATE_READ, "certified_coefficient_bounds at m = 300000000000 needs"),
    # 1.2 x 10^8 jumps at about 70 us each: two to three hours
    "simulate_W at n = 10^12": (
        lambda: simulate_W(builtin("two_state", rho=0.4), 10 ** 12, 1, 0),
        (montecarlo, "_simulate_states"), "simulating 1 chains to n = 1000000000000"),
    # fits in 800 MB; 10^8 steps at about 5 us each: eight minutes
    "sample_trajectory at n = 10^8": (
        lambda: sample_trajectory(builtin("two_state", rho=0.4), 10 ** 8, 0),
        (models, "_simulate_states"), "sampling 1 state paths to n = 100000000"),
    # 10^11 innovations at about 4 ns each: five to six minutes
    "sampled simulate_W at 10^5 chains of 10^6": (
        lambda: simulate_W(builtin("moving_average", c=1.0, L_trunc=20), 10 ** 6, 10 ** 5, 0),
        (montecarlo, "_innovation_blocks"), "simulating 100000 chains to n = 1000000"),
    # the widest window at 10^15 is 1.2 x 10^9 terms, 24 GB; the full sum's
    # arange of 5 x 10^14 terms failed to allocate
    "binomial tail at n = 10^15": (
        lambda: exact._binomial_log_tail(10 ** 15, 0.0),
        (np, "arange"), "binomial tail at n = 1000000000000000 needs"),
}


@pytest.mark.parametrize("name", HOLES)
def test_unpriced_runs_are_refused_before_their_first_step(monkeypatch, name):
    call, (owner, step), what = HOLES[name]
    _unreached(monkeypatch, owner, step)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"^{what}"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # nothing of the run's size was allocated


# loops stepping P against a block on 512 states: a call and the start of its refusal
DENSE_HOLES = {
    # one 512 x 512 product a step, about 5 ms: nine minutes
    "phi_mixing_coefficients at horizon 10^5": (
        lambda m: phi_mixing_coefficients(m, 10 ** 5),
        "phi_mixing_coefficients to horizon 100000 on 512 states would run"),
}


@pytest.mark.parametrize("name", DENSE_HOLES)
def test_dense_loops_are_refused_before_their_first_array(monkeypatch, name):
    call, what = DENSE_HOLES[name]
    model = builtin("dyadic_contracting", L=9)
    _unreached(monkeypatch, np, "empty")  # each loop's first array
    with pytest.raises(BudgetExceeded, match=f"^{what}"):
        call(model)


HUGE_M = ["--model", "two_state:rho=0.4", "--n", "1000000000", "--m", "100000000"]
CLI_HOLES = {
    "coeffs at m = 10^8": (["coeffs"] + HUGE_M, MOMENT_STEPS),
    "verify at m = 10^8": (["verify"] + HUGE_M, MOMENT_STEPS),
    "report at m = 10^8": (["report"] + HUGE_M, MOMENT_STEPS),
    "sampled coeffs at m = 3 x 10^11": (["coeffs", "--model", "moving_average:c=1,L_trunc=20",
                                         "--n", "1000000000000", "--m", "300000000000"],
                                        CERTIFICATE_READ),
    # past about 7.7 x 10^12 the widest binomial window passes the budget
    "mdp on fair signs at n = 10^16": (["mdp", "--model", "rademacher", "--n", "1000",
                                        "--n-grid", "10000000000000000"], (exact, "gammaln")),
}


@pytest.mark.parametrize("name", CLI_HOLES)
def test_unpriced_cli_runs_exit_2_and_write_nothing(monkeypatch, tmp_path, capsys, name):
    argv, (owner, step) = CLI_HOLES[name]
    _unreached(monkeypatch, owner, step)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdlab: error:") and "Traceback" not in err
    assert not out.exists()
