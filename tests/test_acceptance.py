"""Acceptance criteria.

Each test implements one criterion at its stated tolerance and prints one
pass/fail line (visible with `pytest -s` or in the failure report).  The
criteria combine exact-oracle equivalence, validity of the fully explicit
bounds, convergence-trend checks and reproducibility contracts.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mdlab import (
    bernstein_bound,
    builtin,
    build_quantile_transform,
    coefficient_set,
    coupling_report,
    distribution_of_Sn,
    exact_tail,
    freedman_bound,
    gaussian_tail_sandwich,
    induced_atom_probabilities,
    ks_distance_exact,
    mdp_diagnostic,
    peligrad_bound,
    sample_coupled_pairs,
    select_block_size,
)
from mdlab.cli import main as cli_main
from mdlab.exact import conditional_sum_norms
from mdlab.normal import normal_log_sf, normal_sf

import oracles

_results = []


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    record = {"num": number, "desc": description, "ok": False}
    _results.append(record)
    try:
        yield record
        record["ok"] = True
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if record["ok"] else "FAIL"
        print(f"[{status}] criterion {number:>2} ({elapsed:6.1f}s): {description}",
              flush=True)


def exact_sup_ratio_dev(table, x_max):
    """sup over x in [0, x_max] of |P(W_n >= x sigma_n) / (1 - Phi(x)) - 1|.

    The tail is a left-continuous step function of x and the normal tail is
    continuous, so the supremum is attained (or approached) at atom positions
    from either side, or at the interval ends.
    """
    suffix = np.logaddexp.accumulate(table.logp[::-1])[::-1]
    xs = table.what_values
    dev = 0.0

    def ratio(log_tail, x):
        return math.exp(log_tail - float(normal_log_sf(x)))

    inside = np.nonzero((xs >= 0.0) & (xs <= x_max))[0]
    for i in inside:
        dev = max(dev, abs(ratio(suffix[i], xs[i]) - 1.0))
        after = suffix[i + 1] if i + 1 < xs.size else -math.inf
        dev = max(dev, abs(ratio(after, xs[i]) - 1.0))
    for x in (0.0, x_max):
        j = int(np.searchsorted(xs, x, side="left"))
        tail = suffix[j] if j < xs.size else -math.inf
        dev = max(dev, abs(ratio(tail, x) - 1.0))
    return dev


def test_criterion_1_oracle_equivalence():
    with criterion(1, "DP law of S_n matches exhaustive enumeration (TV <= 1e-12)"):
        model = builtin("two_state", rho=0.4)
        start = time.monotonic()
        for n in (8, 12, 16):
            table = distribution_of_Sn(model, n)
            offsets, probs = oracles.enum_distribution(model, n)
            assert np.array_equal(table.offsets, offsets)
            tv = 0.5 * float(np.sum(np.abs(np.exp(table.logp) - probs)))
            assert tv <= 1e-12, f"TV = {tv} at n = {n}"
        assert time.monotonic() - start < 10.0


def test_criterion_2_martingale_specialization():
    with criterion(2, "i.i.d. signs: drift and variance coefficients vanish"):
        model = builtin("rademacher")
        for n in (64, 256):
            for m in range(1, 17):
                cs = coefficient_set(model, n, m)
                assert cs.gamma_m <= 1e-12, f"gamma = {cs.gamma_m} at {(n, m)}"
                assert cs.delta_m <= 1e-12, f"delta = {cs.delta_m} at {(n, m)}"


def test_criterion_3_bernstein_validity():
    with criterion(3, "Bernstein-type bound dominates exact tails (3 chains x 50 x)"):
        start = time.monotonic()
        n = 1024
        m = select_block_size(n, 2.0, "cramer")
        xs = np.linspace(3.0 / 50.0, 3.0, 50)
        for rho in (0.2, 0.4, 0.7):
            model = builtin("two_state", rho=rho)
            coeffs = coefficient_set(model, n, m)
            table = distribution_of_Sn(model, n)
            exact = np.exp(np.asarray(exact_tail(table, xs)))
            bound = np.asarray(bernstein_bound(coeffs, xs))
            bad = np.nonzero(exact > bound)[0]
            assert bad.size == 0, (
                f"violation at rho={rho}, x={xs[bad[0]]}: {exact[bad[0]]} > {bound[bad[0]]}")
        assert time.monotonic() - start < 60.0


def test_criterion_4_freedman_and_peligrad_validity():
    with criterion(4, "Freedman and maximal-inequality bounds dominate exact tails"):
        for n in (100, 400):
            a = 1.0 / math.sqrt(n)
            for x in np.linspace(0.1, 4.0, 40):
                exact = oracles.sign_sum_tail(n, x * math.sqrt(n))
                bound = freedman_bound(float(x), 1.0, a)
                assert exact <= bound, f"Freedman violated at n={n}, x={x}"
        for model, n in ((builtin("rademacher"), 12),
                         (builtin("two_state", rho=0.4), 20)):
            norms = conditional_sum_norms(model, n)
            for x in (4.0, 8.0, 12.0):
                exact = oracles.enum_max_abs_tail(model, n, x)
                bound = float(peligrad_bound(x, n, model.bound, norms))
                assert exact <= bound, f"maximal bound violated at n={n}, x={x}"


def test_criterion_5_gaussian_sandwich():
    with criterion(5, "Gaussian tail sandwich holds on 1000 points of [0, 8]"):
        xs = np.linspace(0.0, 8.0, 1000)
        lo, hi = gaussian_tail_sandwich(xs)
        sf = normal_sf(xs)  # complementary-error-function reference
        assert np.all(lo <= sf), "lower sandwich violated"
        assert np.all(sf <= hi), "upper sandwich violated"


def test_criterion_6_cramer_ratio_trend():
    with criterion(6, "sup |tail ratio - 1| on [0, 2] decreases along n"):
        start = time.monotonic()
        model = builtin("two_state", rho=0.4)
        sups = []
        for n in (400, 1600, 6400):
            m = select_block_size(n, 2.0, "cramer")
            assert m == int(n ** (2.0 / 7.0) + 1e-9)
            table = distribution_of_Sn(model, n)
            sups.append(exact_sup_ratio_dev(table, 2.0))
        assert sups[0] > sups[1] > sups[2], f"not monotone: {sups}"
        assert time.monotonic() - start < 300.0


def test_criterion_7_berry_esseen_trend():
    with criterion(7, "Kolmogorov distance decreases; scaled distance stays flat"):
        model = builtin("two_state", rho=0.4)
        ns = (256, 1024, 4096)
        expected_m = {256: 6, 1024: 10, 4096: 16}
        ks = []
        for n in ns:
            assert select_block_size(n, 2.0, "berry_esseen") == expected_m[n]
            ks.append(ks_distance_exact(distribution_of_Sn(model, n)))
        assert ks[0] > ks[1] > ks[2], f"not strictly decreasing: {ks}"
        scaled = [d * n ** (1.0 / 6.0) / math.log(n) for d, n in zip(ks, ns)]
        for a, b in zip(scaled, scaled[1:]):
            assert b <= 1.1 * a, f"scaled distance grew more than 10%: {scaled}"


def test_criterion_8_mdp_limit():
    with criterion(8, "scaled log tail at n = 1e6 is within 0.05 of -1/2"):
        start = time.monotonic()
        diag = mdp_diagnostic(builtin("rademacher"), 1.0, 0.25, [10 ** 6])
        value = float(diag.scaled[0])
        assert abs(value + 0.5) <= 0.05, f"scaled log tail {value}"
        assert time.monotonic() - start < 30.0


def test_criterion_9_coupling_marginal_exactness():
    with criterion(9, "coupled variable carries the exact law; coupling is monotone"):
        model = builtin("two_state", rho=0.4)
        table = distribution_of_Sn(model, 256)
        transform = build_quantile_transform(table)
        induced = induced_atom_probabilities(transform)
        err = float(np.max(np.abs(induced - table.probabilities())))
        assert err <= 1e-12, f"atom probability error {err}"
        y, z = sample_coupled_pairs(transform, 100_000, seed=2024)
        order = np.argsort(z)
        assert np.all(np.diff(y[order]) >= 0.0), "coupling is not monotone"


def test_criterion_10_coupling_tail_shape():
    with criterion(10, "normalized-gap log-survival slope is significantly negative"):
        model = builtin("two_state", rho=0.4)
        m = select_block_size(1024, 2.0, "cramer")
        rep = coupling_report(model, coefficient_set(model, 1024, m), 100_000, seed=77)
        assert rep.lambda_hat < 0, f"slope {rep.lambda_hat}"
        assert abs(rep.lambda_hat) >= 3.0 * rep.lambda_se, (
            f"slope {rep.lambda_hat} not significant against se {rep.lambda_se}")


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "verify outputs are byte-identical across thread counts"):
        outs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / tag
            code = cli_main(["verify", "--model", "two_state:rho=0.4",
                             "--n", "512", "--m", "6", "--seed", "3",
                             "--threads", threads, "--out", str(out)])
            assert code == 0
            outs.append(out)
        for name in ("ratio.csv", "bounds.csv", "ks.json"):
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, f"{name} differs across thread counts"


def test_zzz_summary():
    """Aggregate view printed after the individual criteria."""
    print()
    for rec in _results:
        status = "PASS" if rec["ok"] else "FAIL"
        print(f"  criterion {rec['num']:>2}: {status}  {rec['desc']}")
    assert all(r["ok"] for r in _results)
