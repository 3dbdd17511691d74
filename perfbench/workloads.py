"""The benchmark's workloads: operation lists, their inputs and their checks.

Each workload is a list of `Op`s.  `Op.run` is the timed call into mdlab;
`Op.check` compares its result with an independent reference from `refs`
and raises `refs.CheckFailed` on disagreement.  CLI operations call
``mdlab.cli.main(argv)`` in-process and rebuild their models, as a user's run
does; the library session's first operation builds its models, fresh in
every pass, so no cache keyed by a model carries over from one pass to the
next.

Why these three (each layer gets a workload where a change to it should
show and one where it should not):

* oracle_dense  - many states, short horizon: the log-space DP over 64
  states, its duplicate table per command, the exact rational stationary
  solve per command and the 3^13-path maximal-inequality enumeration (which
  sets peak RSS).  Nothing is simulated.
* long_horizon  - horizons beyond the dense DP: the O(n) sigma_n and
  drift-series recursions at n = 10^6, the 512-state model build, the
  sampled-tier certified bounds and the binomial closed form.  The only DP
  is the 2-state wide-lattice one inside `report`.
* monte_carlo   - a library session comparing simulation with the exact
  table: path simulation dominates, the (4096 x 4097) path block sets peak
  RSS, and tail/quantile queries and coupling draws run on a 4097-atom table.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy import special

import refs
from inputs import (FILE_DENOM, FILE_F_NUM, FILE_TRANSITION, MODEL_FILE_TEXT, RHO,
                    build_models)
from refs import close, require

MC_X_GRID = np.linspace(0.0, 3.0, 31)
QUERY_POINTS = 10 ** 4
COUPLED_DRAWS = 10 ** 6


@dataclass
class CliRun:
    rc: int
    out: str

    def read(self, name: str) -> str:
        with open(os.path.join(self.out, name), encoding="utf-8") as fh:
            return fh.read()

    def json(self, name: str) -> dict:
        return json.loads(self.read(name))

    def csv(self, name: str) -> np.ndarray:
        """Numeric body of a CSV written by mdlab (manifest and header skipped)."""
        rows = self.read(name).splitlines()[2:]
        return np.array([[float(v) if v else math.nan for v in r.split(",")] for r in rows])


@dataclass
class Op:
    name: str
    run: Callable[["Session"], Any]
    check: Callable[["Session", Any], None]


class Session:
    """Inputs and state of one benchmark process: the seed, the scratch
    directory, per-pass models and results, and the lazily built references."""

    def __init__(self, mdlab, seed: int, scratch: str):
        self.mdlab, self.seed, self.scratch = mdlab, seed, scratch
        self.model_file = os.path.join(scratch, "file.model")
        with open(self.model_file, "w", encoding="utf-8") as fh:
            fh.write(MODEL_FILE_TEXT)
        rng = np.random.default_rng(seed)
        self.query_x = np.sort(rng.uniform(0.0, 5.0, QUERY_POINTS))
        self.query_s = np.sort(rng.uniform(1e-6, 1.0 - 1e-6, QUERY_POINTS))
        self.pass_dir = scratch
        self.models = {}
        self.state = {}
        self._refs = {}

    def start_pass(self, index: int) -> None:
        """Fresh output directory and empty pass state."""
        self.pass_dir = os.path.join(self.scratch, f"pass{index}")
        self.models = {}
        self.state = {}

    def cli(self, op: str, argv: list[str]) -> CliRun:
        out = os.path.join(self.pass_dir, op)
        try:
            rc = self.mdlab.cli.main(argv + ["--seed", str(self.seed), "--out", out])
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
        return CliRun(rc=rc, out=out)

    def ref(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def dyadic(self, L: int, n: int) -> refs.RefLaw:
        return self.ref(("dyadic", L, n), lambda: refs.dyadic_law(L, n))

    def two_state(self, n: int) -> refs.RefLaw:
        laws = self.ref("two_state", lambda: refs.two_state_laws(
            RHO, {512, 1024, 2048, 4096, 8192}))
        return laws[n]

    def file_law(self, n: int) -> refs.RefLaw:
        return self.ref(("file", n), lambda: refs.chain_laws(
            FILE_TRANSITION, FILE_F_NUM, FILE_DENOM, {n})[n])


def digest(obj) -> str:
    """Content hash of an operation's result, for comparing passes."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, CliRun):
            feed(o.rc)
            for name in sorted(os.listdir(o.out)) if os.path.isdir(o.out) else ():
                h.update(name.encode())
                with open(os.path.join(o.out, name), "rb") as fh:
                    h.update(fh.read())
        elif isinstance(o, np.ndarray):
            h.update(o.tobytes())
        elif dataclasses.is_dataclass(o):
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        elif isinstance(o, (list, tuple)):
            for v in o:
                feed(v)
        elif isinstance(o, dict):
            for k in sorted(o):
                feed(k)
                feed(o[k])
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# shared checks of CLI outputs
# ---------------------------------------------------------------------------

def _ok_exit(run: CliRun) -> None:
    require(run.rc == 0, f"exit code {run.rc}")


def check_tail_column(xs, tails, law: refs.RefLaw, what: str) -> None:
    """Exact upper tails P(W >= x sigma_n) against the reference bracket."""
    excl, incl = law.upper_bracket(np.asarray(xs) * law.sigma)
    tails = np.asarray(tails, dtype=float)
    bad = np.nonzero((tails < excl * (1 - 1e-9)) | (tails > incl * (1 + 1e-9)))[0]
    require(bad.size == 0, f"{what}: {bad.size} tails off the exact law, first at "
            f"x={xs[bad[0]] if bad.size else None}")


def check_verify(run: CliRun, law: refs.RefLaw) -> None:
    _ok_exit(run)
    ks = run.json("ks.json")
    require(ks["checks"]["violation"] is None, f"violation {ks['checks']['violation']}")
    close(ks["ks_exact"], law.ks_distance(), "ks_exact")
    close(ks["coefficients"]["sigma_n"], law.sigma, "sigma_n")
    bounds = run.csv("bounds.csv")
    check_tail_column(bounds[:, 0], bounds[:, 1], law, "bounds.csv exact_tail")


def check_coupling(run: CliRun, law: refs.RefLaw, n: int, m: int, draws: int,
                   seed: int) -> None:
    _ok_exit(run)
    rep = run.json("coupling.json")["report"]
    require((rep["n"], rep["m"], rep["draws"], rep["seed"]) == (n, m, draws, seed),
            f"coupling.json reports {rep['n'], rep['m'], rep['draws'], rep['seed']}")
    pairs = run.csv("pairs.csv")
    require(pairs.shape == (draws, 3), f"pairs.csv has shape {pairs.shape}")
    z, y = pairs[:, 0], pairs[:, 1]
    refs.check_coupled_pairs(y, z, law, "pairs.csv")
    close(float(np.max(np.abs(np.abs(y - z) - pairs[:, 2]))), 0.0, "pairs.csv gap column")


def check_coefficients(coeffs: dict, expected: dict) -> None:
    for key, value in expected.items():
        close(coeffs[key], value, f"coefficients {key}", rel=1e-8, abs_tol=1e-10)


def sigma_eps(sigma: float, bound: float, n: int, m: int) -> dict:
    return {"sigma_n": sigma, "eps_m": m * bound / (math.sqrt(n) * sigma)}


def check_exact_coeffs(run: CliRun, expected: dict) -> None:
    _ok_exit(run)
    doc = run.json("coefficients.json")
    require(doc["mode"] == "exact", f"mode {doc['mode']}")
    c = doc["coefficients"]
    check_coefficients(c, expected)
    require(0.0 <= c["gamma_truncation_error"] <= 1e-10,
            f"gamma truncation error {c['gamma_truncation_error']}")
    require(c["gamma_m"] > 0 and c["delta_sq"] >= 0, "negative coefficient")


def check_mdp_rows(rows: np.ndarray, log_tail_bracket, limit: float,
                   a_exp: float = 0.25) -> None:
    for n, scaled, lim in rows:
        n = int(n)
        a2 = n ** (-2 * a_exp)
        lo, hi = log_tail_bracket(n, n ** a_exp)  # threshold c / a_n in W units, c = 1
        require(a2 * lo * (1 + 1e-9) <= scaled <= a2 * hi * (1 - 1e-9) + 1e-12,
                f"mdp n={n}: scaled {scaled!r} outside [{a2 * lo!r}, {a2 * hi!r}]")
        close(lim, limit, f"mdp limit at n={n}")


# ---------------------------------------------------------------------------
# oracle_dense
# ---------------------------------------------------------------------------

DENSE = ["--model", "dyadic_contracting:L=6", "--n", "48", "--m", "4"]


def oracle_dense() -> list[Op]:
    return [
        Op("verify_dyadic6",
           lambda s: s.cli("verify_dyadic6", ["verify", *DENSE, "--threads", "2"]),
           lambda s, r: check_verify(r, s.dyadic(6, 48))),
        Op("coupling_dyadic6",
           lambda s: s.cli("coupling_dyadic6", ["coupling", *DENSE, "--chains", "100000"]),
           lambda s, r: check_coupling(r, s.dyadic(6, 48), 48, 4, 100000, s.seed)),
        Op("verify_file",
           lambda s: s.cli("verify_file", ["verify", "--model", s.model_file,
                                           "--n", "1024", "--m", "8"]),
           lambda s, r: check_verify(r, s.file_law(1024))),
    ]


# ---------------------------------------------------------------------------
# long_horizon
# ---------------------------------------------------------------------------

LONG = ["--n", "1000000", "--m", "52"]


def _check_sampled_coeffs(run: CliRun) -> None:
    _ok_exit(run)
    doc = run.json("coefficients.json")
    require(doc["mode"] == "certified_upper_bounds", f"mode {doc['mode']}")
    c = doc["coefficients"]
    sigma = refs.moving_average_sigma(1.0, 20, 1000000)
    check_coefficients(c, sigma_eps(sigma, refs.moving_average_bound(1.0, 20), 1000000, 52))
    for key in ("gamma_bound", "delta_sq_bound"):
        require(math.isfinite(c[key]) and c[key] >= 0, f"{key} = {c[key]!r}")


def _check_binomial_mdp(run: CliRun) -> None:
    _ok_exit(run)
    rows = run.csv("mdp.csv")
    require([int(n) for n in rows[:, 0]] == [10000, 100000, 1000000], "mdp.csv grid")
    check_mdp_rows(rows, lambda n, thr: refs.binomial_log_tail_bracket(n, thr * math.sqrt(n)),
                   -0.5)


def _check_report(s: Session, run: CliRun) -> None:
    _ok_exit(run)
    results = run.json("summary.json")["results"]
    require(all(v == "ok" for v in results.values()), f"summary {results}")
    law = s.two_state(512)
    check_coefficients(run.json("coefficients.json")["coefficients"],
                       refs.two_state_coefficients(RHO, 512, 6))
    check_verify(run, law)
    check_coupling(run, law, 512, 6, 10000, s.seed)

    def bracket(n, thr):
        (excl,), (incl,) = s.two_state(n).upper_bracket(thr)
        return (math.log(excl) if excl > 0 else -math.inf), math.log(incl)
    rows = run.csv("mdp.csv")
    require([int(n) for n in rows[:, 0]] == [512, 2048, 8192], "mdp.csv grid")
    check_mdp_rows(rows, bracket, -1.0 / (2.0 * (1 + RHO) / (1 - RHO)))


def long_horizon() -> list[Op]:
    return [
        Op("coeffs_two_state",
           lambda s: s.cli("coeffs_two_state",
                           ["coeffs", "--model", f"two_state:rho={RHO}", *LONG]),
           lambda s, r: check_exact_coeffs(r, refs.two_state_coefficients(RHO, 1000000, 52))),
        Op("coeffs_dyadic6",
           lambda s: s.cli("coeffs_dyadic6",
                           ["coeffs", "--model", "dyadic_contracting:L=6", *LONG]),
           lambda s, r: check_exact_coeffs(r, sigma_eps(refs.dyadic_sigma(6, 1000000),
                                                        63 / 128, 1000000, 52))),
        Op("coeffs_moving_average",
           lambda s: s.cli("coeffs_moving_average",
                           ["coeffs", "--model", "moving_average:c=1,L_trunc=20", *LONG]),
           lambda s, r: _check_sampled_coeffs(r)),
        Op("coeffs_dyadic9",
           lambda s: s.cli("coeffs_dyadic9", ["coeffs", "--model", "dyadic_contracting:L=9",
                                              "--n", "4096", "--m", "8"]),
           lambda s, r: check_exact_coeffs(r, sigma_eps(refs.dyadic_sigma(9, 4096),
                                                        511 / 1024, 4096, 8))),
        Op("mdp_rademacher",
           lambda s: s.cli("mdp_rademacher", ["mdp", "--model", "rademacher", "--n", "10000",
                                              "--n-grid", "10000,100000,1000000"]),
           lambda s, r: _check_binomial_mdp(r)),
        Op("report_two_state",
           lambda s: s.cli("report_two_state", ["report", "--model", f"two_state:rho={RHO}",
                                                "--n", "512", "--m", "6"]),
           _check_report),
    ]


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

def _build_models(s: Session) -> dict:
    ts, dy, ma = build_models(s.mdlab, "monte_carlo")
    s.models = {"two_state": ts, "dyadic": dy, "moving_average": ma}
    return s.models


def _check_models(s: Session, models: dict) -> None:
    ts, dy = models["two_state"], models["dyadic"]
    stay = (1 + RHO) / 2
    require(np.allclose(ts.transition, [[stay, 1 - stay], [1 - stay, stay]], rtol=0, atol=1e-15)
            and np.array_equal(ts.pi, [0.5, 0.5]) and np.array_equal(ts.x_values, [-1.0, 1.0]),
            "two_state model")
    j = np.arange(64)
    require(dy.n_states == 64, f"dyadic model has {dy.n_states} states")
    require(np.allclose(dy.pi, 1 / 64, rtol=1e-14, atol=0)
            and np.array_equal(dy.x_values, j / 64 - 63 / 128)
            and np.array_equal(dy.transition[j, j // 2], np.full(64, 0.5)), "dyadic model")
    close(models["moving_average"].bound, refs.moving_average_bound(1.0, 20),
          "moving_average bound")


def _estimate_tails(s: Session):
    mc = s.mdlab.montecarlo
    return mc.estimate_tails(s.models["two_state"], 1024, MC_X_GRID, 50000, s.seed)


def _check_estimate_tails(s: Session, est) -> None:
    law = s.two_state(1024)
    close(s.mdlab.exact.sigma_any(s.models["two_state"], 1024), law.sigma, "sigma_n(1024)")
    require(len(est) == MC_X_GRID.size, f"{len(est)} estimates")
    for t in est:
        k = round(t.estimate * t.chains)
        (excl,), (incl,) = law.upper_bracket(t.x * law.sigma)
        require(t.chains == 50000 and t.lo <= t.estimate <= t.hi, f"interval at x={t.x}")
        require(refs.tail_estimate_ok(k, t.chains, excl, incl),
                f"tail at x={t.x}: {t.estimate} vs exact [{excl}, {incl}]")


def _ratio(model_key: str):
    def run(s: Session):
        mc = s.mdlab.montecarlo
        return mc.ratio_curve(s.models[model_key], 256, 6, MC_X_GRID, mode="mc",
                              chains=20000, seed=s.seed)
    return run


def _ratio_counts(curve, chains: int) -> tuple[np.ndarray, np.ndarray]:
    """Tail counts behind a Monte Carlo ratio curve (ratio = count / chains / sf)."""
    sf = special.ndtr(-curve.x_grid)
    return np.rint(curve.right * sf * chains), np.rint(curve.left * sf * chains)


def _check_ratio_dyadic(s: Session, curve) -> None:
    law = s.dyadic(6, 256)
    require(curve.source == "mc" and curve.envelope is not None, "curve source/envelope")
    right, left = _ratio_counts(curve, 20000)
    for x, kr, kl in zip(curve.x_grid, right, left):
        (ue,), (ui,) = law.upper_bracket(x * law.sigma)
        (le,), (li,) = law.lower_bracket(-x * law.sigma)
        require(refs.tail_estimate_ok(int(kr), 20000, ue, ui), f"right tail at x={x}")
        require(refs.tail_estimate_ok(int(kl), 20000, le, li), f"left tail at x={x}")


def _check_ratio_moving_average(s: Session, curve) -> None:
    """No exact law exists for the sampled model: the same seeded samples
    must reproduce the curve's counts, and their variance must match the
    closed-form sigma_n^2."""
    mdlab, ma = s.mdlab, s.models["moving_average"]
    sigma = refs.moving_average_sigma(1.0, 20, 256)
    sig = mdlab.exact.sigma_any(ma, 256)
    close(sig, sigma, "sigma_any(moving_average, 256)")
    w = mdlab.montecarlo.simulate_W(ma, 256, 20000, s.seed)
    refs.check_sample_variance(w, sigma, "moving_average W")
    right, left = _ratio_counts(curve, 20000)
    expect_r = np.array([np.sum(w >= x * sig) for x in curve.x_grid])
    expect_l = np.array([np.sum(w <= -x * sig) for x in curve.x_grid])
    require(np.array_equal(right, expect_r) and np.array_equal(left, expect_l),
            "ratio counts differ from the seeded samples")


def _empirical_ks(s: Session):
    mdlab, ts = s.mdlab, s.models["two_state"]
    w = mdlab.montecarlo.simulate_W(ts, 4096, 10000, s.seed)
    return w, mdlab.montecarlo.empirical_ks(w, mdlab.exact.sigma_n(ts, 4096))


def _check_empirical_ks(s: Session, result) -> None:
    w, ks = result
    law = s.two_state(4096)
    close(ks, refs.empirical_ks(w, law.sigma), "empirical KS")
    require(abs(ks - law.ks_distance()) <= refs.dkw_radius(w.size),
            f"empirical KS {ks} vs exact {law.ks_distance()}")
    refs.check_tail_counts(w, law, np.array([0.5, 1.0, 2.0, 3.0]) * law.sigma, "W_4096")


def _dp(s: Session):
    table = s.mdlab.exact.distribution_of_Sn(s.models["two_state"], 4096)
    s.state["table"] = table
    return table


def _check_dp(s: Session, table) -> None:
    law = s.two_state(4096)
    tv = refs.total_variation(table.offsets, np.exp(table.logp), law)
    require(tv < 1e-12, f"TV to the reference law {tv:.3g}")
    close(table.sigma_n, law.sigma, "table sigma_n")
    values = table.sum_values
    variance = float(np.sum(np.exp(table.logp) * values * values))
    close(variance, 4096 * law.sigma ** 2, "table variance vs n sigma_n^2")


def _queries(s: Session):
    ex, table = s.mdlab.exact, s.state["table"]
    return (ex.exact_tail(table, s.query_x), ex.exact_lower_tail(table, s.query_x),
            ex.quantile(table, s.query_s))


def _check_queries(s: Session, result) -> None:
    upper, lower, q = result
    law = s.two_state(4096)
    thr = s.query_x * law.sigma
    for name, got, (excl, incl) in (("exact_tail", upper, law.upper_bracket(thr)),
                                    ("exact_lower_tail", lower, law.lower_bracket(-thr))):
        p = np.exp(got)
        bad = np.nonzero((p < excl * (1 - 1e-9)) | (p > incl * (1 + 1e-9)))[0]
        require(bad.size == 0, f"{name}: {bad.size} of {p.size} off the exact law")
    lo, hi = law.quantile_candidates(s.query_s)
    tol = 1e-9 * np.maximum(1.0, np.abs(q))
    bad = np.nonzero((q < lo - tol) | (q > hi + tol))[0]
    require(bad.size == 0, f"quantile: {bad.size} of {q.size} off the exact law")


def _ks_exact(s: Session):
    return s.mdlab.exact.ks_distance_exact(s.state["table"])


def _pairs(s: Session):
    cp = s.mdlab.coupling
    return cp.sample_coupled_pairs(cp.build_quantile_transform(s.state["table"]),
                                   COUPLED_DRAWS, s.seed)


def monte_carlo() -> list[Op]:
    return [
        Op("build_models", _build_models, _check_models),
        Op("estimate_tails_two_state", _estimate_tails, _check_estimate_tails),
        Op("ratio_mc_dyadic6", _ratio("dyadic"), _check_ratio_dyadic),
        Op("ratio_mc_moving_average", _ratio("moving_average"), _check_ratio_moving_average),
        Op("empirical_ks_two_state", _empirical_ks, _check_empirical_ks),
        Op("dp_two_state_4096", _dp, _check_dp),
        Op("tail_quantile_queries", _queries, _check_queries),
        Op("ks_exact", _ks_exact, lambda s, ks: close(ks, s.two_state(4096).ks_distance(), "KS")),
        Op("coupled_pairs", _pairs,
           lambda s, r: refs.check_coupled_pairs(r[0], r[1], s.two_state(4096), "pairs")),
    ]


WORKLOADS = {"oracle_dense": oracle_dense, "long_horizon": long_horizon,
             "monte_carlo": monte_carlo}
