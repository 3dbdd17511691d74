#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* the reference oracles agree with mdlab's DP and closed forms at small sizes;
* a corrupted output, a nonzero exit and a raising operation are each
  counted as a failed operation;
* in a traced pass, self times of all spans under an operation add up to
  the operation's traced time, the recorder catches re-exported names and
  the pool's tasks, and the counts repeat exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
import unittest

import numpy as np

import run

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
mdlab = run.import_mdlab()

import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from inputs import FILE_DENOM, FILE_F_NUM, FILE_TRANSITION, MODEL_FILE_TEXT, RHO  # noqa: E402


def dp_probs(table):
    return table.offsets, np.exp(table.logp)


class ReferencesAgreeWithTheDP(unittest.TestCase):
    def test_dyadic_convolution(self):
        for L, n in ((1, 7), (2, 9), (3, 40), (6, 5), (6, 48)):
            model = mdlab.builtin("dyadic_contracting", L=L)
            table = mdlab.distribution_of_Sn(model, n)
            law = refs.dyadic_law(L, n)
            self.assertLess(refs.total_variation(*dp_probs(table), law), 1e-12, (L, n))
            self.assertAlmostEqual(table.sigma_n, law.sigma, delta=1e-12)
            self.assertAlmostEqual(law.variance, n * law.sigma ** 2, delta=1e-9 * law.variance)
            self.assertAlmostEqual(table.center, law.center, delta=1e-12)
            self.assertAlmostEqual(mdlab.ks_distance_exact(table), law.ks_distance(), delta=1e-12)

    def test_linear_space_chain_laws(self):
        file_model = mdlab.parse_model_text(MODEL_FILE_TEXT)
        two_state = mdlab.builtin("two_state", rho=RHO)
        cases = [(file_model, refs.chain_laws(FILE_TRANSITION, FILE_F_NUM, FILE_DENOM,
                                              {1, 17, 200})),
                 (two_state, refs.two_state_laws(RHO, {1, 2, 300}))]
        for model, laws in cases:
            for n, law in laws.items():
                table = mdlab.distribution_of_Sn(model, n)
                self.assertLess(refs.total_variation(*dp_probs(table), law), 1e-12, n)
                self.assertAlmostEqual(table.sigma_n, law.sigma, delta=1e-11)
                self.assertAlmostEqual(table.center, law.center, delta=1e-9)

    def test_tail_and_quantile_brackets(self):
        model = mdlab.builtin("two_state", rho=RHO)
        table = mdlab.distribution_of_Sn(model, 64)
        law = refs.two_state_laws(RHO, {64})[64]
        xs = np.concatenate((np.linspace(-4, 4, 101), table.what_values))  # atoms included
        for got, (excl, incl) in ((mdlab.exact_tail(table, xs), law.upper_bracket(xs * law.sigma)),
                                  (mdlab.exact_lower_tail(table, xs),
                                   law.lower_bracket(-xs * law.sigma))):
            p = np.exp(got)
            self.assertTrue(np.all((p >= excl * (1 - 1e-9)) & (p <= incl * (1 + 1e-9))))
        s = np.linspace(0.001, 0.999, 999)
        lo, hi = law.quantile_candidates(s)
        q = mdlab.quantile(table, s)
        self.assertTrue(np.all((q >= lo - 1e-12) & (q <= hi + 1e-12)))

    def test_closed_forms(self):
        two_state = mdlab.builtin("two_state", rho=RHO)
        for n in (1, 2, 17, 1000):
            self.assertAlmostEqual(mdlab.sigma_n(two_state, n), refs.two_state_sigma(RHO, n),
                                   delta=1e-12)
        for L, n in ((3, 2), (6, 100), (9, 4096)):
            model = mdlab.builtin("dyadic_contracting", L=L)
            self.assertAlmostEqual(mdlab.sigma_n(model, n), refs.dyadic_sigma(L, n), delta=1e-12)
        ma = mdlab.builtin("moving_average", c=1.0, L_trunc=20)
        for n in (1, 5, 256, 4000):
            self.assertAlmostEqual(mdlab.exact.sigma_any(ma, n),
                                   refs.moving_average_sigma(1.0, 20, n), delta=1e-12)
        self.assertAlmostEqual(ma.bound, refs.moving_average_bound(1.0, 20), delta=1e-15)
        for n, m in ((64, 4), (512, 6), (4096, 52)):
            coeffs = mdlab.coefficient_set(two_state, n, m)
            for key, value in refs.two_state_coefficients(RHO, n, m).items():
                self.assertAlmostEqual(getattr(coeffs, key), value, delta=1e-9 * abs(value) + 1e-10)

    def test_binomial_bracket(self):
        rademacher = mdlab.builtin("rademacher")
        for n in (16, 100, 2000):
            diag = mdlab.mdp_diagnostic(rademacher, 1.0, 0.25, [n])
            table = mdlab.distribution_of_Sn(rademacher, n)
            lo, hi = refs.binomial_log_tail_bracket(n, n ** 0.75)
            exact = float(mdlab.exact_tail(table, n ** 0.25 / table.sigma_n))
            for value in (diag.scaled[0] / n ** -0.5, exact):
                self.assertTrue(lo * (1 + 1e-9) <= value <= hi * (1 - 1e-9), (n, lo, value, hi))


class Scratch(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(run.WORK, "tmp"), exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=os.path.join(run.WORK, "tmp"))
        self.session = workloads.Session(mdlab, 11, self.dir)
        self.session.start_pass(0)

    def tearDown(self):
        shutil.rmtree(self.dir)


def small_ops() -> list:
    law = lambda s: s.two_state(512)  # noqa: E731
    argv = ["--model", f"two_state:rho={RHO}", "--n", "512", "--m", "6"]
    return [
        workloads.Op("build_models", workloads._build_models, workloads._check_models),
        workloads.Op("verify", lambda s: s.cli("verify", ["verify", *argv, "--threads", "1"]),
                     lambda s, r: workloads.check_verify(r, law(s))),
        workloads.Op("coupling", lambda s: s.cli("coupling", ["coupling", *argv,
                                                              "--chains", "2000"]),
                     lambda s, r: workloads.check_coupling(r, law(s), 512, 6, 2000, s.seed)),
        workloads.Op("dp_two_state_4096", workloads._dp, workloads._check_dp),
        workloads.Op("ks_exact", workloads._ks_exact,
                     lambda s, ks: refs.close(ks, s.two_state(4096).ks_distance(), "KS")),
    ]


class FailuresAreCounted(Scratch):
    def check(self, ops, outcome):
        failures = []
        run.check_pass(self.session, ops, outcome, [set() for _ in ops], failures)
        return failures

    def test_clean_outputs_pass(self):
        ops = small_ops()
        self.assertEqual(self.check(ops, run.run_pass(self.session, ops, 0)), [])

    def test_corrupted_outputs_fail(self):
        ops = small_ops()
        outcome = run.run_pass(self.session, ops, 0)
        models, verify_run, coupling_run, table, ks = (r for r, _, _ in outcome)
        path = os.path.join(verify_run.out, "ks.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["ks_exact"] *= 1.0 + 1e-6
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        pairs = os.path.join(coupling_run.out, "pairs.csv")
        with open(pairs, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        z, y, gap = lines[2].split(",")
        lines[2] = ",".join((z, repr(float(y) + 0.01), gap))
        with open(pairs, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        logp = table.logp.copy()
        logp[logp.size // 2] += 1e-9
        outcome[3] = (dataclasses.replace(table, logp=logp), None, 0.0)
        outcome[4] = (ks * (1 + 1e-6), None, 0.0)
        outcome[0] = (dict(models, dyadic=mdlab.builtin("dyadic_contracting", L=5)), None, 0.0)
        failed = self.check(ops, outcome)
        self.assertEqual([f["op"] for f in failed], [op.name for op in ops])

    def test_nonzero_exit_and_raise_fail(self):
        ops = [workloads.Op("bad_model", lambda s: s.cli("bad", ["verify", "--model", "nope",
                                                                 "--n", "8", "--m", "2"]),
                            lambda s, r: workloads.check_verify(r, s.two_state(512))),
               workloads.Op("raises", lambda s: mdlab.distribution_of_Sn(None, 4),
                            lambda s, r: None)]
        outcome = run.run_pass(self.session, ops, 0)
        self.assertNotEqual(outcome[0][0].rc, 0)
        self.assertIsNotNone(outcome[1][1])
        self.assertEqual(len(self.check(ops, outcome)), 2)


class TracedPassAccounting(Scratch):
    def traced_pass(self, ops):
        recorder = spans.Recorder()
        recorder.install()
        try:
            outcome = run.run_pass(self.session, ops, 0, recorder)
        finally:
            recorder.uninstall()
        self.assertTrue(all(error is None for _, error, _ in outcome))
        return recorder

    def test_self_times_add_up_per_operation(self):
        recorder = self.traced_pass(small_ops())
        self_t = recorder.self_times()
        parent = {sid: p for sid, p, _, _, _ in recorder.spans}
        roots = {sid: t1 - t0 for sid, p, name, t0, t1 in recorder.spans if name == "op"}

        def root_of(sid):
            while parent[sid] is not None:
                sid = parent[sid]
            return sid
        total = dict.fromkeys(roots, 0.0)
        for sid, _, _, _, _ in recorder.spans:
            total[root_of(sid)] += self_t[sid]
        for sid, duration in roots.items():
            self.assertAlmostEqual(total[sid], duration, delta=1e-6)
        metrics = recorder.layer_metrics()
        layer_sum = sum(v for k, v in metrics.items()
                        if k in spans.TIME_GROUPS and not k.endswith(".self_s"))
        self.assertAlmostEqual(layer_sum + metrics["cli.self_s"], sum(roots.values()), delta=1e-5)

    def test_aliases_pool_and_restore(self):
        original = mdlab.coefficients.exact_sigma_n
        ops = [workloads.Op("verify", lambda s: s.cli("verify", [
            "verify", "--model", "two_state:rho=0.4", "--n", "256", "--m", "4",
            "--threads", "2"]), lambda s, r: None)]
        recorder = self.traced_pass(ops)
        self.assertIs(mdlab.coefficients.exact_sigma_n, original)
        self.assertIs(mdlab.cli.distribution_of_Sn, mdlab.exact.distribution_of_Sn)
        names = {name for _, _, name, _, _ in recorder.spans}
        self.assertTrue({"distribution_of_Sn", "sigma_n", "coefficient_set", "ratio_curve",
                         "peligrad_bound", "main"} <= names)
        by_id = {sid: (p, name) for sid, p, name, _, _ in recorder.spans}
        # pool tasks run on other threads but hang under the CLI span
        for sid, (p, name) in by_id.items():
            if name == "ratio_curve":
                self.assertEqual(by_id[p][1], "main")

    def test_counts_repeat(self):
        first = self.traced_pass(small_ops()).layer_metrics()
        self.session.start_pass(1)
        second = self.traced_pass(small_ops()).layer_metrics()
        for key in ("exact.dp_calls", "exact.dp_cell_updates", "exact.dp_useful_ratio",
                    "coefficients.set_calls", "coefficients.useful_ratio", "coupling.draws",
                    "exact.sigma_n_lags", "models.build_calls"):
            self.assertEqual(first[key], second[key], key)
        self.assertEqual(first["exact.dp_useful_ratio"], 3 / 5)
        self.assertEqual(first["coupling.draws"], 4000)
        self.assertTrue(math.isclose(first["exact.dp_table_mb"], 2 * 2 * 8193 * 8 / 2 ** 20))


if __name__ == "__main__":
    unittest.main()
