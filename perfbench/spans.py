"""Span recorder for the traced run, installed from outside the package.

`Recorder.install()` replaces each public entry point listed in LAYERS, in
every ``mdlab`` module namespace that holds it (so ``mdlab.cli``'s imported
``distribution_of_Sn`` and ``mdlab.coefficients.exact_sigma_n`` are caught as
well as the defining module's own name), with a wrapper that records a span
and the counts the per-layer metrics need.  `uninstall()` puts the originals
back.  Spans stay in memory; `layer_metrics()` reduces them at the end.

A span's self time is its duration minus the union of its children's
intervals.  The stack is per thread; `mdlab.cli`'s ThreadPoolExecutor is
swapped for one whose tasks start with the submitting span as parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# layer -> public entry points wrapped in the traced run
LAYERS = {
    "models": ("builtin", "parse_model_text", "build_finite_lattice_model"),
    "exact": ("distribution_of_Sn", "sigma_n", "sigma_any",
              "conditional_block_moments", "conditional_sum_norms",
              "poisson_solution", "long_run_variance",
              "exact_tail", "exact_lower_tail", "quantile", "ks_distance_exact"),
    "coefficients": ("coefficient_set", "eta_certificate",
                     "certified_coefficient_bounds", "admissibility"),
    "bounds": ("bernstein_bound", "freedman_bound", "peligrad_bound",
               "gaussian_tail_sandwich", "envelope_curve", "berry_esseen_bound"),
    "blocking": ("quadratic_characteristic_deviation",),
    "coupling": ("coupling_report", "build_quantile_transform", "sample_coupled_pairs"),
    "montecarlo": ("simulate_W", "estimate_tails", "ratio_curve", "empirical_ks",
                   "mdp_diagnostic"),
    "cli": ("main",),
}

# self-time metric -> the entry points whose self time it sums
TIME_GROUPS = {
    "models.build_s": LAYERS["models"],
    "exact.dp_s": ("distribution_of_Sn",),
    "exact.sigma_n_s": ("sigma_n", "sigma_any"),
    "exact.moments_s": ("conditional_block_moments", "conditional_sum_norms",
                        "poisson_solution", "long_run_variance"),
    "exact.query_s": ("exact_tail", "exact_lower_tail", "quantile", "ks_distance_exact"),
    "coefficients.set_s": ("coefficient_set",),
    "coefficients.certificate_s": ("eta_certificate", "certified_coefficient_bounds"),
    "coefficients.gates_s": ("admissibility",),
    "bounds.eval_s": LAYERS["bounds"],
    "blocking.quad_char_s": LAYERS["blocking"],
    "coupling.report_s": ("coupling_report",),
    "coupling.sample_s": ("build_quantile_transform", "sample_coupled_pairs"),
    "montecarlo.simulate_s": ("simulate_W",),
    "montecarlo.estimate_s": ("estimate_tails", "ratio_curve", "empirical_ks"),
    "montecarlo.mdp_s": ("mdp_diagnostic",),
    "cli.self_s": ("main",),
    "bench.glue_s": ("op",),
}
# whole-layer totals, for layers whose finer groups are idle on some workload
for _layer in ("exact", "coefficients", "coupling", "montecarlo"):
    TIME_GROUPS[f"{_layer}.self_s"] = LAYERS[_layer]

SIGMA_FUNCS = {"sigma_n", "sigma_any"}


def model_key(model) -> tuple:
    """Identity of a model by content, so rebuilt copies compare equal."""
    if getattr(model, "tier", None) != "exact":
        return (model.name,)
    digest = hashlib.sha1(model.transition.tobytes() + model.f_num.tobytes())
    return (model.name, int(model.denom), digest.hexdigest())


class Recorder:
    def __init__(self):
        self.spans = []  # (span id, parent id, entry point, start, end)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)  # metric -> {(op index, call key)}
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, /, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent[0], name, t0, t1))

    def run_op(self, index: int, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op = index
        return self.span("op", fn, *args)

    def _parent_name(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    def _run_with_parent(self, parent, fn, /, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    # -- counts taken at the same boundaries -----------------------------

    def _count(self, name: str, bound: inspect.BoundArguments) -> None:
        a = bound.arguments
        c = self.counts
        if name == "distribution_of_Sn":
            model, n = a["model"], int(a["n"])
            s = model.n_states
            fmin, fmax = int(model.f_num.min()), int(model.f_num.max())
            c["exact.dp_calls"] += 1
            self.keys["exact.dp"].add((self.op, model_key(model), n))
            # per step t the DP reduces an s x s x window slab, window = (t-1)(fmax-fmin)+1
            c["exact.dp_cell_updates"] += s * s * (n + (fmax - fmin) * n * (n - 1) // 2)
            width = max(0, n * fmax) - min(0, n * fmin) + 1
            c["exact.dp_table_mb"] = max(c["exact.dp_table_mb"], 2 * s * width * 8 / 2 ** 20)
        elif name in SIGMA_FUNCS:
            if self._parent_name() not in SIGMA_FUNCS:
                c["exact.sigma_n_lags"] += int(a["n"])
        elif name == "conditional_sum_norms":
            c["exact.cond_norm_steps"] += int(a["n_max"])
        elif name in ("exact_tail", "exact_lower_tail"):
            c["exact.query_points"] += int(np.size(a["x"]))
        elif name == "quantile":
            c["exact.query_points"] += int(np.size(a["s"]))
        elif name == "ks_distance_exact":
            c["exact.query_points"] += int(a["table"].offsets.size)
        elif name == "coefficient_set":
            c["coefficients.set_calls"] += 1
            self.keys["coefficients.set"].add(
                (self.op, model_key(a["model"]), int(a["n"]), int(a["m"])))
        elif name == "sample_coupled_pairs":
            c["coupling.draws"] += int(a["draws"])
        elif name == "simulate_W":
            c["montecarlo.chain_steps"] += int(a["chains"]) * int(a["n"])
        elif name in LAYERS["models"]:
            if self._parent_name() not in LAYERS["models"]:
                c["models.build_calls"] += 1

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name, sig.bind(*args, **kwargs))
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- installing and removing the wrappers ----------------------------

    def install(self) -> None:
        import mdlab.cli  # noqa: F401  (loads every module that re-exports)

        originals = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"mdlab.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(name, fn)
        recorder = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                stack = recorder._stack()
                parent = stack[-1] if stack else (None, None)
                return super().submit(recorder._run_with_parent, parent, fn, *args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname != "mdlab" and not modname.startswith("mdlab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cli = sys.modules["mdlab.cli"]
        self._patched.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = TracedPool

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- reduction -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1 in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (t1 - t0) - covered
        return out

    def per_function(self) -> dict[str, dict]:
        """entry point -> calls and summed self time."""
        self_t = self.self_times()
        table = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, _, name, _, _ in self.spans:
            table[name]["calls"] += 1
            table[name]["self_s"] += self_t[sid]
        return dict(table)

    def layer_metrics(self) -> dict[str, float]:
        funcs = self.per_function()
        out = {metric: sum(funcs.get(f, {"self_s": 0.0})["self_s"] for f in names)
               for metric, names in TIME_GROUPS.items()}
        for metric in ("models.build_calls", "exact.dp_calls", "exact.dp_cell_updates",
                       "exact.dp_table_mb", "exact.sigma_n_lags", "exact.cond_norm_steps",
                       "exact.query_points", "coefficients.set_calls", "coupling.draws",
                       "montecarlo.chain_steps"):
            out[metric] = self.counts.get(metric, 0)
        # distinct call keys within each operation, over calls; 1 when never called
        for metric, keys, calls in (
                ("exact.dp_useful_ratio", "exact.dp", "exact.dp_calls"),
                ("coefficients.useful_ratio", "coefficients.set", "coefficients.set_calls")):
            n = self.counts.get(calls, 0)
            out[metric] = len(self.keys[keys]) / n if n else 1.0
        sim = out["montecarlo.simulate_s"]
        out["montecarlo.chain_steps_per_s"] = out["montecarlo.chain_steps"] / sim if sim else 0.0
        return out
