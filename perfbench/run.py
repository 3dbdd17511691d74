#!/usr/bin/env python3
"""mdlab benchmark.

    python3 perfbench/run.py --workload oracle_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; mdlab is imported from ``src/``.

One run is one workload in this fresh process.  With ``--trace 0`` it
measures the end-to-end metrics:

* setup_s      median over SETUP_PROBES fresh processes of the time to import
               mdlab and build every model the workload names;
* wall_s       median over passes of the time to run the workload's
               operation list; passes repeat until ``--seconds`` have gone;
* peak_rss_mb  ru_maxrss of this process at the end of the first pass, in MiB.

setup_s and wall_s are scaled to a reference host speed measured with a
calibration kernel run between operations (see Calibration); the raw
figures are printed beside them and kept in the run record.

With ``--trace 1`` it runs one untraced and one traced pass (no set-up
probes and no calibration, whatever ``--seconds`` says) and reports the
per-layer metrics from spans recorded around mdlab's public entry points
(see spans.py).  Every operation's result is checked against an independent
reference (see refs.py and workloads.py); ``failed`` counts operations that
raised, exited nonzero or failed their check.  The last line of standard
output is the result as one JSON object.  A full run record is written to
``.perfbench/runs/``; scratch output goes to ``.perfbench/tmp/`` and is
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("oracle_dense", "long_horizon", "monte_carlo")
SETUP_PROBES = 5
CAL_REF_S = 0.08  # calibration kernel seconds that define the reference speed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# The traced run prints every metric here and records it in the run record.
# REPORTED are the ones in the result line (and in BENCHMARK.json): a time
# that is exactly 0 on some workload (its layer never runs there) is left out
# of it in favour of its layer's total, which is never 0.
PER_LAYER = {
    "models.build_s": "s", "models.build_calls": "count",
    "exact.self_s": "s",
    "exact.dp_s": "s", "exact.dp_calls": "count", "exact.dp_useful_ratio": "ratio",
    "exact.dp_cell_updates": "count", "exact.dp_table_mb": "MiB",
    "exact.sigma_n_s": "s", "exact.sigma_n_lags": "count",
    "exact.moments_s": "s", "exact.cond_norm_steps": "count",
    "exact.query_s": "s", "exact.query_points": "count",
    "coefficients.self_s": "s",
    "coefficients.set_s": "s", "coefficients.set_calls": "count",
    "coefficients.useful_ratio": "ratio", "coefficients.certificate_s": "s",
    "coefficients.gates_s": "s",
    "bounds.eval_s": "s", "blocking.quad_char_s": "s",
    "coupling.self_s": "s",
    "coupling.report_s": "s", "coupling.sample_s": "s", "coupling.draws": "count",
    "montecarlo.self_s": "s",
    "montecarlo.simulate_s": "s", "montecarlo.chain_steps": "count",
    "montecarlo.chain_steps_per_s": "1/s", "montecarlo.estimate_s": "s",
    "montecarlo.mdp_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes", "bench.glue_s": "s",
    "process.cpu_s": "s", "process.trace_overhead_s": "s",
}
SOMETIMES_ZERO = {"coefficients.certificate_s", "blocking.quad_char_s", "coupling.report_s",
                  "montecarlo.simulate_s", "montecarlo.chain_steps_per_s", "montecarlo.mdp_s",
                  "cli.self_s"}
REPORTED = {k: u for k, u in PER_LAYER.items() if k not in SOMETIMES_ZERO}


def cap_blas_threads() -> int:
    """Keep BLAS at no more threads than this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_mdlab():
    """Import mdlab from this checkout's src/, or stop with an error."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mdlab", "__init__.py")):
        raise SystemExit(f"perfbench: no mdlab sources under {src}")
    sys.path.insert(0, src)
    import mdlab
    import mdlab.cli  # noqa: F401
    if not os.path.abspath(mdlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: mdlab imported from {mdlab.__file__}, not {src}")
    return mdlab


def setup_probe(workload: str) -> None:
    """Body of one set-up process: time a cold import plus the model builds."""
    t0 = time.perf_counter()
    mdlab = import_mdlab()
    sys.path.insert(0, HERE)
    import inputs
    inputs.build_models(mdlab, workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, calibrate) -> list[float]:
    """Raw set-up seconds of SETUP_PROBES fresh processes, with the
    calibration kernel run between them."""
    out = []
    calibrate()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                               "--workload", workload], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        calibrate()
    return out


def run_record(np, workload: str, seed: int, trace: int, nproc: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = {"sha": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git_out(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30, check=False).stdout.strip()
        git = {"sha": git_out("rev-parse", "HEAD") or None,
               "dirty": bool(git_out("status", "--porcelain", "--untracked-files=no"))}
    return {
        "workload": workload, "seed": seed, "trace": trace, "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "git": git,
    }


class Calibration:
    """A fixed kernel in the style of mdlab's hot loops (small mat-vecs,
    log-sum-exp reductions over a slab, block comparisons) that shares no
    code with mdlab, timed between operations and between set-up probes.

    The shared host this benchmark was tuned on switches between a fast and
    a slow state (the kernel takes about 0.06 s or 0.10 s) and spends a
    different share of each minute in the slow one, so raw seconds drift
    by a quarter between runs.  `factor()` scales a run's seconds to the
    speed at which the kernel takes CAL_REF_S, using the kernel's mean time
    over the whole run (one sample is too short to stand for the speed
    during a multi-second operation)."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        p = rng.random((64, 64))
        self.np, self.p = np, p / p.sum(axis=1, keepdims=True)
        self.slab = np.log(rng.random((64, 400)))
        self.block = rng.random((4096, 4))
        self.samples = []

    def __call__(self) -> None:
        np = self.np
        t0 = time.perf_counter()
        v = np.ones(64)
        for _ in range(4000):
            v = self.p @ v
        for _ in range(150):
            np.logaddexp.reduce(self.slab + self.slab[:, :1], axis=0)
        for _ in range(80):
            (self.block < 0.5).sum(axis=1)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return CAL_REF_S / statistics.mean(self.samples)


def run_pass(session, ops, index: int, recorder=None, calibrate=None):
    """One pass over the operation list; returns per-op (result, error,
    seconds).  `calibrate`, if given, runs before each operation and after
    the last, outside the timed calls."""
    session.start_pass(index)
    out = []
    for i, op in enumerate(ops):
        if calibrate:
            calibrate()
        t0 = time.perf_counter()
        try:
            result = recorder.run_op(i, op.run, session) if recorder else op.run(session)
            error = None
        except Exception:  # an operation that raises is counted, not fatal
            result, error = None, traceback.format_exc(limit=4)
        out.append((result, error, time.perf_counter() - t0))
    if calibrate:
        calibrate()
    return out


def check_pass(session, ops, outcome, verified: list[set], failures: list) -> None:
    """Check each result against its reference; a result whose digest was
    already verified (outputs are deterministic per seed) is not re-checked."""
    import refs
    import workloads
    for i, (op, (result, error, _)) in enumerate(zip(ops, outcome)):
        if error is None:
            key = workloads.digest(result)
            if key in verified[i]:
                continue
            try:
                op.check(session, result)
                verified[i].add(key)
                continue
            except refs.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:  # a check that cannot read the output fails the op
                error = "check raised: " + traceback.format_exc(limit=4)
        failures.append({"op": op.name, "error": error})


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_workload(args) -> int:
    nproc = cap_blas_threads()
    mdlab = import_mdlab()
    sys.path.insert(0, HERE)
    import numpy as np
    import spans
    import workloads

    scratch = os.path.join(WORK, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    os.environ["TMPDIR"] = scratch
    try:
        record = run_record(np, args.workload, args.seed, args.trace, nproc)
        calibrate = None if args.trace else Calibration(np)
        setup = measure_setup(args.workload, calibrate) if calibrate else []
        session = workloads.Session(mdlab, args.seed, scratch)
        ops = workloads.WORKLOADS[args.workload]()
        verified = [set() for _ in ops]
        failures, walls, op_times, cpu, peaks = [], [], [], [], []
        recorder = None

        def one_pass(index, rec=None):
            c0 = cpu_seconds()
            outcome = run_pass(session, ops, index, rec, calibrate)
            cpu.append(cpu_seconds() - c0)
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            walls.append(sum(t for _, _, t in outcome))
            op_times.append([t for _, _, t in outcome])
            check_pass(session, ops, outcome, verified, failures)

        start = time.perf_counter()
        if args.trace:
            one_pass(0)
            recorder = spans.Recorder()
            recorder.install()
            try:
                one_pass(1, recorder)
            finally:
                recorder.uninstall()
        else:
            while not walls or time.perf_counter() - start < args.seconds:
                one_pass(len(walls))
        # the first pass's high-water mark: later passes can only add what the
        # program keeps alive between calls (such as its lru_cache), which
        # would make the figure depend on how many passes fit in --seconds
        peak_mb = peaks[0]

        attempted = len(ops) * len(walls)
        if args.trace:
            metrics = recorder.layer_metrics()
            metrics["cli.bytes_written"] = dir_bytes(os.path.join(scratch, "pass1"))
            metrics["process.cpu_s"] = cpu[1]
            metrics["process.trace_overhead_s"] = walls[1] - walls[0]
            reported = {k: {"value": metrics[k], "unit": u} for k, u in REPORTED.items()}
            record["spans"] = [{"id": sid, "parent": parent, "name": name,
                                "start": t0 - start, "end": t1 - start}
                               for sid, parent, name, t0, t1 in recorder.spans]
            record["per_function"] = recorder.per_function()
        else:
            factor = calibrate.factor()
            metrics = {"setup_s": statistics.median(setup) * factor,
                       "wall_s": statistics.median(walls) * factor, "peak_rss_mb": peak_mb}
            reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
            record["calibration_s"] = calibrate.samples
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record.update({"setup_raw_s": setup, "wall_raw_s": walls, "peak_rss_mb": peaks,
                   "ops": {op.name: [t[i] for t in op_times] for i, op in enumerate(ops)},
                   "failures": failures, "metrics": metrics})
    runs = os.path.join(WORK, "runs")
    os.makedirs(runs, exist_ok=True)
    record_path = os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} passes={len(walls)} record={os.path.relpath(record_path, ROOT)}")
    if calibrate:
        for name, raw, what in (("setup_s", setup, "fresh processes"),
                                ("wall_s", walls, "passes")):
            print(f"  {name:12s} {metrics[name]:9.4f} s    at the reference speed "
                  f"(x{factor:.3f}); raw median of {len(raw)} {what} {statistics.median(raw):.4f}")
    else:
        print(f"  passes       untraced {walls[0]:.4f} s, traced {walls[1]:.4f} s")
    print(f"  peak_rss_mb  {peak_mb:9.1f} MiB")
    print(f"  failed_ops   {len(failures)}/{attempted} = {len(failures) / attempted:.3f}")
    for f in failures:
        print(f"  FAILED {f['op']}: {f['error']}")
    if args.trace:
        for k, u in PER_LAYER.items():
            note = "" if k in REPORTED else "  (not in result)"
            print(f"  {k:30s} {metrics[k]:14.6g} {u}{note}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900,
                              check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced runs repeat passes until this much time has gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch output and its child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_probe:
        cap_blas_threads()
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
