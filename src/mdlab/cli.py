"""Command-line front end.

Subcommands: coeffs, verify, coupling, mdp, report.  Outputs are
machine-readable (JSON and CSV) and byte-identical for identical
(configuration, seed), whatever the thread count: every file carries a
manifest with the tool version, a hash of the semantic configuration and the
seed, and contains nothing schedule- or time-dependent.

Exit codes: 0 success, 2 configuration error, 3 model error, 4 a hard
verification assertion failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .blocking import quadratic_characteristic_deviation
from .bounds import (
    bernstein_bound,
    berry_esseen_bound,
    envelope_curve,
    freedman_bound,
    gaussian_tail_sandwich,
    peligrad_bound,
)
from .coefficients import (
    admissibility,
    coefficient_set,
    certified_coefficient_bounds,
    select_block_size,
)
from .coupling import coupling_report, sample_coupled_pairs, build_quantile_transform
from .errors import ConfigError, MdlabError, VerificationError
from .exact import (_max_abs_tail, conditional_sum_norms, distribution_of_Sn,
                    exact_tail, ks_distance_exact, sigma_any)
from .models import builtin, parse_model_text
from .montecarlo import _binomial_log_tail, mdp_diagnostic, ratio_curve
from .normal import normal_sf

SANDWICH_GRID = 1000
FREEDMAN_XMAX = 4.0
PELIGRAD_N = 12
PELIGRAD_XS = (4.0, 8.0, 12.0)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_model_arg(spec: str):
    """`name`, `name:key=val,...`, or a path to a model definition file."""
    if os.path.sep in spec or spec.endswith(".model") or os.path.isfile(spec):
        if not os.path.isfile(spec):
            raise ConfigError(f"model file not found: {spec}")
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_model_text(fh.read(), name=os.path.basename(spec))
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ConfigError(f"bad model parameter {item!r} in {spec!r}")
            key, _, val = item.partition("=")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise ConfigError(f"model parameter {key!r} must be numeric") from None
    for key in [k for k in ("L", "L_trunc") if k in params]:
        if not params[key].is_integer():
            raise ConfigError(f"model parameter {key!r} must be an integer, got {params[key]!r}")
        params[key] = int(params[key])
    return builtin(name.strip(), **params)


def _resolve(args: argparse.Namespace) -> dict:
    """Flags merged with the config file (file wins), as a plain dict."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "config") and v is not None}
    if getattr(args, "config", None):
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        cfg.update(overrides)
    return cfg


def _config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "threads")}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _manifest(cfg: dict) -> dict:
    return {"tool": f"mdlab {__version__}", "config_hash": _config_hash(cfg),
            "seed": cfg.get("seed", 0), "model": cfg.get("model")}


def _write_text(out_dir: str, name: str, header: dict, body: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    head = "# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + body)
    return path


def _write_json(out_dir: str, name: str, header: dict, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    doc = {"manifest": header}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _pick_m(cfg: dict, model, n: int) -> int:
    if cfg.get("m") is not None:
        m = int(cfg["m"])
        if not 1 <= m <= n:
            raise ConfigError(f"need 1 <= m <= n, got m={m}, n={n}")
        return m
    if cfg.get("beta") is not None:
        purpose = cfg.get("purpose", "cramer")
        return select_block_size(n, float(cfg["beta"]), purpose).m
    raise ConfigError("one of --m or --beta is required")


def _x_grid(cfg: dict) -> np.ndarray:
    lo = float(cfg.get("x_min", 0.0))
    hi = float(cfg.get("x_max", 3.0))
    count = int(cfg.get("x_count", 50))
    if not (count >= 1 and hi >= lo >= 0.0):
        raise ConfigError("x grid needs 0 <= x-min <= x-max and x-count >= 1")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(cfg: dict) -> int:
    model = _parse_model_arg(cfg["model"])
    n = int(cfg["n"])
    m = _pick_m(cfg, model, n)
    gate_mode = cfg.get("gate_mode", "practical")
    out = cfg.get("out", ".")
    if model.tier == "exact":
        coeffs = coefficient_set(model, n, m, tol=float(cfg.get("gamma_tol", 1e-10)))
        gates = admissibility(coeffs, gate_mode)
        payload = {"mode": "exact", "model": model.describe(),
                   "coefficients": coeffs.to_json_dict(),
                   "gates": gates.to_json_dict()}
    else:
        sig = sigma_any(model, n)
        rb = certified_coefficient_bounds(model.decay, m, n, sig, model.bound)
        payload = {"mode": "certified_upper_bounds", "model": model.describe(),
                   "coefficients": {"n": n, "m": m, "sigma_n": sig,
                                    "eps_m": m * model.bound / (math.sqrt(n) * sig),
                                    "gamma_bound": rb.gamma_bound,
                                    "delta_sq_bound": rb.delta_sq_bound,
                                    "regime": rb.regime}}
    _write_json(out, "coefficients.json", _manifest(cfg), payload)
    return 0


def _verify_tasks(model, n: int, m: int, xs: np.ndarray, gate_mode: str, c: float):
    """The independent verification workloads; each returns its own block."""

    def ratio_task():
        return ratio_curve(model, n, m, xs, mode="exact", envelope_c=c,
                           gate_mode=gate_mode)

    def bern_task():
        coeffs = coefficient_set(model, n, m)
        table = distribution_of_Sn(model, n)
        pos = xs[xs > 0]
        exact_p = np.exp(np.asarray(exact_tail(table, pos)))
        bern = np.asarray(bernstein_bound(coeffs, pos))
        return coeffs, table, pos, exact_p, bern

    def freedman_task():
        grid = np.linspace(0.25, FREEDMAN_XMAX, 16)
        exact_p = np.exp([_binomial_log_tail(n, x * math.sqrt(n)) for x in grid])
        bound = np.asarray(freedman_bound(grid, 1.0, 1.0 / math.sqrt(n)))
        return grid, exact_p, bound

    def sandwich_task():
        grid = np.linspace(0.0, 8.0, SANDWICH_GRID)
        lo, hi = gaussian_tail_sandwich(grid)
        return grid, lo, normal_sf(grid), hi

    def peligrad_task():
        # exact max-of-partial-sums tails of the model against the maximal inequality
        norms = conditional_sum_norms(model, PELIGRAD_N)
        return [(x, _max_abs_tail(model, PELIGRAD_N, x),
                 float(peligrad_bound(x, PELIGRAD_N, model.bound, norms))) for x in PELIGRAD_XS]

    return ratio_task, bern_task, freedman_task, sandwich_task, peligrad_task


def cmd_verify(cfg: dict) -> int:
    model = _parse_model_arg(cfg["model"])
    if model.tier != "exact":
        raise ConfigError("verify needs an exact-tier model")
    n = int(cfg["n"])
    m = _pick_m(cfg, model, n)
    xs = _x_grid(cfg)
    gate_mode = cfg.get("gate_mode", "practical")
    c = float(cfg.get("constant", 1.0))
    if not 0 < c < math.inf:
        raise ConfigError(f"envelope constant must be finite and positive, got {c}")
    threads = max(1, int(cfg.get("threads", 1)))
    out = cfg.get("out", ".")

    tasks = _verify_tasks(model, n, m, xs, gate_mode, c)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(t) for t in tasks]
        curve, bern_pack, fred_pack, sand_pack, prows = [f.result() for f in futures]

    coeffs, table, pos, exact_p, bern = bern_pack
    fgrid, fexact, fbound = fred_pack
    sgrid, slo, ssf, shi = sand_pack

    failure = None
    for x, e, b in zip(pos, exact_p, bern):
        if e > b:
            failure = ("bernstein", float(x), float(b), float(e))
            break
    if failure is None:
        for x, e, b in zip(fgrid, fexact, fbound):
            if e > b:
                failure = ("freedman", float(x), float(b), float(e))
                break
    if failure is None:
        for x, e, b in prows:
            if e > b:
                failure = ("peligrad", float(x), float(b), float(e))
                break
    if failure is None:
        for x, lo, mid, hi in zip(sgrid, slo, ssf, shi):
            if not lo <= mid <= hi:
                failure = ("sandwich", float(x), float(lo), float(mid))
                break

    manifest = _manifest(cfg)
    _write_text(out, "ratio.csv", manifest, curve.to_csv())
    env = envelope_curve(coeffs, pos, c, gate_mode)
    lines = ["x,exact_tail,bernstein,envelope,envelope_valid"]
    for i, x in enumerate(pos):
        lines.append(f"{x:.17g},{exact_p[i]:.17g},{bern[i]:.17g},"
                     f"{env.value[i]:.17g},{int(env.valid[i])}")
    _write_text(out, "bounds.csv", manifest, "\n".join(lines) + "\n")
    qd = quadratic_characteristic_deviation(model, n, m)
    _write_json(out, "ks.json", manifest, {
        "model": model.describe(),
        "n": n, "m": m,
        "ks_exact": ks_distance_exact(table),
        "berry_esseen_bound_shape": berry_esseen_bound(coeffs, c),
        "coefficients": coeffs.to_json_dict(),
        "gates": admissibility(coeffs, gate_mode).to_json_dict(),
        "quad_char": {"exact": qd.exact_value, "bound": qd.bound_value},
        "checks": {
            "bernstein_points": int(pos.size),
            "freedman_reference_points": int(fgrid.size),
            "peligrad_reference": {"model": model.name, "n": PELIGRAD_N},
            "sandwich_points": int(sgrid.size),
            "violation": list(failure) if failure else None,
        },
    })
    if failure:
        raise VerificationError(
            f"{failure[0]} validity failed at x={failure[1]}: bound {failure[2]} "
            f"< exact {failure[3]}")
    return 0


def cmd_coupling(cfg: dict) -> int:
    model = _parse_model_arg(cfg["model"])
    n = int(cfg["n"])
    m = _pick_m(cfg, model, n)
    draws = int(cfg.get("chains", 10000))
    seed = int(cfg.get("seed", 0))
    out = cfg.get("out", ".")
    rep = coupling_report(model, n, m, draws, seed,
                          alpha=float(cfg.get("alpha", 1.0)),
                          c_alpha=float(cfg.get("c_alpha", 1.0)))
    manifest = _manifest(cfg)
    _write_json(out, "coupling.json", manifest, {"report": rep.to_json_dict()})
    table = distribution_of_Sn(model, n)
    y, z = sample_coupled_pairs(build_quantile_transform(table), draws, seed)
    lines = ["z,y,gap"]
    lines += [f"{zv:.17g},{yv:.17g},{abs(yv - zv):.17g}" for yv, zv in zip(y, z)]
    _write_text(out, "pairs.csv", manifest, "\n".join(lines) + "\n")
    return 0


def cmd_mdp(cfg: dict) -> int:
    model = _parse_model_arg(cfg["model"])
    if cfg.get("n_grid"):
        try:
            grid = [int(v) for v in str(cfg["n_grid"]).split(",")]
        except ValueError:
            raise ConfigError(f"--n-grid must list integers, got {cfg['n_grid']!r}") from None
    else:
        base = int(cfg["n"])
        grid = [base, base * 4, base * 16]
    diag = mdp_diagnostic(model, float(cfg.get("c", 1.0)),
                          float(cfg.get("a_exp", 0.25)), grid)
    _write_text(cfg.get("out", "."), "mdp.csv", _manifest(cfg), diag.to_csv())
    return 0


def cmd_report(cfg: dict) -> int:
    out = cfg.get("out", ".")
    results = {}
    for name, fn in (("coeffs", cmd_coeffs), ("verify", cmd_verify),
                     ("coupling", cmd_coupling), ("mdp", cmd_mdp)):
        try:
            fn(dict(cfg))
            results[name] = "ok"
        except VerificationError as exc:
            results[name] = f"assertion failed: {exc}"
    _write_json(out, "summary.json", _manifest(cfg), {"results": results})
    if any(v != "ok" for v in results.values()):
        raise VerificationError(json.dumps(results, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlab",
        description="moderate-deviation laboratory for stationary bounded sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True,
                       help="builtin name[:k=v,...] or a model definition file")
        p.add_argument("--n", type=int, required=True, help="horizon n")
        p.add_argument("--m", type=int, help="block length")
        p.add_argument("--beta", type=float,
                       help="decay exponent; selects m when --m is absent")
        p.add_argument("--purpose", choices=("cramer", "berry_esseen"),
                       help="block-size rule used with --beta")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--gate-mode", dest="gate_mode",
                       choices=("strict", "practical"))
        p.add_argument("--out", default=".")
        p.add_argument("--config", help="JSON config file; overrides flags")
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("coeffs", help="deviation coefficients and gate verdicts")
    common(p)

    p = sub.add_parser("verify", help="ratio, Kolmogorov and bound validity bundle")
    common(p)
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--x-count", dest="x_count", type=int)
    p.add_argument("--constant", type=float, help="envelope shape constant")

    p = sub.add_parser("coupling", help="quantile-coupling report and pairs dump")
    common(p)
    p.add_argument("--chains", type=int, help="number of coupled draws")
    p.add_argument("--alpha", type=float)
    p.add_argument("--c-alpha", dest="c_alpha", type=float)

    p = sub.add_parser("mdp", help="moderate-deviation scaling diagnostic")
    common(p)
    p.add_argument("--c", type=float, help="deviation level")
    p.add_argument("--a-exp", dest="a_exp", type=float, help="speed exponent")
    p.add_argument("--n-grid", dest="n_grid", help="comma-separated horizons")

    p = sub.add_parser("report", help="run every subcommand into one directory")
    common(p)
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--x-count", dest="x_count", type=int)
    p.add_argument("--constant", type=float)
    p.add_argument("--chains", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--a-exp", dest="a_exp", type=float)
    p.add_argument("--n-grid", dest="n_grid")

    return parser


_COMMANDS = {"coeffs": cmd_coeffs, "verify": cmd_verify, "coupling": cmd_coupling,
             "mdp": cmd_mdp, "report": cmd_report}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
    except MdlabError as exc:
        print(f"mdlab: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
