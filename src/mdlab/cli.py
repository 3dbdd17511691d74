"""Command-line front end.

Subcommands: coeffs, verify, coupling, mdp, report.  Outputs are
machine-readable (JSON and CSV) and byte-identical for identical
(configuration, seed): every file carries a manifest with the tool version, a
hash of the semantic configuration and the seed, and contains nothing
schedule- or time-dependent.  Every subcommand runs in one thread; `--threads`
is accepted and ignored, and is not part of the configuration hash.

A `--config` JSON object is more flags: each key is a flag's name with `_`
for `-`, appended after the command line (so the file wins) and parsed with
that flag's type and choices.  Subcommands return their files (text chunks)
and `main` writes them, so a run that rejects its input writes nothing.

Exit codes: 0 success, 2 configuration error, 3 model error, 4 a hard
verification assertion failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
# not used here: kept only because perfbench/spans.py swaps this name when tracing
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from itertools import chain

import numpy as np

from . import __version__
from .blocking import quadratic_characteristic_deviation
from .bounds import (
    bernstein_bound,
    berry_esseen_bound,
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
from .exact import (_binomial_log_tail, _csv_chunks, _max_abs_tail, conditional_sum_norms,
                    distribution_of_Sn, exact_tail, ks_distance_exact, sigma_any)
from .models import _check_cost, _require_scale, builtin, parse_model_text
from .montecarlo import mdp_diagnostic, ratio_curve
from .normal import normal_sf

SANDWICH_GRID = 1000
FREEDMAN_XMAX = 4.0
PELIGRAD_N = 12
PELIGRAD_XS = (4.0, 8.0, 12.0)
X_POINT_BYTES = 192  # peak bytes per x point, arrays and CSV rows (verify traces ~90)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_model_arg(spec: str):
    """`name`, `name:key=val,...`, or a path to a model definition file."""
    if os.path.sep in spec or spec.endswith(".model") or os.path.isfile(spec):
        return parse_model_text(_read_text(spec, "model file"), name=os.path.basename(spec))
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


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at `path`; ConfigError if it is missing or unreadable."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _config_argv(path: str) -> list:
    """The JSON object in `path` as `--flag=value` words; null values are skipped."""
    try:
        doc = json.loads(_read_text(path, "config file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file must hold a JSON object, got a {type(doc).__name__}")
    odd = sorted(key for key in doc if "-" in key or key == "config")
    if odd:
        raise ConfigError(f"unknown config keys {odd}: a key is a flag's name with _ for -")
    return [f"--{key.replace('_', '-')}={val if isinstance(val, str) else json.dumps(val)}"
            for key, val in doc.items() if val is not None]


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "threads")}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _manifest(cfg: dict) -> dict:
    return {"tool": f"mdlab {__version__}", "config_hash": _config_hash(cfg),
            "seed": cfg["seed"], "model": cfg["model"]}


def _text_file(header: dict, chunks):
    line = "# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    return chain((line,), chunks)


def _json_file(header: dict, payload: dict) -> tuple:
    return (json.dumps({"manifest": header, **payload}, sort_keys=True, indent=2) + "\n",)


def _pick_m(cfg: dict, n: int) -> int:
    if cfg.get("m") is not None:
        m = cfg["m"]
        if not 1 <= m <= n:
            raise ConfigError(f"need 1 <= m <= n, got m={m}, n={n}")
        return m
    if cfg.get("beta") is not None:
        return select_block_size(n, cfg["beta"], cfg.get("purpose", "cramer")).m
    raise ConfigError("one of --m or --beta is required")


def _x_grid(cfg: dict) -> np.ndarray:
    lo, hi = cfg.get("x_min", 0.0), cfg.get("x_max", 3.0)
    count = cfg.get("x_count", 50)
    if not (count >= 1 and hi >= lo >= 0.0):
        raise ConfigError("x grid needs 0 <= x-min <= x-max and x-count >= 1")
    _check_cost(f"x-count {count}", count * X_POINT_BYTES, of="arrays and output rows")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# subcommands: each takes the config, the run's model and a call that returns
# the run's one CoefficientSet (computed on first use), and returns its files
# (name -> text chunks) and a verification failure message or None
# ---------------------------------------------------------------------------

def cmd_coeffs(cfg: dict, model, run_coeffs):
    if model.tier == "exact":
        coeffs = run_coeffs()
        gates = admissibility(coeffs, cfg.get("gate_mode", "practical"))
        payload = {"mode": "exact", "model": model.describe(),
                   "coefficients": coeffs.to_json_dict(),
                   "gates": gates.to_json_dict()}
    else:
        n = cfg["n"]
        m = _pick_m(cfg, n)
        sig = sigma_any(model, n)
        # shapes with their constants set to 1, not bounds: on the moving
        # average they sit below its dyadic twin's exact gamma and delta^2
        # (`certified_coefficient_bounds`)
        rb = certified_coefficient_bounds(model.decay, m, n, sig, model.bound)
        payload = {"mode": "certified_upper_bounds", "model": model.describe(),
                   "coefficients": {"n": n, "m": m, "sigma_n": sig,
                                    "eps_m": m * model.bound / (math.sqrt(n) * sig),
                                    "gamma_bound": rb.gamma_bound,
                                    "delta_sq_bound": rb.delta_sq_bound,
                                    "regime": rb.regime}}
    return {"coefficients.json": _json_file(_manifest(cfg), payload)}, None


def cmd_verify(cfg: dict, model, run_coeffs):
    if model.tier != "exact":
        raise ConfigError("verify needs an exact-tier model")
    _pick_m(cfg, cfg["n"])  # a bad block length is reported before a bad grid
    xs = _x_grid(cfg)
    gate_mode = cfg.get("gate_mode", "practical")
    c = _require_scale(cfg.get("constant", 1.0), "--constant")

    coeffs = run_coeffs()
    n = coeffs.n
    curve = ratio_curve(model, n, coeffs.m, xs, mode="exact", coeffs=coeffs, envelope_c=c,
                        gate_mode=gate_mode)
    table = distribution_of_Sn(model, n)
    pos = xs[xs > 0]
    exact_p = np.exp(np.asarray(exact_tail(table, pos)))
    bern = np.asarray(bernstein_bound(coeffs, pos))
    fgrid = np.linspace(0.25, FREEDMAN_XMAX, 16)
    fexact = np.exp([_binomial_log_tail(n, x * math.sqrt(n)) for x in fgrid])
    fbound = np.asarray(freedman_bound(fgrid, 1.0, 1.0 / math.sqrt(n)))
    sgrid = np.linspace(0.0, 8.0, SANDWICH_GRID)
    slo, shi = gaussian_tail_sandwich(sgrid)
    ssf = normal_sf(sgrid)
    # exact max-of-partial-sums tails of the model against the maximal inequality
    norms = conditional_sum_norms(model, PELIGRAD_N)
    prows = [(x, _max_abs_tail(model, PELIGRAD_N, x),
              float(peligrad_bound(x, PELIGRAD_N, model.bound, norms))) for x in PELIGRAD_XS]

    checked = chain(  # (check, x, bound, value, failed), in reporting order
        (("bernstein", x, b, e, e > b) for x, e, b in zip(pos, exact_p, bern)),
        (("freedman", x, b, e, e > b) for x, e, b in zip(fgrid, fexact, fbound)),
        (("peligrad", x, b, e, e > b) for x, e, b in prows),
        (("sandwich", x, lo, mid, not lo <= mid <= hi)
         for x, lo, mid, hi in zip(sgrid, slo, ssf, shi)))
    failure = next(((name, float(x), float(b), float(v)) for name, x, b, v, bad in checked
                    if bad), None)

    manifest = _manifest(cfg)
    qd = quadratic_characteristic_deviation(model, coeffs)
    files = {
        "ratio.csv": _text_file(manifest, curve.csv_chunks()),
        "bounds.csv": _text_file(manifest, _csv_chunks(
            "x,exact_tail,bernstein,envelope,envelope_valid",
            [pos, exact_p, bern, curve.envelope[xs > 0], curve.envelope_valid[xs > 0]])),
        "ks.json": _json_file(manifest, {
            "model": model.describe(),
            "n": coeffs.n, "m": coeffs.m,
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
        }),
    }
    if failure:
        return files, (f"{failure[0]} validity failed at x={failure[1]}: bound {failure[2]} "
                       f"< exact {failure[3]}")
    return files, None


def cmd_coupling(cfg: dict, model, run_coeffs):
    draws = cfg.get("chains", 10000)
    rep = coupling_report(model, run_coeffs(), draws, cfg["seed"],
                          alpha=cfg.get("alpha", 1.0), c_alpha=cfg.get("c_alpha", 1.0))
    table = distribution_of_Sn(model, cfg["n"])
    y, z = sample_coupled_pairs(build_quantile_transform(table), draws, cfg["seed"])
    manifest = _manifest(cfg)
    return {"coupling.json": _json_file(manifest, {"report": rep.to_json_dict()}),
            "pairs.csv": _text_file(manifest, _csv_chunks("z,y,gap", [z, y, np.abs(y - z)]))}, None


def cmd_mdp(cfg: dict, model, run_coeffs):
    if cfg.get("n_grid"):
        try:
            grid = [int(v) for v in cfg["n_grid"].split(",")]
        except ValueError:
            raise ConfigError(f"--n-grid must list integers, got {cfg['n_grid']!r}") from None
    else:
        grid = [cfg["n"], cfg["n"] * 4, cfg["n"] * 16]
    diag = mdp_diagnostic(model, cfg.get("c", 1.0), cfg.get("a_exp", 0.25), grid)
    return {"mdp.csv": _text_file(_manifest(cfg), diag.csv_chunks())}, None


def cmd_report(cfg: dict, model, run_coeffs):
    files, results = {}, {}
    for name, fn in (("coeffs", cmd_coeffs), ("verify", cmd_verify),
                     ("coupling", cmd_coupling), ("mdp", cmd_mdp)):
        step_files, failure = fn(cfg, model, run_coeffs)
        files.update(step_files)
        results[name] = f"assertion failed: {failure}" if failure else "ok"
    files["summary.json"] = _json_file(_manifest(cfg), {"results": results})
    if any(v != "ok" for v in results.values()):
        return files, json.dumps(results, sort_keys=True)
    return files, None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMON_FLAGS = (
    ("--model", dict(required=True,
                     help="builtin name[:k=v,...] or a model definition file")),
    ("--n", dict(type=int, required=True, help="horizon n")),
    ("--m", dict(type=int, help="block length")),
    ("--beta", dict(type=float, help="decay exponent; selects m when --m is absent")),
    ("--purpose", dict(choices=("cramer", "berry_esseen"),
                       help="block-size rule used with --beta")),
    ("--seed", dict(type=_seed, default=0)),
    ("--gate-mode", dict(choices=("strict", "practical"))),
    ("--out", dict(default=".")),
    ("--config", dict(help="JSON object of flags (key: flag name with _ for -); "
                           "its values win over the command line")),
    ("--threads", dict(type=int, default=1, help="accepted and ignored")),
)

# subcommand -> (run, help, its own flags); `report` takes every subcommand's
_COMMANDS = {
    "coeffs": (cmd_coeffs, "deviation coefficients and gate verdicts", ()),
    "verify": (cmd_verify, "ratio, Kolmogorov and bound validity bundle", (
        ("--x-min", dict(type=float)),
        ("--x-max", dict(type=float)),
        ("--x-count", dict(type=int)),
        ("--constant", dict(type=float, help="envelope shape constant")))),
    "coupling": (cmd_coupling, "quantile-coupling report and pairs dump", (
        ("--chains", dict(type=int, help="number of coupled draws")),
        ("--alpha", dict(type=float)),
        ("--c-alpha", dict(type=float)))),
    "mdp": (cmd_mdp, "moderate-deviation scaling diagnostic", (
        ("--c", dict(type=float, help="deviation level")),
        ("--a-exp", dict(type=float, help="speed exponent")),
        ("--n-grid", dict(help="comma-separated horizons")))),
    "report": (cmd_report, "run every subcommand into one directory", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlab", allow_abbrev=False,
        description="moderate-deviation laboratory for stationary bounded sequences")
    sub = parser.add_subparsers(dest="command", required=True)
    every = tuple(flag for _, _, own in _COMMANDS.values() for flag in own)
    for name, (_, help_text, own) in _COMMANDS.items():
        # abbreviations off: a misspelt flag or config key is an error, not a guess
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, kwargs in _COMMON_FLAGS + (every if name == "report" else own):
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            argv = list(sys.argv[1:] if argv is None else argv)
            args = parser.parse_args(argv + _config_argv(args.config))
        cfg = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
        model = _parse_model_arg(cfg["model"])
        run_coeffs = functools.cache(
            lambda: coefficient_set(model, cfg["n"], _pick_m(cfg, cfg["n"])))
        files, failure = _COMMANDS[args.command][0](cfg, model, run_coeffs)
        try:
            os.makedirs(cfg["out"], exist_ok=True)
        except OSError as exc:  # a file at --out or on its path
            raise ConfigError(f"cannot make the output directory {cfg['out']}: {exc}") from None
        for name, chunks in files.items():
            with open(os.path.join(cfg["out"], name), "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        if failure:
            raise VerificationError(failure)
        return 0
    except MdlabError as exc:
        print(f"mdlab: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
