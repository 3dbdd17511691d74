import ast
import errno
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

import mdlab
from mdlab import (build_finite_lattice_model, builtin, cli, coefficient_set, mdp_diagnostic,
                   select_block_size)
from mdlab.cli import X_POINT_BYTES, _max_abs_tail, main
from mdlab.errors import ParamOutOfRange, ReducibleChain
from mdlab.exact import sigma_any
from mdlab.models import DEFAULT_BUDGET_BYTES, HORIZON_MAX, MA_MAX_C, MA_MIN_C

import oracles


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# {")  # manifest header
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_coeffs_rademacher_golden(tmp_path):
    assert main(["coeffs", "--model", "rademacher", "--n", "400", "--m", "5",
                 "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "coefficients.json")
    c = doc["coefficients"]
    assert c["eps_m"] == pytest.approx(0.25, abs=1e-14)
    assert c["gamma_m"] == 0.0
    assert c["delta_m"] == 0.0
    assert doc["manifest"]["tool"].startswith("mdlab ")
    assert doc["gates"]["all_ok"] is True


def test_coeffs_reports_truncation_error(tmp_path):
    assert main(["coeffs", "--model", "two_state:rho=0.4", "--n", "120",
                 "--m", "6", "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "coefficients.json")
    assert doc["coefficients"]["gamma_m"] > 0
    assert doc["coefficients"]["gamma_truncation_error"] < 1e-10


def test_coeffs_block_size_from_beta(tmp_path):
    assert main(["coeffs", "--model", "two_state:rho=0.4", "--n", "1024",
                 "--beta", "2", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "coefficients.json")["coefficients"]["m"] == 7


def test_coeffs_sampled_model_gets_certified_bounds(tmp_path):
    assert main(["coeffs", "--model", "moving_average:c=1,L_trunc=12",
                 "--n", "256", "--m", "4", "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "coefficients.json")
    assert doc["mode"] == "certified_upper_bounds"
    assert doc["coefficients"]["gamma_bound"] >= 0
    assert doc["coefficients"]["delta_sq_bound"] >= 0


def test_missing_model_file_is_config_error(tmp_path, capsys):
    code = main(["coeffs", "--model", "/nowhere/else.model", "--n", "10",
                 "--m", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "/nowhere/else.model" in capsys.readouterr().err


def test_model_file_round_trip(tmp_path):
    model_file = tmp_path / "chain.model"
    model_file.write_text(
        "states = up down\ndenom = 1\nf_num = 1 -1\n"
        "transition = 0.9 0.1  0.3 0.7\n")
    assert main(["coeffs", "--model", str(model_file), "--n", "64", "--m", "4",
                 "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "coefficients.json")
    assert doc["model"]["name"] == "chain.model"
    assert doc["coefficients"]["sigma_n"] > 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["nosuchcommand"])
    assert err.value.code == 2


def test_unknown_model_is_config_error(tmp_path):
    assert main(["coeffs", "--model", "bogus_model", "--n", "16", "--m", "2",
                 "--out", str(tmp_path)]) == 2


def test_broken_chain_is_model_error(tmp_path, capsys):
    model_file = tmp_path / "flip.model"
    model_file.write_text(
        "states = a b\ndenom = 1\nf_num = 1 -1\ntransition = 0 1  1 0\n")
    code = main(["coeffs", "--model", str(model_file), "--n", "16", "--m", "2",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "period" in capsys.readouterr().err


def test_an_uncertifiable_drift_tail_is_a_model_error(tmp_path, capsys):
    # rho = 1 - 1e-7: ||P^{Jm} h|| still bounds the tail above GAMMA_TOL after every squaring
    out = tmp_path / "out"
    assert main(["coeffs", "--model", "two_state:rho=0.9999999", "--n", "1024", "--m", "1",
                 "--out", str(out)]) == 3
    assert "drift series tail cannot be certified" in capsys.readouterr().err
    assert not out.exists()


def test_too_few_draws_for_the_slope_fit_is_a_config_error(tmp_path, capsys):
    # 50 draws leave 4 upper-decile points, under the fit's 8
    out = tmp_path / "out"
    assert main(["report", "--model", "rademacher", "--n", "16", "--m", "2", "--chains", "50",
                 "--out", str(out)]) == 2
    assert "not enough distinct upper-decile gaps" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bundle_and_ratio_shape(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--model", "two_state:rho=0.4", "--n", "1024",
                 "--beta", "2", "--x-max", "2", "--x-count", "21",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "ratio.csv")
    assert header[:5] == ["x", "ratio", "lo", "hi", "envelope"]
    first, last = float(rows[0][1]), float(rows[-1][1])
    assert abs(first - 1.0) < abs(last - 1.0)
    ks = read_json(out / "ks.json")
    assert ks["checks"]["violation"] is None
    assert ks["ks_exact"] > 0
    assert ks["quad_char"]["exact"] <= ks["quad_char"]["bound"]
    header2, rows2 = read_csv(out / "bounds.csv")
    assert header2 == ["x", "exact_tail", "bernstein", "envelope", "envelope_valid"]
    for row in rows2:
        assert float(row[1]) <= float(row[2])


def test_verify_rademacher_ratio_value(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--model", "rademacher", "--n", "100", "--m", "5",
                 "--x-min", "0", "--x-max", "2", "--x-count", "3",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "ratio.csv")
    at_one = [r for r in rows if float(r[0]) == 1.0][0]
    assert float(at_one[1]) == pytest.approx(1.16, abs=0.005)


def test_verify_rejects_bad_constant(tmp_path):
    assert main(["verify", "--model", "rademacher", "--n", "64", "--m", "4",
                 "--constant", "-1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_constant(tmp_path, capsys, c):
    assert main(["verify", "--model", "rademacher", "--n", "64", "--m", "4",
                 f"--constant={c}", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("mdlab: error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("c", ["0", "-1", "nan", "inf", "-inf"])
def test_verify_refuses_the_constant_before_any_work(tmp_path, capsys, monkeypatch, c):
    # the library's scale check, run before the coefficient set is computed
    def reached(*args, **kwargs):
        raise AssertionError("coefficient_set ran before --constant was checked")

    monkeypatch.setattr(cli, "coefficient_set", reached)
    assert main(["verify", "--model", "two_state:rho=0.4", "--n", "64", "--m", "4",
                 f"--constant={c}", "--out", str(tmp_path / "out")]) == 2
    assert "--constant must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_byte_identical_across_threads(tmp_path):
    out1, out4 = tmp_path / "a", tmp_path / "b"
    for out, threads in ((out1, "1"), (out4, "4")):
        assert main(["verify", "--model", "two_state:rho=0.4", "--n", "256",
                     "--m", "5", "--seed", "11", "--threads", threads,
                     "--out", str(out)]) == 0
    for name in ("ratio.csv", "bounds.csv", "ks.json"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_verify_starts_no_thread(tmp_path, monkeypatch):
    # --threads is accepted and ignored: every check runs in the calling thread
    def refuse(self):
        raise AssertionError(f"verify started a thread: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["verify", "--model", "two_state:rho=0.4", "--n", "64", "--m", "4",
                 "--threads", "4", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.csv", "ks.json", "ratio.csv"]


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64}))
    assert main(["coeffs", "--model", "rademacher", "--n", "400", "--m", "4",
                 "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "coefficients.json")["coefficients"]["n"] == 64


def run_cli(argv):
    """main's exit code, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, doc, named", [
    ("verify", {"constant": "abc"}, "--constant"),
    ("verify", {"n": "12x"}, "--n"),
    ("verify", ["a"], "JSON object"),
    ("coeffs", {"model": 5}, "model"),
    ("verify", {"n": True}, "--n"),
    ("verify", {"x_count": 2.5}, "--x-count"),
    ("verify", {"constnat": 5}, "--constnat"),
    ("verify", {"const": 5}, "--const"),
    ("coeffs", {"gamma_tol": 1e-9}, "--gamma-tol"),
    ("coeffs", {"gate_mode": "loose"}, "--gate-mode"),
    ("coeffs", {"x_min": 1.0}, "--x-min"),
    ("coeffs", {"x-min": 1.0}, "x-min"),
], ids=["float-text", "int-text", "not-an-object", "model-number", "bool-int", "float-int",
        "misspelt", "abbreviated", "gamma-tol", "bad-choice", "other-command", "dash-key"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, doc, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli([command, "--model", "rademacher", "--n", "64", "--m", "4",
                    "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("count", [10 ** 11, DEFAULT_BUDGET_BYTES // X_POINT_BYTES + 1])
def test_x_count_past_the_budget_exits_2_before_allocating(tmp_path, capsys, command, count):
    # the smallest refused grid alone would take 85 MiB; the run stays far below
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run_cli([command, "--model", "rademacher", "--n", "64", "--m", "4",
                        "--x-count", str(count), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 4 << 20
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"x-count {count}" in err
    assert not out.exists()


def test_x_point_price_covers_a_traced_verify_run(tmp_path):
    # verify at 10^5 x points traces about 90 bytes a point, its arrays and
    # ratio.csv (streamed a block at a time) included; X_POINT_BYTES must cover it
    count = 10 ** 5
    tracemalloc.start()
    try:
        code = run_cli(["verify", "--model", "rademacher", "--n", "64", "--m", "4",
                        "--x-count", str(count), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak <= count * X_POINT_BYTES


@pytest.mark.parametrize("model, n", [("dyadic_contracting:L=6", 4096), ("two_state:rho=0.4", 200000)])
def test_verify_past_the_dp_work_cap_exits_2(model, n, tmp_path, capsys):
    # the DP tables fit in memory, but dyadic L=6 at n = 4096 (2.2e12 cell
    # updates) is estimated at about 160 s, and two_state at n = 200000 (8e10,
    # where each column's elementwise work costs more than its product) at 70 s
    out = tmp_path / "out"
    assert run_cli(["verify", "--model", model, "--n", str(n), "--m", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "past the cap of 60 s" in err
    assert not out.exists()


def test_coupling_draws_past_the_budget_exit_2_before_allocating(tmp_path, capsys):
    # the pairs alone would take 1.6 TB; the run stays far below
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run_cli(["coupling", "--model", "rademacher", "--n", "16", "--m", "2",
                        "--chains", "100000000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 4 << 20
    err = capsys.readouterr().err
    assert "Traceback" not in err and "100000000000 chains" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["coupling", "report"])
def test_seed_must_be_non_negative(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run_cli([command, "--model", "rademacher", "--n", "64", "--m", "4",
                    "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["--model", "rademacher", "--n", "64", "--m", "4", "--constant=nan"], 2),
    (["--model", "moving_average:c=1,L_trunc=12", "--n", "64", "--m", "4"], 3),
], ids=["argv0", "argv1"])
def test_report_writes_nothing_when_a_step_rejects_its_input(tmp_path, capsys, argv, code):
    out = tmp_path / "rep"
    assert run_cli(["report", *argv, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("mdlab: error:")
    assert not out.exists()


REPORT_SMALL = ["report", "--model", "rademacher", "--n", "64", "--m", "4",
                "--chains", "1000", "--x-count", "5", "--n-grid", "64"]


def test_report_takes_coupling_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0}))
    assert run_cli([*REPORT_SMALL, "--alpha", "2", "--out", str(tmp_path / "a")]) == 0
    assert run_cli([*REPORT_SMALL, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    coupling = [(tmp_path / d / "coupling.json").read_bytes() for d in "ab"]
    assert coupling[0] == coupling[1]
    assert read_json(tmp_path / "a" / "coupling.json")["report"]["alpha"] == 2.0


def test_config_file_run_matches_flag_run(tmp_path):
    # every flag of report, given once on the command line and once in a file
    values = {"model": "two_state:rho=0.4", "n": 64, "m": 4, "beta": 2.0,
              "purpose": "berry_esseen", "seed": 3, "gate_mode": "strict", "threads": 2,
              "x_min": 0.5, "x_max": 2.0, "x_count": 7, "constant": 1.5,
              "chains": 1000, "alpha": 1.5, "c_alpha": 0.5,
              "c": 0.5, "a_exp": 0.2, "n_grid": "64,128"}
    flags = [f"--{key.replace('_', '-')}={val}" for key, val in values.items()]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(values, out=str(tmp_path / "b"), threads=None)))
    assert run_cli(["report", *flags, "--out", str(tmp_path / "a")]) == 0
    # the file wins over the command line; its null leaves the flag alone
    assert run_cli(["report", "--model", "rademacher", "--n", "8", "--threads", "2",
                    "--config", str(cfg)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert len(names) == 8
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_mdp_subcommand(tmp_path):
    assert main(["mdp", "--model", "rademacher", "--n", "100", "--c", "1",
                 "--a-exp", "0.25", "--n-grid", "1000000",
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "mdp.csv")
    assert header == ["n", "scaled_log_tail", "limit"]
    assert abs(float(rows[0][1]) + 0.5) <= 0.05


@pytest.mark.parametrize("c", ["inf", "nan"])
def test_mdp_rejects_non_finite_level(tmp_path, capsys, c):
    assert main(["mdp", "--model", "rademacher", "--n", "10", "--c", c,
                 "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "-4", "8,x", "8,0"])
@pytest.mark.parametrize("model", ["rademacher", "two_state:rho=0.4"])
def test_mdp_rejects_bad_grid_entries(tmp_path, capsys, model, grid):
    assert main(["mdp", "--model", model, "--n", "10", "--n-grid", grid,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("mdlab: error:")
    assert not (tmp_path / "mdp.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--model", "rademacher", "--n", "1000000000000000000"],  # the default grid reaches 16n
    ["--model", "two_state:rho=0.4", "--n", "64", "--n-grid", "9223372036854775808"],
])
def test_mdp_grids_past_int64_are_priced_not_overflowed(tmp_path, capsys, argv):
    # the grid became an int64 array before it was priced: OverflowError, exit 1
    out = tmp_path / "out"
    assert main(["mdp", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdlab: error:") and "over the budget" in err and "Traceback" not in err
    assert not out.exists()


# two_state:rho=0.4 written as the 0/1 chain in units of 2^-50: n steps sum to n 2^50 at most
UNIT_2_50 = ("states = a b\ndenom = 1125899906842624\nf_num = 0 1125899906842624\n"
             "transition = 0.7 0.3  0.3 0.7\n")
INT64_EDGES = {"2^50 at n = 8192": (UNIT_2_50, "8192", "pass the int64 range"),
               "2^50 at n = 16384": (UNIT_2_50, "16384", "pass the int64 range"),
               "+-2^62": (UNIT_2_50.replace("0 1125899906842624\n",
                                            "-4611686018427387904 4611686018427387904\n"),
                          "4", "spread max - min"),
               "2^63": (UNIT_2_50.replace("0 1125899906842624\n", "0 9223372036854775808\n"),
                        "4", "f_num entries must lie in")}


@pytest.mark.parametrize("case", INT64_EDGES)
def test_lattice_sums_past_int64_exit_2_and_write_nothing(tmp_path, capsys, case):
    # int64 sums wrapped: at n = 16384 ks_exact read 1.0 (the unit chain's is 0.00204),
    # and f_num = +-2^62 or 2^63 raised OverflowError (exit 1)
    body, n, named = INT64_EDGES[case]
    model, out = tmp_path / "edge.model", tmp_path / "out"
    model.write_text(body)
    assert main(["verify", "--model", str(model), "--n", n, "--m", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdlab: error:") and named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["afile", "afile/sub"], ids=["on a file", "under a file"])
def test_out_on_or_under_a_file_exits_2_and_writes_nothing(tmp_path, capsys, where):
    # os.makedirs raised FileExistsError or NotADirectoryError (exit 1)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    assert main(["coeffs", "--model", "rademacher", "--n", "16", "--m", "2",
                 "--out", str(tmp_path / where)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdlab: error: cannot make the output directory") and "Traceback" not in err
    assert afile.read_text() == "kept" and [p.name for p in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("name", ["ratio.csv", "ks.json"])
def test_a_directory_at_an_output_name_exits_2_and_writes_nothing(tmp_path, capsys, name):
    # verify wrote the files before it and then raised IsADirectoryError (exit 1)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["verify", "--model", "rademacher", "--n", "16", "--m", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mdlab: error: cannot write {out / name}") and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [name] and not any((out / name).iterdir())


def test_a_failed_write_exits_2(tmp_path, capsys, monkeypatch):
    def full_disk(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device", path)
    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    assert main(["coeffs", "--model", "rademacher", "--n", "16", "--m", "2",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdlab: error: cannot write") and "No space left" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kept", [{}, {"ratio.csv": "an earlier run's\n"}], ids=["empty", "rerun"])
def test_a_failed_write_leaves_no_file_of_the_run(tmp_path, capsys, monkeypatch, kept):
    # verify wrote ratio.csv, then failed on bounds.csv and left ratio.csv in --out
    out, opened = tmp_path / "out", []
    out.mkdir()
    for name, text in kept.items():
        (out / name).write_text(text)

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.name = fh, fh.name

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            self.fh.write(next(iter(chunks)))
            raise OSError(errno.ENOSPC, "No space left on device", self.name)

    def second_fails(path, *args, **kwargs):
        opened.append(fh := open(path, *args, **kwargs))
        return FullDisk(fh) if len(opened) == 2 else fh
    monkeypatch.setattr(cli, "open", second_fails, raising=False)
    assert main(["verify", "--model", "rademacher", "--n", "16", "--m", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mdlab: error: cannot write {out / 'bounds.csv'}: ")
    assert "No space left" in err and "Traceback" not in err
    assert len(opened) == 2
    assert {p.name: p.read_text() for p in out.iterdir()} == kept


@pytest.mark.parametrize("command", ["verify", "coupling", "mdp", "report"])
def test_a_sampled_model_exits_3_where_an_exact_one_is_needed(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--model", "moving_average:c=1,L_trunc=3", "--n", "16", "--m", "2"]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "mdlab: error: 'moving_average(c=1.0, L_trunc=3)' is not an exact-tier model\n"
    assert not out.exists()
    if command in ("verify", "report"):  # a bad flag is still reported first
        assert main(argv + ["--x-count", "0", "--out", str(out)]) == 2
        assert "x grid needs" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("which", ["config", "model"])
def test_a_file_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys, which):
    # reading it raised UnicodeDecodeError (exit 1)
    bad = tmp_path / f"bad.{'json' if which == 'config' else 'model'}"
    bad.write_bytes(b'{"n": 16}\xff' if which == "config" else
                    b"states = a b\xff\ndenom = 1\nf_num = 0 1\ntransition = 0.5 0.5 0.5 0.5\n")
    out = tmp_path / "out"
    argv = ["coeffs", "--model", "rademacher", "--n", "16", "--m", "2", "--out", str(out)]
    argv += ["--config", str(bad)] if which == "config" else ["--model", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mdlab: error: cannot read {which} file") and "utf-8" in err
    assert not out.exists()


def test_coupling_subcommand(tmp_path):
    assert main(["coupling", "--model", "two_state:rho=0.4", "--n", "256",
                 "--m", "5", "--chains", "5000", "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "coupling.json")
    assert doc["report"]["lambda_hat"] < 0
    header, rows = read_csv(tmp_path / "pairs.csv")
    assert header == ["z", "y", "gap"]
    assert len(rows) == 5000
    z, y, gap = (float(v) for v in rows[0])
    assert gap == pytest.approx(abs(y - z), abs=1e-12)


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                         ("--c-alpha", "nan"), ("--c-alpha", "inf")])
def test_coupling_rejects_non_finite_parameters(tmp_path, capsys, flag, value):
    assert main(["coupling", "--model", "two_state:rho=0.4", "--n", "64", "--m", "4",
                 "--chains", "1000", flag, value, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("mdlab: error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["dyadic_contracting:L=2.5", "dyadic_contracting:L=inf",
                                  "moving_average:c=1,L_trunc=20.7",
                                  "moving_average:c=1,L_trunc=nan"])
def test_integer_model_parameters_are_not_truncated(tmp_path, capsys, spec):
    assert main(["coeffs", "--model", spec, "--n", "64", "--m", "4",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdlab: error:") and "must be an integer" in err
    assert list(tmp_path.iterdir()) == []


def test_report_subcommand(tmp_path):
    out = tmp_path / "rep"
    assert main(["report", "--model", "rademacher", "--n", "128", "--m", "4",
                 "--chains", "2000", "--x-max", "2", "--x-count", "9",
                 "--n-grid", "10000", "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert all(v == "ok" for v in summary["results"].values())
    for name in ("coefficients.json", "ratio.csv", "bounds.csv", "ks.json",
                 "coupling.json", "pairs.csv", "mdp.csv", "summary.json"):
        assert (out / name).exists()


def test_manifest_headers_share_config_hash(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--model", "rademacher", "--n", "64", "--m", "4",
                 "--out", str(out)]) == 0
    hashes = set()
    for name in ("ratio.csv", "bounds.csv"):
        first = (out / name).read_text().splitlines()[0]
        hashes.add(json.loads(first[2:])["config_hash"])
    assert len(hashes) == 1


@pytest.mark.parametrize("body, code", [
    ("states =\ndenom = 1\nf_num =\ntransition =\n", 2),
    ("states = a b\ndenom = 1\nf_num = 1 -1\ntransition = nan nan 0.5 0.5\n", 3),
    ("states = a b\ndenom 1\nf_num = 1 -1\ntransition = 0.5 0.5 0.5 0.5\n", 2),
    ("states = a b\nscale = 1\ndenom = 1\nf_num = 1 -1\ntransition = 0.5 0.5 0.5 0.5\n", 2),
    ("states = a b\ndenom = one\nf_num = 1 -1\ntransition = 0.5 0.5 0.5 0.5\n", 2),
    ("states = a b\ndenom = 1\nf_num = 1 -1 0\ntransition = 0.5 0.5 0.5 0.5\n", 2),
    ("states = a b\ndenom = 0\nf_num = 1 -1\ntransition = 0.5 0.5 0.5 0.5\n", 2),
    ("states = a b\ndenom = 1\nf_num = 1 -1\ntransition = 1.5 -0.5 0.5 0.5\n", 3),
])
def test_malformed_model_file_exit_code(tmp_path, capsys, body, code):
    model_file = tmp_path / "bad.model"
    model_file.write_text(body)
    assert main(["coeffs", "--model", str(model_file), "--n", "16", "--m", "2",
                 "--out", str(tmp_path)]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["coeffs", "--model", "two_state:rho", "--m", "4"], "bad model parameter 'rho'"),
    (["coeffs", "--model", "two_state:rho=high", "--m", "4"], "'rho' must be numeric"),
    (["coeffs", "--model", "two_state:rho=0.4,tilt=1", "--m", "4"], "unexpected parameters"),
    (["coeffs", "--model", "rademacher", "--m", "4", "--config", "/nowhere/cfg.json"],
     "config file not found"),
    (["coeffs", "--model", "rademacher", "--m", "4", "--config", "BROKEN"], "not valid JSON"),
    (["coeffs", "--model", "moving_average:c=1,L_trunc=3", "--m", "65"], "need 1 <= m <= n"),
    (["coeffs", "--model", "moving_average:c=1,L_trunc=3"], "one of --m or --beta"),
    (["verify", "--model", "rademacher", "--m", "4", "--x-min", "2", "--x-max", "1"],
     "x grid needs 0 <= x-min <= x-max"),
], ids=["param-without-value", "param-not-numeric", "unexpected-param", "config-missing",
        "config-not-json", "m-past-n", "no-block-length", "x-grid-reversed"])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, named):
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 64')
    out = tmp_path / "out"
    argv = [str(broken) if word == "BROKEN" else word for word in argv]
    assert run_cli(argv + ["--n", "64", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdlab: error:") and named in err
    assert not out.exists()


def test_report_with_a_failing_check_exits_4_and_records_it(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "peligrad_bound", lambda *args: 0.0)
    out = tmp_path / "rep"
    assert main(REPORT_SMALL + ["--out", str(out)]) == 4
    results = read_json(out / "summary.json")["results"]
    assert results["verify"].startswith("assertion failed: peligrad validity failed at x=4.0")
    assert {k: v for k, v in results.items() if k != "verify"} == {
        "coeffs": "ok", "coupling": "ok", "mdp": "ok"}


# two_state:rho=0.4 with its payoff in units of 10^-8, on the builtin's own transition bits
TWO_STATE_1E_8 = ("states = -1 +1\ndenom = 100000000\nf_num = -1 1\n"
                  "transition = 0.7 0.30000000000000004  0.30000000000000004 0.7\n")


def _cells_close(a: str, b: str) -> bool:
    return a == b or float(a) == pytest.approx(float(b), rel=1e-12)


def test_a_chain_in_units_of_1e_8_runs_like_the_unit_chain(tmp_path):
    # its sigma_n^2 of 2.3e-16 once failed an absolute variance floor (exit 3); the
    # rule reads sigma^2 against Var(X_0), and every output scaled by sigma_n is the same
    model_file = tmp_path / "tiny.model"
    model_file.write_text(TWO_STATE_1E_8)
    for name, spec, c in (("tiny", str(model_file), "1e-8"), ("unit", "two_state:rho=0.4", "1")):
        for cmd, *flags in (["coeffs"], ["verify"], ["mdp", "--c", c]):
            assert main([cmd, "--model", spec, "--n", "1024", "--m", "8", *flags,
                         "--out", str(tmp_path / name)]) == 0
    for csv in ("ratio.csv", "bounds.csv", "mdp.csv"):
        (_, tiny), (_, unit) = (read_csv(tmp_path / w / csv) for w in ("tiny", "unit"))
        assert len(tiny) == len(unit) > 0
        assert all(_cells_close(a, b) for r, q in zip(tiny, unit) for a, b in zip(r, q))
    tiny, unit = (read_json(tmp_path / w / "ks.json") for w in ("tiny", "unit"))
    assert tiny["ks_exact"] == pytest.approx(unit["ks_exact"], rel=1e-12)
    for key in ("gamma_m", "delta_sq", "eps_m"):
        assert tiny["coefficients"][key] == pytest.approx(unit["coefficients"][key], rel=1e-12)
    assert tiny["coefficients"]["sigma_n"] == pytest.approx(
        1e-8 * unit["coefficients"]["sigma_n"], rel=1e-12)


@pytest.mark.parametrize("n", [1024, 10 ** 12])
@pytest.mark.parametrize("L", [3, 1074])
@pytest.mark.parametrize("c", [repr(MA_MIN_C), "1e-150", "1e-8", "0.7", "1e150", repr(MA_MAX_C)])
def test_moving_average_coefficients_do_not_depend_on_c(tmp_path, c, n, L):
    # sigma_n and the certified sums run in units of a power of two by the largest weight
    # and by sigma_n: c = 9e153 once raised OverflowError (exit 1) and c past 7e147 exited
    # 2 at n = 10^12; the least c keeps eta2's head normal, so no term underflows away
    docs = {}
    for v in (c, "1"):
        assert main(["coeffs", "--model", f"moving_average:c={v},L_trunc={L}", "--n", str(n),
                     "--m", "16", "--out", str(tmp_path / v)]) == 0
        docs[v] = read_json(tmp_path / v / "coefficients.json")["coefficients"]
    assert all(math.isfinite(v) for v in docs[c].values() if not isinstance(v, str))
    for key in ("eps_m", "gamma_bound", "delta_sq_bound"):
        assert docs[c][key] == pytest.approx(docs["1"][key], rel=1e-12)
    assert docs[c]["sigma_n"] == pytest.approx(float(c) * docs["1"]["sigma_n"], rel=1e-12)


FLOAT_RANGE_MODELS = {
    "rademacher": lambda: builtin("rademacher"),
    "moving_average:c=1,L_trunc=3": lambda: builtin("moving_average", c=1.0, L_trunc=3),
}


@pytest.mark.parametrize("spec", FLOAT_RANGE_MODELS)
def test_a_horizon_past_the_float_range_exits_2_and_writes_nothing(tmp_path, capsys, spec):
    # float(n) overflowed in sigma_n or sigma_any (OverflowError, exit 1).  The ceiling
    # is the largest n a float holds, so no n that ran before is refused: at it the
    # i.i.d. signs still run, and so does the moving average, whose n sigma_n^2 is
    # summed in power-of-two units of n (it was inf from n of about 5e307)
    model, refused = FLOAT_RANGE_MODELS[spec](), "n must be at most 1.798e+308"
    calls = [lambda n: sigma_any(model, n), lambda n: select_block_size(n, 2.0, "cramer")]
    if model.tier == "exact":
        calls += [lambda n: coefficient_set(model, n, 4),
                  lambda n: mdp_diagnostic(model, 1.0, 0.25, [n])]
    for call in calls:
        with pytest.raises(ParamOutOfRange, match=re.escape(refused)):
            call(HORIZON_MAX + 1)
    for n in (10 ** 308, HORIZON_MAX):
        assert sigma_any(model, n) == (1.0 if model.tier == "exact" else 1.875)
    for args in (["--m", "4"], ["--beta", "2"]):
        out = tmp_path / args[0].strip("-")
        assert main(["coeffs", "--model", spec, "--n", str(10 ** 400), *args,
                     "--out", str(out)]) == 2
        assert refused in capsys.readouterr().err
        assert not out.exists()


def _signed_constant(node):
    """The value of a literal such as 2 or -1.5 (a minus sign is an ast.UnaryOp), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _signed_constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) else None


def test_no_float_is_squared_by_pow():
    # CPython's float ** 2 calls libm's pow, and numpy's array ** 3 and ** -1.5 its own
    # pow loop; neither is correctly rounded on every build, while x * x, x * x * x and
    # 1 / (x sqrt(x)) are plain IEEE arithmetic, so no output bit depends on a pow loop
    found = []
    for path in sorted(Path(mdlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp):
                op, exponent = node.op, node.right
            elif isinstance(node, ast.AugAssign):
                op, exponent = node.op, node.value
            else:
                continue
            if isinstance(op, ast.Pow) and _signed_constant(exponent) in (2, 3, -1.5):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verify_reports_the_first_violation_in_check_order(tmp_path, monkeypatch):
    # bounds forced to zero: the maximal inequality fails alone, and the
    # Bernstein check, which comes first, is reported when both fail
    argv = ["verify", "--model", "rademacher", "--n", "64", "--m", "4", "--x-count", "5"]
    monkeypatch.setattr(cli, "peligrad_bound", lambda *args: 0.0)
    assert main(argv + ["--out", str(tmp_path / "a")]) == 4
    violation = read_json(tmp_path / "a" / "ks.json")["checks"]["violation"]
    assert violation[:3] == ["peligrad", 4.0, 0.0] and violation[3] > 0
    monkeypatch.setattr(cli, "bernstein_bound", lambda coeffs, xs: np.zeros_like(xs))
    assert main(argv + ["--out", str(tmp_path / "b")]) == 4
    violation = read_json(tmp_path / "b" / "ks.json")["checks"]["violation"]
    assert violation[:3] == ["bernstein", 0.75, 0.0] and violation[3] > 0


def test_verify_evaluates_the_envelope_once(tmp_path, monkeypatch):
    # bounds.csv takes its envelope columns off the ratio curve, at x > 0
    from mdlab import bounds, coefficient_set, montecarlo
    calls = []
    for module in (montecarlo, cli):
        monkeypatch.setattr(module, "envelope_curve",
                            lambda *a: calls.append(a) or bounds.envelope_curve(*a), raising=False)
    assert main(["verify", "--model", "two_state:rho=0.4", "--n", "512", "--m", "8",
                 "--constant", "0.37", "--x-count", "11", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    coeffs = coefficient_set(builtin("two_state", rho=0.4), 512, 8)
    value, valid = bounds.envelope_curve(coeffs, np.linspace(0.0, 3.0, 11)[1:], 0.37, "practical")
    _, rows = read_csv(tmp_path / "bounds.csv")
    assert [r[3] for r in rows] == [f"{v:.17g}" for v in value]
    assert [r[4] for r in rows] == [str(int(v)) for v in valid]


def _count_calls(monkeypatch, fn):
    """Wrap fn, in every mdlab module that holds it, in a call recorder."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "mdlab" or name.startswith("mdlab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("command, flags", [
    ("coeffs", []), ("verify", []), ("coupling", ["--chains", "2000"]),
    ("report", ["--chains", "2000", "--n-grid", "128,512"])])
def test_a_run_builds_its_model_and_coefficient_set_once(tmp_path, monkeypatch, command, flags):
    from mdlab import coefficients, models
    sets = _count_calls(monkeypatch, coefficients.coefficient_set)
    builds = _count_calls(monkeypatch, models.build_finite_lattice_model)
    assert main([command, "--model", "two_state:rho=0.4", "--n", "128", "--m", "4", *flags,
                 "--out", str(tmp_path)]) == 0
    assert (len(sets), len(builds)) == (1, 1)


@pytest.mark.parametrize("command, flags", [
    ("verify", []), ("coupling", ["--chains", "2000"]), ("report", ["--chains", "2000"])])
def test_a_run_builds_its_law_of_s_n_once(tmp_path, monkeypatch, command, flags):
    # verify's ratio curve and tails, and coupling's report and pairs, share one
    # table; mdp's grid pass in report is its own
    from mdlab import exact
    passes = _count_calls(monkeypatch, exact._sum_law_tables)
    assert main([command, "--model", "two_state:rho=0.4", "--n", "512", "--m", "6", *flags,
                 "--out", str(tmp_path)]) == 0
    assert [ns for _, ns in passes].count([512]) == 1


def _without_manifest(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        del doc["manifest"]
        return doc
    assert text.startswith("# {")
    return text.partition("\n")[2]


def test_report_writes_what_the_standalone_commands_write(tmp_path):
    common = ["--model", "two_state:rho=0.4", "--n", "128", "--m", "4", "--seed", "3"]
    own = {"coeffs": [], "verify": ["--x-count", "7"], "coupling": ["--chains", "2000"],
           "mdp": ["--n-grid", "128,512"]}
    report = tmp_path / "report"
    assert main(["report", *common, *chain(*own.values()), "--out", str(report)]) == 0
    written = {"summary.json"}
    for command, flags in own.items():
        out = tmp_path / command
        assert main([command, *common, *flags, "--out", str(out)]) == 0
        for path in out.iterdir():
            written.add(path.name)
            assert _without_manifest(path) == _without_manifest(report / path.name), path.name
    assert written == {path.name for path in report.iterdir()}


@pytest.mark.parametrize("L", [40, 1000, 10 ** 20])  # 2^(10^20) once overflowed (exit 1)
def test_oversized_builtin_chain_exits_2_and_writes_nothing(tmp_path, capsys, L):
    out = tmp_path / "out"
    assert run_cli(["coeffs", "--model", f"dyadic_contracting:L={L}", "--n", "8", "--m", "2",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"dyadic_contracting(L={L}) needs" in err
    assert not out.exists()


@pytest.mark.parametrize("L", ["1075", "100000", "1e12"])
def test_oversized_moving_average_exits_2_and_writes_nothing(tmp_path, capsys, L):
    out = tmp_path / "out"
    assert run_cli(["coeffs", "--model", f"moving_average:c=1,L_trunc={L}", "--n", "1000000",
                    "--m", "52", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "L_trunc must lie in [1, 1074]" in err
    assert not out.exists()


def test_verify_checks_maximal_inequality_on_the_model_itself(tmp_path):
    # a 64-state chain is checked on its own paths, not on a stand-in
    assert main(["verify", "--model", "dyadic_contracting:L=6", "--n", "16",
                 "--m", "2", "--out", str(tmp_path)]) == 0
    checks = read_json(tmp_path / "ks.json")["checks"]
    assert checks["peligrad_reference"] == {"model": "dyadic_contracting(L=6)", "n": 12}
    assert checks["violation"] is None


def test_verify_checks_only_what_reads_the_model(tmp_path):
    # the Rademacher-Freedman and Gaussian-sandwich rows read no model: they run in
    # test_bounds and the acceptance suite, not in verify
    assert main(["verify", "--model", "two_state:rho=0.4", "--n", "256", "--m", "4",
                 "--out", str(tmp_path)]) == 0
    checks = read_json(tmp_path / "ks.json")["checks"]
    assert set(checks) == {"bernstein_points", "peligrad_reference", "violation"}


@pytest.mark.parametrize("name, params, n, xs", [
    # atoms that the centred sums reach exactly: the tail is inclusive there
    ("rademacher", {}, 12, [1.0, 2.0, 4.0, 8.0, 12.0, 12.5]),
    ("two_state", {"rho": 0.4}, 10, [1.0, 3.0, 4.0, 10.0]),
    ("dyadic_contracting", {"L": 2}, 8, [0.375, 0.75, 1.0, 1.125, 3.375]),
])
def test_max_abs_tail_at_atoms(name, params, n, xs):
    model = builtin(name, **params)
    for x in xs:
        expected = oracles.enum_max_abs_tail(model, n, x)
        assert _max_abs_tail(model, n, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


@st.composite
def lattice_chains(draw):
    s = draw(st.integers(2, 3))
    weights = [[draw(st.integers(1 if i == j else 0, 9)) for j in range(s)]
               for i in range(s)]
    # the first numerator is negative, the rest free
    f_num = [draw(st.integers(-4, -1))] + [draw(st.integers(-4, 4)) for _ in range(s - 1)]
    denom = draw(st.integers(1, 4))
    assume(len(set(f_num)) > 1)
    try:
        model = build_finite_lattice_model(
            [str(i) for i in range(s)], [[w / sum(row) for w in row] for row in weights],
            f_num, denom)
    except ReducibleChain:
        assume(False)
    assume(model.mean_fraction != 0)
    return model


@given(lattice_chains(), st.integers(1, 8),
       st.lists(st.floats(0.05, 6.0), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_max_abs_tail_matches_enumeration(model, n, xs):
    # thresholds that tie with a reachable |S_i| are decided by rounding
    # (in the DP and the oracle alike) when the mean is not a float; the
    # inclusive tie itself is pinned by test_max_abs_tail_at_atoms
    lo, hi = min(0, n * int(model.f_num.min())), max(0, n * int(model.f_num.max()))
    reached = {abs(Fraction(k, model.denom) - i * model.mean_fraction)
               for i in range(1, n + 1) for k in range(lo, hi + 1)}
    xs = [x for x in xs if min(abs(Fraction(x) - v) for v in reached) > 1e-9]
    assume(xs)
    for x in xs:
        expected = oracles.enum_max_abs_tail(model, n, x)
        assert _max_abs_tail(model, n, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def reached_peaks(model, n: int) -> list[Fraction]:
    """Every |S_i - i mu|, i = 1..n, that a path of positive probability reaches."""
    return sorted({abs(Fraction(int(k), model.denom) - i * model.mean_fraction)
                   for i in range(1, n + 1) for k in oracles.enum_distribution(model, i)[0]})


def test_max_abs_tail_at_every_tie_of_a_non_dyadic_mean(mean_13_12):
    # |S_i| >= x is decided on the lattice, so a tie with a reachable |S_i| is
    # inclusive whatever the float rounding of i mu (x = 4/3: 0.9628; a float
    # test of |S_i - i mu| >= x misses ties and reads 0.9452)
    model, n = mean_13_12, 6
    assert model.mean_fraction == Fraction(13, 12)
    xs = [float(v) for v in reached_peaks(model, n)]
    for x, expected in zip(xs, oracles.fraction_max_abs_tail(model, n, xs)):
        assert _max_abs_tail(model, n, x) == pytest.approx(float(expected), rel=1e-12, abs=0.0)


@given(lattice_chains(), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_max_abs_tail_at_ties_on_lattice_chains(model, n):
    # every reachable |S_i - i mu| as the threshold, on chains whose mean is not a binary fraction
    den = model.mean_fraction.denominator
    assume(den & (den - 1))
    xs = [float(v) for v in reached_peaks(model, n)]
    for x, expected in zip(xs, oracles.fraction_max_abs_tail(model, n, xs)):
        assert _max_abs_tail(model, n, x) == pytest.approx(float(expected), rel=1e-12, abs=0.0)


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter: the test session itself has scipy loaded as a reference.  That
    # no subcommand imports scipy later, deferred into a function body, is CI's
    # "No scipy at run time" step
    src = str(Path(mdlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import sys, mdlab.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]"], run.stdout
