"""The chunked CSV writer against the per-row f-string writers it replaced:
every file body must be byte-identical."""

import tracemalloc

import numpy as np
import pytest

from mdlab import (builtin, cli, coefficient_set, distribution_of_Sn, exact, mdp_diagnostic,
                   ratio_curve)
from mdlab.bounds import BoundCurve
from mdlab.coupling import build_quantile_transform, sample_coupled_pairs
from mdlab.exact import CSV_CHUNK, TailTable
from mdlab.montecarlo import MdpDiagnostic, RatioCurve, TailEstimate

import oracles

EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e17 + 8,
                  2.0 ** 53 + 2, 0.1, 1 / 3, -2.5e-308, 1.7976931348623157e308, 123456789.0])
ROWS = [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1]


def _floats(rows, seed):
    """rows floats: the edge values first, then draws spanning many decades."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    out[:min(rows, EDGES.size)] = EDGES[:rows]
    return out


def _ints(rows, seed):
    out = np.random.default_rng(seed).integers(-2 ** 62, 2 ** 62, rows)
    out[:min(rows, 4)] = [2 ** 53 + 1, -(2 ** 53 + 1), 0, 2 ** 63 - 1][:rows]
    return out


def _bools(rows, seed):
    return np.random.default_rng(seed).random(rows) < 0.5


def _csv(header, columns):
    return "".join(exact._csv_chunks(header, columns))


def assert_same(got, want):
    """Byte equality, failing with the first differing line: pytest's own diff
    of two 4097-row strings runs for minutes."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((k for k, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i:i + 1]} != {w[i:i + 1]} ({len(g)} vs {len(w)} lines)")


# a table's, a curve's and a tail list's columns: int + float, float + bool, four floats

@pytest.mark.parametrize("rows", ROWS)
def test_tail_table_csv_is_byte_identical(rows):
    table = TailTable(n=3, denom=1, offsets=_ints(rows, 1), logp=_floats(rows, 2), sigma_n=1.0)
    assert_same(_csv("sum,logp", [table.offsets, table.logp]), oracles.tail_table_csv(table))


@pytest.mark.parametrize("rows", ROWS)
def test_bound_curve_csv_is_byte_identical(rows):
    curve = BoundCurve(kind="k", x_grid=_floats(rows, 3), value=_floats(rows, 4)[::-1],
                       valid=_bools(rows, 5), gate_mode="practical")
    assert_same(_csv("x,value,valid", [curve.x_grid, curve.value, curve.valid]),
                oracles.bound_curve_csv(curve))


@pytest.mark.parametrize("rows", ROWS)
def test_tails_csv_is_byte_identical(rows):
    x, p, lo, hi = (_floats(rows, s) for s in (6, 7, 8, 9))
    estimates = [TailEstimate(x=float(a), estimate=float(b), lo=float(c), hi=float(d),
                              chains=10, seed=0) for a, b, c, d in zip(x, p, lo, hi)]
    assert_same(_csv("x,p,lo,hi", [x, p, lo, hi]), oracles.tails_csv(estimates))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("mc", [False, True])
def test_ratio_curve_csv_is_byte_identical(rows, mc):
    cols = [_floats(rows, s) for s in range(10, 17)]
    bands = dict(right_lo=cols[3], right_hi=cols[4], left_lo=cols[5], left_hi=cols[6])
    curve = RatioCurve(x_grid=cols[0], right=cols[1], left=cols[2], source="mc" if mc else "exact",
                       envelope=None if mc else cols[3][::-1], **(bands if mc else {}))
    assert_same("".join(curve.csv_chunks()), oracles.ratio_curve_csv(curve))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("limit", [-0.0, -3 / 14, np.nan])
def test_mdp_csv_is_byte_identical(rows, limit):
    diag = MdpDiagnostic(c=1.0, a_exponent=0.25, n_grid=np.abs(_ints(rows, 17)),
                         scaled=_floats(rows, 18), limit=limit, error_bound=np.zeros(rows))
    assert_same("".join(diag.csv_chunks()), oracles.mdp_csv(diag))


def test_zero_rows_write_the_header_only():
    diag = MdpDiagnostic(c=1.0, a_exponent=0.25, n_grid=np.zeros(0, dtype=np.int64),
                         scaled=np.zeros(0), limit=-0.5, error_bound=np.zeros(0))
    assert "".join(diag.csv_chunks()) == "n,scaled_log_tail,limit\n"


@pytest.mark.parametrize("rows", ROWS)
def test_verify_and_coupling_columns_are_byte_identical(rows):
    pos, exact_p, bern, env = (_floats(rows, s) for s in (19, 20, 21, 22))
    valid = _bools(rows, 23)
    assert_same(_csv("x,exact_tail,bernstein,envelope,envelope_valid",
                     [pos, exact_p, bern, env, valid]),
                oracles.verify_bounds_csv(pos, exact_p, bern, env, valid))
    # finite draws: inf - inf would warn in both writers alike
    y, z = (np.random.default_rng(s).standard_normal(rows) * 1e3 for s in (24, 25))
    y[:min(rows, 3)] = [-0.0, 5e-324, 2.0 ** 53 + 1][:rows]
    assert_same(_csv("z,y,gap", [z, y, np.abs(y - z)]), oracles.coupling_pairs_csv(y, z))


@pytest.mark.parametrize("rows", ROWS)
def test_repeated_and_distinct_float_columns_are_byte_identical(rows):
    # a column of few values, each formatted once and reused, next to one
    # whose values are all distinct; the few values include 0.0 and -0.0,
    # which compare equal but print apart, and nan and the infinities
    rng = np.random.default_rng(29)
    atoms = np.concatenate((EDGES, rng.standard_normal(20)))
    rep, distinct = atoms[rng.integers(0, atoms.size, rows)], _floats(rows, 30)
    rep[:min(rows, EDGES.size)] = EDGES[:rows]
    if rows:
        assert exact._cells(rep, {})[1] == ("%s" if rows >= 2 * atoms.size else "%.17g")
        assert exact._cells(distinct, {})[1] == "%.17g"
    want = oracles.rows_csv("rep,distinct", (f"{a:.17g},{b:.17g}" for a, b in zip(rep, distinct)))
    assert_same(_csv("rep,distinct", [rep, distinct]), want)


@pytest.mark.parametrize("draws", [CSV_CHUNK - 1, CSV_CHUNK + 1])
def test_coupling_pairs_file_is_byte_identical(tmp_path, draws):
    assert cli.main(["coupling", "--model", "two_state:rho=0.4", "--n", "16", "--m", "2",
                     "--chains", str(draws), "--seed", "7", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "pairs.csv").read_text(encoding="utf-8")
    table = distribution_of_Sn(builtin("two_state", rho=0.4), 16)
    y, z = sample_coupled_pairs(build_quantile_transform(table), draws, 7)
    assert_same(text.split("\n", 1)[1], oracles.coupling_pairs_csv(y, z))


@pytest.mark.parametrize("rows", ROWS)
def test_chunks_join_to_the_written_file(rows):
    # the header line, then one chunk per block of CSV_CHUNK rows; a None
    # column writes blank cells in every block
    x, k, y, flag = _floats(rows, 31), _ints(rows, 32), _floats(rows, 33)[::-1], _bools(rows, 34)
    head, cols = "x,blank,k,y,flag", [x, None, k, y, flag]
    chunks = list(exact._csv_chunks(head, cols))
    assert chunks[0] == head + "\n" and len(chunks) == 1 + -(-rows // CSV_CHUNK)
    assert [c.count("\n") for c in chunks[1:]] == [len(x[lo:lo + CSV_CHUNK])
                                                  for lo in range(0, rows, CSV_CHUNK)]
    want = oracles.rows_csv(head, (f"{a:.17g},,{int(b)},{c:.17g},{int(d)}"
                                   for a, b, c, d in zip(x, k, y, flag)))
    assert_same("".join(chunks), want)


def test_each_block_decides_its_own_dedup():
    # one column: a block of few repeated values, a block of distinct values,
    # then a short block of repeats again; the format flips block by block
    rng = np.random.default_rng(35)
    few = np.concatenate((EDGES, rng.standard_normal(8)))
    col = np.concatenate((few[rng.integers(0, few.size, CSV_CHUNK)], _floats(CSV_CHUNK, 36),
                          few[rng.integers(0, few.size, CSV_CHUNK // 2)]))
    blocks = [col[lo:lo + CSV_CHUNK] for lo in range(0, col.size, CSV_CHUNK)]
    assert [exact._cells(b, {})[1] for b in blocks] == ["%s", "%.17g", "%s"]
    other = _floats(col.size, 37)
    want = oracles.rows_csv("rep,other", (f"{a:.17g},{b:.17g}" for a, b in zip(col, other)))
    assert_same("".join(exact._csv_chunks("rep,other", [col, other])), want)



def test_formatted_values_are_kept_for_a_bounded_number_of_values():
    # four blocks of CSV_CHUNK / 2 fresh values, each twice: every block takes
    # the memo path, and the memo is cleared once it holds over CSV_CHUNK strings
    half = CSV_CHUNK // 2
    col, memo, sizes = np.repeat(_floats(4 * half, 38), 2), {}, []
    for lo in range(0, col.size, CSV_CHUNK):
        assert exact._cells(col[lo:lo + CSV_CHUNK], memo)[1] == "%s"
        sizes.append(len(memo))
    assert sizes == [half, 2 * half, 3 * half, half]
    assert_same(_csv("v", [col]), oracles.rows_csv("v", (f"{v:.17g}" for v in col)))

def test_coupling_holds_no_whole_file(tmp_path):
    # pairs.csv is written a block at a time: the command's traced peak stays
    # near its arrays (about 50 bytes a draw), where the whole text and its
    # copies under the manifest took about 166
    draws = 400000
    tracemalloc.start()
    try:
        assert cli.main(["coupling", "--model", "two_state:rho=0.4", "--n", "16", "--m", "2",
                         "--chains", str(draws), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * draws
    rows = (tmp_path / "pairs.csv").read_text(encoding="utf-8").count("\n")
    assert rows == draws + 2  # the manifest, the header and one line a draw


@pytest.mark.parametrize("count", [3, CSV_CHUNK + 1])
def test_ratio_file_is_the_curves_csv(tmp_path, count):
    # ratio.csv is written a block at a time: the curve's csv_chunks() joined
    assert cli.main(["verify", "--model", "two_state:rho=0.4", "--n", "16", "--m", "2",
                     "--x-count", str(count), "--out", str(tmp_path)]) == 0
    model = builtin("two_state", rho=0.4)
    curve = ratio_curve(model, 16, 2, np.linspace(0.0, 3.0, count),
                        coeffs=coefficient_set(model, 16, 2))
    text = (tmp_path / "ratio.csv").read_text(encoding="utf-8")
    assert_same(text.split("\n", 1)[1], "".join(curve.csv_chunks()))


@pytest.mark.parametrize("model, grid", [("rademacher", list(range(1, CSV_CHUNK + 2))),
                                         ("two_state:rho=0.4", [64, 256, 1024])])
def test_mdp_file_is_the_diagnostics_csv(tmp_path, model, grid):
    # mdp.csv is written a block at a time: the diagnostic's csv_chunks() joined
    assert cli.main(["mdp", "--model", model, "--n", "64", "--n-grid", ",".join(map(str, grid)),
                     "--out", str(tmp_path)]) == 0
    name, _, rho = model.partition(":rho=")
    diag = mdp_diagnostic(builtin(name, **({"rho": float(rho)} if rho else {})), 1.0, 0.25, grid)
    text = (tmp_path / "mdp.csv").read_text(encoding="utf-8")
    assert_same(text.split("\n", 1)[1], "".join(diag.csv_chunks()))
    assert text.count("\n") == len(grid) + 2  # the manifest, the header and a row an n
