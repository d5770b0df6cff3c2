import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glfrac import (
    N_MAX,
    DiagonalOperator,
    KroneckerSumOperator,
    TridiagonalOperator,
    apply_fractional_inverse,
    build_rational,
    gauss_laguerre,
    oracle_diag_norm_error,
    plan_balanced,
    plan_equalized,
    plan_full,
)
from glfrac.cli import _build_parser, _largest_n_with_budget, main, parse_operator

ROOT = Path(__file__).resolve().parents[1]


def run_cli(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, (out.read_text() if out.exists() else None)


def test_nodes_golden(tmp_path):
    code, text = run_cli(tmp_path, "nodes", "--n", "2")
    assert code == 0
    rule = gauss_laguerre(2)
    expected = "j,theta,weight\n"
    expected += f"1,{float(rule.nodes[0])!r},{float(rule.weights[0])!r}\n"
    expected += f"2,{float(rule.nodes[1])!r},{float(rule.weights[1])!r}\n"
    assert text == expected


def test_estimate_branch_column(tmp_path):
    code, text = run_cli(tmp_path, "estimate", "--alpha", "0.75", "--n", "10")
    assert code == 0
    header, row = text.strip().split("\n")
    assert header == "n,estimate,branch"
    fields = row.split(",")
    assert fields[0] == "10"
    assert fields[2] == "g2_at_one"


def test_select_n_frozen_row(tmp_path):
    code, text = run_cli(tmp_path, "select-n", "--alpha", "0.5", "--tol", "1e-6")
    assert code == 0
    row = text.strip().split("\n")[1].split(",")
    assert row[2] == "54"
    assert float(row[3]) <= 1e-6


def test_scalar_error_matches_library(tmp_path):
    code, text = run_cli(tmp_path, "scalar-error", "--alpha", "0.5", "--lam", "10", "--nmax", "6")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "n,error,estimate"
    assert len(lines) == 7
    n, err, est = lines[3].split(",")
    form = build_rational(0.5, plan_full(int(n)))
    from glfrac import estimate_scalar_error, eval_scalar, oracle_scalar_power

    assert float(err) == abs(oracle_scalar_power(10.0, 0.5) - eval_scalar(form, 10.0))
    assert float(est) == estimate_scalar_error(int(n), 0.5, 10.0)


def test_matrix_error_headers_and_inversions(tmp_path):
    code, text = run_cli(
        tmp_path, "matrix-error", "--alpha", "0.5", "--nmax", "5", "--op", "diagpow:20:8", "--variant", "full"
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "n,inversions,error,estimate"
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == i
        assert int(fields[1]) == 2 * i
        assert float(fields[2]) > 0.0


def test_determinism_scalar_error(tmp_path):
    _, first = run_cli(tmp_path, "scalar-error", "--alpha", "0.25", "--lam", "100", "--nmax", "12", name="a.csv")
    _, second = run_cli(tmp_path, "scalar-error", "--alpha", "0.25", "--lam", "100", "--nmax", "12", name="b.csv")
    assert first == second


def test_determinism_parallel_matrix_error(tmp_path):
    args = ("matrix-error", "--alpha", "0.5", "--nmax", "8", "--op", "fd1d:12")
    _, first = run_cli(tmp_path, *args, name="a.csv")
    _, second = run_cli(tmp_path, *args, name="b.csv")
    assert first == second


def test_apply_seeded_rhs_deterministic(tmp_path):
    args = ("apply", "--op", "fd1d:10", "--alpha", "0.5", "--n", "10", "--seed", "3", "--parallel")
    _, first = run_cli(tmp_path, *args, name="a.txt")
    _, second = run_cli(tmp_path, *args, name="b.txt")
    assert first == second
    assert len(first.strip().split("\n")) == 10


def test_apply_parallel_prints_serial_bytes(capsys):
    # a vector on a diagonal handle splits into row ranges when parallel
    argv = ["apply", "--op", "diagpow:5000:2", "--alpha", "0.5", "--n", "20", "--seed", "3"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main([*argv, "--parallel"]) == 0
    assert capsys.readouterr().out == serial and len(serial.splitlines()) == 5000


def test_apply_rhs_file_matches_library(tmp_path):
    rhs = tmp_path / "rhs.txt"
    b = np.arange(1.0, 9.0)
    rhs.write_text("\n".join(repr(float(x)) for x in b) + "\n")
    code, text = run_cli(tmp_path, "apply", "--op", "fd1d:8", "--alpha", "0.25", "--n", "12", "--rhs", str(rhs))
    assert code == 0
    got = np.array([float(line) for line in text.strip().split("\n")])
    from glfrac import builtin_operator

    op = builtin_operator("fd-laplacian-1d", m=8)
    expected = apply_fractional_inverse(op, b, build_rational(0.25, plan_full(12)))
    assert np.array_equal(got, expected)


def test_diag_file_operator(tmp_path):
    path = tmp_path / "eigs.txt"
    path.write_text("4.0\n8.0\n")
    op = parse_operator(f"diag:{path}")
    assert isinstance(op, DiagonalOperator)
    assert op.lambda_min == 4.0


def test_dense_file_operator(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("2 1.0\n2.0 1.0\n1.0 2.0\n")
    op = parse_operator(f"dense:{path}")
    assert op.dimension == 2
    assert op.lambda_min == 1.0
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0.5\n1.0 2.0\n2.0 1.0\n")  # indefinite
    code = main(["apply", "--op", f"dense:{bad}", "--alpha", "0.5", "--n", "4"])
    assert code == 1


def test_dense_file_with_non_finite_entries_exits_1(tmp_path, capsys):
    for entry in ("inf", "nan"):
        path = tmp_path / f"{entry}.txt"
        path.write_text(f"2 1.0\n2.0 {entry}\n{entry} 2.0\n")
        assert main(["apply", "--op", f"dense:{path}", "--alpha", "0.5", "--n", "4"]) == 1
        captured = capsys.readouterr()
        assert "matrix entries must be finite: 2 of 4" in captured.err and captured.out == ""


def test_malformed_integers_are_named(tmp_path, capsys):
    # these raised int()'s own message, "invalid literal for int() with base 10: '2.5'", naming no input
    path = tmp_path / "mat.txt"
    path.write_text("2.5 1.0\n2.0 1.0\n1.0 2.0\n")
    for argv, message in (
            (["apply", "--op", f"dense:{path}", "--alpha", "0.5", "--n", "4"],
             f"dense file {path} header: '2.5' is not an integer"),
            (["compare", "--alpha", "0.5", "--spectrum", "diagpow:10:2", "--solves", "5,x"],
             "--solves 5,x: 'x' is not an integer"),
            (["compare", "--alpha", "0.5", "--spectrum", "diagpow:10:2", "--solves", "5.0"],
             "--solves 5.0: '5.0' is not an integer")):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""


def test_malformed_dense_lambda_min_is_named(tmp_path, capsys):
    # this raised float()'s own message, "could not convert string to float: 'abc'", naming no input
    path = tmp_path / "mat.txt"
    path.write_text("2 abc\n2.0 1.0\n1.0 2.0\n")
    assert main(["apply", "--op", f"dense:{path}", "--alpha", "0.5", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: dense file {path} header lambda_min: 'abc' is not a number\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, header", [("", ""), ("2\n2.0\n", "2")], ids=["empty", "one-token"])
def test_dense_file_without_a_two_token_header_is_named(tmp_path, capsys, text, header):
    # this said "dense file must start with 'dim lambda_min'", naming neither the file nor its first line
    path = tmp_path / "mat.txt"
    path.write_text(text)
    assert main(["apply", "--op", f"dense:{path}", "--alpha", "0.5", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: dense file {path} must start with 'dim lambda_min', got {header!r}\n"
    assert captured.out == ""


def test_dense_file_body_of_the_wrong_shape_is_named(tmp_path, capsys):
    # this said "dense file body does not match its declared dimension", naming no file, dim or shape
    path = tmp_path / "mat.txt"
    path.write_text("3 1.0\n2.0 1.0\n1.0 2.0\n")
    assert main(["apply", "--op", f"dense:{path}", "--alpha", "0.5", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: dense file {path} body has shape (2, 2), but its header declares dim 3\n"
    assert captured.out == ""


@pytest.mark.parametrize("site", ["diag", "rhs", "dense"])
def test_empty_input_files_are_named(tmp_path, capsys, site):
    # numpy's "loadtxt: input contained no data" warning came first and, with warnings as errors, escaped main
    empty = tmp_path / "empty.txt"
    empty.write_text("" if site != "dense" else "2 1.0\n")
    argv = {"diag": ["matrix-error", "--alpha", "0.5", "--nmax", "2", "--op", f"diag:{empty}"],
            "rhs": ["apply", "--op", "fd1d:3", "--alpha", "0.5", "--n", "2", "--rhs", str(empty)],
            "dense": ["apply", "--op", f"dense:{empty}", "--alpha", "0.5", "--n", "2"]}[site]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {empty} holds no numbers\n" and captured.out == ""


def _fd_unit_spectrum(op_spec):
    """The closed-form spectrum of fd1d:M or fd2d:M over the handle's lambda_min, clipped at 1."""
    kind, m = op_spec.split(":")
    m = int(m)
    j = np.arange(1, m + 1)
    mu = 4.0 * (m + 1) ** 2 * np.sin(j * np.pi / (2.0 * (m + 1))) ** 2
    eigenvalues = mu if kind == "fd1d" else (mu[:, None] + mu[None, :]).ravel()
    return np.maximum(eigenvalues / parse_operator(op_spec).lambda_min, 1.0)


@pytest.mark.parametrize("op_spec, alpha, variant, nmax", [("fd1d:40", 0.75, "full", 30),
                                                            ("fd2d:6", 0.5, "balanced", 24),
                                                            ("fd1d:2001", 0.5, "balanced", 12),
                                                            ("fd2d:45", 0.25, "full", 8)])
def test_dense_matrix_error_matches_closed_form_spectrum(tmp_path, op_spec, alpha, variant, nmax):
    # the handle's computed spectrum against the closed form; fd1d:2001 and fd2d:45 (2025 rows) lie past
    # DENSE_DIM_CAP, which matrix-error no longer meets, since it assembles nothing
    code, text = run_cli(tmp_path, "matrix-error", "--alpha", str(alpha), "--nmax", str(nmax),
                         "--op", op_spec, "--variant", variant)
    assert code == 0
    unit = _fd_unit_spectrum(op_spec)
    post = parse_operator(op_spec).lambda_min ** (-alpha)
    plans = {"full": plan_full, "balanced": lambda n: plan_balanced(n, alpha)}
    lines = text.strip().split("\n")
    assert lines[0] == "n,inversions,error,estimate" and len(lines) == nmax + 1
    for n, line in enumerate(lines[1:], start=1):
        expected = post * oracle_diag_norm_error(unit, build_rational(alpha, plans[variant](n)))
        assert float(line.split(",")[2]) == pytest.approx(expected, rel=1e-6, abs=0)


def test_fd_operator_specs():
    op = parse_operator("fd1d:7")
    assert isinstance(op, TridiagonalOperator)
    assert op.dimension == 7
    op = parse_operator("fd2d:3")
    assert isinstance(op, KroneckerSumOperator)
    assert op.dimension == 9
    with pytest.raises(ValueError):
        parse_operator("who-knows:3")
    with pytest.raises(ValueError):
        parse_operator("diagpow:12")  # missing exponent


def test_malformed_stock_specs_are_named(capsys):
    # these raised int()'s and float()'s own messages, such as "invalid literal for int() with base 10: '5:7'"
    for spec in ("fd1d:abc", "fd1d:", "fd1d:5:7", "fd1d:2.5", "fd2d", "diagpow:1e3:2", "diagpow:10:2:3",
                 "diagpow:10:"):
        with pytest.raises(ValueError, match=f"^bad operator spec: {re.escape(spec)}$"):
            parse_operator(spec)
        assert main(["apply", "--op", spec, "--alpha", "0.5", "--n", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bad operator spec: {spec}\n" and captured.out == ""
    # a well-formed spec with a value the operator refuses names that value
    for spec, message in (("diagpow:10:nan", "exponent must be a finite real number, got nan"),
                          ("fd1d:0", "m must be an integer >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_operator(spec)


def test_select_n_refuses_an_infinite_tolerance(capsys):
    # an infinite tolerance used to print n = 1 and exit 0
    assert main(["select-n", "--alpha", "0.5", "--tol", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: tolerance must be positive and finite, got inf\n" and captured.out == ""


def test_bad_inputs_exit_nonzero(tmp_path, capsys):
    assert main(["nodes", "--n", "0"]) == 1
    assert "order out of range" in capsys.readouterr().err
    assert main(["estimate", "--alpha", "0.5", "--n", str(N_MAX + 1)]) == 1
    captured = capsys.readouterr()
    assert "order out of range" in captured.err and captured.out == ""
    assert main(["apply", "--op", "nope:1", "--alpha", "0.5", "--n", "4"]) == 1
    rhs = tmp_path / "short.txt"
    rhs.write_text("1.0\n")
    assert main(["apply", "--op", "fd1d:4", "--alpha", "0.5", "--n", "4", "--rhs", str(rhs)]) == 1
    assert "dimension mismatch" in capsys.readouterr().err
    # a block is refused before any solve, not after when its rows are printed
    rhs.write_text("1.0 2.0\n3.0 4.0\n5.0 6.0\n")
    assert main(["apply", "--op", "diagpow:3:1", "--alpha", "0.5", "--n", "4", "--rhs", str(rhs)]) == 1
    captured = capsys.readouterr()
    assert "error: right-hand side must be one column, got shape (3, 2)" in captured.err and captured.out == ""
    # one line of several numbers is a row, not a vector, for --rhs and for diag:PATH alike
    rhs.write_text("1 2 3 4\n")
    for argv in (["apply", "--op", "fd1d:4", "--alpha", "0.5", "--n", "4", "--rhs", str(rhs)],
                 ["compare", "--alpha", "0.5", "--spectrum", f"diag:{rhs}", "--solves", "5"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "must be one column, got shape (1, 4)" in captured.err and captured.out == ""
        assert captured.err.startswith("error: ")
    assert main(["compare", "--alpha", "0.5", "--spectrum", "diagpow:10:2", "--solves", "10"]) == 1
    assert "odd" in capsys.readouterr().err
    for lam in ("nan", "inf"):
        assert main(["scalar-error", "--alpha", "0.5", "--lam", lam, "--nmax", "3"]) == 1
        captured = capsys.readouterr()
        assert "lambda out of range" in captured.err and captured.out == ""
    assert main(["estimate", "--alpha", "1e-310", "--n", "2048"]) == 1
    assert "alpha=1e-310, n=2048" in capsys.readouterr().err


def test_nmax_is_checked_before_any_work(capsys, monkeypatch):
    # no operator is built and no row is printed for an order check_order refuses
    monkeypatch.setattr("glfrac.cli.parse_operator", lambda spec: pytest.fail("operator built"))
    for nmax in ("0", "-1", str(N_MAX + 1)):
        for argv in (["scalar-error", "--alpha", "0.5", "--lam", "10", "--nmax", nmax],
                     ["matrix-error", "--alpha", "0.5", "--nmax", nmax, "--op", "diagpow:10:2"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert f"error: order out of range: {nmax} is not an integer" in captured.err
            assert captured.out == ""


def test_main_reuses_one_parser(capsys):
    argv = ["matrix-error", "--alpha", "0.5", "--nmax", "3", "--op", "diagpow:10:2", "--variant", "balanced"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert _build_parser() is _build_parser()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    # argparse still refuses a bad argv after a good one, and the next good one still runs
    for bad in (["matrix-error", "--alpha", "0.5"], ["nodes", "--n", "x"], ["no-such-verb"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_tiny_alpha_exits_zero(capsys):
    assert main(["estimate", "--alpha", "1e-6", "--n", "2048"]) == 0
    assert capsys.readouterr().out.startswith("n,estimate,branch\n2048,1.2464087761130")
    assert main(["select-n", "--alpha", "1e-6", "--tol", "1e-2"]) == 0
    assert capsys.readouterr().out.startswith("alpha,tol,n,estimate\n1e-06,0.01,1,")
    # the Newton step's denominator no longer underflows to zero here
    assert main(["estimate", "--alpha", "1e-240", "--n", "2048"]) == 0
    assert capsys.readouterr().out.startswith("n,estimate,branch\n2048,")
    assert main(["select-n", "--alpha", "1e-240", "--tol", "1e-2"]) == 0
    assert capsys.readouterr().out.startswith("alpha,tol,n,estimate\n1e-240,0.01,1,")


def test_compare_table(tmp_path):
    code, text = run_cli(
        tmp_path, "compare", "--alpha", "0.5", "--spectrum", "diagpow:100:8", "--solves", "21,41"
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "method,solves,error"
    rows = [line.split(",") for line in lines[1:]]
    methods = {r[0] for r in rows}
    assert methods == {"balanced", "equalized", "sinc"}
    by_key = {(r[0], int(r[1])): float(r[2]) for r in rows}
    from glfrac import sinc_baseline_error

    eigs = np.arange(1.0, 101.0) ** 8
    assert by_key[("sinc", 21)] == sinc_baseline_error(eigs, 0.5, 21)
    assert by_key[("sinc", 41)] == sinc_baseline_error(eigs, 0.5, 41)
    bal_solves = [s for (m, s) in by_key if m == "balanced"]
    assert all(s <= 41 for s in bal_solves)
    bal_best = min(v for (m, _), v in by_key.items() if m == "balanced")
    assert bal_best < by_key[("sinc", 41)]


def test_compare_clips_the_unit_spectrum_at_one(capsys):
    # fd1d:15's computed smallest eigenvalue sits a few ulps below its closed-form lambda_min;
    # unclipped, the oracles would refuse the scaled spectrum as out of range
    op = parse_operator("fd1d:15")
    assert op.spectrum().min() < op.lambda_min
    assert main(["compare", "--alpha", "0.5", "--spectrum", "fd1d:15", "--solves", "11,21"]) == 0
    assert capsys.readouterr().out.startswith("method,solves,error\n")


@pytest.mark.parametrize("variant, plan", [("balanced", plan_balanced), ("equalized", plan_equalized)])
@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75, 0.8, 0.9))
def test_largest_n_with_budget_matches_linear_scan(variant, plan, alpha):
    counts = [plan(n, alpha).predicted_inversions for n in range(1, N_MAX + 1)]
    for budget in range(3, 402):
        fits = [n for n, c in enumerate(counts, start=1) if c <= budget]
        assert _largest_n_with_budget(variant, alpha, budget) == (fits[-1] if fits else None)


def test_run_figures_writes_cli_tables(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"
    spec = importlib.util.spec_from_file_location("run_figures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []

    def recording_main(argv):
        calls.append(argv)
        return main(argv)

    monkeypatch.setattr(script, "cli_main", recording_main)
    outdir = tmp_path / "figures"
    assert script.main(["--outdir", str(outdir)]) == 0
    written = sorted(outdir.iterdir())
    assert len(written) == len(calls) == 11
    for argv in calls:
        assert argv[-2] == "--out"
        code, text = run_cli(tmp_path, *argv[:-2])
        assert code == 0
        assert Path(argv[-1]).read_text() == text
    # a second run in the same process reuses the cached rules, same bytes
    again = tmp_path / "again"
    assert script.main(["--outdir", str(again)]) == 0
    assert [p.name for p in sorted(again.iterdir())] == [p.name for p in written]
    for first in written:
        assert (again / first.name).read_bytes() == first.read_bytes()


def _env_with_src():
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_digests_hash_each_table(capsys):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_digests.py")],
                          capture_output=True, text=True, check=True, env=_env_with_src())
    lines = [line.split(" ", 2) for line in proc.stdout.splitlines()]
    assert all(len(digest) == 64 and rc == "0" for digest, rc, _ in lines)
    assert sum(name.startswith("run_figures/") for _, _, name in lines) == 11
    by_name = {name: digest for digest, _, name in lines}
    threaded = [name for name in by_name if name.endswith(" --parallel")]
    assert len(threaded) == 20  # 5 operators x 2 alphas x 2 variants
    assert all(by_name[name] == by_name[name.removesuffix(" --parallel")] for name in threaded)
    argv = ["select-n", "--alpha", "0.5", "--tol", "1e-8"]
    assert main(argv) == 0
    assert by_name[" ".join(argv)] == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_import_leaves_scipy_optimize_unloaded():
    env = _env_with_src()
    code = "import sys, glfrac, glfrac.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"


def test_scipy_loads_on_the_first_rule_built():
    # select-n and estimate are scalar code; scipy.linalg came with `import glfrac` and took most of a cold start
    code = ("import sys, glfrac, glfrac.cli\n"
            "from glfrac.cli import main\n"
            "assert main(['select-n', '--alpha', '0.5', '--tol', '1e-8']) == 0\n"
            "assert main(['estimate', '--alpha', '0.5', '--n', '20']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))\n"
            "glfrac.gauss_laguerre(8)\n"
            "print('scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=_env_with_src())
    assert proc.stdout.splitlines()[-2:] == ["[]", "True"]
