import importlib.util
import os
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
    plan_balanced,
    plan_equalized,
    plan_full,
)
from glfrac.cli import _largest_n_with_budget, main, parse_operator


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
    args = ("matrix-error", "--alpha", "0.5", "--nmax", "8", "--op", "fd1d:12", "--parallel")
    _, first = run_cli(tmp_path, *args, name="a.csv")
    _, second = run_cli(tmp_path, *args, name="b.csv")
    assert first == second
    _, serial = run_cli(tmp_path, *args[:-1], name="c.csv")
    assert serial == first


def test_apply_seeded_rhs_deterministic(tmp_path):
    args = ("apply", "--op", "fd1d:10", "--alpha", "0.5", "--n", "10", "--seed", "3", "--parallel")
    _, first = run_cli(tmp_path, *args, name="a.txt")
    _, second = run_cli(tmp_path, *args, name="b.txt")
    assert first == second
    assert len(first.strip().split("\n")) == 10


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
    assert main(["compare", "--alpha", "0.5", "--spectrum", "diagpow:10:2", "--solves", "10"]) == 1
    assert "odd" in capsys.readouterr().err
    # refused by the dense cap before the tridiagonal matrix is assembled
    assert main(["matrix-error", "--alpha", "0.5", "--nmax", "2", "--op", "fd1d:2001"]) == 1
    assert "dimension too large" in capsys.readouterr().err


def test_tiny_alpha_exits_zero(capsys):
    assert main(["estimate", "--alpha", "1e-6", "--n", "2048"]) == 0
    assert capsys.readouterr().out.startswith("n,estimate,branch\n2048,1.2464087761130")
    assert main(["select-n", "--alpha", "1e-6", "--tol", "1e-2"]) == 0
    assert capsys.readouterr().out.startswith("alpha,tol,n,estimate\n1e-06,0.01,1,")


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


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, glfrac, glfrac.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"
