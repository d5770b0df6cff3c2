"""Command line front end emitting CSV records.

Every verb writes one deterministic CSV table (floats through repr, so
output is bit-reproducible and round-trips). Operators are named with a
small colon-separated mini-language:

    diagpow:SIZE:EXP   eigenvalues j**EXP, j = 1..SIZE
    diag:PATH          explicit eigenvalues, one float per line
    fd1d:M             Dirichlet Laplacian, M interior points
    fd2d:M             Dirichlet Laplacian on an M x M grid
    dense:PATH         dense SPD matrix; first line "dim lambda_min",
                       then dim whitespace-separated rows
"""

import argparse
import sys
from bisect import bisect_right
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from .quadrature import gauss_laguerre
from .scalar_core import (
    build_rational,
    estimate_operator_error,
    estimate_scalar_error,
    eval_scalar,
    order_ranges,
    plan_balanced,
    plan_equalized,
    plan_full,
    select_n,
)
from .operator_apply import (
    DenseOperator,
    DiagonalOperator,
    apply_fractional_inverse,
    builtin_operator,
    dense_fractional_inverse,
)
from .oracle_baselines import oracle_diag_norm_error, oracle_scalar_power, sinc_baseline_error

__all__ = ["main", "parse_operator"]


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _emit(header: str, rows, out: str | None):
    lines = [header]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_vector(vec, out: str | None):
    text = "\n".join(repr(float(x)) for x in vec) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def parse_operator(spec: str):
    """Build an OperatorHandle from a mini-language string."""
    kind, _, rest = spec.partition(":")
    if kind == "diagpow":
        size, _, exponent = rest.partition(":")
        if not size or not exponent:
            raise ValueError(f"bad operator spec: {spec}")
        return builtin_operator("diag-power", size=int(size), exponent=float(exponent))
    if kind == "diag":
        if not rest:
            raise ValueError(f"bad operator spec: {spec}")
        eigenvalues = np.loadtxt(rest, dtype=float, ndmin=1)
        return DiagonalOperator(eigenvalues)
    if kind == "fd1d":
        return builtin_operator("fd-laplacian-1d", m=int(rest))
    if kind == "fd2d":
        return builtin_operator("fd-laplacian-2d", m=int(rest))
    if kind == "dense":
        if not rest:
            raise ValueError(f"bad operator spec: {spec}")
        with open(rest) as fh:
            first = fh.readline().split()
            if len(first) != 2:
                raise ValueError("dense file must start with 'dim lambda_min'")
            dim = int(first[0])
            lambda_min = float(first[1])
            matrix = np.loadtxt(fh, dtype=float, ndmin=2)
        if matrix.shape != (dim, dim):
            raise ValueError("dense file body does not match its declared dimension")
        return DenseOperator(matrix, lambda_min=lambda_min)
    raise ValueError(f"unknown operator spec: {spec}")


def _plan_for(variant: str, n: int, alpha: float):
    if variant == "full":
        return plan_full(n)
    if variant == "balanced":
        return plan_balanced(n, alpha)
    if variant == "equalized":
        return plan_equalized(n, alpha)
    raise ValueError(f"unknown variant: {variant}")


def _cmd_nodes(args):
    rule = gauss_laguerre(args.n)
    rows = [(j + 1, rule.nodes[j], rule.weights[j]) for j in range(rule.order)]
    _emit("j,theta,weight", rows, args.out)
    return 0


def _cmd_estimate(args):
    est = estimate_operator_error(args.n, args.alpha)
    _emit("n,estimate,branch", [(est.n, est.value, est.branch)], args.out)
    return 0


def _cmd_select_n(args):
    n, est = select_n(args.alpha, args.tol)
    _emit("alpha,tol,n,estimate", [(args.alpha, args.tol, n, est.value)], args.out)
    return 0


def _cmd_scalar_error(args):
    exact = oracle_scalar_power(args.lam, args.alpha)
    rows = []
    for n in range(1, args.nmax + 1):
        form = build_rational(args.alpha, plan_full(n))
        err = abs(exact - eval_scalar(form, args.lam))
        rows.append((n, err, estimate_scalar_error(n, args.alpha, args.lam)))
    _emit("n,error,estimate", rows, args.out)
    return 0


def _cmd_matrix_error(args):
    op = parse_operator(args.op)
    post = op.lambda_min ** (-args.alpha)
    diagonal = isinstance(op, DiagonalOperator)
    if diagonal:
        scaled_eigs = op.spectrum() / op.lambda_min
    else:
        a = op.to_dense()
        w, v = eigh(a)
        exact_power = (v * w ** (-args.alpha)) @ v.T
    rows = []
    for n in range(1, args.nmax + 1):
        plan = _plan_for(args.variant, n, args.alpha)
        form = build_rational(args.alpha, plan)
        if diagonal:
            err = post * oracle_diag_norm_error(scaled_eigs, args.alpha, form)
        else:
            approx = dense_fractional_inverse(op, form, parallel=args.parallel)
            err = float(np.linalg.norm(exact_power - approx, 2))
        est = post * estimate_operator_error(n, args.alpha).value
        rows.append((n, plan.predicted_inversions, err, est))
    _emit("n,inversions,error,estimate", rows, args.out)
    return 0


def _cmd_apply(args):
    op = parse_operator(args.op)
    if args.rhs is not None:
        b = np.loadtxt(args.rhs, dtype=float, ndmin=1)
    else:
        b = np.random.default_rng(args.seed).standard_normal(op.dimension)
    form = build_rational(args.alpha, _plan_for(args.variant, args.n, args.alpha))
    x = apply_fractional_inverse(op, b, form, parallel=args.parallel)
    _emit_vector(x, args.out)
    return 0


def _largest_n_with_budget(variant: str, alpha: float, budget: int) -> int | None:
    """Largest order whose plan fits the budget; inversions do not decrease within each order range."""
    best = None
    for orders in order_ranges(alpha):
        i = bisect_right(orders, budget, key=lambda n: _plan_for(variant, n, alpha).predicted_inversions)
        if i:
            best = orders[i - 1]
    return best


def _cmd_compare(args):
    op = parse_operator(args.spectrum)
    budgets = sorted({int(tok) for tok in args.solves.split(",") if tok.strip()})
    if not budgets:
        raise ValueError("no solve budgets given")
    eigs = op.spectrum()
    post = op.lambda_min ** (-args.alpha)
    scaled = eigs / op.lambda_min
    scaled[scaled < 1.0] = 1.0  # guard roundoff at the spectrum edge
    rows = []
    for budget in budgets:
        for variant in ("balanced", "equalized"):
            n = _largest_n_with_budget(variant, args.alpha, budget)
            if n is not None:
                plan = _plan_for(variant, n, args.alpha)
                form = build_rational(args.alpha, plan)
                err = post * oracle_diag_norm_error(scaled, args.alpha, form)
                rows.append((variant, plan.predicted_inversions, err))
        err = post * sinc_baseline_error(scaled, args.alpha, budget)
        rows.append(("sinc", budget, err))
    rows.sort(key=lambda r: (r[0], r[1]))
    _emit("method,solves,error", [(m, s, e) for m, s, e in rows], args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glfrac", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nodes", help="quadrature nodes and weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("estimate", help="a-priori operator error estimate")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("select-n", help="smallest order meeting a tolerance")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_select_n)

    p = sub.add_parser("scalar-error", help="scalar convergence sweep at one lambda")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scalar_error)

    p = sub.add_parser("matrix-error", help="operator convergence sweep")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--variant", choices=("full", "balanced", "equalized"), default="full")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_matrix_error)

    p = sub.add_parser("apply", help="apply the approximate fractional inverse to a vector")
    p.add_argument("--op", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("full", "balanced", "equalized"), default="full")
    p.add_argument("--rhs", help="path to the right-hand side, one float per line")
    p.add_argument("--seed", type=int, default=0, help="rng seed for a random right-hand side")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("compare", help="error vs solve budget against the sinc baseline")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--spectrum", required=True, help="operator spec supplying the spectrum")
    p.add_argument("--solves", required=True, help="comma-separated odd solve budgets")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
