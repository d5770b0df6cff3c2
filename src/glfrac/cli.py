"""Command line front end emitting CSV records.

Every verb writes one deterministic CSV table (floats through repr, so
output is bit-reproducible and round-trips). Operators are named with a
small colon-separated mini-language:

    diagpow:SIZE:EXP   eigenvalues j**EXP, j = 1..SIZE
    diag:PATH          explicit eigenvalues, one float per line; like an
                       apply --rhs file, it must be one column
    fd1d:M             Dirichlet Laplacian, M interior points
    fd2d:M             Dirichlet Laplacian on an M x M grid
    dense:PATH         dense SPD matrix; first line "dim lambda_min",
                       then dim whitespace-separated rows
"""

import argparse
import sys
import warnings
from bisect import bisect_right
from functools import cache
from pathlib import Path

import numpy as np

from .quadrature import check_order, gauss_laguerre
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
from .operator_apply import DenseOperator, DiagonalOperator, apply_fractional_inverse, builtin_operator
from .oracle_baselines import oracle_diag_norm_error, oracle_scalar_power, sinc_baseline_error

__all__ = ["main", "parse_operator"]


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write(lines, out: str | None):
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(header: str, rows, out: str | None):
    _write([header, *(",".join(_cell(x) for x in row) for row in rows)], out)


def _load_rows(source, name: str) -> np.ndarray:
    """The floats in source (a path or an open file) as rows; a file with none is refused by name, without numpy's warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(source, dtype=float, ndmin=2)
    if rows.size == 0:
        raise ValueError(f"{name} holds no numbers")
    return rows


def _read_column(path: str, what: str) -> np.ndarray:
    column = _load_rows(path, path)
    if column.shape[1] != 1:
        raise ValueError(f"{what} must be one column, got shape {column.shape} from {path}")
    return column[:, 0]


def _number(token: str, kind: type, source: str):
    """token read as kind (int or float), as argparse reads a typed option: "5.0" as an int and "x" are refused by name."""
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"{source}: {token!r} is not {'an integer' if kind is int else 'a number'}") from None


def parse_operator(spec: str):
    """Build an OperatorHandle from a mini-language string."""
    kind, _, rest = spec.partition(":")
    stock = {"diagpow": ("diag-power", ("size", int), ("exponent", float)),
             "fd1d": ("fd-laplacian-1d", ("m", int)), "fd2d": ("fd-laplacian-2d", ("m", int))}
    if kind in stock:
        name, *params = stock[kind]
        try:
            values = {param: parse(field) for (param, parse), field in zip(params, rest.split(":"), strict=True)}
        except ValueError:
            raise ValueError(f"bad operator spec: {spec}") from None
        return builtin_operator(name, **values)
    if kind == "diag":
        if not rest:
            raise ValueError(f"bad operator spec: {spec}")
        return DiagonalOperator(_read_column(rest, "eigenvalues"))
    if kind == "dense":
        if not rest:
            raise ValueError(f"bad operator spec: {spec}")
        with open(rest) as fh:
            header = fh.readline().strip()
            first = header.split()
            if len(first) != 2:
                raise ValueError(f"dense file {rest} must start with 'dim lambda_min', got {header!r}")
            dim = _number(first[0], int, f"dense file {rest} header")
            lambda_min = _number(first[1], float, f"dense file {rest} header lambda_min")
            matrix = _load_rows(fh, rest)
        if matrix.shape != (dim, dim):
            raise ValueError(f"dense file {rest} body has shape {matrix.shape}, but its header declares dim {dim}")
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
    rows = zip(range(1, rule.order + 1), rule.nodes.tolist(), rule.weights.tolist())
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
    nmax = check_order(args.nmax)
    exact = oracle_scalar_power(args.lam, args.alpha)
    rows = []
    for n in range(1, nmax + 1):
        form = build_rational(args.alpha, plan_full(n))
        err = abs(exact - eval_scalar(form, args.lam))
        rows.append((n, err, estimate_scalar_error(n, args.alpha, args.lam)))
    _emit("n,error,estimate", rows, args.out)
    return 0


def _spectral_error(op, alpha: float):
    """err(scalar_error, *args) = lambda_min**-alpha * scalar_error(unit, *args), unit = op's spectrum / lambda_min.

    For a self-adjoint L, ||L**(-alpha) - R(L)||_2 is the worst scalar error
    over the spectrum, so err(oracle_diag_norm_error, form) is that norm on
    any handle, with nothing assembled. unit is clipped at 1: a computed
    eigenvalue may sit below a closed-form lambda_min.
    """
    post = op.lambda_min ** (-alpha)
    unit = np.maximum(op.spectrum() / op.lambda_min, 1.0)
    return lambda scalar_error, *args: post * scalar_error(unit, *args)


def _cmd_matrix_error(args):
    nmax = check_order(args.nmax)
    op = parse_operator(args.op)
    err = _spectral_error(op, args.alpha)
    post = op.lambda_min ** (-args.alpha)
    rows = []
    for n in range(1, nmax + 1):
        plan = _plan_for(args.variant, n, args.alpha)
        form = build_rational(args.alpha, plan)
        est = post * estimate_operator_error(n, args.alpha).value
        rows.append((n, plan.predicted_inversions, err(oracle_diag_norm_error, form), est))
    _emit("n,inversions,error,estimate", rows, args.out)
    return 0


def _cmd_apply(args):
    op = parse_operator(args.op)
    if args.rhs is not None:
        b = _read_column(args.rhs, "right-hand side")
    else:
        b = np.random.default_rng(args.seed).standard_normal(op.dimension)
    form = build_rational(args.alpha, _plan_for(args.variant, args.n, args.alpha))
    x = apply_fractional_inverse(op, b, form, parallel=args.parallel)
    _write(map(_cell, x), args.out)
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
    budgets = sorted({_number(tok, int, f"--solves {args.solves}") for tok in args.solves.split(",") if tok.strip()})
    if not budgets:
        raise ValueError("no solve budgets given")
    err = _spectral_error(op, args.alpha)
    rows = []
    for budget in budgets:
        for variant in ("balanced", "equalized"):
            n = _largest_n_with_budget(variant, args.alpha, budget)
            if n is not None:
                plan = _plan_for(variant, n, args.alpha)
                form = build_rational(args.alpha, plan)
                rows.append((variant, plan.predicted_inversions, err(oracle_diag_norm_error, form)))
        rows.append(("sinc", budget, err(sinc_baseline_error, args.alpha, budget)))
    rows.sort(key=lambda r: (r[0], r[1]))
    _emit("method,solves,error", [(m, s, e) for m, s, e in rows], args.out)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
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
