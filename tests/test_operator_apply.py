import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import dstn
from scipy.linalg import eigh_tridiagonal, solveh_banded

from glfrac import (
    DENSE_DIM_CAP,
    DenseOperator,
    DiagonalOperator,
    DimensionMismatchError,
    KroneckerSumOperator,
    NotPositiveDefiniteError,
    OperatorHandle,
    TridiagonalOperator,
    apply_fractional_inverse,
    build_rational,
    builtin_operator,
    dense_fractional_inverse,
    estimate_operator_error,
    estimate_scalar_error,
    eval_scalar,
    gauss_laguerre,
    operator_apply,
    plan_balanced,
    plan_equalized,
    plan_full,
    select_n,
    tail_weight_sum,
)


def _form(alpha, n, variant="full"):
    if variant == "full":
        plan = plan_full(n)
    elif variant == "balanced":
        plan = plan_balanced(n, alpha)
    else:
        plan = plan_equalized(n, alpha)
    return build_rational(alpha, plan)


def test_apply_on_two_point_diagonal():
    op = DiagonalOperator([4.0, 8.0])
    x = apply_fractional_inverse(op, np.array([1.0, 0.0]), _form(0.5, 20))
    est = estimate_operator_error(20, 0.5).value
    assert abs(x[0] - 0.5) <= 3.0 * est * 0.5
    assert x[1] == 0.0


def test_apply_on_identity_spectrum():
    op = DiagonalOperator(np.ones(5))
    b = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    x = apply_fractional_inverse(op, b, _form(0.25, 20))
    est = estimate_operator_error(20, 0.25).value
    assert np.linalg.norm(x - b) <= 3.0 * est * np.linalg.norm(b)


def test_solve_counter_tracks_retained_nodes(count_solves):
    # a diagonal handle makes no solve, so count on a dense handle with the same spectrum
    op = DenseOperator(np.diag(np.arange(1.0, 11.0)), lambda_min=1.0)
    form = _form(0.5, 20)
    apply_fractional_inverse(op, np.ones(10), form)
    assert len(count_solves) == 40  # 2n for the full variant
    count_solves.clear()
    form_b = _form(0.5, 30, "balanced")
    apply_fractional_inverse(op, np.ones(10), form_b)
    assert len(count_solves) == 2 * plan_balanced(30, 0.5).k1
    count_solves.clear()
    form_e = _form(0.25, 60, "equalized")
    apply_fractional_inverse(op, np.ones(10), form_e)
    assert len(count_solves) == 19


def test_parallel_output_bit_identical(monkeypatch, count_solves):
    op = builtin_operator("fd-laplacian-1d", m=50)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(50)
    form = _form(0.5, 30)
    serial = apply_fractional_inverse(op, b, form, parallel=False)
    threaded = apply_fractional_inverse(op, b, form, parallel=True)
    assert np.array_equal(serial, threaded)
    count_solves.clear()
    apply_fractional_inverse(op, b, form, parallel=True, max_workers=4)
    assert len(count_solves) == 60
    # a diagonal handle's B splits into ceil(rows / 2**15) row ranges whatever the
    # worker count, and each range evaluates the form once; so does the Kronecker sum's
    # in its eigenbasis (fd2d:182 has 33124 rows, two ranges); any other handle's B is
    # one piece that runs the whole term loop
    handles = {**_handles(), "diagonal-10k": builtin_operator("diag-power", size=10_000, exponent=2.0),
               "diagonal-40k": builtin_operator("diag-power", size=40_000, exponent=2.0),
               "kronecker-182": builtin_operator("fd-laplacian-2d", m=182)}
    form = _form(0.75, 20, "equalized")
    terms = form.k1 + form.k2
    rng = np.random.default_rng(3)
    evaluations = _evaluations(monkeypatch)

    def work(op, workers):
        """(evaluations, solves) of one apply."""
        rows = op.dimension
        return (math.ceil(rows / 2**15), 0) if op.diagonal else (0, terms)

    for name, op in handles.items():
        for r in (None, 0, 1, 4):
            b = rng.standard_normal(op.dimension if r is None else (op.dimension, r))
            count_solves.clear()
            evaluations.clear()
            serial = apply_fractional_inverse(op, b, form)
            assert (len(evaluations), len(count_solves)) == work(op, 1), (name, r)
            for workers in (1, 2, 3, 4):
                count_solves.clear()
                evaluations.clear()
                threaded = apply_fractional_inverse(op, b, form, parallel=True, max_workers=workers)
                assert threaded.shape == serial.shape and np.array_equal(threaded, serial), (name, r, workers)
                assert (len(evaluations), len(count_solves)) == work(op, workers), (name, r, workers)


def _diagonal_inits(monkeypatch):
    """A list that gets the arguments of every DiagonalOperator construction."""
    inits = []
    original_init = DiagonalOperator.__init__

    def init(self, *args, **kwargs):
        inits.append(args)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(DiagonalOperator, "__init__", init)
    return inits


def _evaluations(monkeypatch):
    """A list that gets the number of points of every eval_scalar call an apply makes, on any thread."""
    sizes = []
    evaluate = operator_apply.eval_scalar

    def spy(form, lam):
        sizes.append(np.size(lam))  # list.append is atomic under the GIL
        return evaluate(form, lam)

    monkeypatch.setattr(operator_apply, "eval_scalar", spy)
    return sizes


def test_parallel_row_pieces_are_unvalidated_diagonal_views(monkeypatch, count_solves):
    op = builtin_operator("diag-power", size=1000, exponent=2.0)
    inits = _diagonal_inits(monkeypatch)
    evaluations = _evaluations(monkeypatch)
    apply_fractional_inverse(op, np.ones(1000), _form(0.5, 10), parallel=True, max_workers=3)
    # 1000 rows are one row range below the work floor: one evaluation, no solve and no new handle
    assert evaluations == [1000]
    assert count_solves == [] and inits == []


def test_diagonal_apply_runs_cache_sized_row_pieces(monkeypatch, count_solves):
    op = builtin_operator("diag-power", size=80_000, exponent=2.0)
    inits = _diagonal_inits(monkeypatch)
    evaluations = _evaluations(monkeypatch)
    form = _form(0.5, 10)
    b = np.random.default_rng(4).standard_normal(80_000)
    serial = apply_fractional_inverse(op, b, form)
    # ceil(80000 / 2**15) = 3 near-equal row ranges, one after another on the calling thread
    assert evaluations == [26666, 26667, 26667]
    assert count_solves == [] and inits == []
    for workers in (1, 2, 3, 4):
        threaded = apply_fractional_inverse(op, b, form, parallel=True, max_workers=workers)
        assert np.array_equal(threaded, serial), workers
    # each row of b times the form summed term by term on the unit spectrum, then scaled
    unit = op.eigenvalues / op.lambda_min
    reference = np.zeros(80_000)
    for _, _, c, sigma, tau in form.terms():
        reference += c / (sigma + tau * unit)
    reference *= op.lambda_min ** (-form.alpha)
    assert np.array_equal(serial, b * reference)


def test_diagonal_apply_matches_per_term_solves():
    # the 12 forms of the benchmark's apply-mix, against the sum of one diagonal solve per term
    op = builtin_operator("diag-power", size=100_000, exponent=2.0)
    b = np.random.default_rng(13).standard_normal(op.dimension)
    for alpha in (0.25, 0.5, 0.75):
        for tol in (1e-6, 1e-8):
            n, _ = select_n(alpha, tol)
            for plan in (plan_balanced(n, alpha), plan_equalized(n, alpha)):
                form = build_rational(alpha, plan)
                reference = np.zeros(op.dimension)
                for _, _, c, sigma, tau in form.terms():
                    reference += c * (b / (sigma + (tau / op.lambda_min) * op.eigenvalues))
                reference *= op.lambda_min ** (-alpha)
                x = apply_fractional_inverse(op, b, form)
                np.testing.assert_allclose(x, reference, rtol=1e-14, atol=0.0, err_msg=f"{alpha} {tol} {plan}")


def test_parallel_coupled_vector_runs_without_a_pool(monkeypatch):
    # a coupled handle solves any B, vector or block, as one piece on the calling thread,
    # and so does a diagonal handle of at most 2**15 rows, the work floor
    monkeypatch.setattr(operator_apply, "ThreadPoolExecutor", None)
    form = _form(0.5, 10)
    for kind in ("tridiagonal", "dense", "kronecker"):
        op = _handles()[kind]
        rng = np.random.default_rng(2)
        for b in (rng.standard_normal(op.dimension), *(rng.standard_normal((op.dimension, r)) for r in (0, 1, 4))):
            threaded = apply_fractional_inverse(op, b, form, parallel=True, max_workers=4)
            assert np.array_equal(threaded, apply_fractional_inverse(op, b, form)), (kind, b.shape)
        threaded = apply_fractional_inverse(op, np.eye(op.dimension), form, parallel=True, max_workers=4)
        assert np.array_equal(threaded, dense_fractional_inverse(op, form)), kind
    rng = np.random.default_rng(2)
    for rows in (1, 1000, 2**15):
        op = builtin_operator("diag-power", size=rows, exponent=2.0)
        for b in (rng.standard_normal(rows), rng.standard_normal((rows, 3))):
            threaded = apply_fractional_inverse(op, b, form, parallel=True, max_workers=4)
            assert np.array_equal(threaded, apply_fractional_inverse(op, b, form)), (rows, b.shape)
    # one row more is two row ranges, on one pool of two threads
    pools = []

    def pool(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(operator_apply, "ThreadPoolExecutor", pool)
    op = builtin_operator("diag-power", size=2**15 + 1, exponent=2.0)
    b = rng.standard_normal(op.dimension)
    threaded = apply_fractional_inverse(op, b, form, parallel=True, max_workers=4)
    assert pools == [2]
    assert np.array_equal(threaded, apply_fractional_inverse(op, b, form))


@pytest.mark.parametrize("parallel", [False, True])
def test_max_workers_validated(parallel):
    op = DiagonalOperator([1.0, 2.0, 3.0])
    form = _form(0.5, 5)
    for bad in (0, -1, 2.5, 2.0, "2", math.nan, True, False):
        with pytest.raises(ValueError, match=f"max_workers must be None or an integer >= 1, got {bad!r}"):
            apply_fractional_inverse(op, np.ones(3), form, parallel=parallel, max_workers=bad)
    serial = apply_fractional_inverse(op, np.ones(3), form)
    for good in (None, 1, np.int64(2), 8):
        x = apply_fractional_inverse(op, np.ones(3), form, parallel=parallel, max_workers=good)
        assert np.array_equal(x, serial)


def test_apply_is_linear():
    op = DiagonalOperator(np.array([1.0, 5.0, 30.0, 1e6]))
    form = _form(0.75, 25)
    b1 = np.array([1.0, 2.0, -1.0, 0.5])
    b2 = np.array([0.0, -3.0, 4.0, 2.0])
    lhs = apply_fractional_inverse(op, 2.0 * b1 - 0.5 * b2, form)
    rhs = 2.0 * apply_fractional_inverse(op, b1, form) - 0.5 * apply_fractional_inverse(op, b2, form)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_diagonal_equivalence_with_scalar_eval(monkeypatch, count_solves):
    evaluations = _evaluations(monkeypatch)
    for eigs, form in ((np.array([2.0, 6.0, 50.0, 4444.0]), _form(0.5, 15)),
                       (np.random.default_rng(14).permutation(np.arange(2.0, 302.0) ** 1.5), _form(0.75, 30, "balanced"))):
        op = DiagonalOperator(eigs)
        evaluations.clear()
        dense = dense_fractional_inverse(op, form)
        # one evaluation for all columns of the identity, and no solve
        assert evaluations == [eigs.size] and count_solves == []
        assert np.array_equal(dense, np.diag(op.lambda_min ** (-form.alpha) * eval_scalar(form, eigs / op.lambda_min)))


def test_dense_fractional_inverse_symmetric():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    w = np.array([1.0, 2.0, 3.5, 7.0, 20.0, 100.0])
    a = (q * w) @ q.T
    op = DenseOperator(a, lambda_min=1.0)
    approx = dense_fractional_inverse(op, _form(0.5, 25))
    assert np.max(np.abs(approx - approx.T)) <= 1e-10
    exact = (q * w**-0.5) @ q.T
    est = estimate_operator_error(25, 0.5).value
    assert np.linalg.norm(approx - exact, 2) <= 3.0 * est


def test_fd1d_spectrum_closed_form():
    m = 50
    op = builtin_operator("fd-laplacian-1d", m=m)
    h = 1.0 / (m + 1)
    j = np.arange(1, m + 1)
    expected = 4.0 * np.sin(j * math.pi * h / 2.0) ** 2 / h**2
    w = np.linalg.eigvalsh(op.to_dense())
    np.testing.assert_allclose(w, np.sort(expected), rtol=1e-12)
    assert op.lambda_min == pytest.approx(expected[0], rel=1e-14)


def test_fd1d_apply_within_estimate():
    m, alpha, n = 50, 0.5, 30
    op = builtin_operator("fd-laplacian-1d", m=m)
    a = op.to_dense()
    w, v = np.linalg.eigh(a)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(m)
    x = apply_fractional_inverse(op, b, _form(alpha, n))
    exact = (v * w**-alpha) @ v.T @ b
    bound = 3.0 * estimate_operator_error(n, alpha).value * op.lambda_min**-alpha
    assert np.linalg.norm(x - exact) <= bound * np.linalg.norm(b)


def test_fd2d_kronecker_sum():
    m = 8
    op = builtin_operator("fd-laplacian-2d", m=m)
    assert op.dimension == m * m
    w = np.linalg.eigvalsh(op.to_dense())
    assert w[0] == pytest.approx(op.lambda_min, rel=1e-12)
    b = np.ones(m * m)
    x = apply_fractional_inverse(op, b, _form(0.25, 20))
    v, q = np.linalg.eigh(op.to_dense())
    exact = (q * v**-0.25) @ q.T @ b
    bound = 3.0 * estimate_operator_error(20, 0.25).value * op.lambda_min**-0.25
    assert np.linalg.norm(x - exact) <= bound * np.linalg.norm(b)


def test_fd2d_matches_dense_operator():
    for m in (5, 12):
        op = builtin_operator("fd-laplacian-2d", m=m)
        dense = DenseOperator(op.to_dense(), op.lambda_min)
        rng = np.random.default_rng(m)
        for b in (rng.standard_normal(m * m), rng.standard_normal((m * m, 3))):
            for form in (_form(0.25, 20), _form(0.75, 30, "equalized")):
                x = apply_fractional_inverse(op, b, form)
                ref = apply_fractional_inverse(dense, b, form)
                assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_fd2d_beyond_dense_cap_applies():
    m, alpha = 60, 0.5
    op = builtin_operator("fd-laplacian-2d", m=m)
    assert isinstance(op, KroneckerSumOperator) and op.dimension == m * m > DENSE_DIM_CAP
    form = _form(alpha, 20, "balanced")
    b = np.random.default_rng(4).standard_normal(m * m)
    x = apply_fractional_inverse(op, b, form)
    # the form applied exactly in the closed-form eigenbasis (orthonormal DST-I on both axes)
    mu = 4.0 * (m + 1) ** 2 * np.sin(np.arange(1, m + 1) * math.pi / (2.0 * (m + 1))) ** 2
    values = op.lambda_min**-alpha * eval_scalar(form, (mu[:, None] + mu[None, :]) / op.lambda_min)
    coef = dstn(b.reshape(m, m), type=1, norm="ortho")
    ref = dstn(values * coef, type=1, norm="ortho").ravel()
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    with pytest.raises(ValueError, match="dimension too large"):
        op.to_dense()
    with pytest.raises(ValueError, match="dimension too large"):
        dense_fractional_inverse(op, form)


@given(
    sigma=st.floats(0.0, 10.0),
    tau=st.floats(0.01, 10.0),
    m=st.integers(1, 12),
    cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_kronecker_sum_solve_residual(sigma, tau, m, cols, seed):
    op = builtin_operator("fd-laplacian-2d", m=m)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(m * m if cols is None else (m * m, cols))
    x = op.shifted_solve(sigma, tau, b)
    assert x.shape == b.shape
    a = sigma * np.eye(m * m) + tau * op.to_dense()
    assert np.linalg.norm(a @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_tridiagonal_computes_lambda_min_when_omitted():
    diag = np.full(9, 2.0)
    off = np.full(8, -1.0)
    op = TridiagonalOperator(diag, off)
    w = np.linalg.eigvalsh(op.to_dense())
    assert op.lambda_min == pytest.approx(w[0], rel=1e-12)


@given(
    sigma=st.floats(0.0, 10.0),
    tau=st.floats(0.01, 10.0),
    m=st.integers(1, 40),
    cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_tridiagonal_solve_residual(sigma, tau, m, cols, seed):
    diag, off = np.full(m, 2.0 * (m + 1) ** 2), np.full(m - 1, -1.0 * (m + 1) ** 2)
    op = TridiagonalOperator(diag, off, lambda_min=1.0)  # spectral floor not needed here
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(m if cols is None else (m, cols))
    x = op.shifted_solve(sigma, tau, b)
    assert x.shape == b.shape
    a = sigma * np.eye(m) + tau * op.to_dense()
    assert np.linalg.norm(a @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def _handles():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    w = np.array([1.0, 1.5, 3.0, 8.0, 20.0, 90.0, 400.0])
    return {
        "diagonal": DiagonalOperator(rng.permutation(w)),
        "tridiagonal": builtin_operator("fd-laplacian-1d", m=7),
        "dense": DenseOperator((q * w) @ q.T, lambda_min=1.0),
        "kronecker": KroneckerSumOperator(TridiagonalOperator([3.0, 5.0, 4.0, 6.0], [-1.0, 0.5, -2.0])),
    }


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal", "dense", "kronecker"])
def test_block_solve_matches_column_solves(kind):
    op = _handles()[kind]
    block = np.random.default_rng(5).standard_normal((op.dimension, 4))
    for sigma, tau in ((1.0, 0.3), (0.02, 1.0)):
        x = op.shifted_solve(sigma, tau, block)
        cols = np.column_stack([op.shifted_solve(sigma, tau, block[:, i]) for i in range(4)])
        assert np.array_equal(x, cols)


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal", "dense", "kronecker"])
def test_handles_solve_blocks_only(kind, monkeypatch):
    # a vector reaches the protected solve as a block of one column, from an apply and from shifted_solve
    op = _handles()[kind]
    shapes = []
    solve = type(op)._solve

    def spy(self, sigma, tau, b):
        shapes.append(b.shape)
        return solve(self, sigma, tau, b)

    monkeypatch.setattr(type(op), "_solve", spy)
    b = np.random.default_rng(6).standard_normal(op.dimension)
    form = _form(0.5, 5)
    for parallel in (False, True):
        assert apply_fractional_inverse(op, b, form, parallel=parallel, max_workers=3).shape == b.shape
    assert op.shifted_solve(1.0, 0.5, b).shape == b.shape
    pieces = 0 if op.diagonal else 2  # a diagonal apply makes no solve; any other, serial then parallel
    assert len(shapes) == pieces * (form.k1 + form.k2) + 1
    assert all(len(shape) == 2 and shape[1] == 1 for shape in shapes), shapes


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal", "dense", "kronecker"])
def test_diagonal_flag(kind):
    # a form acts entrywise on the eigenvalues of the diagonal handle, and of the Kronecker sum in its eigenbasis
    assert _handles()[kind].diagonal is (kind in ("diagonal", "kronecker"))


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal", "dense", "kronecker"])
def test_spectrum_ascending(kind):
    op = _handles()[kind]
    w = op.spectrum()
    steps = np.diff(w)
    # a Kronecker sum repeats mu_a + mu_b as mu_b + mu_a; the other spectra are simple
    assert np.all(steps >= 0.0) if kind == "kronecker" else np.all(steps > 0.0)
    dense = np.diag(op.eigenvalues) if kind == "diagonal" else op.to_dense()
    np.testing.assert_allclose(w, np.linalg.eigvalsh(dense), rtol=1e-12)
    assert w[0] == pytest.approx(op.lambda_min, rel=1e-12)


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal", "dense", "kronecker"])
def test_apply_checks_the_right_hand_side_once(kind, monkeypatch):
    # the solves take the block the apply checked, not the public shifted_solve's checks per term
    op = _handles()[kind]
    checks = []
    check = OperatorHandle._check_rhs

    def spy(self, b):
        checks.append(np.shape(b))
        return check(self, b)

    monkeypatch.setattr(OperatorHandle, "_check_rhs", spy)
    for b in (np.ones(op.dimension), np.ones((op.dimension, 3))):
        checks.clear()
        apply_fractional_inverse(op, b, _form(0.5, 5))
        assert checks == [b.shape], kind


def test_kronecker_sum_refuses_a_factor_that_is_not_tridiagonal():
    for factor in (DenseOperator(np.eye(2), 1.0), DiagonalOperator([1.0, 2.0]), np.eye(2)):
        with pytest.raises(ValueError, match=rf"^a Kronecker sum needs a TridiagonalOperator factor, "
                                             rf"got {type(factor).__name__}$"):
            KroneckerSumOperator(factor)


def test_dense_fractional_inverse_one_solve_per_node(count_solves):
    op = builtin_operator("fd-laplacian-1d", m=36)
    dense_fractional_inverse(op, _form(0.5, 10))
    assert len(count_solves) == 20  # k1 + k2, not dim * (k1 + k2)


def test_kronecker_eigenvalues_are_clipped_at_lambda_min():
    # fd2d:5's computed 2 min(mu) lies below its closed-form lambda_min, where eval_scalar would refuse the apply
    op = builtin_operator("fd-laplacian-2d", m=5)
    mu, _ = eigh_tridiagonal(op.t.diag, op.t.off)  # as the handle computes them; the eigenvalue-only driver rounds otherwise
    assert 2.0 * mu.min() < op.lambda_min
    assert op.eigenvalues.min() == op.lambda_min
    b = np.random.default_rng(16).standard_normal(25)
    x = apply_fractional_inverse(op, b, _form(0.5, 20))
    ref = apply_fractional_inverse(DenseOperator(op.to_dense(), op.lambda_min), b, _form(0.5, 20))
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_fd1d_single_point():
    op = builtin_operator("fd-laplacian-1d", m=1)
    form = _form(0.5, 4)
    x = apply_fractional_inverse(op, np.array([2.0]), form)
    np.testing.assert_allclose(x, 2.0 * op.lambda_min**-0.5 * eval_scalar(form, 1.0), rtol=1e-14)


def test_truncated_matches_full_within_tail_bound():
    alpha, n = 0.5, 60
    eigs = np.arange(1.0, 101.0) ** 8
    op = DiagonalOperator(eigs)
    b = np.ones(100) / 10.0
    full = apply_fractional_inverse(op, b, _form(alpha, n))
    plan = plan_balanced(n, alpha)
    bal = apply_fractional_inverse(op, b, _form(alpha, n, "balanced"))
    rule = gauss_laguerre(n)
    pref = math.sin(alpha * math.pi) / (alpha * math.pi) + math.sin(alpha * math.pi) / ((1 - alpha) * math.pi)
    tail = pref * tail_weight_sum(rule, plan.k1)
    assert np.linalg.norm(full - bal) <= tail * np.linalg.norm(b) * (1.0 + 1e-12)


def test_builtin_diag_power():
    op = builtin_operator("diag-power", size=5, exponent=8.0)
    np.testing.assert_array_equal(op.eigenvalues, np.arange(1.0, 6.0) ** 8)
    assert op.lambda_min == 1.0
    assert np.array_equal(builtin_operator("diag-power", size=np.int64(5), exponent=8.0).eigenvalues, op.eigenvalues)
    with pytest.raises(ValueError, match="unknown operator kind"):
        builtin_operator("spectral-unicorn")
    # sizes are never truncated: a non-integer, a bool or a size below 1 is refused by name
    for bad in (2.5, 3.0, 0, -1, math.inf, math.nan, True, False, "3"):
        with pytest.raises(ValueError, match=rf"^size must be an integer >= 1, got {re.escape(repr(bad))}$"):
            builtin_operator("diag-power", size=bad, exponent=2.0)
        for kind in ("fd-laplacian-1d", "fd-laplacian-2d"):
            with pytest.raises(ValueError, match=rf"^m must be an integer >= 1, got {re.escape(repr(bad))}$"):
                builtin_operator(kind, m=bad)
    assert builtin_operator("fd-laplacian-2d", m=np.int64(3)).dimension == 9


def test_builtin_operator_names_a_missing_or_unexpected_parameter():
    for kind, params, name in (("diag-power", {"size": 5}, "needs the parameter 'exponent'"),
                               ("diag-power", {"exponent": 2.0}, "needs the parameter 'size'"),
                               ("diag-power", {"size": 5, "exponent": 2.0, "m": 3}, "takes no parameter 'm'"),
                               ("fd-laplacian-1d", {"m": 4, "size": 9}, "takes no parameter 'size'"),
                               ("fd-laplacian-2d", {}, "needs the parameter 'm'")):
        with pytest.raises(ValueError, match=rf"^{kind} {name}; its parameters are "):
            builtin_operator(kind, **params)


def test_rejects_non_positive_spectra():
    with pytest.raises(NotPositiveDefiniteError, match="operator not positive definite"):
        DiagonalOperator([1.0, 0.0])
    with pytest.raises(NotPositiveDefiniteError, match="operator not positive definite"):
        DenseOperator(np.array([[1.0, 2.0], [2.0, 1.0]]), lambda_min=0.5)
    with pytest.raises(NotPositiveDefiniteError):
        TridiagonalOperator(np.array([0.1, 0.1]), np.array([-1.0]))
    with pytest.raises(ValueError, match="operator not symmetric"):
        DenseOperator(np.array([[1.0, 0.5], [0.0, 1.0]]), lambda_min=0.5)


def test_handle_checks_dimension_and_lambda_min():
    class Scaled(OperatorHandle):
        def _solve(self, sigma, tau, b):
            return b / (sigma + tau * self.lambda_min)

    form = _form(0.5, 5)
    x = apply_fractional_inverse(Scaled(3, 4.0), np.ones(3), form)
    assert np.all(np.abs(x - 0.5) <= 3.0 * estimate_operator_error(5, 0.5).value * 0.5)
    # an infinite lambda_min would scale every apply to zero
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=rf"^lambda_min must be finite and positive, got {bad!r}$"):
            Scaled(3, bad)
        with pytest.raises(ValueError, match=rf"^lambda_min must be finite and positive, got {bad!r}$"):
            DenseOperator(np.eye(3), lambda_min=bad)
    for bad in (2.5, 0, True, math.inf):
        with pytest.raises(ValueError, match=rf"^dimension must be an integer >= 1, got {bad!r}$"):
            Scaled(bad, 1.0)


def test_dimension_checks():
    op = DiagonalOperator([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError, match="dimension mismatch"):
        apply_fractional_inverse(op, np.ones(4), _form(0.5, 5))
    with pytest.raises(ValueError, match="dimension too large"):
        DenseOperator(np.eye(DENSE_DIM_CAP + 1), lambda_min=1.0)
    with pytest.raises(ValueError, match="dimension too large"):
        dense_fractional_inverse(DiagonalOperator(np.ones(DENSE_DIM_CAP + 1)), _form(0.5, 5))
    with pytest.raises(ValueError, match="dimension too large"):
        builtin_operator("fd-laplacian-1d", m=DENSE_DIM_CAP + 1).to_dense()
    assert builtin_operator("fd-laplacian-1d", m=DENSE_DIM_CAP).to_dense().shape == (DENSE_DIM_CAP, DENSE_DIM_CAP)


def test_rejects_non_finite_rhs_before_any_solve(count_solves):
    op = builtin_operator("fd-laplacian-1d", m=5)
    b = np.ones(5)
    b[2] = np.nan
    with pytest.raises(ValueError, match="right-hand side must be finite: 1 of 5 .* index 2$"):
        apply_fractional_inverse(op, b, _form(0.5, 5))
    # shifted_solve shares the apply's check, which would otherwise solve to NaNs
    for op in _handles().values():
        b = np.ones(op.dimension)
        b[2] = np.nan
        with pytest.raises(ValueError, match=f"right-hand side must be finite: 1 of {op.dimension} .* index 2$"):
            op.shifted_solve(1.0, 1.0, b)
    assert count_solves == []


def test_diagonal_rejects_non_finite_eigenvalues():
    with pytest.raises(ValueError, match="eigenvalues must be finite: 1 of 2 .* index 1"):
        DiagonalOperator([1.0, np.inf])
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        DiagonalOperator([np.nan, 2.0])


def test_dense_rejects_non_finite_entries():
    # refused before the symmetry test, which would pass an inf and report a NaN as asymmetry
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    a[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"matrix entries must be finite: 1 of 9 .* index \(2, 1\)$"):
        DenseOperator(a, lambda_min=0.5)
    a[0, 1] = a[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"matrix entries must be finite: 3 of 9 .* index \(0, 1\)$"):
        DenseOperator(a, lambda_min=0.5)


def test_tridiagonal_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="main diagonal must be finite: 2 of 3 .* index 1$"):
        TridiagonalOperator([2.0, np.nan, np.inf], [-1.0, -1.0])
    with pytest.raises(ValueError, match="off-diagonal must be finite: 1 of 2 .* index 1$"):
        TridiagonalOperator([2.0, 2.0, 2.0], [-1.0, np.inf])


def test_rejects_complex_input():
    # casting a complex array to float would drop the imaginary part and only warn
    message = "must be real, got complex dtype complex128"
    op = DiagonalOperator([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=f"right-hand side {message}"):
        apply_fractional_inverse(op, np.array([1.0 + 2.0j, 1.0, 1.0, 1.0]), _form(0.5, 5))
    for handle in _handles().values():
        with pytest.raises(ValueError, match=f"right-hand side {message}"):
            handle.shifted_solve(1.0, 1.0, np.ones(handle.dimension, dtype=complex))
    with pytest.raises(ValueError, match=f"eigenvalues {message}"):
        DiagonalOperator(np.array([1.0 + 1.0j, 2.0]))
    with pytest.raises(ValueError, match=f"main diagonal {message}"):
        TridiagonalOperator(np.array([2.0, 2.0 + 0.0j]), [-1.0])
    with pytest.raises(ValueError, match=f"off-diagonal {message}"):
        TridiagonalOperator([2.0, 2.0], np.array([-1.0j]))
    with pytest.raises(ValueError, match=f"matrix entries {message}"):
        DenseOperator(np.eye(2, dtype=complex), lambda_min=0.5)


def test_dense_rejects_overstated_lambda_min():
    a = np.diag([1.0, 3.0, 7.0])
    assert DenseOperator(a, lambda_min=1.0).lambda_min == 1.0
    assert DenseOperator(a, lambda_min=0.5).lambda_min == 0.5
    for overstated in (2.5, 1.0 + 1e-6):
        with pytest.raises(NotPositiveDefiniteError, match=r"operator not positive definite above lambda_min="):
            DenseOperator(a, lambda_min=overstated)


def test_tridiagonal_rejects_overstated_lambda_min():
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"above lambda_min=2\.5: its smallest eigenvalue is 1\.0"):
        TridiagonalOperator([2.0, 2.0], [-1.0], lambda_min=2.5)  # eigenvalues 1, 3
    with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue is -1.0"):
        TridiagonalOperator([1.0, 1.0], [-2.0], lambda_min=1.0)  # eigenvalues -1, 3
    assert TridiagonalOperator([2.0, 2.0], [-1.0], lambda_min=0.5).lambda_min == 0.5


def test_fd1d_closed_form_lambda_min_accepted():
    for m in [*range(1, 301), 1000, 2047, 4999, 10000]:
        assert builtin_operator("fd-laplacian-1d", m=m).dimension == m


def test_tridiagonal_indefinite_shift_raises():
    # the constructor refuses an indefinite matrix, so make it indefinite afterwards
    op = TridiagonalOperator(np.array([2.0, 2.0]), np.array([-1.0]))
    op.diag[:] = 1.0
    op.off[:] = -2.0  # eigenvalues -1, 3
    with pytest.raises(NotPositiveDefiniteError) as info:
        op.shifted_solve(0.0, 1.0, np.ones(2))
    assert str(info.value) == ("operator not positive definite: sigma=0.0, tau=1.0: "
                               "leading minor of order 2 not positive definite")
    op = TridiagonalOperator([2.0], [])
    op.diag[:] = -1.0
    with pytest.raises(NotPositiveDefiniteError) as info:
        op.shifted_solve(0.5, 1.0, np.ones(1))
    assert str(info.value) == ("operator not positive definite: sigma=0.5, tau=1.0: "
                               "leading minor of order 1 not positive definite")


def test_tridiagonal_solve_matches_solveh_banded():
    # the solve calls LAPACK ptsv, as solveh_banded does on a two-row band
    rng = np.random.default_rng(8)
    for m in (2, 3, 50, 1000):
        op = builtin_operator("fd-laplacian-1d", m=m)
        block = rng.standard_normal((m, 4))
        for sigma, tau in ((1.0, 0.3), (0.02, 1.0), (3.5, 0.0), (0.0, 2.0)):
            ab = np.zeros((2, m))
            ab[0] = sigma + tau * op.diag
            ab[1, :-1] = tau * op.off
            blocks = [block[:, 0], block, block[:, 1:3], block[:, 1:4:2], block[:, :0]]
            if m <= 400:
                blocks.append(np.eye(m))
            for b in blocks:
                before = b.copy()
                x = op.shifted_solve(sigma, tau, b)
                assert np.array_equal(x, solveh_banded(ab, b, lower=True)), (m, sigma, tau, b.shape)
                assert np.array_equal(b, before)


def test_solve_failure_names_the_failing_term(monkeypatch):
    # ptsv reports the 5th leading minor on its 35th call: the apply names that term, and solves no further
    op = builtin_operator("fd-laplacian-1d", m=1000)
    form = _form(0.5, 40)  # 80 terms
    calls = []
    dptsv = operator_apply.dptsv

    def failing(d, e, b, **kwargs):
        calls.append(d.size)
        out = dptsv(d, e, b, **kwargs)
        return (*out[:3], 5) if len(calls) == 35 else out

    monkeypatch.setattr(operator_apply, "dptsv", failing)
    fam, j, _, sigma, tau = list(form.terms())[34]
    message = (rf"^shifted solve failed \(family {fam}, node {j}\): operator not positive definite: "
               rf"sigma={re.escape(repr(sigma))}, tau={re.escape(repr(tau / op.lambda_min))}: "
               rf"leading minor of order 5 not positive definite$")
    with pytest.raises(RuntimeError, match=message):
        apply_fractional_inverse(op, np.ones(1000), form)
    assert calls == [1000] * 35


def test_tridiagonal_one_point_solve_is_the_quotient():
    op = TridiagonalOperator([3.0], [])
    rng = np.random.default_rng(9)
    for sigma, tau in rng.uniform(0.0, 10.0, (200, 2)):
        b = rng.standard_normal((1, 3))
        assert np.array_equal(op.shifted_solve(sigma, tau, b), b / (sigma + tau * op.diag))


def test_shift_validation():
    for op in _handles().values():
        b = np.ones(op.dimension)
        with pytest.raises(ValueError):
            op.shifted_solve(-0.1, 1.0, b)
        with pytest.raises(ValueError):
            op.shifted_solve(0.0, 0.0, b)
        # a non-finite shift would otherwise solve to NaNs or zeros
        for bad in (math.nan, math.inf):
            for sigma, tau in ((bad, 1.0), (1.0, bad), (bad, 0.0), (0.0, bad), (bad, bad)):
                with pytest.raises(ValueError, match=f"finite.*: sigma={sigma!r}, tau={tau!r}$"):
                    op.shifted_solve(sigma, tau, b)


def test_solve_failure_names_node_and_family():
    class Broken(DenseOperator):  # a diagonal apply makes no solve that could fail
        def _solve(self, sigma, tau, b):
            raise np.linalg.LinAlgError("synthetic breakdown")

    op = Broken(np.diag([1.0, 2.0]), lambda_min=1.0)
    with pytest.raises(RuntimeError, match=r"^shifted solve failed \(family 1, node 1\): synthetic breakdown$") as info:
        apply_fractional_inverse(op, np.ones(2), _form(0.5, 3))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_solve_failure_before_the_first_yield_is_named():
    # a bare handle whose very first solve raises, before any term reaches the sum
    class Eager(OperatorHandle):
        def _solve(self, sigma, tau, b):
            raise np.linalg.LinAlgError("eager breakdown")

    with pytest.raises(RuntimeError, match=r"^shifted solve failed \(family 1, node 1\): eager breakdown$") as info:
        apply_fractional_inverse(Eager(2, 1.0), np.ones(2), _form(0.5, 3))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
