"""The benchmark's workloads: request stream, timed call and check for each.

Each request stream is built from the seed alone and cycles through a
fixed grid, one pass after another. A timed run ends on a pass boundary,
so every run holds each grid point equally often, and the median and
tail fall at the same place in the grid on every run. The seed changes the
order of each pass on figure-sweep and the right-hand sides on apply-mix.

The checks import the benchmark's oracle lazily, after set-up, so that
set-up time holds only glfrac's own import and construction cost.
"""

import contextlib
import io
import itertools
import os
from pathlib import Path

import numpy as np

NPROC = os.cpu_count() or 1
REFS = Path(__file__).resolve().parent / "refs"

# Promised errors below this are roundoff; the accuracy ratio of a table
# row divides by at least this much.
ACCURACY_FLOOR = 1e-13
# Relative slack between a matrix-error row and the closed-form worst error.
ROW_RTOL = 1e-6


def _cycle(rng, grid):
    while True:
        for i in rng.permutation(len(grid)):
            yield grid[i]


class ApplyMix:
    """The paper's use case: select_n, plan, build_rational and one apply per request."""

    name = "apply-mix"
    OPERATORS = (
        ("diag-power", {"size": 100_000, "exponent": 2.0}),
        ("fd-laplacian-1d", {"m": 1000}),
        ("fd-laplacian-2d", {"m": 20}),
    )
    # Every (operator, alpha, tol, variant) runs once serially and once with
    # its solves on a pool of NPROC threads in each pass. The pass order is
    # one fixed shuffle for every seed: peak RSS depends on the order in
    # which the large diagonal requests meet the allocator's per-thread
    # arenas (measured 187-252 MB across seeded orders), and the seed draws
    # the right-hand sides.
    GRID = tuple(itertools.product(range(len(OPERATORS)), (0.25, 0.5, 0.75), (1e-6, 1e-8),
                                   ("balanced", "equalized"), (False, True)))
    ORDER = np.random.default_rng(0).permutation(len(GRID))

    pass_size = len(GRID)
    # a third of a pass (about 3 s) meets every operator, serial and parallel
    warmup_size = pass_size // 3

    def setup(self):
        import glfrac

        self.glfrac = glfrac
        self.ops = [glfrac.builtin_operator(kind, **params) for kind, params in self.OPERATORS]
        self._spectra = {}
        self._forms = {}

    def requests(self, seed):
        rng = np.random.default_rng(seed)
        for i in itertools.cycle(self.ORDER):
            yield (*self.GRID[i], int(rng.integers(2**63)))

    def prepare(self, request):
        op_index, alpha, tol, variant, parallel, b_seed = request
        b = np.random.default_rng(b_seed).standard_normal(self.ops[op_index].dimension)
        return op_index, alpha, tol, variant, parallel, b

    def run(self, request):
        op_index, alpha, tol, variant, parallel, b = request
        g = self.glfrac
        n, _ = g.select_n(alpha, tol)
        plan = g.plan_balanced(n, alpha) if variant == "balanced" else g.plan_equalized(n, alpha)
        form = g.build_rational(alpha, plan)
        x = g.apply_fractional_inverse(self.ops[op_index], b, form, parallel=parallel,
                                       max_workers=NPROC if parallel else None)
        return form, x

    def check(self, request, output):
        """x must realise its own form and lie within the form's worst error of L**(-alpha) b.

        Both references are applied in the operator's closed-form eigenbasis.
        """
        from oracle import APPLY_ROUNDOFF, FORM_RTOL, Spectrum

        op_index, alpha, tol, _, _, b = request
        form, x = output
        if op_index not in self._spectra:
            kind, params = self.OPERATORS[op_index]
            self._spectra[op_index] = Spectrum(kind, **params)
        spectrum = self._spectra[op_index]
        key = (op_index, form.alpha, form.variant, form.n1, form.n2, form.k1, form.k2)
        if key not in self._forms:
            values = spectrum.form_values(form)
            self._forms[key] = values, spectrum.worst_error(values, alpha)
        values, worst = self._forms[key]
        x = np.asarray(x)
        if x.shape != b.shape or not np.all(np.isfinite(x)):
            return False, worst / tol
        post = spectrum.lambda_min ** (-alpha)
        x_form = post * spectrum.apply(b, values)
        x_ref = spectrum.power(b, alpha)
        ok = (np.linalg.norm(x - x_form) <= FORM_RTOL * np.linalg.norm(x_form)
              and np.linalg.norm(x - x_ref)
              <= worst * post * np.linalg.norm(b) + APPLY_ROUNDOFF * np.linalg.norm(x_ref))
        return bool(ok), worst / tol


class _CliWorkload:
    """Requests are argv lists run in-process through glfrac.cli.main."""

    COMMANDS = ()

    @property
    def pass_size(self):
        return len(self.COMMANDS)

    warmup_size = pass_size  # one whole pass

    def setup(self):
        import glfrac.cli

        self.cli = glfrac.cli

    def requests(self, seed):
        return _cycle(np.random.default_rng(seed), self.COMMANDS)

    def prepare(self, request):
        return request

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(list(argv))
        return rc, out.getvalue()

    @staticmethod
    def _accuracy(text):
        """Largest error / max(estimate, floor) over the rows of an error table."""
        from oracle import parse_csv

        header, rows = parse_csv(text)
        names = header.split(",")
        if "error" not in names or "estimate" not in names:
            return None
        e, s = names.index("error"), names.index("estimate")
        return max(row[e] / max(row[s], ACCURACY_FLOOR) for row in rows)


def _argv(*tokens):
    return tuple(str(t) for t in tokens)


class FigureSweep(_CliWorkload):
    """The paper's experiment tables through the CLI.

    Most tables rebuild rules and evaluate scalars, with no large solves;
    they are checked against stored references. The matrix-error sweeps on
    finite-difference Laplacians materialise the approximation with
    dense_fractional_inverse (one solve per column and shift) plus eigh;
    their rows are checked against the closed-form spectrum.
    """

    name = "figure-sweep"
    TABLES = (
        *(_argv("scalar-error", "--alpha", a, "--lam", lam, "--nmax", nmax)
          for a in ("0.25", "0.5", "0.75") for lam, nmax in (("10", 200), ("10000", 150))),
        *(_argv("matrix-error", "--alpha", a, "--nmax", nmax, "--op", op, "--variant", v)
          for a, nmax, op in (("0.5", 140, "diagpow:100:8"), ("0.25", 140, "diagpow:1000:4"))
          for v in ("full", "balanced", "equalized")),
        *(_argv("compare", "--alpha", a, "--spectrum", "diagpow:100:8",
                "--solves", "11,21,31,41,61,81") for a in ("0.25", "0.5", "0.75")),
        *(_argv("select-n", "--alpha", "0.5", "--tol", tol)
          for tol in ("1e-2", "1e-4", "1e-6", "1e-8")),
        *(_argv("nodes", "--n", n) for n in (1024, 2048)),
    )
    # small nmax keeps these at 0.07-0.2 s, on both sides of the median of
    # the other tables, so the median stays among like-sized commands
    DENSE = tuple(
        _argv("matrix-error", "--alpha", "0.5", "--nmax", nmax, "--op", op, "--variant", v)
        for op, nmax in (("fd2d:12", 1), ("fd1d:128", 2))
        for v in ("full", "balanced", "equalized"))
    COMMANDS = TABLES + DENSE

    def check(self, argv, output):
        """A table must match its stored reference (see oracle.tables_match); a
        dense sweep's rows must match the closed-form spectrum."""
        from oracle import tables_match

        rc, text = output
        if rc != 0:
            return False, None
        if argv in self.DENSE:
            ok = _rows_match_closed_form(argv, text)
        else:
            ok = tables_match(text, reference_path(argv).read_text())
        return ok, self._accuracy(text)


def _rows_match_closed_form(argv, text):
    """Each matrix-error row's error must equal the form's worst error over the
    closed-form spectrum, and its inversions the plan's predicted count."""
    import glfrac as g
    from oracle import Spectrum, parse_csv

    opts = dict(zip(argv[1::2], argv[2::2]))
    alpha, variant = float(opts["--alpha"]), opts["--variant"]
    spectrum = Spectrum.from_spec(opts["--op"])
    post = spectrum.lambda_min ** (-alpha)
    header, rows = parse_csv(text)
    ok = header == "n,inversions,error,estimate" and \
        [row[0] for row in rows] == list(range(1, int(opts["--nmax"]) + 1))
    for n, inversions, error, _ in rows if ok else ():
        plan = g.plan_full(n) if variant == "full" else getattr(g, f"plan_{variant}")(n, alpha)
        values = spectrum.form_values(g.build_rational(alpha, plan))
        expected = post * spectrum.worst_error(values, alpha)
        ok = ok and inversions == plan.predicted_inversions and \
            abs(error - expected) <= ROW_RTOL * expected
    return ok


def reference_path(argv) -> Path:
    """Stored reference table of one figure-sweep command."""
    slug = "".join(c if c.isalnum() or c in ".-" else "_" for c in "_".join(argv))
    return REFS / f"{slug}.csv"


WORKLOADS = {w.name: w for w in (ApplyMix, FigureSweep)}
