"""Print one sha256 per CLI table, to show that a change keeps the CLI's bytes.

Runs the benchmark's figure-sweep commands (read from bench/workloads.py),
EXTRA_COMMANDS, THREADED_COMMANDS each serially and with --parallel,
DENSE_COMMAND and scripts/run_figures.py in-process, through whichever
glfrac comes first on the import path, and prints "<sha256> <exit code>
<table>" per table. A --parallel line must equal its serial twin. Comparing
two checkouts is then one diff:

    PYTHONPATH=/path/to/other/checkout/src python3 scripts/cli_digests.py > before.txt
    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt
    diff before.txt after.txt

The path of the glfrac that ran goes to stderr, outside the diff.
"""

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "scripts")]

import glfrac  # noqa: E402
import run_figures  # noqa: E402
from glfrac.cli import main as cli_main  # noqa: E402
from workloads import FigureSweep  # noqa: E402

# eval_scalar takes one array pass up to 256 points and goes term by term
# above. The figure-sweep tables evaluate 100 and 1000 eigenvalues at up to
# 280 terms; the first command adds 100 eigenvalues at up to 400 terms. The
# second reaches compare's clip at 1: fd1d:15's computed smallest eigenvalue
# sits below its closed-form lambda_min. The third solves 1 x 1 tridiagonal
# systems, which are one quotient each, not a factorization. The fourth to
# seventh measure errors on the spectra of the tridiagonal and Kronecker-sum
# handles: fd2d:20's holds the double eigenvalues mu_a + mu_b (a != b), and
# fd1d:2001 lies past DENSE_DIM_CAP, which matrix-error does not meet. The
# last two apply 90 terms: one ptsv call per term on fd1d:1000, and on fd2d:20
# one evaluation of the form on the Kronecker sum's eigenvalues, between one
# map into its eigenbasis and one back.
EXTRA_COMMANDS = (
    ("matrix-error", "--alpha", "0.5", "--nmax", "200", "--op", "diagpow:100:8"),
    ("compare", "--alpha", "0.5", "--spectrum", "fd1d:15", "--solves", "11,21"),
    ("apply", "--op", "fd1d:1", "--alpha", "0.5", "--n", "4", "--seed", "5"),
    ("matrix-error", "--alpha", "0.5", "--nmax", "4", "--op", "fd1d:12"),
    ("matrix-error", "--alpha", "0.5", "--nmax", "2", "--op", "fd2d:3"),
    ("matrix-error", "--alpha", "0.5", "--nmax", "3", "--op", "fd2d:20"),
    ("matrix-error", "--alpha", "0.5", "--nmax", "3", "--op", "fd1d:2001"),
    *(("apply", "--op", op, "--alpha", "0.5", "--n", "45", "--variant", "full", "--seed", "5")
      for op in ("fd1d:1000", "fd2d:20")),
)

# An apply of 90 terms on a dense handle, one Cholesky factorization per term.
# Its file is written to a temporary directory and holds the fd1d:12 matrix, built
# from the tridiagonal handle's two diagonals, with its closed-form lambda_min, as
# repr floats; the line names it by DENSE_LABEL, so two checkouts print the same line.
DENSE_COMMAND = ("apply", "--op", "dense:{path}", "--alpha", "0.5", "--n", "45", "--variant", "full", "--seed", "5")
DENSE_LABEL = "FD1D12"

# Commands whose output must not depend on --parallel. A diagonal handle cuts
# its rows into ceil(rows / 2**15) ranges either way: diagpow:20000:2 is one
# range, which runs on the calling thread, and diagpow:70000:2 is three, which
# run on a pool. The Kronecker sum does the same in its eigenbasis: fd2d:20 is
# one range, and fd2d:182 (33124 rows) two, on a pool. fd1d solves the
# right-hand side as one piece on the calling thread.
THREADED_COMMANDS = tuple(
    ("apply", "--op", op, "--alpha", alpha, "--n", "40", "--variant", variant, "--seed", "5")
    for op, alpha, variant in itertools.product(("diagpow:20000:2", "diagpow:70000:2", "fd1d:300", "fd2d:20",
                                                 "fd2d:182"),
                                                ("0.25", "0.75"), ("balanced", "equalized")))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_digests(commands):
    """Yield one line per argv: the digest of its stdout, its exit code and the argv."""
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(list(argv))
        yield f"{_sha256(out.getvalue().encode())} {rc} {' '.join(argv)}"


def dense_digests():
    """One line for DENSE_COMMAND, with DENSE_LABEL in place of the file's path."""
    op = glfrac.builtin_operator("fd-laplacian-1d", m=12)
    matrix = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
    rows = [f"{op.dimension} {op.lambda_min!r}", *(" ".join(map(repr, row)) for row in matrix.tolist())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fd1d-12.txt"
        path.write_text("\n".join(rows) + "\n")
        (line,) = command_digests([[arg.format(path=path) for arg in DENSE_COMMAND]])
        return [line.replace(str(path), DENSE_LABEL)]


def figure_digests():
    """One line per file that scripts/run_figures.py writes."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        rc = run_figures.main(["--outdir", tmp])
        return [f"{_sha256(path.read_bytes())} {rc} run_figures/{path.name}"
                for path in sorted(Path(tmp).iterdir())]


def main() -> int:
    print(f"glfrac from {Path(glfrac.__file__).parent}", file=sys.stderr)
    threaded = [variant for argv in THREADED_COMMANDS for variant in (argv, (*argv, "--parallel"))]
    commands = (*FigureSweep.COMMANDS, *EXTRA_COMMANDS, *threaded)
    for line in (*command_digests(commands), *dense_digests(), *figure_digests()):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
