"""Print one sha256 per CLI table, to show that a change keeps the CLI's bytes.

Runs the benchmark's figure-sweep commands (read from bench/workloads.py),
EXTRA_COMMANDS, THREADED_COMMANDS each serially and with --parallel, and
scripts/run_figures.py in-process, through whichever glfrac comes first on
the import path, and prints "<sha256> <exit code> <table>" per table. A --parallel line must equal its serial twin. Comparing two
checkouts is then one diff:

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
# systems, which are one quotient each, not a factorization.
EXTRA_COMMANDS = (
    ("matrix-error", "--alpha", "0.5", "--nmax", "200", "--op", "diagpow:100:8"),
    ("compare", "--alpha", "0.5", "--spectrum", "fd1d:15", "--solves", "11,21"),
    ("apply", "--op", "fd1d:1", "--alpha", "0.5", "--n", "4", "--seed", "5"),
)

# Commands whose output must not depend on --parallel: on a diagonal handle
# the right-hand side splits into row ranges, on fd1d and fd2d into column
# groups, so a vector there runs as one piece and the identity blocks of
# matrix-error's dense inverses split.
THREADED_COMMANDS = (
    *(("apply", "--op", op, "--alpha", alpha, "--n", "40", "--variant", variant, "--seed", "5")
      for op, alpha, variant in itertools.product(("diagpow:20000:2", "fd1d:300", "fd2d:20"), ("0.25", "0.75"),
                                                  ("balanced", "equalized"))),
    ("matrix-error", "--alpha", "0.5", "--nmax", "4", "--op", "fd1d:12"),
    ("matrix-error", "--alpha", "0.5", "--nmax", "2", "--op", "fd2d:3"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_digests(commands):
    """Yield one line per argv: the digest of its stdout, its exit code and the argv."""
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(list(argv))
        yield f"{_sha256(out.getvalue().encode())} {rc} {' '.join(argv)}"


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
    for line in (*command_digests(commands), *figure_digests()):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
