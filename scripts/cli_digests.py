"""Print one sha256 per CLI table, to show that a change keeps the CLI's bytes.

Runs the benchmark's figure-sweep commands (read from bench/workloads.py)
and scripts/run_figures.py in-process, through whichever glfrac comes first
on the import path, and prints "<sha256> <exit code> <table>" per table.
Comparing two checkouts is then one diff:

    PYTHONPATH=/path/to/other/checkout/src python3 scripts/cli_digests.py > before.txt
    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt
    diff before.txt after.txt

The path of the glfrac that ran goes to stderr, outside the diff.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "scripts")]

import glfrac  # noqa: E402
import run_figures  # noqa: E402
from glfrac.cli import main as cli_main  # noqa: E402
from workloads import FigureSweep  # noqa: E402


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
    for line in (*command_digests(FigureSweep.COMMANDS), *figure_digests()):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
