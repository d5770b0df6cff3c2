"""Smoke test of the benchmark's use of the package: a deleted or renamed name
that bench/ reaches fails here, not only in a benchmark run. Reads bench/ only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["apply-mix", "figure-sweep"])
def test_bench_worker_runs_checked_requests(workload, tmp_path):
    # apply-mix times one whole pass: a diagonal handle evaluates only the forms it does
    # not keep, and the first requests after the warm-up repeat forms the warm-up applied
    count = 72 if workload == "apply-mix" else 3
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one BLAS thread, as bench/run_bench.py sets; no bytecode files written under bench/
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), workload, "1", "--count", str(count),
         "--spans", str(tmp_path / "spans.jsonl")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert result["errors"] == []
    assert len(result["records"]) == count and result["warmup"]
    assert all(ok for _, ok, _ in result["warmup"] + result["records"])
    if workload == "apply-mix":
        # a diagonal apply of a form its handle does not keep is one eval_scalar call per
        # row piece, which the tracer wraps: it must still see that work
        assert result["layers"]["scalar_core.eval_scalar.term_evals"] > 0
