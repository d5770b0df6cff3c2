"""Self-check of the benchmark: every metric is emitted, and a wrong result fails.

    python3 bench/selfcheck.py        (or: python3 -m pytest bench/selfcheck.py)

A two-second run of each workload, untraced and traced, must print every
metric BENCHMARK.json names, with its unit, and pass its own checks.
Then each workload runs a few requests in-process while glfrac's public
entry point is wrapped to scale every number it returns by 1 + 1e-3;
every one of those requests must count as failed.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import glfrac  # noqa: E402
import glfrac.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PERTURBATION = 1 + 1e-3


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_emit_every_metric():
    spec = _spec()
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload["name"], "--seed", "7",
                 "--seconds", "2", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], trace, set(got) ^ set(want))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _perturbed_array(original):
    def wrapper(*args, **kwargs):
        return original(*args, **kwargs) * PERTURBATION
    return wrapper


def _perturbed_table(original):
    def scale(token):
        try:
            int(token)
            return token
        except ValueError:
            pass
        try:
            return repr(float(token) * PERTURBATION)
        except ValueError:
            return token

    def wrapper(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = original(argv)
        lines = out.getvalue().splitlines()
        rows = [",".join(scale(t) for t in line.split(",")) for line in lines[1:]]
        sys.stdout.write("\n".join([lines[0], *rows]) + "\n")
        return rc
    return wrapper


def test_perturbed_results_count_as_failed():
    patches = {"apply-mix": (glfrac, "apply_fractional_inverse", _perturbed_array),
               "figure-sweep": (glfrac.cli, "main", _perturbed_table)}
    for name, (module, attr, perturb) in patches.items():
        workload = workloads.WORKLOADS[name]()
        workload.setup()
        count = workload.pass_size
        original = getattr(module, attr)
        setattr(module, attr, perturb(original))
        try:
            records, errors = worker.run_loop(workload, seed=7, count=count)
        finally:
            setattr(module, attr, original)
        assert not errors, errors
        passed = [r for r in records if r[1]]
        assert not passed, f"{name}: {len(passed)} of {len(records)} perturbed results passed"


if __name__ == "__main__":
    test_smoke_runs_emit_every_metric()
    test_perturbed_results_count_as_failed()
    print("selfcheck passed")
