"""glfrac's benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload apply-mix --seed 1 --seconds 50 --trace 0

Workloads are defined in workloads.py and described in README.md. With
--trace 0 the run reports the end-to-end metrics: set-up time (median of
several fresh interpreters, each timed from start to "ready"), request
latency median and tail, requests per second, peak RSS and the worst
accuracy ratio. With --trace 1 it reports the per-layer metrics instead:
import times from `python -X importtime`, a traced run of half the
seconds, and the tracing overhead from replaying the same requests
untraced.

Every request's output is checked. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it state the machine and the run. The full record, with spans of a
traced run, goes to bench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3  # fresh interpreters timed to "ready"; the measuring one adds a fourth
DEADLINE_S = 170.0  # every run, build included, must end within 180 s
TAIL_PERCENTILES = (90, 50)  # the tail is the highest with at least ten samples beyond it
IMPORT_GROUPS = ("glfrac", "numpy", "scipy")
# One BLAS thread per solve: a parallel apply already runs nproc solves at
# once, and BLAS threads on top of them outnumber the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def spawn(args, deadline, python_flags=(), stderr=None):
    """Run worker.py; return (seconds from start to "ready", parsed last line or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(BLAS_ENV)
    cmd = [sys.executable, *python_flags, str(BENCH / "worker.py"), *map(str, args)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
                            text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise ChildFailed(f"worker {' '.join(map(str, args))} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def tail(latencies):
    """(percentile, value, samples beyond it) by nearest rank."""
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10 or pct == TAIL_PERCENTILES[-1]:
            return pct, ordered[rank - 1], len(ordered) - rank


def import_times(path):
    """Self times of `-X importtime` grouped by top-level package, in seconds."""
    groups = dict.fromkeys((*IMPORT_GROUPS, "other", "total"), 0.0)
    scipy_optimize = 0.0
    for line in path.read_text().splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = (f.strip() for f in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        groups[top if top in IMPORT_GROUPS else "other"] += int(self_us) / 1e6
        groups["total"] += int(self_us) / 1e6
        if name == "scipy.optimize":
            scipy_optimize = int(cumulative_us) / 1e6
    metrics = {f"import.{k}_s": v for k, v in groups.items()}
    metrics["import.scipy.optimize_s"] = scipy_optimize
    return metrics


def machine_facts():
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
        for index, level in ((2, "l2_per_core"), (3, "l3_shared")):
            cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
            facts[level] = cache.read_text().strip()
    except (OSError, StopIteration):
        pass
    facts["commit"] = None
    if (ROOT / ".git").exists():
        try:
            facts["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                             capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "glfrac").glob("*.py")):
        digest.update(path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()[:16]
    facts["note"] = "every working set fits in L3; the benchmark makes no memory-bandwidth claim"
    return facts


def end_to_end(args, deadline):
    def setup_only():
        return spawn([args.workload, args.seed, "--setup-only"], deadline)[0]

    # set-up samples on both sides of the measuring run, so a slow spell of
    # the machine at the start does not bias all of them
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setup_s, result = spawn([args.workload, args.seed, "--seconds", args.seconds], deadline)
    setups.append(setup_s)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    latencies = [r[0] for r in result["records"]]
    pct, tail_s, beyond = tail(latencies)
    ratios = [r[2] for r in result["records"] if r[2] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail_s,
        "requests_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "accuracy_ratio_max": max(ratios),
    }
    notes = {"setup_samples_s": setups, "tail_percentile": pct, "samples_beyond_tail": beyond}
    return [result], metrics, notes


def per_layer(args, deadline):
    stem = f"{args.workload}-seed{args.seed}"
    importtime = OUT / f"{stem}-importtime.txt"
    with importtime.open("w") as fh:
        spawn([args.workload, args.seed, "--setup-only"], deadline, ("-X", "importtime"), fh)
    _, traced = spawn([args.workload, args.seed, "--seconds", args.seconds / 2,
                       "--spans", OUT / f"{stem}-spans.jsonl.gz"], deadline)
    _, replay = spawn([args.workload, args.seed, "--count", len(traced["records"])], deadline)
    traced_s = sum(r[0] for r in traced["records"])
    untraced_s = sum(r[0] for r in replay["records"])
    metrics = {**traced["layers"], **import_times(importtime),
               "trace.overhead_frac": (traced_s - untraced_s) / untraced_s}
    notes = {"traced_requests": len(traced["records"]), "traced_busy_s": traced_s,
             "untraced_busy_s": untraced_s}
    return [traced, replay], metrics, notes


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description="Run one glfrac benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "glfrac" / "__init__.py").is_file():
        print(f"error: no glfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        results, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the warm-up pass is checked too, so it counts as attempted
    checked = [rec for r in results for rec in r["warmup"] + r["records"]]
    attempted = len(checked)
    failed = sum(not rec[1] for rec in checked)
    facts = {**machine_facts(), **results[0]["facts"]}
    notes.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                 attempted=attempted, failed=failed, ops_failed_frac=failed / attempted,
                 errors=[e for r in results for e in r["errors"]])
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    record = {"machine": facts, "run": notes, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("# machine " + json.dumps(facts))
    print("# run " + json.dumps(notes))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"ops_failed_frac {failed / attempted!r} ({failed} of {attempted} requests)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
