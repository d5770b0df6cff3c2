"""One benchmark process: set a workload up, say so, then run its requests.

Started by run_bench.py in a fresh interpreter with the checkout's src/
on PYTHONPATH. It prints "ready" once the first request can be sent,
which is where set-up time ends. Without --setup-only it then runs an
untimed, untraced warm-up (a pass through the workload's grid, or part
of one; its results are checked too) and then a closed loop (one request
at a time, no think time): whole passes through the grid, ending at the
pass boundary nearest to --seconds, or exactly --count requests. It
prints one JSON line: per request the latency, whether the check passed
and its accuracy ratio, plus the process's peak RSS and, with --spans,
the per-layer summary of a traced run. Checks run between requests,
outside the timed call and, when traced, with recording paused.
"""

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _blas_facts():
    """Name, version and thread count of each OpenBLAS the process loaded."""
    import ctypes

    import numpy as np

    facts = {"numpy_blas": "{name} {version}".format(**np.show_config(mode="dicts")
                                                    ["Build Dependencies"]["blas"])}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                facts[f"blas_threads.{Path(path).name}"] = getter()
                break
    return facts


def run_loop(workload, seed, seconds=None, count=None, tracer=None):
    """Closed loop over the seeded stream, for exactly `count` requests or for
    whole passes of the grid, so that every grid point runs equally often.
    A timed loop ends at the pass boundary nearest to `seconds`.

    Returns one [latency_s, check_passed, accuracy_ratio] per request and
    the messages of requests that raised.
    """
    stream = workload.requests(seed)
    records, errors = [], []
    start = time.perf_counter()

    def more():
        if count is not None:
            return len(records) < count
        passes, rest = divmod(len(records), workload.pass_size)
        elapsed = time.perf_counter() - start
        return rest or not passes or elapsed + elapsed / passes / 2 < seconds

    while more():
        request = workload.prepare(next(stream))
        with tracer.span("request") if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                output = workload.run(request)
            except Exception as exc:  # a failed request is counted, not fatal
                output = None
                errors.append(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        ok, ratio = workload.check(request, output) if output is not None else (False, None)
        if tracer:
            tracer.enabled = True
        records.append([latency, ok, ratio])
    return records, errors


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--count", type=int)
    parser.add_argument("--spans", type=Path, help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload.setup()
    import glfrac

    if Path(glfrac.__file__).resolve().parent != ROOT / "src" / "glfrac":
        raise SystemExit(f"glfrac was imported from {glfrac.__file__}, not from this checkout")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        tracer.enabled = False
    warmup, warmup_errors = run_loop(workload, args.seed, count=workload.warmup_size)
    if tracer:
        tracer.enabled = True
    records, errors = run_loop(workload, args.seed, seconds=args.seconds, count=args.count,
                               tracer=tracer)
    result = {
        "records": records,
        "warmup": warmup,
        "errors": (warmup_errors + errors)[:10],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "facts": _blas_facts(),
    }
    if tracer:
        tracer.enabled = False
        result["layers"] = tracing.summarise(tracer.spans)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
