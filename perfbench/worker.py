"""One workload process of the benchmark (started by run.py).

It imports `graphifs` from the checkout's `src/`, generates and writes
the workload's first inputs, prints `READY`, then runs a single-thread
closed loop for --seconds of wall time, and on past that until it has
run MIN_QUERIES queries: each query starts when the previous one has
returned and been checked.  The last line printed is
`RESULT <json>`.

Times are CPU times of this process.  A query does no I/O beyond reading
a small spec file from the page cache, so its CPU time is its latency
minus the time the machine gave the CPU to someone else; on a shared
virtual machine that stolen time is large and random (the same call
measured 118 ms of CPU time and 238 ms of wall time).  Set-up time is
the process's CPU time when it prints `READY`: interpreter start,
`import graphifs`, and generating and writing the first inputs.  Each
query's latency covers the query alone; oracle checks and any further
input generation happen between queries, off that clock.

Between queries the worker samples a calibration process
(calibrate.py), and the result carries each latency both as measured
and scaled to the reference machine speed.

    python3 perfbench/worker.py --workload numeric --seed 1 --seconds 10 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Inputs generated before the first timed query; more are drawn off the
# clock if a run gets through them.
PRIMED = {"fixed-deep": 23, "fresh-certify": 150, "numeric": 300}
# The output digest covers this many leading queries, which every
# baseline run completes, so runs of different speed hash the same work.
DIGEST_QUERIES = 60
# So that at least ten samples lie beyond p90.  A slow machine gives
# fixed-deep fewer than this in 35 s.
MIN_QUERIES = 100


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import graphifs  # noqa: F401  (timed as part of set-up)
    from oracle import Mismatch
    from workloads import WORKLOADS, Workdir

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    work = Workdir(tempfile.mkdtemp(dir=os.path.join(HERE, "work")))
    try:
        stream = WORKLOADS[args.workload](random.Random(args.seed), work)
        pending = deque(next(stream) for _ in range(PRIMED[args.workload]))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(f"READY {usage.ru_utime + usage.ru_stime!r}", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()

        from calibrate import Calibrator, scaled
        with Calibrator() as calibrator:
            kernel_times = [calibrator.sample()]
            latencies, kinds, failures = [], [], []
            digest = hashlib.sha256()
            clock = time.perf_counter
            start = clock()
            while clock() - start < args.seconds or len(latencies) < MIN_QUERIES:
                query = pending.popleft() if pending else next(stream)
                if tracer:
                    # every other query is traced; the rest measure the overhead
                    tracer.active = len(latencies) % 2 == 0
                error, output = None, None
                t0 = time.thread_time()
                try:
                    output = query.run()
                except (Exception, SystemExit) as exc:  # a failed query, not a crash
                    error = f"{query.kind}: {type(exc).__name__}: {exc}"
                latency = time.thread_time() - t0
                if tracer:
                    tracer.active = False
                kernel_times.append(calibrator.sample())
                if error is None:
                    try:
                        pending.extendleft(reversed(query.check(output)))
                    except Mismatch as exc:
                        error = str(exc)
                    except Exception as exc:  # unparsable output is a mismatch too
                        error = f"{query.kind}: output check raised {type(exc).__name__}: {exc}"
                latencies.append(latency)
                kinds.append(query.kind)
                if error is not None:
                    failures.append(error)
                if len(latencies) <= DIGEST_QUERIES:
                    digest.update(f"{query.kind}\n".encode())
                    digest.update((error or query.text(output)).encode())

        result = {
            "latencies": latencies,
            "scaled": scaled(latencies, kernel_times),
            "kernel_s": kernel_times,
            "kinds": kinds,
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digest": digest.hexdigest() if len(latencies) >= DIGEST_QUERIES else None,
            "layers": tracer.metrics() if tracer else None,
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work.root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
