"""graphifs benchmark: seeded workloads, end-to-end query metrics, and a
traced per-layer run.

    python3 perfbench/run.py --workload fixed-deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout: it imports `graphifs` from `src/`
and reads the metric names and units from `BENCHMARK.json`.

Each workload runs in its own process (perfbench/worker.py).  With
`--trace 0` this script starts several set-up-only processes and one
timed process, and reports the end-to-end metrics of BENCHMARK.json:
queries per second, median and 90th-percentile query latency, peak RSS
of the timed process and the median set-up time (process start through
`import graphifs` and writing the first inputs, up to the first timed
query).  Times are CPU times scaled to a reference machine speed by a
calibration process sampled next to each of them (calibrate.py).  With `--trace 1` it runs one process that traces every other
query, and reports the per-layer metrics of the traced queries plus the
tracing overhead: the gap in queries per second between its traced and
its plain queries, matched by query kind.
`--workload all` runs every workload both ways and prints a summary.

The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Any oracle mismatch makes the run incorrect and
the exit code 1; a checkout without `src/graphifs` exits with code 2
before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from calibrate import REFERENCE_S, Calibrator, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fixed-deep", "fresh-certify", "numeric")
SETUP_PROBES = 7  # set-up-only processes per plain run


class WorkerError(Exception):
    pass


def run_worker(workload, seed, seconds, *flags):
    """Run one worker; return (its set-up CPU seconds, its result or None)."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), *flags]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(60.0, 4 * seconds))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise WorkerError(f"{workload} worker failed (exit {proc.returncode})")
    result = None
    if lines[-1].startswith("RESULT "):
        result = json.loads(lines[-1][len("RESULT "):])
    return float(lines[0].split()[1]), result


def quantiles(latencies):
    cuts = statistics.quantiles(latencies, n=10)
    return cuts[4], cuts[8]


def summarize(result):
    lat = result["scaled"]
    p50, p90 = quantiles(lat)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "query_p50_ms": p50 * 1e3,
        "query_p90_ms": p90 * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def describe(workload, result):
    """Per-kind shares and latencies, sample counts and failures."""
    lat, kinds = result["scaled"], result["kinds"]
    n = len(lat)
    p50, p90 = quantiles(lat)
    kernel = result["kernel_s"]
    print(f"[{workload}] queries={n} failed={len(result['failures'])} "
          f"failed_frac={len(result['failures']) / n:.4f} "
          f"beyond_p90={sum(x > p90 for x in lat)}")
    print(f"[{workload}] calibration kernel: median "
          f"{statistics.median(kernel) * 1e3:.3f} ms, min {min(kernel) * 1e3:.3f} ms, "
          f"max {max(kernel) * 1e3:.3f} ms (reference {REFERENCE_S * 1e3:g} ms)")
    by_kind = {}
    for kind, x, raw in zip(kinds, lat, result["latencies"]):
        by_kind.setdefault(kind, ([], []))
        by_kind[kind][0].append(x)
        by_kind[kind][1].append(raw)
    for kind, (xs, raws) in sorted(by_kind.items(),
                                   key=lambda kv: statistics.median(kv[1][0])):
        print(f"[{workload}]   {kind:24s} share={len(xs) / n:6.1%} "
              f"median={statistics.median(xs) * 1e3:9.2f} ms "
              f"(measured {statistics.median(raws) * 1e3:9.2f} ms)  n={len(xs)}")
    for failure in result["failures"][:10]:
        print(f"[{workload}] FAILED {failure}")
    if result["digest"]:
        print(f"[{workload}] output_sha256(first queries)={result['digest']}")


def plain_run(workload, seed, seconds):
    setups = []
    with Calibrator() as calibrator:
        kernel = [calibrator.sample()]
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(workload, seed, 0, "--setup-only")[0])
            kernel.append(calibrator.sample())
    setups = scaled(setups, kernel)
    _, result = run_worker(workload, seed, seconds)
    describe(workload, result)
    metrics = summarize(result)
    metrics["setup_s"] = statistics.median(setups)
    print(f"[{workload}] setup_s samples: "
          + " ".join(f"{x:.4f}" for x in setups))
    return result, metrics


def traced_run(workload, seed, seconds):
    """Per-layer metrics from a traced process.  It traces every other
    query, so the overhead compares traced and plain queries of the same
    kinds run side by side in time: on this class of shared machine the
    speed drifts between two runs by more than the tracing costs."""
    _, result = run_worker(workload, seed, seconds, "--trace")
    describe(workload + " traced", result)
    by_kind = {}
    for i, (kind, latency) in enumerate(zip(result["kinds"], result["scaled"])):
        by_kind.setdefault(kind, ([], []))[i % 2].append(latency)
    # per kind, the mean of each half weighted by the kind's full count
    time_traced = time_plain = 0.0
    count = 0
    for traced, plain in by_kind.values():
        if traced and plain:
            n = len(traced) + len(plain)
            time_traced += n * statistics.fmean(traced)
            time_plain += n * statistics.fmean(plain)
            count += n
    metrics = dict(result["layers"])
    for name in sorted(metrics):
        if name.endswith(".calls") and metrics[name]:
            function = name[:-len(".calls")]
            print(f"[{workload} traced]   {function:42s} calls={metrics[name]:8d} "
                  f"self_s={metrics[function + '.self_s']:.4f}")
    metrics["trace.queries"] = len(result["latencies"][::2])
    metrics["trace.plain_ops_per_s"] = count / time_plain
    metrics["trace.traced_ops_per_s"] = count / time_traced
    metrics["trace.overhead_frac"] = time_traced / time_plain - 1
    return result, metrics


def report(spec, result, metrics):
    names = {m["name"]: m["unit"] for m in spec}
    missing = [name for name in names if name not in metrics]
    if missing:
        raise WorkerError(f"metrics not measured: {missing}")
    attempted = len(result["latencies"])
    failed = len(result["failures"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }


def run_one(bench, workload, seed, seconds, trace):
    if trace:
        result, metrics = traced_run(workload, seed, seconds)
        doc = report(bench["per_layer"], result, metrics)
    else:
        result, metrics = plain_run(workload, seed, seconds)
        doc = report(bench["end_to_end"], result, metrics)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "graphifs", "__init__.py")):
        print("perfbench: no src/graphifs next to perfbench/; run from a "
              "graphifs checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    if args.workload != "all":
        doc = run_one(bench, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(doc))
        return 0 if doc["correct"] else 1

    docs = {(workload, trace): run_one(bench, workload, args.seed, args.seconds, trace)
            for workload in WORKLOADS for trace in (0, 1)}
    print(f"{'metric':28s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    rows = [(0, "attempted", "count")] + [
        (0, m["name"], m["unit"]) for m in bench["end_to_end"]] + [
        (1, "trace.overhead_frac", "ratio")]
    for trace, name, unit in rows:
        values = [docs[(w, trace)]["metrics"][name]["value"] if name != "attempted"
                  else docs[(w, trace)]["attempted"] for w in WORKLOADS]
        print(f"{name:28s} {unit:6s}" + "".join(f"{v:16.4f}" for v in values))
    return 0 if all(doc["correct"] for doc in docs.values()) else 1

if __name__ == "__main__":
    sys.exit(main())
