"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the CPU time of a fixed piece of Python
drifts by up to 1.8x within minutes, and in bursts of a few seconds,
because other tenants contend for the same cores and caches.  The
drift hits the program and any other Python code alike: a span-search
query that took 850 ms instead of 450 ms ran next to a kernel that took
150 ms instead of 90 ms.

A `Calibrator` is a separate process that runs one fixed kernel on
request and reports the kernel's CPU time.  The benchmark samples it
between queries and reports each time scaled to a reference machine on
which the kernel takes `REFERENCE_S`:

    scaled = measured * REFERENCE_S / (kernel time measured around it)

The kernel runs in its own process with its garbage collector off, so
nothing the program does to its own heap, collector or modules changes
the kernel's time: a slower program still reads slower.

    python3 perfbench/calibrate.py    # prints a few kernel times
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Kernel CPU time on the reference machine: about its median on a
# 2-vCPU KVM guest (Intel Xeon, Python 3.11) in a quiet minute.
REFERENCE_S = 0.0036
WARMUP = 3


def kernel() -> Fraction:
    """Fixed work of the kind graphifs does: exact rational arithmetic,
    tuple-keyed dicts, list slicing and sorting, and number formatting."""
    total = Fraction(0)
    table = {}
    for i in range(1, 220):
        x = Fraction(i, 7 * i + 3)
        total += x * x - x / 3
        table[(i % 97, i % 13)] = x
        sorted(list(table.values())[:20])
        str(x)
    return total


def _serve() -> int:
    import gc
    gc.disable()
    for _line in sys.stdin:
        start = time.thread_time()
        kernel()
        print(repr(time.thread_time() - start), flush=True)
    return 0


class Calibrator:
    """A calibration process: `sample()` runs the kernel once and returns
    its CPU time in seconds.  Use it as a context manager, so the process
    is stopped and waited for on every way out."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve"],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            for _ in range(WARMUP):
                self.sample()
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended early")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scaled(times: list[float], kernel_times: list[float]) -> list[float]:
    """Scale `times[i]`, measured between `kernel_times[i]` and
    `kernel_times[i + 1]`, by the median of the (up to) four kernel times
    nearest to it: two before and two after."""
    if len(kernel_times) != len(times) + 1:
        raise ValueError("need one kernel time before and after each time")
    return [t * REFERENCE_S / statistics.median(kernel_times[max(0, i - 1):i + 3])
            for i, t in enumerate(times)]


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        sys.exit(_serve())
    with Calibrator() as calibrator:
        print(" ".join(f"{calibrator.sample() * 1e3:.2f}" for _ in range(10)), "ms")
