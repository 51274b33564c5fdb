"""A speed probe: how fast this machine runs while a workload is measured.

On a shared host the CPU time of unchanged code moves with the host's
other tenants: one cold start took from 5.1 to 12.5 s of CPU on the
same 2-CPU VM within an hour.  The slowdown reaches every CPU of the
VM at once, so a second process that runs a small fixed kernel every
``PERIOD_S`` and times it with its own CPU clock sees it too: over ten
runs, the probe's median and the cold start's CPU time correlated at
0.95.  A measured CPU time is reported at the reference speed, scaled
by ``REFERENCE_KERNEL_S`` over the probe's median.

The probe runs in its own process, so it does not take the program's
GIL.  It is pinned to the CPU the served side is pinned to
(:func:`served_cpu`): a slowdown can also reach one CPU of the VM and
not the other, and a probe on the other CPU once read its kernel 1.8
times slower while the program's CPU time stayed put.

A slowdown does not reach every kind of code alike: in one slow spell
a dictionary-update kernel ran 2.5 times slower and the serve-hot
server's CPU per request 1.8 times.  So the kernel mixes the kinds of
work the program does: interpreted dictionary updates, JSON encoding,
and numpy passes over an array the size of a second-level cache.

    python3 perfbench/probe.py [CPU]     # samples until stdin closes

prints the kernel times it measured, one JSON list, when its standard
input closes.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: Time between two runs of the kernel.  The kernel takes 0.3 to 0.7 ms,
#: so the probe takes under 1% of one CPU.
PERIOD_S = 0.1
DICT_STEPS = 2000
#: A JSON document like a small answer, about 4 KB encoded.
DOCUMENT = {"rows": [{"name": f"api-{index}", "importance": index / 97.0,
                      "packages": [index, index + 1, index + 2]}
                     for index in range(64)]}
ARRAY_LENGTH = 32768  # 256 KiB of float64
ARRAY_PASSES = 4

#: About the kernel's median CPU time on the reference machine (a 2-CPU
#: VM) at a quiet time.  Times reported "at the reference speed" are
#: CPU times scaled to this kernel speed.
REFERENCE_KERNEL_S = 0.00030


def served_cpu() -> Optional[int]:
    """The CPU for the served side and the probe: the last one this
    process may use, or None where affinity cannot be set."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def pin(cpu: Optional[int]) -> None:
    """Keep the calling thread, and threads it starts later, on ``cpu``."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def kernel(array) -> None:
    table = {}
    for step in range(DICT_STEPS):
        table[step % 97] = table.get(step % 97, 0) + step
    json.dumps(DOCUMENT, sort_keys=True)
    for _ in range(ARRAY_PASSES):
        (array * 1.5).sum()


def sample_until_eof(stream) -> List[float]:
    import numpy
    array = numpy.arange(ARRAY_LENGTH, dtype=numpy.float64)
    samples = []
    while True:
        ready, _, _ = select.select([stream], [], [], PERIOD_S)
        if ready and not stream.readline():
            return samples
        start = time.thread_time()
        kernel(array)
        samples.append(time.thread_time() - start)


class Probe:
    """The probe process, for a ``with`` block.

    :meth:`stop` ends it and returns the median kernel time, and sets
    ``samples`` to how many it took; leaving the block always ends the
    process.
    """

    def __init__(self) -> None:
        cpu = served_cpu()
        self.process = subprocess.Popen(
            [sys.executable, __file__] + ([] if cpu is None else [str(cpu)]),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.kernel_s: Optional[float] = None
        self.samples = 0

    def stop(self) -> float:
        if self.kernel_s is None:
            out, _ = self.process.communicate("", timeout=30)
            samples = json.loads(out)
            if not samples:
                raise RuntimeError("the speed probe took no samples")
            self.kernel_s = statistics.median(samples)
            self.samples = len(samples)
        return self.kernel_s

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if not stream.closed:
                stream.close()


def at_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` of CPU at the reference speed, given the probe's
    median kernel time ``kernel_s`` over the same run."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


if __name__ == "__main__":
    pin(int(sys.argv[1]) if len(sys.argv) > 1 else None)
    print(json.dumps(sample_until_eof(sys.stdin)))
