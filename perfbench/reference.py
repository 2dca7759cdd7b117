"""A reference loop that measures the CPU's speed while a child runs.

The host's CPU speed drifts: on the 2-core VM this benchmark was built on,
one loop iteration takes 1.0x to 1.9x its fastest time, in phases that last
from seconds to tens of minutes. Raw times of the same command therefore
differ by up to 60 % between runs.

``ReferenceLoop`` starts this file as a second process at nice 19, on the
same single CPU as the benchmark's children. It must share their CPU: the
VM's two vCPUs were seen to change speed in opposite phases. Under the kernel's fair
scheduler, a nice-19 process gets about 1.5 % of a CPU that a nice-0
process keeps busy. It gets that share in slices of a few milliseconds,
spread over the child's whole run. After every iteration, the loop
publishes two numbers in a shared file: the iterations done so far and its
own CPU seconds. Between two snapshots,

    rate = iterations / CPU seconds

is the speed of that CPU over that interval. A time t measured in the same
interval becomes ``t * rate / REFERENCE_RATE``: the time on a CPU that runs
the loop at REFERENCE_RATE iterations per second.

Usage (internal): python3 reference.py COUNTERS_FILE
"""

import mmap
import os
import struct
import subprocess
import sys
import time

# a round figure near the loop's rate on the VM the benchmark was built on
REFERENCE_RATE = 30000.0
_LAYOUT = struct.Struct("2d")


def snapshot(mm):
    """(iterations, cpu seconds) last published by the loop."""
    return _LAYOUT.unpack(mm[:_LAYOUT.size])


def rate(before, after):
    """Loop iterations per CPU second between two snapshots."""
    cpu = after[1] - before[1]
    if cpu <= 0:
        raise RuntimeError("the reference loop did not run in the interval")
    return (after[0] - before[0]) / cpu


class ReferenceLoop:
    """Owns the loop process and the shared counters file."""

    def __init__(self, path):
        self.path = path
        with open(path, "wb") as fh:
            fh.write(b"\0" * _LAYOUT.size)
        with open(path, "r+b") as fh:
            self.mm = mmap.mmap(fh.fileno(), _LAYOUT.size)
        self.proc = subprocess.Popen([sys.executable, __file__, path])
        deadline = time.monotonic() + 30
        while snapshot(self.mm)[0] < 100:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the reference loop did not start")
            time.sleep(0.01)

    def read(self):
        if self.proc.poll() is not None:
            raise RuntimeError("the reference loop exited")
        return snapshot(self.mm)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.mm.close()


def _loop(path):
    import numpy as np

    os.nice(19)
    with open(path, "r+b") as fh:
        mm = mmap.mmap(fh.fileno(), _LAYOUT.size)
    # the same kind of work as the pipeline: a Heisenberg distance scan
    # over a few hundred points, numpy calls on small arrays
    p = np.random.default_rng(0).uniform(-1.0, 1.0, (256, 3))
    clock = time.process_time
    t0 = clock()
    i = 0
    while True:
        c = p[i & 255]
        dt = p[:, 2] - c[2] + 0.5 * (c[1] * p[:, 0] - c[0] * p[:, 1])
        d = np.maximum(np.hypot(p[:, 0] - c[0], p[:, 1] - c[1]),
                       np.sqrt(np.abs(dt)))
        d.max()
        i += 1
        _LAYOUT.pack_into(mm, 0, i, clock() - t0)


if __name__ == "__main__":
    _loop(sys.argv[1])
