"""One timed heisrect CLI command, run in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds ``argv`` (the CLI arguments), ``result`` (where to write the
timestamps), ``counters`` (the reference loop's shared file, see
reference.py) and, for a traced run, ``trace`` (where to write the spans)
and ``run_id``.  Timestamps use CLOCK_MONOTONIC, which the parent shares,
so the parent can measure set-up from the moment it spawned this
process.
"""

import json
import mmap
import sys
import time

from reference import snapshot


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    with open(spec["counters"], "rb") as fh:
        counters = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    from heisrect import cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    ref_ready = snapshot(counters)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    rc = cli.main(spec["argv"])
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    ref_done = snapshot(counters)
    if tracer is not None:
        tracer.write(spec["trace"])
    with open(spec["result"], "w") as fh:
        json.dump({"ready": ready, "start": start, "done": done, "rc": rc,
                   "ref_ready": ref_ready, "ref_done": ref_done}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
