"""heisrect benchmark: one CLI command per workload, timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark builds the workload's point cloud from --seed, writes it
as a CSV, and runs the CLI command on it (``--scenario custom_file``) in
fresh child interpreters, one after another, for about S seconds.  It
checks every run's artifacts with perfbench/checks.py.  With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates plain
and traced children and reports the per-layer metrics of the traced
ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
show every metric with its unit, the sample counts and tail
percentiles, and the environment.  Scratch files go to
.bench_build/perfbench/<workload>/ in the repository.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
from reference import REFERENCE_RATE, ReferenceLoop, rate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170.0  # every child is killed by then; the run must end < 180 s

# two thresholds that straddle the median flatness of the wgl shell balls
WGL_EPSILONS = (0.4, 0.5)
WGL_STRIDE = 4

# name -> scenario and its params, CLI arguments, extra config entries,
# whether a central translation keeps the pipeline's work unchanged, and
# the output check with its arguments
WORKLOADS = {
    "partition_crossing": {
        "scenario": "two_patch_union", "params": {"ny": 27},
        "argv": ["partition", "--scales=-3:5"], "config": {},
        "translate": False, "check": checks.check_partition, "check_args": {},
    },
    "cubes_perturbed": {
        "scenario": "perturbed", "params": {"n": 36},
        "argv": ["cubes"], "config": {},
        "translate": True, "check": checks.check_cubes, "check_args": {},
    },
    "wgl_curved": {
        "scenario": "example_tys", "params": {"n": 51},
        "argv": ["wgl", "--epsilons=" + ",".join(map(str, WGL_EPSILONS))],
        "config": {"stride": WGL_STRIDE},
        "translate": True, "check": checks.check_wgl,
        "check_args": {"epsilons": WGL_EPSILONS, "stride": WGL_STRIDE},
    },
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("points_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio")]

# (metric, unit) reported by a traced run
PER_LAYER = [
    ("partition.coding_partition.s", "s"),
    ("partition.coding_partition.self_s", "s"),
    ("partition.coding_partition.dist_calls", "count"),
    ("core.dist.calls", "count"),
    ("core.dist.self_s", "s"),
    ("beta.convex_hull.calls", "count"),
    ("beta.convex_hull.s", "s"),
    ("beta.convex_hull.input_points", "count"),
    ("beta.convex_hull.hull_vertices", "count"),
    ("beta.min_width_direction.self_s", "s"),
    ("beta.beta_vertical.calls", "count"),
    ("beta.beta_vertical.s", "s"),
    ("beta.beta_vertical.self_s", "s"),
    ("beta.points_in_ball.points_tested", "count"),
    ("beta.points_in_ball.points_inside", "count"),
    ("beta.ball_hit_ratio", "ratio"),
    ("beta.distinct_balls_ratio", "ratio"),
    ("cubes.cube_beta_cache.s", "s"),
    ("cubes.build_cubes.s", "s"),
    ("cubes.build_cubes.rss_growth_mb", "MB"),
    ("cubes.check_tree_invariants.s", "s"),
    ("cubes.check_tree_invariants.rss_growth_mb", "MB"),
    ("cubes.farthest_point_net.calls", "count"),
    ("cubes.farthest_point_net.s", "s"),
    ("cubes.median_nn_distance.calls", "count"),
    ("cubes.median_nn_distance.s", "s"),
    ("cubes.wgl_integral_estimate.self_s", "s"),
    ("cubes.carleson_sum.s", "s"),
    ("cubes.save_tree.s", "s"),
    ("cubes.save_carleson.s", "s"),
    ("graphs.load_point_set.s", "s"),
    ("partition.classify_cubes.s", "s"),
    ("partition.choose_cover_cutoff.s", "s"),
    ("partition.cover_counts.s", "s"),
    ("partition.projection_area.s", "s"),
    ("partition.verify_pieces.s", "s"),
    ("partition.graph_piece_partition.s", "s"),
    ("graphs.cone_aperture.calls", "count"),
    ("graphs.cone_aperture.s", "s"),
    ("graphs.cone_aperture.pairs", "count"),
    ("graphs.cone_aperture.subsampled", "count"),
    ("trace_overhead_s", "s"),
]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    # one BLAS/OpenMP thread: the pipeline is interpreter-bound, and a
    # second spinning thread only adds co-tenant noise
    env.update({var: "1" for var in THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# inputs

def make_input(spec, seed, path):
    """Write the workload's cloud for this seed; return (N, sha256).

    The seed moves the cloud by a left translation by the central
    element (0, 0, c), an isometry that leaves the horizontal hulls and
    every ball's members unchanged, and scales each mass by a factor in
    [1 - 1e-3, 1 + 1e-3].  Both keep the work of every layer the same.
    The partition's projection raster is not translation invariant
    (README.md), so partition_crossing only gets the mass factors.
    """
    import numpy as np
    from heisrect import cli

    _, ps = cli.build_scenario(spec["scenario"], 0, dict(spec["params"]))
    rng = np.random.default_rng(seed)
    points = ps.points.copy()
    shift = rng.uniform(-1.0, 1.0)
    if spec["translate"]:
        points[:, 2] += shift
    masses = ps.masses * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, len(ps.masses)))
    with open(path, "w") as fh:
        fh.write("x,y,t,mass\n")
        for (x, y, t), m in zip(points.tolist(), masses.tolist()):
            fh.write(f"{x!r},{y!r},{t!r},{m!r}\n")
    with open(path, "rb") as fh:
        return len(points), hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# children

def run_child(work, k, argv, traced, deadline, ref):
    """Run one CLI command in a fresh interpreter; return its sample.

    ``setup_s``, ``wall_s``, ``cpu_s`` and the layer times are scaled to
    the reference speed with the reference loop's rate over the same
    interval (reference.py); the ``raw_*`` values are the clock readings.
    """
    out = os.path.join(work, f"out{k}")
    spec = {"argv": argv + ["--out", out], "counters": ref.path,
            "result": os.path.join(work, f"result{k}.json")}
    if traced:
        spec["trace"] = os.path.join(work, f"trace{k}.json")
        spec["run_id"] = f"{os.path.basename(work)}-{k}"
    spec_path = os.path.join(work, f"spec{k}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    sample = {"k": k, "traced": traced, "out": out, "ok": False}
    with open(os.path.join(work, f"log{k}.txt"), "w") as log:
        ref_spawn = ref.read()
        spawn = now()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            cwd=work, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - now()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample["elapsed"] = now() - spawn
    ref_exit = ref.read()
    sample["raw_cpu_s"] = usage.ru_utime + usage.ru_stime
    sample["cpu_s"] = (sample["raw_cpu_s"] * rate(ref_spawn, ref_exit)
                       / REFERENCE_RATE)
    sample["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    sample["rc"] = proc.returncode
    if proc.returncode != 0:
        sample["error"] = f"exit code {proc.returncode}"
        return sample
    with open(spec["result"]) as fh:
        res = json.load(fh)
    sample["raw_setup_s"] = res["ready"] - spawn
    sample["raw_wall_s"] = res["done"] - res["start"]
    sample["setup_s"] = (sample["raw_setup_s"]
                         * rate(ref_spawn, res["ref_ready"]) / REFERENCE_RATE)
    speed = rate(res["ref_ready"], res["ref_done"]) / REFERENCE_RATE
    sample["wall_s"] = sample["raw_wall_s"] * speed
    sample["ok"] = True
    if traced:
        with open(spec["trace"]) as fh:
            trace = json.load(fh)
        # layer times are scaled like wall_s; counts stay as they are
        sample["layers"] = {key: val * speed if key.endswith((".s", "_s"))
                            else val
                            for key, val in tracer.summarize(trace).items()}
        sample["absent"] = trace["absent"]
    return sample


def check_sample(sample, spec, points, masses, verified):
    """Check a finished child's artifacts; reuse verdicts by digest."""
    sample["digest"] = checks.digest(sample["out"])
    if sample["digest"] in verified:
        return
    try:
        info = spec["check"](sample["out"], points, masses,
                             **spec["check_args"])
    except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError,
            TypeError) as err:
        sample["ok"] = False
        sample["error"] = f"check failed: {err}"
        return
    verified[sample["digest"]] = info


# ---------------------------------------------------------------------------
# statistics

def tail(values):
    """Highest nearest-rank percentile with >= 10 samples above it."""
    vals = sorted(values)
    i = len(vals) - 11
    if i < 0:
        return None
    return {"p": round(100.0 * (i + 1) / len(vals), 1), "value": vals[i]}


def describe(values):
    return {"median": statistics.median(values), "n": len(values),
            "tail": tail(values), "samples": values}


def environment():
    import numpy
    import scipy

    return {"git_sha": git_sha(), "src_sha256": tree_digest(SRC),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: "1" for var in THREAD_VARS}}


def git_sha():
    # a checkout without .git has no SHA; never ask a repository above it
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def tree_digest(path):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                full = os.path.join(base, name)
                h.update(os.path.relpath(full, path).encode() + b"\0")
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    started = now()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heisrect", "cli.py")):
        print(f"perfbench: no heisrect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the children and the reference loop share one CPU; see reference.py
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_build", "perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    input_path = os.path.join(work, "input.csv")
    n_points, input_sha = make_input(spec, args.seed, input_path)
    points, masses = checks.load_cloud(input_path)
    with open(os.path.join(work, "config.json"), "w") as fh:
        json.dump(dict(spec["config"], path=input_path), fh)
    argv = spec["argv"] + ["--scenario", "custom_file",
                           "--config", os.path.join(work, "config.json")]
    hard_deadline = started + RUN_LIMIT_S
    env = environment()
    load_before = os.getloadavg()

    # compile bytecode and warm the file cache outside the measurement
    subprocess.run([sys.executable, "-c", "import heisrect.cli"],
                   env=child_env(), check=True, timeout=60,
                   stdout=subprocess.DEVNULL)

    samples, verified = [], {}
    kinds = [False, True] if args.trace else [False]
    ref = ReferenceLoop(os.path.join(work, "counters.bin"))
    try:
        deadline = now() + args.seconds
        for k in range(10_000):
            traced = kinds[k % len(kinds)]
            done = [s["elapsed"] for s in samples if s["traced"] == traced]
            first_round = len(samples) < len(kinds)
            expected = statistics.median(done) if done else 0.0
            if not first_round and now() + expected > deadline:
                break
            sample = run_child(work, k, argv, traced, hard_deadline, ref)
            if sample["ok"]:
                check_sample(sample, spec, points, masses, verified)
            samples.append(sample)
            if not sample["ok"] and now() > hard_deadline - 5:
                break
    finally:
        ref.close()
    load_after = os.getloadavg()

    good = [s for s in samples if s["ok"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    failed = len(samples) - len(good)
    complete = bool(plain) and (bool(traced) or not args.trace)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = dict.fromkeys(units, 0.0)
    stats = {}
    if complete:
        for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                    "raw_setup_s", "raw_wall_s", "raw_cpu_s"):
            stats[key] = describe([s[key] for s in plain])
        wall = stats["wall_s"]["median"]
        if args.trace:
            for key in units:
                metrics[key] = statistics.median(
                    s["layers"].get(key, 0) for s in traced)
            metrics["trace_overhead_s"] = (
                statistics.median(s["wall_s"] for s in traced) - wall)
        else:
            for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
                metrics[key] = stats[key]["median"]
            metrics["points_per_s"] = n_points / wall
            metrics["ok_frac"] = len(good) / len(samples)

    for key, unit in units.items():
        extra = ""
        if key in stats:
            t = stats[key]["tail"]
            extra = (f"  (median of {stats[key]['n']}; tail "
                     + (f"p{t['p']} = {t['value']:.6g}" if t else "n/a, n < 11")
                     + ")")
        print(f"{key:45s} {metrics[key]:>14.6g} {unit}{extra}")
    for s in samples:
        if not s["ok"]:
            print(f"run {s['k']} failed: {s.get('error')}")
    detail = {
        "workload": args.workload, "seed": args.seed, "points": n_points,
        "input_sha256": input_sha, "command": ["heisrect"] + argv,
        "runs": len(samples), "traced_runs": len(traced),
        "failed_frac": failed / len(samples) if samples else 1.0,
        "stats": stats,
        "artifact_sha256": sorted({s["digest"] for s in good}),
        "checks": list(verified.values()),
        "absent": sorted({a for s in traced for a in s["absent"]}),
        "environment": env, "loadavg_before": load_before,
        "loadavg_after": load_after,
        "elapsed_s": now() - started,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bool(complete) and failed == 0,
        "attempted": max(1, len(samples)), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
