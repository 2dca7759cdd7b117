"""Spans and counters around the public functions of the heisrect layers.

The tracer replaces module attributes (``heisrect.beta.convex_hull`` and
so on) with wrappers.  The package calls its own layers through module
attributes and module globals, so every call made by the CLI passes
through a wrapper.  Nothing in the package is edited.

Each wrapped call records a span (name, start, end, parent span) in
memory; ``write`` dumps them at the end of the run.  ``core.dist`` is
called hundreds of thousands of times on tiny arrays, so it is counted
and timed in aggregate instead of spanned: its time stays inside the
self time of its caller, and its calls are charged to the innermost open
span.  A name that the package no longer defines is reported as absent.
"""

import inspect
import json
import resource
import time

# (module, function) pairs that get a span; order is report order.
SPANNED = [
    ("graphs", "load_point_set"),
    ("cubes", "build_cubes"),
    ("cubes", "farthest_point_net"),
    ("cubes", "median_nn_distance"),
    ("cubes", "check_tree_invariants"),
    ("cubes", "cube_beta_cache"),
    ("cubes", "carleson_sum"),
    ("cubes", "wgl_integral_estimate"),
    ("cubes", "save_tree"),
    ("cubes", "save_carleson"),
    ("beta", "beta_vertical"),
    ("beta", "points_in_ball"),
    ("beta", "min_width_direction"),
    ("beta", "convex_hull"),
    ("partition", "graph_piece_partition"),
    ("partition", "projection_area"),
    ("partition", "choose_cover_cutoff"),
    ("partition", "cover_counts"),
    ("partition", "classify_cubes"),
    ("partition", "coding_partition"),
    ("partition", "verify_pieces"),
    ("graphs", "cone_aperture"),
]
COUNTED = ("core", "dist")
RSS_TRACKED = {"cubes.build_cubes", "cubes.check_tree_invariants"}


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = [f"{m}.{f}" for m, f in SPANNED]
        self.spans = []          # [name index, start, end, parent, dist calls]
        self.stack = []
        self.absent = []
        self.counters = {}
        self.dist_calls = 0
        self.dist_s = 0.0
        self.balls = set()

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    # -- installation ------------------------------------------------------

    def install(self):
        import heisrect

        for k, (mod, fn) in enumerate(SPANNED):
            module = getattr(heisrect, mod)
            orig = getattr(module, fn, None)
            if orig is None:
                self.absent.append(self.names[k])
                continue
            setattr(module, fn, self._span_wrapper(k, orig))
        module = getattr(heisrect, COUNTED[0])
        orig = getattr(module, COUNTED[1], None)
        if orig is None:
            self.absent.append(".".join(COUNTED))
        else:
            setattr(module, COUNTED[1], self._count_wrapper(orig))

    def _span_wrapper(self, k, orig):
        name = self.names[k]
        probe = _PROBES.get(name)
        signature = inspect.signature(orig) if probe else None
        rss = name in RSS_TRACKED
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rss0 = _maxrss_mb() if rss else 0.0
            sid = len(spans)
            row = [k, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(row)
            stack.append(sid)
            row[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if rss:
                self.add(name + ".rss_growth_mb", _maxrss_mb() - rss0)
            if probe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, bound.arguments, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_wrapper(self, orig):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                self.dist_s += clock() - t0
                self.dist_calls += 1
                if stack:
                    spans[stack[-1]][4] += 1

        wrapper.__wrapped__ = orig
        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path):
        payload = {"run_id": self.run_id, "names": self.names,
                   "absent": self.absent, "counters": self.counters,
                   "dist": {"calls": self.dist_calls, "s": self.dist_s},
                   "distinct_balls": len(self.balls),
                   "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- per-function counters, fed the bound call arguments and the result --

def _first(args):
    return next(iter(args.values()))


def _convex_hull(tr, args, result):
    tr.add("beta.convex_hull.input_points", len(_first(args)))
    tr.add("beta.convex_hull.hull_vertices", len(result))


def _points_in_ball(tr, args, result):
    tr.add("beta.points_in_ball.points_tested", int(result.size))
    tr.add("beta.points_in_ball.points_inside", int(result.sum()))


def _beta_vertical(tr, args, result):
    ball = result.ball
    tr.balls.add((ball.center.tobytes(), float(ball.radius)))


def _cone_aperture(tr, args, result):
    n = len(_first(args))
    max_pairs = args.get("max_pairs")
    tr.add("graphs.cone_aperture.pairs", n * (n - 1))
    tr.add("graphs.cone_aperture.subsampled",
           int(max_pairs is not None and n * n > max_pairs))


_PROBES = {"beta.convex_hull": _convex_hull,
           "beta.points_in_ball": _points_in_ball,
           "beta.beta_vertical": _beta_vertical,
           "graphs.cone_aperture": _cone_aperture}


def summarize(trace):
    """Per-function calls, inclusive and self seconds, and counters.

    Self time is a span's duration minus the durations of its direct
    child spans.  ``<name>.dist_calls`` counts the ``core.dist`` calls
    made anywhere under that function's spans.
    """
    names = trace["names"]
    spans = trace["spans"]
    n = len(names)
    calls = [0] * n
    incl = [0.0] * n
    self_s = [0.0] * n
    dist_under = [0] * n
    child_s = [0.0] * len(spans)
    subtree_dist = [row[4] for row in spans]
    # children always come after their parent, so one reverse pass
    # accumulates child durations and subtree counts upward
    for sid in range(len(spans) - 1, -1, -1):
        k, start, end, parent, _ = spans[sid]
        dur = end - start
        calls[k] += 1
        self_s[k] += dur - child_s[sid]
        if parent >= 0:
            child_s[parent] += dur
            subtree_dist[parent] += subtree_dist[sid]
    # inclusive time and dist calls count only outermost spans of a name,
    # so a function that reaches itself is not counted twice
    for sid, (k, start, end, parent, _) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != k:
            p = spans[p][3]
        if p < 0:
            incl[k] += end - start
            dist_under[k] += subtree_dist[sid]
    out = {}
    for k, name in enumerate(names):
        out[name + ".calls"] = calls[k]
        out[name + ".s"] = incl[k]
        out[name + ".self_s"] = self_s[k]
        out[name + ".dist_calls"] = dist_under[k]
    out["core.dist.calls"] = trace["dist"]["calls"]
    out["core.dist.s"] = trace["dist"]["s"]
    out["core.dist.self_s"] = trace["dist"]["s"]
    out.update(trace["counters"])
    tested = out.get("beta.points_in_ball.points_tested", 0)
    out["beta.ball_hit_ratio"] = (
        out.get("beta.points_in_ball.points_inside", 0) / tested
        if tested else 0.0)
    bv_calls = out.get("beta.beta_vertical.calls", 0)
    out["beta.distinct_balls_ratio"] = (
        trace["distinct_balls"] / bv_calls if bv_calls else 0.0)
    return out
