"""Constant-gradient graphs via characteristics.

Solutions of d_y phi + phi d_t phi = c are affine along the parabolas

    gamma_t(s) = (s, (c/2) s^2 + g(t) s + t),      phi(gamma_t(s)) = c s + g(t),

where g(t) = phi(0, t) is the initial trace on the t-axis of the chart.
As long as no two characteristics meet inside the requested window, the
fan foliates it and phi is recovered by inverting s -> gamma_t(s) per
node, in closed form for the piecewise-linear traces of CGSpec.
Crossing characteristics mean shock formation and abort the solve.
"""

import json
from dataclasses import dataclass

import numpy as np

from .graphs import (GridGraph, all_graph_points, intrinsic_gradient,
                     lipschitz_constant)


class CrossingDetected(Exception):
    """Two characteristics meet inside the requested domain."""

    def __init__(self, s_star, t1, t2):
        super().__init__(f"characteristics from t={t1} and t={t2} cross at s={s_star}")
        self.s_star = s_star
        self.t1 = t1
        self.t2 = t2


class NotConstantGradient(Exception):
    """Sampled gradient spread exceeds the constant-gradient tolerance."""


@dataclass
class CGSpec:
    """Constant gradient c with piecewise-linear initial trace g.

    g is given by knots (g_t sorted, g_v); the solve domain is
    y_range x t_range.  The knots must span every characteristic
    source needed for the domain, which is generally a wider t-interval
    than t_range itself.
    """

    c: float
    g_t: np.ndarray
    g_v: np.ndarray
    y_range: tuple
    t_range: tuple

    def __post_init__(self):
        self.g_t = np.asarray(self.g_t, float).reshape(-1)
        self.g_v = np.asarray(self.g_v, float).reshape(-1)
        if len(self.g_t) != len(self.g_v) or len(self.g_t) < 1:
            raise ValueError("g needs matching knot vectors")
        if np.any(np.diff(self.g_t) <= 0) and len(self.g_t) > 1:
            raise ValueError("g knots must be strictly increasing")
        if not (np.all(np.isfinite(self.g_t)) and np.all(np.isfinite(self.g_v))):
            raise ValueError("g knots must be finite")

    def g(self, t):
        return np.interp(t, self.g_t, self.g_v)

    def g_lipschitz(self):
        """Sampled Lipschitz constant of the trace (0 for a single knot)."""
        if len(self.g_t) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.g_v) / np.diff(self.g_t))))


def constant_spec(c, d, y_range, t_range, pad=None):
    """Spec with g identically d; the solution is the plane c y + d."""
    lo, hi = t_range
    pad = pad if pad is not None else (hi - lo)
    return CGSpec(c, [lo - pad, hi + pad], [d, d], y_range, t_range)


def linear_spec(c, slope, y_range, t_range, pad_factor=4.0):
    """Spec with g(t) = slope * t, knotted over a padded t-interval."""
    lo, hi = t_range
    pad = pad_factor * max(abs(lo), abs(hi), 1.0)
    return CGSpec(c, [lo - pad, hi + pad], [slope * (lo - pad), slope * (hi + pad)],
                  y_range, t_range)


@dataclass
class CharacteristicFan:
    """Sampled characteristics: per knot t, the parabola coefficients
    (c/2, g(t), t), sorted by t, plus the earliest crossing if any."""

    curves: list
    crossing: tuple = None  # (|s*|, t1, t2) or None


def characteristic_fan(spec: CGSpec) -> CharacteristicFan:
    """Build the knot fan and scan adjacent pairs for crossings.

    gamma_t and gamma_t' meet where s (g(t) - g(t')) = t' - t; the
    earliest absolute crossing parameter over adjacent knot pairs is
    recorded when it falls inside the y-window.
    """
    ts = spec.g_t
    gs = spec.g_v
    curves = [(float(t), (0.5 * spec.c, float(gv), float(t)))
              for t, gv in zip(ts, gs)]
    lo, hi = spec.y_range
    best = None
    for k in range(len(ts) - 1):
        dg = gs[k] - gs[k + 1]
        if dg == 0:
            continue
        s_star = (ts[k + 1] - ts[k]) / dg
        if lo <= s_star <= hi and (best is None or abs(s_star) < best[0]):
            best = (abs(s_star), float(ts[k]), float(ts[k + 1]), float(s_star))
    crossing = None if best is None else (best[3], best[1], best[2])
    return CharacteristicFan(curves, crossing)


def _check_injective(spec: CGSpec):
    """Global injectivity: arrival order of knots preserved on the window.

    Arrival t-coordinates are affine in y; monotone order at both ends
    of the y-window implies order throughout, so checking the endpoints
    covers the whole domain, including non-adjacent pairs.
    """
    fan = characteristic_fan(spec)
    if fan.crossing is not None:
        raise CrossingDetected(*fan.crossing)
    for y in spec.y_range:
        arrivals = 0.5 * spec.c * y * y + spec.g_v * y + spec.g_t
        order = np.diff(arrivals)
        if np.any(order <= 0) and len(spec.g_t) > 1:
            k = int(np.nonzero(order <= 0)[0][0])
            dg = spec.g_v[k] - spec.g_v[k + 1]
            s_star = (spec.g_t[k + 1] - spec.g_t[k]) / dg if dg != 0 else y
            raise CrossingDetected(float(s_star), float(spec.g_t[k]),
                                   float(spec.g_t[k + 1]))


def solve_cg(spec: CGSpec, ny=101, nt=101) -> GridGraph:
    """Solve the constant-gradient equation on the requested window.

    The source t of node (y, tau) solves t + y g(t) = tau - (c/2) y^2
    and phi = c y + g(t).  For piecewise-linear g, t + y g(t) runs
    linearly between the knot arrivals t_k + y g(t_k), which increase
    when the fan does not cross, so g(t) interpolates the knot values
    between them.  Raises CrossingDetected on shocks and ValueError
    when tau leaves the range the knots of g can reach.
    """
    def phi(yy, tt):
        _check_injective(spec)
        rhs = tt - 0.5 * spec.c * yy ** 2
        arrivals = spec.g_t + yy[:, :1] * spec.g_v
        bad = ((arrivals[:, 0] > rhs.min(axis=1) + 1e-12)
               | (arrivals[:, -1] < rhs.max(axis=1) - 1e-12))
        if bad.any():
            raise ValueError("g knots do not cover the characteristic "
                             f"sources at y={yy[bad, 0][0]}")
        return np.array([spec.c * y + np.interp(r, a, spec.g_v)
                         for y, r, a in zip(yy[:, 0], rhs, arrivals)])
    return grid_from_function(phi, spec.y_range, spec.t_range, ny, nt)


def verify_along_characteristics(g: GridGraph, spec: CGSpec, n_curves=33) -> float:
    """Max residual |phi(gamma_t(s)) - (c s + g(t))| over a (t, s) sweep.

    s runs over the grid's own y-columns so only 1-d interpolation in
    tau is involved; t runs over n_curves values across the knot span.
    Points leaving the grid are skipped.
    """
    ts = np.linspace(spec.g_t[0], spec.g_t[-1], n_curves)
    worst = 0.0
    taus = g.ts
    for t in ts:
        gv = float(spec.g(t))
        for i, s in enumerate(g.ys):
            tau = 0.5 * spec.c * s * s + gv * s + t
            if tau < taus[0] or tau > taus[-1]:
                continue
            fj = (tau - g.t0) / g.dt
            j0 = min(int(fj), g.nt - 2)
            w = fj - j0
            val = (1 - w) * g.phi[i, j0] + w * g.phi[i, j0 + 1]
            worst = max(worst, abs(val - (spec.c * s + gv)))
    return worst


def entire_cg_plane_fit(g: GridGraph, spread_tol=0.01):
    """Best uniform affine fit phi ~ c y + d for a constant-gradient graph.

    Requires the sampled gradient spread (max - min) to stay below
    spread_tol, else NotConstantGradient.  The minimax residual in c is
    convex piecewise-linear; ternary search plus midrange offset give
    the least-max fit.  Returns (c, d, residual).
    """
    grad = intrinsic_gradient(g)
    spread = float(grad.max() - grad.min())
    if spread > spread_tol:
        raise NotConstantGradient(f"gradient spread {spread} exceeds {spread_tol}")
    ys = g.ys[:, None]

    def halfwidth(c):
        r = g.phi - c * ys
        return 0.5 * (r.max() - r.min())

    scale = max(1.0, np.abs(g.phi).max())
    lo, hi = -1e3 * scale, 1e3 * scale
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if halfwidth(m1) <= halfwidth(m2):
            hi = m2
        else:
            lo = m1
    c = 0.5 * (lo + hi)
    r = g.phi - c * ys
    d = 0.5 * (r.max() + r.min())
    return float(c), float(d), float(halfwidth(c))


def save_spec(spec: CGSpec, path):
    """CGSpec as JSON: gradient constant, trace knots, window."""
    with open(path, "w") as fh:
        json.dump({"c": spec.c,
                   "g_t": spec.g_t.tolist(), "g_v": spec.g_v.tolist(),
                   "y_range": list(spec.y_range),
                   "t_range": list(spec.t_range)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path) -> CGSpec:
    with open(path) as fh:
        d = json.load(fh)
    return CGSpec(d["c"], d["g_t"], d["g_v"],
                  tuple(d["y_range"]), tuple(d["t_range"]))


def zero_gradient_smooth(y, t):
    """t / (y + 1): smooth, non-affine, gradient identically zero."""
    return np.asarray(t, float) / (np.asarray(y, float) + 1.0)


def zero_gradient_kinked(y, t):
    """t/(y+1) for t >= 0 glued to t/(y-1) for t < 0; zero gradient, not C1."""
    y = np.asarray(y, float)
    t = np.asarray(t, float)
    return np.where(t >= 0, t / (y + 1.0), t / (y - 1.0))


def grid_from_function(fn, y_range, t_range, ny=101, nt=101) -> GridGraph:
    """Sample a chart function onto a GridGraph of at least 3x3 nodes."""
    if ny < 3 or nt < 3:
        raise ValueError("need at least a 3x3 grid")
    ys = np.linspace(y_range[0], y_range[1], ny)
    ts = np.linspace(t_range[0], t_range[1], nt)
    yy, tt = np.meshgrid(ys, ts, indexing="ij")
    return GridGraph(ys[0], ts[0], ys[1] - ys[0], ts[1] - ts[0], fn(yy, tt))


def make_admissible(spec: CGSpec, ball, ny=41, nt=41, lipschitz_cap=None,
                    lip_samples=150):
    """Candidate constant-gradient graph covering a projected ball.

    Builds a window that contains the full projected ball pi_W(B) (and
    hence the smaller pi_W(B(center, b r)) it must be constant-gradient
    on), solves the spec there and attaches a sampled Lipschitz
    estimate (lip_samples graph points).  Rejects with ValueError when
    the spec's knots cannot cover the window or when the estimate
    exceeds lipschitz_cap.
    """
    center, r = np.asarray(ball[0], float), float(ball[1])
    x0, y0c, t0c = center
    # projected center and reach of the full ball in chart coordinates
    pc = np.array([y0c, t0c + 0.5 * x0 * y0c])
    reach_y = r
    reach_t = r * r + abs(x0) * r + 0.5 * r * r
    window = CGSpec(spec.c, spec.g_t, spec.g_v,
                    (pc[0] - reach_y, pc[0] + reach_y),
                    (pc[1] - reach_t, pc[1] + reach_t))
    g = solve_cg(window, ny=ny, nt=nt)
    pts = all_graph_points(g).reshape(-1, 3)
    est = lipschitz_constant(pts[:: max(1, len(pts) // lip_samples)])
    if lipschitz_cap is not None and est > lipschitz_cap:
        err = ValueError(
            f"candidate Lipschitz estimate {est} exceeds {lipschitz_cap}")
        err.lipschitz_estimate = est
        raise err
    g.lipschitz_estimate = est
    return g
