"""Intrinsic graphs over the (y, t)-plane: sampling, calculus, transforms.

A GridGraph stores phi on a rectangular (y, t) grid together with a
surface-mass surrogate per node.  The graph itself is the point set
{w . (phi(w), 0, 0)}, i.e. (phi, y, t - phi*y/2) in coordinates; other
vertical subgroups are handled by pre-rotating data.  The inverse of
the lift is the chart map planes.project_chart at planes.subgroup_y_t().
This module also owns the CSV format of every artifact (write_csv).
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import core, planes


@dataclass
class GridGraph:
    """phi sampled on the grid (y0 + i dy, t0 + j dt), i < ny, j < nt.

    mass[i, j] is the surface measure surrogate dy*dt*sqrt(1 + grad^2)
    of the cell at node (i, j); it is filled in automatically when not
    supplied.
    """

    y0: float
    t0: float
    dy: float
    dt: float
    phi: np.ndarray
    mass: np.ndarray = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, float)
        if self.dy <= 0 or self.dt <= 0:
            raise ValueError("grid steps must be positive")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi must be finite")
        if self.mass is None:
            grad = intrinsic_gradient(self)
            self.mass = self.dy * self.dt * np.sqrt(1.0 + grad ** 2)
        else:
            self.mass = np.asarray(self.mass, float)
            if np.any(self.mass < 0):
                raise ValueError("mass must be nonnegative")

    @property
    def ny(self):
        return self.phi.shape[0]

    @property
    def nt(self):
        return self.phi.shape[1]

    @property
    def ys(self):
        return self.y0 + self.dy * np.arange(self.ny)

    @property
    def ts(self):
        return self.t0 + self.dt * np.arange(self.nt)

    def nodes(self):
        """All (y, t) chart coordinates, shape (ny*nt, 2)."""
        yy, tt = np.meshgrid(self.ys, self.ts, indexing="ij")
        return np.stack([yy.ravel(), tt.ravel()], axis=-1)


@dataclass
class GraphPointSet:
    """Weighted point cloud on (or near) a graph; provenance is free text."""

    points: np.ndarray
    masses: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, float).reshape(-1, 3)
        self.masses = np.asarray(self.masses, float).reshape(-1)
        if len(self.masses) != len(self.points):
            raise ValueError("one mass per point required")
        if (not np.all(np.isfinite(self.masses)) or np.any(self.masses < 0)
                or not np.all(np.isfinite(self.points))):
            raise ValueError("masses must be finite and >= 0, points finite")


def graph_points(p):
    """Lift chart nodes (y, t) and values phi to points of the graph."""
    yt = np.asarray(p[0], float)
    phi = np.asarray(p[1], float)
    out = np.empty(phi.shape + (3,))
    out[..., 0] = phi
    out[..., 1] = yt[..., 0]
    out[..., 2] = yt[..., 1] - 0.5 * phi * yt[..., 0]
    return out


def graph_map(g: GridGraph, i: int, j: int):
    """Graph point w . phi(w) over the node (i, j)."""
    if not (0 <= i < g.ny and 0 <= j < g.nt):
        raise IndexError("grid index out of range")
    y = g.y0 + i * g.dy
    t = g.t0 + j * g.dt
    return graph_points((np.array([y, t]), g.phi[i, j]))


def all_graph_points(g: GridGraph):
    return graph_points((g.nodes(), g.phi.ravel()))


def point_set(g: GridGraph, provenance="grid graph"):
    return GraphPointSet(all_graph_points(g), g.mass.ravel(), provenance)


def intrinsic_gradient(g: GridGraph):
    """The nonlinear gradient d_y phi + phi d_t phi on the grid.

    Central differences inside, second-order one-sided at the edges.
    """
    if g.ny < 3 or g.nt < 3:
        raise ValueError("need at least a 3x3 grid for the gradient")
    py = np.gradient(g.phi, g.dy, axis=0, edge_order=2)
    pt = np.gradient(g.phi, g.dt, axis=1, edge_order=2)
    return py + g.phi * pt


def quotient_gradient(g: GridGraph, h=None):
    """Difference-quotient gradient (phi(y+h, t+phi h) - phi) / h.

    Follows the graph for one horizontal step of length h (default one
    grid step) and interpolates; nodes whose stepped position leaves
    the grid return nan.  Cross-validates intrinsic_gradient.
    """
    if h is None:
        h = g.dy
    yy, tt = np.meshgrid(g.ys, g.ts, indexing="ij")
    return (interp_phi(g, yy + h, tt + g.phi * h) - g.phi) / h


def interp_phi(g: GridGraph, y, t):
    """Bilinear interpolation of phi; nan outside the grid."""
    y = np.asarray(y, float)
    t = np.asarray(t, float)
    fi = (y - g.y0) / g.dy
    fj = (t - g.t0) / g.dt
    ok = (fi >= 0) & (fi <= g.ny - 1) & (fj >= 0) & (fj <= g.nt - 1)
    fi = np.clip(fi, 0, g.ny - 1)
    fj = np.clip(fj, 0, g.nt - 1)
    i0 = np.minimum(fi.astype(int), g.ny - 2)
    j0 = np.minimum(fj.astype(int), g.nt - 2)
    wi = fi - i0
    wj = fj - j0
    v = ((1 - wi) * (1 - wj) * g.phi[i0, j0]
         + wi * (1 - wj) * g.phi[i0 + 1, j0]
         + (1 - wi) * wj * g.phi[i0, j0 + 1]
         + wi * wj * g.phi[i0 + 1, j0 + 1])
    return np.where(ok, v, np.nan)


def curvature_interp_error(g: GridGraph):
    """Worst-case bilinear interpolation error from second differences."""
    err = 0.0
    if g.ny >= 3:
        err += 0.125 * np.abs(np.diff(g.phi, 2, axis=0)).max()
    if g.nt >= 3:
        err += 0.125 * np.abs(np.diff(g.phi, 2, axis=1)).max()
    return float(err)


# Ordered pairs per block of _pair_norms (256 rows at 2,048 points);
# keeps its temporaries to a few tens of MB at any cloud size.
PAIR_BUDGET = 2 ** 19


def _pair_norms(pts):
    """Yield (||d_W||, ||d_V||) for every ordered pair difference, blocked.

    d = c^-1 . p is formed with the floating-point operations of
    core.mul, and its split over the (y, t)-plane in closed form:
    ||d_V|| = |d_x| and ||d_W|| = max(|d_y|, sqrt|d_t + d_y d_x / 2|),
    bit-identical to core.norm of planes.split at subgroup_y_t().
    A block holds PAIR_BUDGET // n rows of n pairs (one row at least).
    The diagonal carries (inf, 0) so zero pairs never win a quotient.
    """
    n = len(pts)
    x, y, t = pts.T
    block = max(1, PAIR_BUDGET // n)
    for start in range(0, n, block):
        cx, cy, ct = -pts[start:start + block].T[..., None]
        dx = cx + x
        dy = cy + y
        dt = ct + t + 0.5 * (cx * y - cy * x)
        vn = np.abs(dx)
        wn = np.maximum(np.abs(dy), np.sqrt(np.abs(dt + 0.5 * dy * dx)))
        idx = np.arange(start, min(start + block, n))
        wn[idx - start, idx] = np.inf
        vn[idx - start, idx] = 0.0
        yield wn, vn


def lipschitz_constant(points):
    """Intrinsic Lipschitz constant of a point cloud over every ordered pair.

    Largest quotient ||(x^-1 y)_V|| / ||(x^-1 y)_W||, the reciprocal of
    cone_aperture; the cloud then satisfies the cone condition for every
    aperture alpha < 1 / L.  Returns inf when two points share a
    vertical projection up to rounding (the cloud is not a graph over
    W), 0 when the cloud lies in a single coset of W.
    """
    pts = np.asarray(points, float).reshape(-1, 3)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    alpha = cone_aperture(pts)
    return np.inf if alpha == 0 else 1.0 / alpha


def cone_aperture(points):
    """Largest alpha such that every translated cone misses the rest.

    Exact infimum of ||(x^-1 y)_W|| / ||(x^-1 y)_V|| over every ordered
    pair; inf when the cloud lies in a single coset of W.  Two points
    share a vertical projection, and the aperture is 0, when
    ||(x^-1 y)_W|| is at most the rounding bound core.dist_error of the
    cloud while ||(x^-1 y)_V|| exceeds it.
    """
    pts = np.asarray(points, float).reshape(-1, 3)
    if len(pts) < 2:
        return np.inf
    tol = core.dist_error(pts)
    best = np.inf
    for wn, vn in _pair_norms(pts):
        if np.any((wn <= tol) & (vn > tol)):
            return 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(vn > 0, wn / np.where(vn > 0, vn, 1.0), np.inf)
        best = min(best, float(np.min(vals)))
    return best


def translate_graph(g: GridGraph, q, target=None):
    """Reparametrize the left-translated graph q . Gamma.

    phi_q(w) = x_q + phi(P_{q^-1}(w)) on the sheared domain; values are
    resampled by bilinear interpolation onto `target` (a GridGraph-like
    grid spec; defaults to the source grid shifted to cover the sheared
    domain), and rows/columns without full coverage are cropped.  The
    returned graph carries interp_error, a worst-case bound from second
    differences.
    """
    q = core.as_point(q)
    W = planes.subgroup_y_t()

    def shear(p, yt):  # P_p in chart coordinates
        return planes.project_chart(
            planes.shear(p, planes.from_plane_coords(yt, W), W), W)

    if target is None:
        corners = np.array([[g.ys[0], g.ts[0]], [g.ys[0], g.ts[-1]],
                            [g.ys[-1], g.ts[0]], [g.ys[-1], g.ts[-1]]])
        sheared = shear(q, corners)
        target = GridGraph(sheared[:, 0].min(), sheared[:, 1].min(), g.dy, g.dt,
                           np.zeros((g.ny, int(np.ceil((sheared[:, 1].max() - sheared[:, 1].min()) / g.dt)) + 1)))
    yy, tt = np.meshgrid(target.ys, target.ts, indexing="ij")
    src = shear(core.inv(q), np.stack([yy, tt], axis=-1))
    vals = q[0] + interp_phi(g, src[..., 0], src[..., 1])
    finite = np.isfinite(vals)
    rows = np.nonzero(finite.any(axis=1))[0]
    if len(rows) == 0:
        raise ValueError("translated graph does not overlap the target grid")
    i0, i1 = rows[0], rows[-1]
    cols = np.nonzero(finite[i0:i1 + 1].all(axis=0))[0]
    if len(cols) == 0:
        raise ValueError("translated graph does not overlap the target grid")
    j0, j1 = cols[0], cols[-1]
    out = GridGraph(target.y0 + i0 * target.dy, target.t0 + j0 * target.dt,
                    target.dy, target.dt, vals[i0:i1 + 1, j0:j1 + 1])
    out.interp_error = curvature_interp_error(g)
    return out


def dilate_graph(g: GridGraph, r: float):
    """Graph of the dilated set delta_r(Gamma); exact on the scaled grid."""
    if r <= 0:
        raise ValueError("dilation factor must be positive")
    return GridGraph(r * g.y0, r * r * g.t0, r * g.dy, r * r * g.dt, r * g.phi)


def graph_distance(g: GridGraph, node_a, node_b):
    """d(w . phi(w), w' . phi(w')) between two grid nodes."""
    return float(core.dist(graph_map(g, *node_a), graph_map(g, *node_b)))


def calibrate_ball_inclusion(g: GridGraph, center, r):
    """Largest b with pi_W(B(x, b r)) inside pi_W(B(x, r) on the graph).

    Empirical sandwich constant: over grid nodes w, any w reachable from
    the ball B(x, b r) along its fiber must carry a graph point within r
    of x.  Returns min(1, min over violating nodes of fiber dist / r).
    """
    center = core.as_point(center)
    nodes = planes.from_plane_coords(g.nodes(), planes.subgroup_y_t())
    fiber = planes.dist_to_fiber(center, nodes, planes.subgroup_y_t())
    on_graph = core.dist(all_graph_points(g).reshape(-1, 3), center)
    outside = on_graph > r
    if not outside.any():
        return 1.0
    return float(min(1.0, fiber[outside].min() / r))


# ---------------------------------------------------------------------------
# serialization: grid graphs as JSON header + CSV body, point sets as CSV

def write_csv(path, header, rows):
    """CSV artifact: floats as repr(float(v)), ints and strings verbatim."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([v if isinstance(v, (str, int, np.integer))
                      else repr(float(v)) for v in row] for row in rows)


def read_csv(path):
    """Data rows of a CSV artifact as lists of strings, header skipped."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        next(rd, None)
        return list(rd)


def save_grid_graph(g: GridGraph, prefix):
    meta = {"y0": g.y0, "t0": g.t0, "dy": g.dy, "dt": g.dt,
            "ny": g.ny, "nt": g.nt}
    with open(str(prefix) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_csv(str(prefix) + ".csv", ["y", "t", "phi", "mass"],
              ((y, t, g.phi[i, j], g.mass[i, j])
               for i, y in enumerate(g.ys) for j, t in enumerate(g.ts)))


def load_grid_graph(prefix):
    """Grid graph of <prefix>.json and <prefix>.csv (ny * nt rows, t fastest).

    Row k must sit at grid node (k // nt, k % nt): its y and t may differ
    from y0 + dy * (k // nt) and t0 + dt * (k % nt) by at most 1e-6 of a
    step, so rows in another order are rejected, not misplaced.
    """
    with open(str(prefix) + ".json") as fh:
        meta = json.load(fh)
    path = str(prefix) + ".csv"
    rows = read_csv(path)
    ny, nt = meta["ny"], meta["nt"]
    if len(rows) != ny * nt:
        raise ValueError(f"{path}: {len(rows)} rows, expected ny * nt = "
                         f"{ny * nt}")
    for k, row in enumerate(rows, 1):
        if len(row) != 4:
            raise ValueError(f"{path}: row {k} has {len(row)} fields, expected 4")
    values = np.array([[float(v) for v in row] for row in rows]).reshape(-1, 4)
    bad = np.flatnonzero(~np.isfinite(values[:, 2:]).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: row {bad[0] + 1} has a non-finite phi or mass")
    i, j = np.divmod(np.arange(len(rows)), nt)
    node = np.column_stack([meta["y0"] + meta["dy"] * i,
                            meta["t0"] + meta["dt"] * j])
    tol = 1e-6 * np.abs([meta["dy"], meta["dt"]])
    bad = np.flatnonzero(~(np.abs(values[:, :2] - node) <= tol).all(axis=1))
    if len(bad):
        k = bad[0]
        raise ValueError(f"{path}: row {k + 1} has (y, t) = "
                         f"({values[k, 0]}, {values[k, 1]}), expected "
                         f"grid node ({i[k]}, {j[k]}) at "
                         f"({node[k, 0]}, {node[k, 1]})")
    values = values[:, 2:].reshape(ny, nt, 2)
    return GridGraph(meta["y0"], meta["t0"], meta["dy"], meta["dt"],
                     values[..., 0], values[..., 1])


def save_point_set(ps: GraphPointSet, path):
    write_csv(path, ["x", "y", "t", "mass"],
              ((*p, m) for p, m in zip(ps.points, ps.masses)))


def load_point_set(path, provenance=""):
    """Samples of an x,y,t,mass CSV; rows are counted from 1 after the header."""
    rows = read_csv(path)
    if not rows:
        raise ValueError(f"{path}: no samples")
    for k, row in enumerate(rows, 1):
        if len(row) != 4:
            raise ValueError(f"{path}: row {k} has {len(row)} fields, expected 4")
    rows = np.array([[float(v) for v in row] for row in rows])
    return GraphPointSet(rows[:, :3], rows[:, 3], provenance or str(path))
