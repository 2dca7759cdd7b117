"""Output checks for the benchmark's workloads, independent of the program.

Each check reads the artifacts a CLI command wrote and the input cloud
it was given, recomputes what it can with its own code (Heisenberg
distance, exact hull width by Qhull, chart projection) and raises
``CheckFailed`` on the first disagreement.  None of them reads a verdict
that the program computed about itself (``graph_ok``, the inner-ball
constant) as evidence.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

# a flatness number this close to a threshold may fall on either side
BETA_MARGIN = 1e-9
# direction grid of the oracle: its width error is at most the cloud's
# extent times sin(pi / (2 * ORACLE_DIRS)), so beta is within 4.4e-4
ORACLE_DIRS = 3600


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def digest(out_dir):
    """sha256 over every artifact file, by name and content."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def load_cloud(path):
    """(points, masses) from an x,y,t,mass CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :3], data[:, 3]


def heis_dist(p, c):
    """d(p, c) = ||c^-1 . p|| with the norm max(|z|, sqrt|t|)."""
    p = np.asarray(p, float)
    c = np.asarray(c, float)
    dx = p[..., 0] - c[..., 0]
    dy = p[..., 1] - c[..., 1]
    dt = p[..., 2] - c[..., 2] + 0.5 * (c[..., 1] * p[..., 0]
                                        - c[..., 0] * p[..., 1])
    return np.maximum(np.hypot(dx, dy), np.sqrt(np.abs(dt)))


def min_width(xy):
    """Exact minimum directional width of a planar point set.

    The optimal strip is parallel to a hull edge, so the minimum over
    the Qhull edges' normals is exact.  Collinear or tiny sets have
    width 0 up to rounding; Qhull rejects them, and the width across
    their principal axis is returned instead.
    """
    xy = np.unique(np.asarray(xy, float), axis=0)
    if len(xy) < 3:
        return 0.0
    try:
        hull = xy[ConvexHull(xy).vertices]
    except QhullError:
        centred = xy - xy.mean(axis=0)
        normal = np.linalg.svd(centred, full_matrices=False)[2][-1]
        proj = centred @ normal
        return float(proj.max() - proj.min())
    edges = np.roll(hull, -1, axis=0) - hull
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    proj = hull @ normals.T
    return float((proj.max(axis=0) - proj.min(axis=0)).min())


def ball_beta(points, center, radius):
    """Vertical flatness number of the samples in B(center, radius)."""
    inside = points[heis_dist(points, center) <= radius]
    require(len(inside) > 0, "empty ball")
    return 0.5 * min_width(inside[:, :2]) / radius


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------

def check_partition(out_dir, points, masses):
    """pieces.csv and partition_summary.json of ``heisrect partition``.

    Pieces are disjoint sets of input samples; inside one piece no two
    samples share a projection to the (y, t)-plane chart; the covered
    mass agrees with the summary.
    """
    header, rows = _read_csv(os.path.join(out_dir, "pieces.csv"))
    require(header == ["piece", "sigma", "x", "y", "t", "mass"],
            f"pieces.csv header {header}")
    with open(os.path.join(out_dir, "partition_summary.json")) as fh:
        summary = json.load(fh)
    index = {tuple(p): k for k, p in enumerate(points.tolist())}
    require(len(index) == len(points), "input has duplicate samples")
    pieces = {}
    seen = set()
    for row in rows:
        key = tuple(float(v) for v in row[2:5])
        require(key in index, f"piece sample {key} is not an input sample")
        k = index[key]
        require(k not in seen, f"sample {k} lies in two pieces")
        require(float(row[5]) == masses[k], f"sample {k} changed its mass")
        seen.add(k)
        pieces.setdefault(int(row[0]), []).append(k)
    require(sorted(pieces) == list(range(len(pieces))),
            "piece ids are not 0..n-1")
    require(summary["pieces"] == len(pieces),
            f"summary counts {summary['pieces']} pieces, file has {len(pieces)}")
    # (y, t + x y / 2) are the coordinates of the projection p_W of p to
    # the (y, t)-plane W = {x = 0} along horizontal lines
    chart = np.column_stack([points[:, 1],
                             points[:, 2] + 0.5 * points[:, 0] * points[:, 1]])
    tol = 1e-9 * max(float(np.ptp(chart, axis=0).max()), 1e-300)
    for pid, idx in pieces.items():
        if len(idx) > 1:
            pairs = cKDTree(chart[idx]).query_pairs(tol)
            require(not pairs,
                    f"piece {pid}: {len(pairs)} sample pairs share a projection")
    covered = float(masses[sorted(seen)].sum())
    root_mass = float(summary["root_mass"])
    require(0 < root_mass <= float(masses.sum()) * (1 + 1e-12),
            "root mass exceeds the input mass")
    require(covered <= root_mass * (1 + 1e-12), "pieces outweigh the root")
    require(_close(covered / root_mass, summary["covered_mass_fraction"]),
            f"covered mass fraction {covered / root_mass} vs summary "
            f"{summary['covered_mass_fraction']}")
    return {"pieces": len(pieces), "covered_samples": len(seen)}


def check_cubes(out_dir, points, masses, ball_multiplier=4.0, sample=24):
    """cubes.json, carleson.csv and cubes_summary.json of ``heisrect cubes``.

    Every level is an exact partition of the samples, levels nest,
    masses add up and diameters stay below 2^j.  The packing sums are
    recomputed from exact flatness numbers of every cube ball, and a
    fixed subsample of those numbers is compared with the direction-grid
    oracle ``heisrect.beta.brute_min_width``.
    """
    from heisrect.beta import brute_min_width

    with open(os.path.join(out_dir, "cubes.json")) as fh:
        tree = json.load(fh)
    n = len(points)
    total = float(masses.sum())
    j_min, j_max = tree["j_min"], tree["j_max"]
    nodes = {node["id"]: node for node in tree["nodes"]}
    require(len(nodes) == len(tree["nodes"]), "duplicate cube ids")
    label = {j: np.full(n, -1) for j in range(j_min, j_max + 1)}
    count = {j: np.zeros(n, dtype=int) for j in label}
    for node in tree["nodes"]:
        j = node["level"]
        require(j in label, f"cube {node['id']} has level {j}")
        idx = np.asarray(node["samples"], dtype=int)
        require(len(idx) > 0, f"cube {node['id']} is empty")
        np.add.at(count[j], idx, 1)
        label[j][idx] = node["id"]
    for j in label:
        require(np.all(count[j] <= 1), f"level {j}: a sample lies in two cubes")
        require(np.all(count[j] == 1), f"level {j} does not cover every sample")
    for node in tree["nodes"]:
        idx = np.asarray(node["samples"], dtype=int)
        require(node["center_index"] in set(idx.tolist()),
                f"cube {node['id']} does not hold its center")
        require(_close(node["mass"], float(masses[idx].sum()), 1e-12),
                f"cube {node['id']} mass")
        pts = points[idx]
        for s in range(0, len(pts), 256):
            d = heis_dist(pts[s:s + 256, None, :], pts[None, :, :])
            require(d.max() <= 2.0 ** node["level"],
                    f"cube {node['id']} is wider than 2^{node['level']}")
    for j in label:
        level_mass = sum(nodes[c]["mass"] for c in np.unique(label[j]).tolist())
        require(_close(level_mass, total, 1e-12), f"level {j} mass not conserved")
    for node in tree["nodes"]:
        if node["level"] == j_max:
            require(node["parent"] is None, f"root {node['id']} has a parent")
            continue
        parent = nodes.get(node["parent"])
        require(parent is not None and parent["level"] == node["level"] + 1,
                f"cube {node['id']} has no parent one level up")
        idx = np.asarray(node["samples"], dtype=int)
        require(np.all(label[node["level"] + 1][idx] == parent["id"]),
                f"cube {node['id']} is not nested in its parent")

    betas = {}
    for cid, node in nodes.items():
        betas[cid] = ball_beta(points, points[node["center_index"]],
                               ball_multiplier * 2.0 ** node["level"])
    for cid in sorted(nodes)[::max(1, len(nodes) // sample)][:sample]:
        node = nodes[cid]
        r = ball_multiplier * 2.0 ** node["level"]
        inside = points[heis_dist(points, points[node["center_index"]]) <= r]
        oracle = 0.5 * brute_min_width(inside[:, :2], ORACLE_DIRS)[0] / r
        require(abs(oracle - betas[cid]) <= 1e-3,
                f"cube {cid}: beta {betas[cid]} vs oracle {oracle}")

    children = {}
    for node in tree["nodes"]:
        if node["parent"] is not None:
            children.setdefault(node["parent"], []).append(node["id"])
    header, rows = _read_csv(os.path.join(out_dir, "carleson.csv"))
    require(header == ["root_id", "epsilon", "K"], f"carleson.csv header {header}")
    roots = sorted(c for c, node in nodes.items() if node["level"] == j_max)
    require(sorted({int(r[0]) for r in rows}) == roots,
            "carleson.csv roots differ from the tree's roots")
    for root_id, eps, k_val in rows:
        root = int(root_id)
        eps, k_val = float(eps), float(k_val)
        sub, stack = [], [root]
        while stack:
            c = stack.pop()
            sub.append(c)
            stack.extend(children.get(c, []))
        b = np.array([betas[c] for c in sub])
        m = np.array([nodes[c]["mass"] for c in sub])
        root_mass = nodes[root]["mass"]
        k_lo = m[b >= eps + BETA_MARGIN].sum() / root_mass
        k_hi = m[b >= eps - BETA_MARGIN].sum() / root_mass
        require(k_lo - 1e-9 <= k_val <= k_hi + 1e-9,
                f"root {root} eps {eps}: K {k_val} outside [{k_lo}, {k_hi}]")
    with open(os.path.join(out_dir, "cubes_summary.json")) as fh:
        summary = json.load(fh)
    require(summary["cube_count"] == len(nodes), "summary cube count")
    require(summary["levels"] == [j_min, j_max], "summary levels")
    return {"cubes": len(nodes), "levels": [j_min, j_max]}


def check_wgl(out_dir, points, masses, epsilons, stride):
    """wgl.csv of ``heisrect wgl``, recomputed from exact flatness numbers.

    The centre is the sample nearest the coordinatewise median and R the
    largest distance from it, so every sample is inside B(x, R).  Each
    estimate must lie between the sums over balls whose flatness clears
    eps by more, and by less, than BETA_MARGIN; every estimate is finite
    and within [0, ln 2 * stride * mass(samples[::stride]) * shells].
    """
    header, rows = _read_csv(os.path.join(out_dir, "wgl.csv"))
    require(header == ["epsilon", "R", "estimate", "normalized"],
            f"wgl.csv header {header}")
    rows = [[float(v) for v in row] for row in rows]
    require([r[0] for r in rows] == [float(e) for e in epsilons],
            "wgl.csv epsilons differ from the request")
    center = points[int(np.argmin(heis_dist(points,
                                            np.median(points, axis=0))))]
    radius = float(heis_dist(points, center).max())
    nn = np.empty(len(points))
    for s in range(0, len(points), 256):
        d = heis_dist(points[s:s + 256, None, :], points[None, :, :])
        d[np.arange(len(d)), np.arange(s, s + len(d))] = np.inf
        nn[s:s + len(d)] = d.min(axis=1)
    spacing = float(np.median(nn))
    shells = max(1, math.floor(math.log2(radius / (4 * spacing))))
    chosen = np.arange(len(points))[::stride]
    betas = np.array([[ball_beta(points, points[i], radius * 2.0 ** (-k + 0.5))
                       for i in chosen] for k in range(1, shells + 1)])
    weight = math.log(2.0) * stride * masses[chosen]
    upper = float(weight.sum()) * shells
    for eps, r_val, est, normalized in rows:
        require(math.isfinite(est) and 0.0 <= est <= upper * (1 + 1e-12),
                f"eps {eps}: estimate {est} outside [0, {upper}]")
        require(_close(r_val, radius, 1e-12), f"R {r_val} vs {radius}")
        require(_close(normalized, est / r_val ** 3), f"eps {eps}: normalized")
        lo = float((weight * (betas > eps + BETA_MARGIN)).sum())
        hi = float((weight * (betas > eps - BETA_MARGIN)).sum())
        require(lo * (1 - 1e-9) <= est <= hi * (1 + 1e-9) + 1e-300,
                f"eps {eps}: estimate {est} outside [{lo}, {hi}]")
    return {"shells": shells, "balls": int(betas.size),
            "estimates": [r[2] for r in rows]}
