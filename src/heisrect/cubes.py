"""Multiscale cube decompositions of weighted point clouds.

Cubes at level j partition the samples, nest across levels, and have
diameter below 2^j.  The construction runs greedy farthest-point nets
at radius 2^(j-2) per level, nested so coarser net points are a subset
of finer ones; each sample attaches to its nearest finest net point and
inherits the center's ancestor chain, which makes nesting exact by
construction.  On top of the tree live Carleson packing sums, the
integral formulation of the packing condition, the pre-dyadic ball
refinement, and stopping-time (corona) partitions.

Tree construction and checks answer every neighbourhood question with
index arrays from a sparse Chebyshev distance matrix of cKDTree, cut to
boxes proved to hold each metric ball, followed by the exact core.dist
filter, so they return the same values as all-pairs scans without
building one.  The greedy nets rescan only the box around each new net
point once that box is smaller than the cloud, and the tree file is
written directly in json.dump's layout.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import beta as beta_mod
from . import core, graphs

# the ball of cube Q at level j is B_Q = B(z_Q, BALL_MULTIPLIER * 2^j),
# for its flatness, the cover counts and the coding alike
BALL_MULTIPLIER = 4.0


class CubeTree:
    """Nested cubes stored as flat arrays.

    Cube ids run level by level from j_max down, by ascending center
    index within a level.  Per cube id: level, center_index, parent (-1
    at the roots) and mass.  label[j][s] is the id of the level-j cube
    holding sample s; these arrays are the only record of membership.
    """

    def __init__(self, points, masses, label, level, center_index, parent,
                 mass, j_min, j_max):
        self.points = points
        self.masses = masses
        self.label = label
        self.level = level
        self.center_index = center_index
        self.parent = parent
        self.mass = mass
        self.j_min = j_min
        self.j_max = j_max
        # CSR groupings: the samples of cube c at level j are
        # order[start[c]:start[c + 1]] of _members[j], ascending
        self._members = {j: _group(lab, len(level)) for j, lab in label.items()}
        order, start = _group(parent, len(level))
        self._children = (order.tolist(), start.tolist())

    def __len__(self):
        return len(self.level)

    def at_level(self, j):
        """Ids of the level-j cubes, ascending."""
        return np.flatnonzero(self.level == j).tolist()

    def samples(self, cube_id):
        """Sample indices of a cube, ascending."""
        order, start = self._members[self.level[cube_id]]
        return order[start[cube_id]:start[cube_id + 1]]

    def children(self, cube_id):
        order, start = self._children
        return order[start[cube_id]:start[cube_id + 1]]

    def center(self, cube_id):
        return self.points[self.center_index[cube_id]]

    def roots(self):
        return self.at_level(self.j_max)

    def descendants(self, cube_id):
        """cube_id and everything below it, in depth-first order."""
        out = [cube_id]
        stack = self.children(cube_id)
        while stack:
            cid = stack.pop()
            out.append(cid)
            stack.extend(self.children(cid))
        return out


def _group(keys, n):
    """Stable argsort of keys in [-1, n) and the start of each key 0..n."""
    order = np.argsort(keys, kind="stable")
    order.setflags(write=False)  # samples() hands out views of it
    return order, np.searchsorted(keys[order], np.arange(n + 1))


def farthest_point_net(points, radius, candidates=None):
    """Greedy farthest-point net seeded at the lowest index.

    Returns indices (into `points`) with pairwise distance >= radius
    and covering radius < radius; ties pick the lowest index.  Adding
    the farthest candidate far lowers d = dist(., net) only below
    D = d[far] = max d, so once the box of B(far, D) leaves part of the
    cloud out, only the candidates in that box are rescanned.
    """
    idx = np.arange(len(points)) if candidates is None else np.asarray(candidates)
    pts = points[idx]
    tol = core.dist_error(pts)
    # per candidate: |z|, and the half-width of the smallest box around
    # it that holds every candidate
    z = np.hypot(pts[:, 0], pts[:, 1]).tolist()
    span = np.maximum(pts - pts.min(axis=0),
                      pts.max(axis=0) - pts).max(axis=1).tolist()
    kd = None
    chosen = [0]
    d = core.dist(pts, pts[0])
    while True:
        far = int(d.argmax())
        r = d.item(far)
        if r < radius:
            break
        chosen.append(far)
        c = pts[far]
        half = _box_half(r, z[far], tol)
        if half >= span[far]:
            d = np.minimum(d, core.dist(pts, c))
            continue
        if kd is None:
            kd = cKDTree(pts)
        near = np.array(kd.query_ball_point(c, half, p=np.inf), dtype=int)
        d[near] = np.minimum(d[near], core.dist(pts[near], c))
    return idx[np.array(sorted(chosen))]


def _diameter(points):
    """All-pairs diameter in blocks of graphs.PAIR_BUDGET pairs (one row
    at least); the exact fallback of the bounds below."""
    block = max(1, graphs.PAIR_BUDGET // len(points))
    return max(float(core.dist(points[s:s + block, None, :],
                               points[None, :, :]).max())
               for s in range(0, len(points), block))


def _box_half(radii, z, tol):
    """Half-width of a Chebyshev box that holds every point within
    core.dist r of a center whose horizontal part has norm z.

    q in B(c, r) implies |x_q - x_c|, |y_q - y_c| <= r and
    |t_q - t_c| <= r^2 + |z_c| r / 2 (core.mul, core.norm); r is widened
    by the rounding bound tol first.
    """
    r = radii + tol
    return np.maximum(r, r * r + 0.5 * z * r) * (1.0 + core.BOX_SLACK) + tol


def _box_query(kd, centers, radii, tol):
    """Indices of every kd point whose core.dist to a center may be <= r.

    Yields (rows, cols) per block of centers: center rows[k] may hold kd
    point cols[k], with rows ascending and cols ascending within each
    row.  A block is at most 1,024 centers, taken in order of box
    half-width, whose widths stay within a factor of two; one sparse
    Chebyshev distance matrix per block, cut at its widest box, is
    filtered to each row's own box.  So no center meets more than its
    box twice as wide, and one far-off center does not widen the boxes
    of a thousand others.
    """
    half = _box_half(np.asarray(radii, float),
                     np.hypot(centers[:, 0], centers[:, 1]), tol)
    by_half = np.argsort(half, kind="stable")
    sorted_half = half[by_half]
    s = 0
    while s < len(centers):
        e = min(s + 1024, int(np.searchsorted(sorted_half, 2.0 * sorted_half[s],
                                              side="right")))
        block = by_half[s:e]
        pairs = cKDTree(centers[block]).sparse_distance_matrix(
            kd, sorted_half[e - 1], p=np.inf, output_type="ndarray")
        rows, cols = block[pairs["i"]], pairs["j"]
        keep = pairs["v"] <= half[rows]
        rows, cols = rows[keep], cols[keep]
        order = np.argsort(rows * kd.n + cols)
        yield rows[order], cols[order]
        s = e


def _first_per_row(rows):
    """Position of the first entry of each row in a row-sorted array."""
    return np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])


def _nearest(points, targets, radius, tol):
    """Index of the nearest target per point, lowest index on ties.

    Every point must have a target at distance < radius (the covering
    radius of the net the targets form), so only box candidates count.
    """
    out = np.empty(len(points), dtype=int)
    for rows, cols in _box_query(cKDTree(targets), points,
                                 np.full(len(points), radius), tol):
        # stable: ascending target index among equal distances
        order = np.lexsort((core.dist(points[rows], targets[cols]), rows))
        pick = order[_first_per_row(rows)]
        out[rows[pick]] = cols[pick]
    return out


def _nn_distances(points, tol):
    """Per-sample distance to the nearest other sample (inf if alone).

    The nearest of eight Euclidean neighbours in the group metric gives
    an upper bound u; the exact minimum lies among the candidates of the
    box of radius u.
    """
    n = len(points)
    if n < 2:
        return np.full(n, np.inf)
    kd = cKDTree(points)
    near = kd.query(points, k=min(8, n))[1]
    u = core.dist(points[:, None, :], points[near])
    u[near == np.arange(n)[:, None]] = np.inf
    out = np.empty(n)
    for rows, cols in _box_query(kd, points, u.min(axis=1), tol):
        d = core.dist(points[rows], points[cols])
        d[rows == cols] = np.inf
        first = _first_per_row(rows)
        out[rows[first]] = np.minimum.reduceat(d, first)
    return out


def median_nn_distance(points):
    """Median nearest-neighbour distance in the group metric."""
    pts = np.asarray(points, float).reshape(-1, 3)
    if len(pts) < 2:
        return 0.0
    return float(np.median(_nn_distances(pts, core.dist_error(pts))))


def _diameter_bracket(points, tol):
    """(lo, hi) around the sample diameter from two eccentricity rows.

    lo is the eccentricity of the sample farthest from an anchor near
    the median (a true pairwise distance); hi is twice the anchor's
    eccentricity, widened by the rounding bound.
    """
    anchor = int(np.argmin(core.dist(points, np.median(points, axis=0))))
    ecc = core.dist(points, points[anchor])
    lo = float(core.dist(points, points[int(np.argmax(ecc))]).max())
    hi = 2.0 * (float(ecc.max()) + tol) * (1.0 + core.BOX_SLACK) + tol
    return lo, hi


def _top_level(points, tol):
    """Default j_max: two levels above ceil(log2(diameter)), at least 0.

    The all-pairs diameter runs only when the bracket straddles the
    power of two that decides it.
    """
    lo, hi = _diameter_bracket(points, tol)
    if hi == 0:
        return 0
    k = math.ceil(math.log2(hi))
    # log2 of anything in (2^(k-1) (1 + slack), 2^k] has ceiling k
    if not (lo > 2.0 ** (k - 1) * (1.0 + core.BOX_SLACK) and hi <= 2.0 ** k):
        diam = _diameter(points)
        if diam == 0:
            return 0
        k = math.ceil(math.log2(diam))
    return max(0, k + 2)


def _dominates(points, tol, j_max):
    """Whether 2^j_max >= the sample diameter."""
    lo, hi = _diameter_bracket(points, tol)
    if hi <= 2.0 ** j_max:
        return True
    if lo > 2.0 ** j_max:
        return False
    return _diameter(points) <= 2.0 ** j_max


def build_cubes(points, masses, j_min=None, j_max=None) -> CubeTree:
    """Deterministic nested-net cube hierarchy over weighted samples.

    j_max defaults two levels above the diameter scale so the whole
    cloud sits under a single root; j_min defaults to log2 of 4x the
    median nearest-neighbour distance (below that scale cubes only
    resolve sampling noise).  A single sample degenerates to one cube
    per level.
    """
    points = np.asarray(points, float).reshape(-1, 3)
    masses = np.asarray(masses, float).reshape(-1)
    if len(points) == 0:
        raise ValueError("empty sample set")
    if len(points) != len(masses):
        raise ValueError("one mass per point required")
    tol = core.dist_error(points)
    if j_max is None:
        j_max = _top_level(points, tol)
    elif not _dominates(points, tol, j_max):
        raise ValueError("2^j_max must dominate the sample diameter")
    nn = _nn_distances(points, tol)
    if j_min is None:
        med = float(np.median(nn)) if len(points) > 1 else 0.0
        j_min = math.floor(math.log2(4 * med)) if med > 0 else j_max - 4
    j_min = min(j_min, j_max)

    # where no two samples are closer than the radius, the greedy loop
    # would take every candidate
    closest = nn.min()

    def net(j, candidates):
        if closest >= 2.0 ** (j - 2):
            return candidates
        return farthest_point_net(points, 2.0 ** (j - 2), candidates)

    # nested nets, finest first; each coarser net refines the previous
    nets = {j_min: net(j_min, np.arange(len(points)))}
    for j in range(j_min + 1, j_max + 1):
        nets[j] = net(j, nets[j - 1])

    # key[j][s]: center of the level-j cube holding sample s.  A sample
    # takes its nearest finest center, a center its nearest coarser net
    # point (lowest index on ties), found within the covering radius of
    # that net; nets are sorted, so searchsorted finds each center's row
    key = {j_min: nets[j_min][_nearest(points, points[nets[j_min]],
                                       2.0 ** (j_min - 2), tol)]}
    for j in range(j_min, j_max):
        up = nets[j + 1][_nearest(points[nets[j]], points[nets[j + 1]],
                                  2.0 ** (j - 1), tol)]
        key[j + 1] = up[np.searchsorted(nets[j], key[j])]

    label, level, center_index, parent, mass = {}, [], [], [], []
    for j in range(j_max, j_min - 1, -1):
        centers, first, inv = np.unique(key[j], return_index=True,
                                        return_inverse=True)
        label[j] = len(level) + inv
        level += [j] * len(centers)
        center_index += centers.tolist()
        parent += (label[j + 1][first].tolist() if j < j_max
                   else [-1] * len(centers))
        # per cube, masses[samples].sum() over ascending samples; a
        # bincount with weights would round differently
        members = np.split(np.argsort(inv, kind="stable"),
                           np.cumsum(np.bincount(inv))[:-1])
        mass += [float(masses[m].sum()) for m in members]
    return CubeTree(points, masses, label, np.array(level),
                    np.array(center_index), np.array(parent),
                    np.array(mass), j_min, j_max)


def check_tree_invariants(tree: CubeTree):
    """Exact partition, nesting, diameter and inner-ball checks.

    Returns the measured inner-ball constant c (distance from each
    center to the nearest outside sample, in units of 2^j, minimized
    over cubes).  A cube whose samples all lie within 2^j / 2 of its
    center (less the rounding bound) meets the diameter bound by the
    triangle inequality; any other cube gets the all-pairs scan.
    """
    points = tree.points
    tol = core.dist_error(points)
    kd = cKDTree(points)
    k = min(8, len(points))
    near = kd.query(points, k=k)[1].reshape(len(points), k)
    split = {}  # level -> (cube ids, centers) where there are >= 2 cubes
    bound = np.inf  # an upper bound on c from a few outside samples
    for j in range(tree.j_min, tree.j_max + 1):
        lab = tree.label[j]
        ids = np.array(tree.at_level(j))
        if not np.array_equal(np.unique(lab), ids):
            raise AssertionError(f"level {j} is not an exact partition")
        up = tree.label[j + 1] if j < tree.j_max else -1
        if np.any(tree.parent[lab] != up):
            raise AssertionError(f"nesting violated at level {j}")
        reach = core.dist(points, points[tree.center_index[lab]])
        uncertified = (2.0 * (reach + tol) * (1.0 + core.BOX_SLACK) + tol
                       > 2.0 ** j)
        for cid in np.unique(lab[uncertified]).tolist():
            if _diameter(points[lab == cid]) > 2.0 ** j:
                raise AssertionError(f"diameter bound violated at level {j}")
        if len(ids) < 2:
            continue
        centers = tree.center_index[ids]
        split[j] = ids, centers
        # outside samples among each center's Euclidean neighbours, or
        # else every outside sample of the first cube
        cand = near[centers]
        out = lab[cand] != ids[:, None]
        if out.any():
            gap = core.dist(points[cand[out]],
                            points[np.broadcast_to(centers[:, None],
                                                   cand.shape)[out]]).min()
        else:
            gap = core.dist(points[lab != ids[0]], points[centers[0]]).min()
        bound = min(bound, gap / 2.0 ** j)

    # every cube whose constant is at most the bound finds its nearest
    # outside sample in the box around its center
    inner_c = np.inf
    for j, (ids, centers) in split.items():
        for rows, cols in _box_query(kd, points[centers],
                                     np.full(len(ids), bound * 2.0 ** j), tol):
            out = tree.label[j][cols] != ids[rows]
            if out.any():
                gap = core.dist(points[cols[out]], points[centers[rows[out]]])
                inner_c = min(inner_c, gap.min() / 2.0 ** j)
    return float(inner_c)


def containing_cube(tree: CubeTree, sample, level):
    """The level-j cube holding a sample."""
    return int(tree.label[level][sample])


def sibling_pair(tree: CubeTree, i1, i2):
    """Disjoint same-level cubes around two samples at their mutual scale.

    Returns (j, cube_1, cube_2) for the largest j with 2^j <= d(x, y),
    clamped to the available levels.
    """
    d = float(core.dist(tree.points[i1], tree.points[i2]))
    if d == 0:
        raise ValueError("samples coincide")
    j = min(max(math.floor(math.log2(d)), tree.j_min), tree.j_max)
    return j, containing_cube(tree, i1, j), containing_cube(tree, i2, j)


def cube_beta_cache(tree: CubeTree):
    """Flatness record of the ball B_Q for every cube, by id."""
    balls = [beta_mod.Ball(tree.center(cid), BALL_MULTIPLIER * 2.0 ** j)
             for cid, j in enumerate(tree.level.tolist())]
    return dict(enumerate(beta_mod.beta_vertical_batch(tree.points, balls)))


@dataclass
class CarlesonReport:
    epsilons: list
    per_root: dict          # root id -> list of K values, one per epsilon
    sup_k: list             # per epsilon, sup over roots
    integral_estimate: float = None


def carleson_sum(tree: CubeTree, beta_of, epsilons) -> CarlesonReport:
    """Packing sums K(eps, root) = sum of mu(Q)/mu(root) over high-beta cubes.

    beta_of maps cube id to its BetaRecord (cube_beta_cache output);
    missing entries raise.
    """
    epsilons = sorted(float(e) for e in epsilons)
    mass = tree.mass.tolist()
    per_root = {}
    for root in tree.roots():
        ids = tree.descendants(root)
        root_mass = mass[root]
        ks = []
        for eps in epsilons:
            total = sum(mass[cid] for cid in ids if beta_of[cid].beta >= eps)
            ks.append(total / root_mass if root_mass > 0 else 0.0)
        per_root[root] = ks
    sup_k = [max(per_root[r][i] for r in per_root)
             for i in range(len(epsilons))]
    return CarlesonReport(epsilons, per_root, sup_k)


def carleson_with_integral(tree: CubeTree, beta_of, epsilons,
                           sample_stride=4):
    """Packing sums plus the shell estimate of the packing integral.

    The integral is evaluated at the heaviest root for the smallest
    threshold and stored on the report for cross-checking the two
    formulations on identical data.
    """
    report = carleson_sum(tree, beta_of, epsilons)
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    radius = BALL_MULTIPLIER * 2.0 ** tree.j_max
    report.integral_estimate = wgl_integral_estimate(
        tree.points, tree.masses, report.epsilons[:1], tree.center(root),
        radius, sample_stride=sample_stride)[0]
    return report


def wgl_integral_estimate(points, masses, epsilons, x, R, n_shells=None,
                          sample_stride=1):
    """Dyadic-shell estimates of the packing integral, one per threshold.

    For each eps in epsilons, sums ln(2) * mass(y) over samples y in
    B(x, R) and shell radii s_k = R 2^(-k+1/2) whose ball B(y, s_k) has
    flatness above eps.  Each ball's flatness is computed once and
    compared with every threshold; one batch per shell covers every
    sampled center.  The shell count defaults to the range between R
    and 4x the median sample spacing.
    """
    points = np.asarray(points, float).reshape(-1, 3)
    masses = np.asarray(masses, float).reshape(-1)
    x = core.as_point(x)
    inside = np.nonzero(core.dist(points, x) <= R)[0]
    if len(inside) == 0:
        raise ValueError("no samples in the ball")
    if n_shells is None:
        nn = median_nn_distance(points)
        n_shells = max(1, int(math.floor(math.log2(R / (4 * nn))))) if nn > 0 else 3
    totals = [0.0] * len(epsilons)
    centers = inside[::sample_stride]
    for k in range(1, n_shells + 1):
        s = R * 2.0 ** (-k + 0.5)
        records = beta_mod.beta_vertical_batch(
            points, [beta_mod.Ball(points[i], s) for i in centers])
        for i, rec in zip(centers, records):
            for e, eps in enumerate(epsilons):
                if rec.beta > eps:
                    totals[e] += math.log(2.0) * masses[i] * sample_stride
    return totals


# ---------------------------------------------------------------------------
# pre-dyadic refinement

@dataclass
class PredyadicEntry:
    ball: beta_mod.Ball
    thinness: float
    sub_balls: list


def _ball_relation(b1: beta_mod.Ball, b2: beta_mod.Ball):
    """'inside' (b1 in b2), 'disjoint', or 'boundary' by the metric test."""
    d = float(core.dist(b1.center, b2.center))
    if d + b1.radius <= b2.radius:
        return "inside"
    if d - b1.radius > b2.radius:
        return "disjoint"
    return "boundary"


def _mutually_disjoint(b1, b2):
    return (_ball_relation(b1, b2) == "disjoint"
            and _ball_relation(b2, b1) == "disjoint")


def refine_predyadic(entries, points, masses, delta=None):
    """Extract a dyadic sub-collection retaining a mass fraction.

    Follows the band/parity/boundary-pruning scheme: split by diameter
    into N-adic bands, thin each band to disjoint balls (5r-covering
    step), keep the heavier parity class of bands, then walk bands
    top-down discarding balls that meet the boundary of an accepted
    ball or of one of its designated sub-balls.  Returns (survivor
    entries, report).
    """
    if not entries:
        raise ValueError("no balls to refine")
    entries = [e if isinstance(e, PredyadicEntry) else PredyadicEntry(*e)
               for e in entries]
    points = np.asarray(points, float).reshape(-1, 3)
    masses = np.asarray(masses, float).reshape(-1)

    def mu(ball):
        return float(masses[core.dist(points, ball.center) <= ball.radius].sum())

    if delta is None:
        ratios = [sb.radius / e.ball.radius
                  for e in entries for sb in e.sub_balls]
        delta = min(ratios) if ratios else 0.5
    if delta <= 0:
        raise ValueError("sub-ball diameters must be positive fractions")
    n_band = max(2, math.ceil(2.0 / delta))
    if not all(np.isfinite(2 * e.ball.radius) for e in entries):
        raise ValueError("diameters must be bounded")
    total_mass = sum(mu(e.ball) for e in entries)

    bands = {}
    for e in entries:
        j = math.floor(math.log(2 * e.ball.radius, n_band))
        bands.setdefault(j, []).append(e)

    # 5r-covering step per band: radius-descending greedy disjoint family
    order = {id(e): k for k, e in enumerate(entries)}
    for j, group in bands.items():
        group.sort(key=lambda e: (-e.ball.radius, order[id(e)]))
        picked = []
        for e in group:
            if all(_mutually_disjoint(e.ball, p.ball) for p in picked):
                picked.append(e)
        bands[j] = picked

    even_mass = sum(mu(e.ball) for j, g in bands.items() if j % 2 == 0 for e in g)
    odd_mass = sum(mu(e.ball) for j, g in bands.items() if j % 2 != 0 for e in g)
    parity = 0 if even_mass >= odd_mass else 1
    bands = {j: g for j, g in bands.items() if j % 2 == parity}

    # top-down boundary pruning
    accepted = []
    guard_balls = []
    for j in sorted(bands, reverse=True):
        survivors = [e for e in bands[j]
                     if all(_ball_relation(e.ball, gb) != "boundary"
                            for gb in guard_balls)]
        for e in survivors:
            accepted.append(e)
            guard_balls.append(e.ball)
            guard_balls.extend(e.sub_balls)
    kept_mass = sum(mu(e.ball) for e in accepted)
    report = {
        "delta": delta, "band_base": n_band,
        "parity": "even" if parity == 0 else "odd",
        "kept_fraction": kept_mass / total_mass if total_mass else 0.0,
        "dyadic": _is_dyadic([e.ball for e in accepted]),
        "nesting_condition": _check_nesting_condition(accepted),
    }
    return accepted, report


def _is_dyadic(balls):
    for i, b1 in enumerate(balls):
        for b2 in balls[i + 1:]:
            if (_ball_relation(b1, b2) == "boundary"
                    and _ball_relation(b2, b1) == "boundary"
                    and not _mutually_disjoint(b1, b2)):
                return False
    return True


def _check_nesting_condition(accepted):
    """Nested survivors avoid or absorb each other's sub-balls."""
    for e1 in accepted:
        for e2 in accepted:
            if e1 is e2:
                continue
            if _ball_relation(e1.ball, e2.ball) == "inside":
                for sb in e2.sub_balls:
                    if _ball_relation(e1.ball, sb) == "boundary":
                        return False
    return True


# ---------------------------------------------------------------------------
# stopping-time trees

@dataclass
class CoronaTree:
    root: int
    members: list
    stop: list
    root_alias: int  # the cube charged for this tree in the packing sum


def corona_partition(tree: CubeTree, root_id, membership):
    """Partition member cubes below a root into stopping-time trees.

    membership maps cube id to bool.  Roots of successive trees are the
    maximal unassigned member cubes; a tree absorbs all children of a
    cube when every child is a member, otherwise the cube stops.  Each
    tree is charged to itself (when rooted at root_id) or to its parent
    or a lowest-id non-member sibling.
    """
    scope = tree.descendants(root_id)
    member = {cid: bool(membership(cid)) if callable(membership)
              else bool(membership[cid]) for cid in scope}
    level, parent = tree.level.tolist(), tree.parent.tolist()
    assigned = set()
    trees = []
    by_depth = sorted(scope, key=lambda c: (-level[c], c))
    while True:
        maximal = []
        for cid in by_depth:
            if not member[cid] or cid in assigned:
                continue
            p = parent[cid]
            covered = False
            while p in member:
                if member[p] and p not in assigned:
                    covered = True
                    break
                p = parent[p]
            if not covered:
                maximal.append(cid)
        if not maximal:
            break
        for root in maximal:
            if root in assigned:
                continue
            members, stop = [], []
            queue = [root]
            while queue:
                cid = queue.pop(0)
                members.append(cid)
                assigned.add(cid)
                children = tree.children(cid)
                if children and all(member.get(ch, False) for ch in children):
                    queue.extend(children)
                else:
                    stop.append(cid)
            alias = root
            if root != root_id:
                up = parent[root]
                if not member.get(up, True):
                    alias = up
                else:
                    sibs = [s for s in tree.children(up)
                            if s != root and not member.get(s, True)]
                    alias = min(sibs) if sibs else up
            trees.append(CoronaTree(root, members, stop, alias))
    return trees


def check_corona_axioms(tree: CubeTree, coronas, membership):
    """The four stopping-time tree axioms plus exact-partition check."""
    is_member = membership if callable(membership) else membership.__getitem__
    claimed = [cid for ct in coronas for cid in ct.members]
    if len(claimed) != len(set(claimed)):
        raise AssertionError("corona trees overlap")
    for ct in coronas:
        mset = set(ct.members)
        for cid in ct.members:
            if not is_member(cid):
                raise AssertionError("non-member cube in a tree")
            # convexity: everything between a member and the root is in
            walker = cid
            while walker != ct.root:
                walker = int(tree.parent[walker])
                if walker < 0:
                    raise AssertionError("member not below its root")
                if walker not in mset:
                    raise AssertionError("tree not convex")
            # all-or-none children
            children = tree.children(cid)
            inside = [ch for ch in children if ch in mset]
            if inside and len(inside) != len(children):
                raise AssertionError("children split across the tree boundary")
            if not inside and cid not in ct.stop:
                raise AssertionError("childless-in-tree cube missing from Stop")
    return True


def alias_multiplicity(coronas):
    counts = {}
    for ct in coronas:
        counts[ct.root_alias] = counts.get(ct.root_alias, 0) + 1
    return max(counts.values()) if counts else 0


# ---------------------------------------------------------------------------
# serialization

def save_tree(tree: CubeTree, path):
    """Write {"j_min", "j_max", "nodes"} as the bytes of json.dump(...,
    indent=2, sort_keys=True) plus a newline.

    Every node holds its center, so no samples list is empty.  Masses,
    j_min and j_max go through json.dumps; the ints of .tolist() print
    as json prints them.
    """
    rows = zip(tree.level.tolist(), tree.center_index.tolist(),
               tree.parent.tolist(), map(json.dumps, tree.mass.tolist()))
    nodes = ",\n".join(
        f'    {{\n      "center_index": {c},\n      "id": {cid},\n'
        f'      "level": {j},\n      "mass": {m},\n'
        f'      "parent": {p if p >= 0 else "null"},\n'
        f'      "samples": [\n        '
        + ",\n        ".join(map(str, tree.samples(cid).tolist()))
        + "\n      ]\n    }"
        for cid, (j, c, p, m) in enumerate(rows))
    with open(path, "w") as fh:
        fh.write(f'{{\n  "j_max": {json.dumps(tree.j_max)},\n'
                 f'  "j_min": {json.dumps(tree.j_min)},\n'
                 f'  "nodes": [\n{nodes}\n  ]\n}}\n')


def save_carleson(report: CarlesonReport, path):
    graphs.write_csv(path, ["root_id", "epsilon", "K"],
                     ((root, eps, k) for root in sorted(report.per_root)
                      for eps, k in zip(report.epsilons,
                                        report.per_root[root])))
