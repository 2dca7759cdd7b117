"""Flatness numbers of point clouds against vertical planes.

The distance from a point to a vertical plane is the Euclidean offset
of its horizontal part from the plane's horizontal line, so the best
vertical plane for a cloud in a ball is read off the minimum-width
direction of the convex hull of the horizontal coordinates; the optimal
direction is normal to a hull edge, so scanning every edge normal makes
that exact.  The constant-gradient variant is an upper
bound obtained by derivative-free fitting over a parametric candidate
family.
"""

from dataclasses import dataclass

import numpy as np

from . import burgers, core, graphs, planes


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", core.as_point(self.center))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass
class BetaRecord:
    ball: Ball
    beta: float
    best_plane: planes.VerticalPlane


# Ball-sample pairs per membership chunk of beta_vertical_batch, and
# entries per stacked product of its width scan; keeps the temporaries
# to a few MB whatever the number of balls or the length of a hull.
CHUNK_PAIRS = 2 ** 16


def _run_ends(seg):
    """Masks of the first and the last entry of each run of equal ids."""
    change = seg[1:] != seg[:-1]
    first = np.ones(len(seg), bool)
    first[1:] = change
    last = np.ones(len(seg), bool)
    last[:-1] = change
    return first, last


def _half_chain(pts, end):
    """One half of Andrew's monotone chain in every segment at once.

    pts holds the sorted distinct points of consecutive segments and
    `end` marks the first and the last point of each segment.  Each
    whole-array pass drops every interior point that does not turn
    strictly left with its current neighbours; such a point lies on or
    above a segment of input points, so it is no chain vertex.  Segment
    ends are always kept, which masks every triple spanning two
    segments.  Passes stop once every turn is strictly left.  Returns
    the indices of the chain vertices.
    """
    idx = np.arange(len(pts))
    while len(idx) > 2:
        p = np.take(pts, idx, axis=0)
        a, b, c = p[:-2], p[1:-1], p[2:]
        keep = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])) > 0
        keep |= end[idx[1:-1]]
        if keep.all():
            break
        idx = idx[np.concatenate(([True], keep, [True]))]
    return idx


def _segment_hulls(pts, seg):
    """Convex hulls of consecutive segments of lexicographically sorted points.

    seg is ascending and labels each point's segment.  Returns the hull
    vertices and their segment ids (per segment ccw from its
    lexicographic minimum, collinear points dropped), then the distinct
    points and their segment ids.
    """
    distinct, _ = _run_ends(seg)
    distinct[1:] |= np.any(pts[1:] != pts[:-1], axis=1)
    pts, seg = pts[distinct], seg[distinct]
    first, last = _run_ends(seg)
    ends = first | last
    lower = _half_chain(pts, ends)
    # np.take copies a non-contiguous input on every pass
    upper = len(pts) - 1 - _half_chain(pts[::-1].copy(), ends[::-1])
    # each half drops its last point, where the other half starts; a
    # one-point segment keeps its lower point
    idx = np.concatenate([lower[~last[lower] | first[lower]],
                          upper[~first[upper]]])
    idx = idx[np.argsort(seg[idx], kind="stable")]
    return pts[idx], seg[idx], pts, seg


def _one_segment_hull(points):
    pts = np.asarray(points, float).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return _segment_hulls(pts, np.zeros(len(pts), int))


def convex_hull(points):
    """Andrew's monotone chain; returns hull vertices in ccw order.

    Starts at the lexicographic minimum; collinear points are dropped.
    """
    return _one_segment_hull(points)[0]


def brute_min_width(points, n_directions=720):
    """Direction-grid oracle for min_width_direction."""
    pts = np.asarray(points, float).reshape(-1, 2)
    thetas = np.linspace(0.0, np.pi, n_directions, endpoint=False)
    normals = np.stack([-np.sin(thetas), np.cos(thetas)], axis=-1)
    proj = pts @ normals.T
    widths = proj.max(axis=0) - proj.min(axis=0)
    k = int(np.argmin(widths))
    along = proj[:, k]
    return float(widths[k]), float(thetas[k]), float(0.5 * (along.max() + along.min()))


def _padded_stacks(sizes, per_set):
    """Groups of sets for stacked products over rows padded to one length.

    sizes lists each set's row count.  Sets are taken in order of size;
    a group's sets are at most twice as long as its shortest, and
    len(sets) * per_set(w) <= CHUNK_PAIRS for its padded length w (or
    the group is one set).  Yields (sets, pad) with pad the
    (len(sets), w) row offsets, 0..size-1 and then 0 again, so each set
    is padded with its first row.
    """
    order = np.argsort(sizes, kind="stable")
    by_size = sizes[order]
    s = 0
    while s < len(order):
        e = int(np.searchsorted(by_size, 2 * by_size[s], side="right"))
        e = min(e, s + max(1, CHUNK_PAIRS // per_set(int(by_size[e - 1]))))
        w = int(by_size[e - 1])
        j = np.arange(w)
        yield order[s:e], np.where(j < by_size[s:e, None], j, 0)
        s = e


def _segment_widths(n_seg, hull, hull_seg, pts, pts_seg):
    """(width, best vertical plane) of every segment, None for an empty one.

    Takes the output of _segment_hulls.  The optimal normal is
    perpendicular to some hull edge, so scanning every edge normal is
    exact: per segment, the width along each edge normal is the spread
    of `hull @ normals.T`, the first edge of least width gives the
    plane's direction, and its offset is the midrange of the segment's
    distinct points along the plane's normal.  Segments go through
    _padded_stacks, so both products run as stacked matmuls of at most
    CHUNK_PAIRS entries (a hull too long for that alone is split into
    blocks of two edges or more): the same BLAS products, entry for
    entry, as one matmul per segment, and padding with a segment's
    first row changes no maximum, minimum or first argmin.
    (OpenBLAS computes each entry with the same fused multiply-adds
    whatever the matrix shape; an elementwise x*nx + y*ny rounds
    differently, and a one-column product is a gemv that differs too.)
    Direction angles, normals and offsets are computed for all segments
    at once, as planes.VerticalSubgroup would one by one.
    """
    ids = np.arange(n_seg + 1)
    h_at = np.searchsorted(hull_seg, ids)
    p_at = np.searchsorted(pts_seg, ids)
    h_size = np.diff(h_at)
    # edge k runs from vertex k to the next one of its own hull; a
    # one-vertex hull gets a zero edge, never read
    nxt = np.arange(1, len(hull) + 1)
    first, last = _run_ends(hull_seg)
    nxt[last] = np.flatnonzero(first)
    edges = hull[nxt] - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    edges = edges / np.where(lengths > 0, lengths, 1.0)[:, None]
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=-1)
    multi = np.flatnonzero(h_size > 1)
    width = np.zeros(n_seg)
    best = np.zeros(n_seg, int)
    for sets, pad in _padded_stacks(h_size[multi], lambda w: w * w):
        seg = multi[sets]
        rows = h_at[seg, None] + pad
        h = hull[rows]
        w = pad.shape[1]
        cols = w if len(seg) * w * w <= CHUNK_PAIRS else max(
            2, CHUNK_PAIRS // w)
        # blocks of two edges or more
        cuts = list(range(cols, w - 1, cols)) + [w]
        spread = np.concatenate([
            np.ptp(h @ normals[rows[:, c0:c1]].transpose(0, 2, 1), axis=1)
            for c0, c1 in zip([0] + cuts[:-1], cuts)], axis=1)
        k = np.argmin(spread, axis=1)
        width[seg] = spread[np.arange(len(seg)), k]
        best[seg] = rows[np.arange(len(seg)), k]
    # as core.normalize_angle and VerticalSubgroup.normal, elementwise
    e = edges[best[multi]]
    theta = np.zeros(n_seg)
    theta[multi] = np.remainder(np.arctan2(e[:, 1], e[:, 0]), np.pi)
    theta[theta >= np.pi] -= np.pi
    normal = planes._snap(np.stack([-np.sin(theta), np.cos(theta)], axis=-1))
    # a one-point segment's offset is its point @ (0, 1), one dot product
    # that sums from 0.0, so a zero comes out positive
    one = h_at[:-1][h_size == 1]
    offset = np.zeros(n_seg)
    offset[h_size == 1] = 0.0 + (hull[one, 0] * 0.0 + hull[one, 1])
    # the gathered points, their row offsets and the product take 32
    # bytes a point, four products' worth
    for sets, pad in _padded_stacks(np.diff(p_at)[multi], lambda w: 4 * w):
        seg = multi[sets]
        along = (pts[p_at[seg, None] + pad] @ normal[seg, :, None])[..., 0]
        offset[seg] = 0.5 * (along.max(axis=1) + along.min(axis=1))
    return [None if size == 0 else
            (w, planes.VerticalPlane(planes.VerticalSubgroup(th), off))
            for size, w, th, off in zip(h_size.tolist(), width.tolist(),
                                        theta.tolist(), offset.tolist())]


def min_width_direction(points):
    """Minimum directional width of a planar cloud.

    Returns (width, theta, offset) where theta is the angle of the line
    direction achieving the width and offset the midline position along
    the unit normal; the one-segment case of the batched scan.
    """
    scan = _segment_widths(1, *_one_segment_hull(points))[0]
    if scan is None:
        return None
    return scan[0], scan[1].subgroup.theta, scan[1].offset


def points_in_ball(points, ball: Ball):
    pts = np.asarray(points, float).reshape(-1, 3)
    return core.dist(pts, ball.center) <= ball.radius


# Half-width m of the band around r*r inside which s = a*a + b*b does
# not decide hypot(a, b) <= r.  With u = 2^-53, s lies within a factor
# (1 +- u)^2 of h^2, h the exact norm of (a, b), and each band edge
# within (1 +- u)^2 of r*r*(1 -+ m).  So s <= r*r*(1 - m) gives
# h <= r (1 - m/2 + 2u) and s > r*r*(1 + m) gives h > r (1 + m/2 - 2u),
# up to O(u^2); a hypot within 4 ulps (8u) then falls on the same side
# of r as long as m/2 > 10u.  m = 32u leaves room.
SQUARE_BAND = 2.0 ** -48

# Radii whose squares and band edges are normal doubles, so the bounds
# above hold: a subnormal a*a or b*b errs by at most 2^-1075, far below
# u r*r.  Other radii, and inf, take np.hypot; _full_balls keeps to
# this range too.
RADIUS_RANGE = (2.0 ** -500, 2.0 ** 500)


def _sqrt_bound(radii):
    """Per radius r, the largest double T with np.sqrt(T) <= r.

    np.sqrt is correctly rounded and so monotone: for every double
    d >= 0, sqrt(d) <= r exactly when d <= T.  T starts at r*r, within
    an ulp or two of the answer, and steps through neighbouring doubles
    until it meets the definition.  A negative radius gives -inf and a
    NaN radius NaN, so the comparison fails for every d, as sqrt's does.
    """
    r = np.asarray(radii, float)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.where(r < 0, -np.inf, r * r)
        while (down := np.sqrt(t) > r).any():
            t[down] = np.nextafter(t[down], -np.inf)
        while True:
            nxt = np.nextafter(t, np.inf)
            up = (np.sqrt(nxt) <= r) & (nxt > t)
            if not up.any():
                return t
            t[up] = nxt[up]


# Ball-sample pairs per _inside_balls call.  Its two float buffers stay
# at 256 KB: over the cube balls of a 1,296-sample cloud the kernel took
# 0.038 s so and 0.060 s with 512 KB buffers (2 MB L2 per core).
KERNEL_PAIRS = 2 ** 15


def _inside_balls(xyt, centers, radii):
    """Mask core.dist(p, c) <= r of a block of balls against all samples.

    xyt holds the samples' x, y and t rows, shape (3, n); row b of the
    (balls, n) mask is ball (centers[b], radii[b]).  The relative
    position (-c) . p takes the floating-point operations of
    core.mul(core.inv(c), p) in the same order, in place in two
    (balls, n) buffers, and the norm test is decided without np.hypot
    or np.sqrt, so the mask is bit for bit the one core.dist gives:

    - hypot(a, b) <= r from s = a*a + b*b against r*r*(1 -+ SQUARE_BAND).
      Only the pairs whose s falls inside that band take np.hypot, on
      the same a and b recomputed from gathered coordinates, and so
      does every row of a ball whose radius lies outside RADIUS_RANGE
      or is not finite.  A NaN s (a NaN coordinate) lies outside the
      band; hypot is then NaN or inf, above every finite radius.
    - sqrt(|t-term|) <= r as |t-term| <= _sqrt_bound(r), which is exact.
    """
    neg = -np.asarray(centers, float).reshape(-1, 3)
    cx, cy, ct = neg[:, 0:1], neg[:, 1:2], neg[:, 2:3]
    r = np.asarray(radii, float).reshape(-1)
    tame = (r >= RADIUS_RANGE[0]) & (r <= RADIUS_RANGE[1])
    rr = np.where(tame, r, 1.0)[:, None] ** 2
    x, y, t = xyt
    a = np.add(cx, x)
    b = np.add(cy, y)
    with np.errstate(over="ignore"):
        a *= a
        b *= b
    a += b
    inside = a <= rr * (1.0 - SQUARE_BAND)
    near = a <= rr * (1.0 + SQUARE_BAND)
    if np.count_nonzero(near) != np.count_nonzero(inside):
        rows, cols = np.nonzero(near ^ inside)
        inside[rows, cols] = np.hypot(cx[rows, 0] + x[cols],
                                      cy[rows, 0] + y[cols]) <= r[rows]
    wild = np.flatnonzero(~tame)
    if len(wild):
        inside[wild] = np.hypot(cx[wild] + x, cy[wild] + y) <= r[wild, None]
    np.multiply(cx, y, out=a)
    a -= np.multiply(cy, x, out=b)
    a *= 0.5
    np.add(ct, t, out=b)
    b += a
    inside &= np.less_equal(np.abs(b, out=b), _sqrt_bound(r)[:, None],
                            out=near)
    return inside


def _full_balls(xyt, centers, radii):
    """Which balls provably hold every sample.

    One eccentricity row from an anchor sample a (the sample nearest the
    coordinatewise median) gives e = max core.dist(p, a).  By the
    triangle inequality and core.dist_error's bound tol over samples and
    centers, core.dist(p, c) <= core.dist(c, a) + e + 3 tol for every
    sample p; core.BOX_SLACK absorbs the rounding of that sum.  Only
    radii in RADIUS_RANGE qualify, so the distances involved neither
    overflow nor lose more to underflow than BOX_SLACK covers.
    """
    n = xyt.shape[1]
    if n == 0 or len(radii) == 0:
        return np.zeros(len(radii), bool)
    pts = xyt.T
    anchor = pts[np.argmin(core.dist(pts, np.median(xyt, axis=1)))]
    ecc = float(core.dist(pts, anchor).max())
    tol = core.dist_error(np.vstack([pts, centers]))
    bound = ((core.dist(centers, anchor) + ecc + 3.0 * tol)
             * (1.0 + core.BOX_SLACK))
    return ((bound <= radii) & (radii >= RADIUS_RANGE[0])
            & (radii <= RADIUS_RANGE[1]))


def membership_chunks(xyt, centers, radii, pairs):
    """_inside_balls over consecutive blocks of balls.

    Each block holds at most `pairs` ball-sample pairs (one ball at
    least).  Yields (start, mask) per block, row b of the mask being
    ball start + b.  Rows of balls that _full_balls certifies are all
    True and cost no distance; the other rows go through _inside_balls
    at most KERNEL_PAIRS pairs at a time.
    """
    centers = np.asarray(centers, float).reshape(-1, 3)
    radii = np.asarray(radii, float).reshape(-1)
    n = xyt.shape[1]
    open_rows = np.flatnonzero(~_full_balls(xyt, centers, radii))
    step = max(1, pairs // max(n, 1))
    block = max(1, min(pairs, KERNEL_PAIRS) // max(n, 1))
    for s in range(0, len(radii), step):
        inside = np.ones((min(step, len(radii) - s), n), bool)
        rows = open_rows[slice(*np.searchsorted(open_rows, [s, s + step]))]
        for k in range(0, len(rows), block):
            part = rows[k:k + block]
            inside[part - s] = _inside_balls(xyt, centers[part], radii[part])
        yield s, inside


def _long_rows(y):
    """Samples of the horizontal rows y = const that hold three or more.

    y lists the samples' y in (x, y) order.  Returns cols, those
    samples' indices row by row, each row in x order (a stable sort by
    y), and starts, the start of each row in cols.
    """
    by_row = np.argsort(y, kind="stable")
    row_y = y[by_row]
    starts = np.flatnonzero(np.concatenate(([True], row_y[1:] != row_y[:-1])))
    counts = np.diff(starts, append=len(y))
    long = counts >= 3
    return (by_row[np.repeat(long, counts)],
            (np.cumsum(counts * long) - counts)[long])


def _row_ends(members, cols, starts):
    """The members that are the first or the last member of their row.

    members is a (sets, n) mask over the samples; cols and starts are
    _long_rows' rows.  Each member of a shorter row is a row end.
    """
    k = len(cols)
    m = np.take(members, cols, axis=1)
    # 1 + the position of a member in cols, 0 elsewhere, so row maxima
    # give the last member and, counted from the end, the first; int32
    # holds every position (2**31 samples would take 48 GiB)
    up = np.arange(1, k + 1, dtype=np.int32)
    lo = k - np.maximum.reduceat(m * up[::-1], starts, axis=1)
    hi = np.maximum.reduceat(m * up, starts, axis=1) - 1
    short = np.ones(members.shape[1], bool)
    short[cols] = False
    keep = members & short
    seg, row = np.nonzero(hi >= 0)
    keep[seg, cols[lo[seg, row]]] = True
    keep[seg, cols[hi[seg, row]]] = True
    return keep


def beta_vertical_batch(points, balls):
    """Exact vertical flatness records of a list of balls over one cloud.

    Minimizes sup_y dist(y, z . W) / r over all vertical planes; for a
    fixed plane direction the optimal offset is the midrange of the
    horizontal projections, so the infimum is half the minimum hull
    width divided by r.  The samples are sorted by (x, y) once, so each
    ball's horizontal points come out of the membership test sorted;
    balls are then handled in chunks of at most CHUNK_PAIRS ball-sample
    pairs (one ball at least).  Balls of a chunk that hold the same
    samples (found by comparing whole mask rows) share one hull pass,
    width scan and best plane, and each scales the shared width by its
    own radius.

    Only the first and the last member of each horizontal row y = const
    of a member set enter its hull pass and width scan (the throw-away
    step of Akl and Toussaint).  A member strictly between two others
    of its row lies on a segment of members, so it is no hull vertex,
    and a copy of a row's end adds no point; along any normal the
    rounded projection is monotone in x within a row, so the midrange
    offset is unchanged too.  Graph clouds sampled on a (y, t) grid
    share few rows, and the hull input falls from all members to at
    most two per row.  Only a row of three samples or more can hold
    such a member, so the row maxima look at those rows alone and a
    cloud whose rows hold one sample each costs one more mask pass.
    Returns one record per ball, None for a ball holding no sample.
    """
    pts = np.asarray(points, float).reshape(-1, 3)
    if len(pts) == 0:
        return [None] * len(balls)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    xy = np.ascontiguousarray(pts[:, :2])
    xyt = np.ascontiguousarray(pts.T)
    cols, starts = _long_rows(xy[:, 1])
    centers = np.array([ball.center for ball in balls]).reshape(-1, 3)
    radii = np.array([ball.radius for ball in balls], float)
    out = []
    for s, inside in membership_chunks(xyt, centers, radii, CHUNK_PAIRS):
        chunk = balls[s:s + len(inside)]
        # one void value per packed row, so np.unique compares whole
        # rows byte by byte; first[w] is a ball holding member set w
        rows = np.packbits(inside, axis=1)
        rows = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
        _, first, which = np.unique(rows, return_index=True,
                                    return_inverse=True)
        seg, idx = np.divmod(
            np.flatnonzero(_row_ends(inside[first], cols, starts)), len(pts))
        # np.take gathers rows several times faster than fancy indexing
        hulls = _segment_hulls(np.take(xy, idx, axis=0), seg)
        per_set = _segment_widths(len(first), *hulls)
        scans = [per_set[w] for w in which.tolist()]
        out += [None if scan is None else
                BetaRecord(ball, 0.5 * scan[0] / ball.radius, scan[1])
                for ball, scan in zip(chunk, scans)]
    return out


def beta_vertical(points, ball: Ball) -> BetaRecord:
    """Exact vertical flatness number of the samples inside one ball.

    The batch of one of beta_vertical_batch; raises ValueError on an
    empty intersection.
    """
    rec = beta_vertical_batch(points, [ball])[0]
    if rec is None:
        raise ValueError("no samples in the ball")
    return rec


def save_beta_records(records, path):
    """Record batch as CSV columns cx,cy,ct,r,beta,theta,offset,method.

    The method column always reads calipers, the one flatness kernel.
    """
    graphs.write_csv(
        path, ["cx", "cy", "ct", "r", "beta", "theta", "offset", "method"],
        ([*map(float, (*rec.ball.center, rec.ball.radius, rec.beta,
                        rec.best_plane.subgroup.theta,
                        rec.best_plane.offset)), "calipers"]
         for rec in records))


def load_beta_records(path):
    out = []
    for cx, cy, ct, r, b, theta, offset, _ in graphs.read_csv(path):
        plane = planes.VerticalPlane(
            planes.VerticalSubgroup(float(theta)), float(offset))
        out.append(BetaRecord(Ball(np.array([float(cx), float(cy),
                                             float(ct)]), float(r)),
                              float(b), plane))
    return out


def projected_ball_nodes(g: graphs.GridGraph, ball: Ball):
    """Grid indices whose graph point lies inside the ball.

    This is the graph-distance ball around the projected center: the
    projection of B cap Gamma equals the d_Gamma-ball on the chart.
    """
    pts = graphs.all_graph_points(g).reshape(-1, 3)
    mask = core.dist(pts, ball.center) <= ball.radius
    return np.nonzero(mask.reshape(g.ny, g.nt))


def beta_against_candidate(g: graphs.GridGraph, ball: Ball,
                           psi: graphs.GridGraph) -> float:
    """sup |phi - psi| / r over the projected samples of the ball.

    psi must cover every projected node; uncovered nodes raise.
    """
    ii, jj = projected_ball_nodes(g, ball)
    if len(ii) == 0:
        raise ValueError("no graph samples in the ball")
    ys = g.y0 + g.dy * ii
    ts = g.t0 + g.dt * jj
    vals = graphs.interp_phi(psi, ys, ts)
    if np.any(~np.isfinite(vals)):
        raise ValueError("candidate does not cover the projected ball")
    return float(np.max(np.abs(g.phi[ii, jj] - vals)) / ball.radius)


def beta_cg_estimate(g: graphs.GridGraph, ball: Ball, lipschitz: float,
                     knots=5, starts=8, maxiter=500, seed=0, target=None,
                     cand_grid=33):
    """Upper bound on the constant-gradient flatness number.

    Nelder-Mead over (c, knot values of g) for candidates produced by
    the characteristic solver, warm-started through increasing knot
    counts so enlarging the family never worsens the bound.  A soft
    penalty keeps candidates near the Lipschitz cap during the search;
    the returned candidate carries the exact sampled estimate.  The
    true infimum runs over an infinite-dimensional class, so the result
    is an upper bound only.  Setting `target` stops the multi-start
    early once the bound falls below it.  Returns (value, report).
    """
    # imported on first use: no CLI command needs it, and it is slow to load
    from scipy.optimize import minimize

    ii, jj = projected_ball_nodes(g, ball)
    if len(ii) == 0:
        raise ValueError("no graph samples in the ball")
    grad = graphs.intrinsic_gradient(g)[ii, jj]
    node_ys = g.y0 + g.dy * ii
    node_ts = g.t0 + g.dt * jj
    node_phi = g.phi[ii, jj]
    x0, y0c, t0c = ball.center
    pc_t = t0c + 0.5 * x0 * y0c
    reach = ball.radius ** 2 + abs(x0) * ball.radius + 0.5 * ball.radius ** 2
    # wide knot span so every characteristic source stays covered
    span = reach + (1.0 + lipschitz) * (abs(pc_t) + reach + ball.radius) + 1.0

    def build(params, knot_ts):
        spec = burgers.CGSpec(params[0], knot_ts, params[1:],
                              (float(y0c) - ball.radius,
                               float(y0c) + ball.radius),
                              (pc_t - reach, pc_t + reach))
        return burgers.make_admissible(spec, (ball.center, ball.radius),
                                       ny=cand_grid, nt=cand_grid)

    def objective(params, knot_ts):
        if abs(params[0]) > lipschitz:
            return 1e6 + abs(params[0])
        try:
            cand = build(params, knot_ts)
        except (burgers.CrossingDetected, ValueError):
            return 1e6
        vals = graphs.interp_phi(cand, node_ys, node_ts)
        if np.any(~np.isfinite(vals)):
            return 1e6
        val = float(np.max(np.abs(node_phi - vals)) / ball.radius)
        # cheap Lipschitz proxy on a thin subsample keeps the search fast
        proxy = cand.lipschitz_estimate
        return val + 10.0 * max(0.0, proxy - lipschitz)

    rng = np.random.default_rng(seed)
    n_evals = 0
    best_val, best_params, best_knots = np.inf, None, None
    warm = None
    for k in sorted({2, max(2, (knots + 1) // 2), max(2, knots)}):
        knot_ts = np.linspace(pc_t - span, pc_t + span, k)
        # heuristic start: mean gradient and the graph's own trace
        c_start = float(grad.mean())
        row = min(max(int(round((y0c - g.y0) / g.dy)), 0), g.ny - 1)
        trace = np.interp(knot_ts, g.ts, g.phi[row])
        starts_list = [np.concatenate([[c_start], trace])]
        if warm is not None:
            starts_list.append(np.concatenate(
                [[warm[0]], np.interp(knot_ts, warm[1], warm[2])]))
        while len(starts_list) < starts:
            starts_list.append(np.concatenate(
                [[c_start + rng.normal(0, 0.5)],
                 trace + rng.normal(0, 0.2 * ball.radius, len(knot_ts))]))
        for p0 in starts_list:
            res = minimize(objective, p0, args=(knot_ts,), method="Nelder-Mead",
                           options={"maxiter": maxiter, "xatol": 1e-9,
                                    "fatol": 1e-12})
            n_evals += res.nfev
            if res.fun < best_val:
                best_val = float(res.fun)
                best_params = res.x.copy()
                best_knots = knot_ts.copy()
            if target is not None and best_val <= target:
                break
        if best_params is not None:
            warm = (best_params[0], best_knots, best_params[1:])
        if target is not None and best_val <= target:
            break
    final = build(best_params, best_knots)
    report = {"value": best_val, "c": float(best_params[0]),
              "knot_ts": best_knots.tolist(),
              "knot_vs": np.asarray(best_params[1:]).tolist(),
              "candidate_lipschitz": final.lipschitz_estimate,
              "evaluations": n_evals, "knots": knots, "starts": starts}
    return best_val, report


def thin_boundary_radius(points, masses, center, r, delta,
                         n_radii=64, n_lambda=24):
    """Radius in [r, (1+delta) r] whose boundary annuli carry least mass.

    For each candidate s the thinness constant is
    A(s) = sup_lambda mass(annulus((1-lambda) s, (1+lambda) s)) /
    (lambda mass(B(x, 2r))) over a lambda grid; the s minimizing A is
    returned with its constant.
    """
    if not 0 < delta < 0.25:
        raise ValueError("delta must be in (0, 1/4)")
    pts = np.asarray(points, float).reshape(-1, 3)
    masses = np.asarray(masses, float).reshape(-1)
    d = core.dist(pts, core.as_point(center))
    total = masses[d <= 2 * r].sum()
    if total == 0:
        raise ValueError("no samples in the double ball")
    lambdas = np.linspace(1.0 / n_lambda, 0.5, n_lambda)
    best_s, best_a = None, np.inf
    for s in np.linspace(r, (1 + delta) * r, n_radii):
        a_val = 0.0
        for lam in lambdas:
            m = masses[(d >= (1 - lam) * s) & (d <= (1 + lam) * s)].sum()
            a_val = max(a_val, m / (lam * total))
        if a_val < best_a:
            best_a, best_s = a_val, float(s)
    return best_s, float(best_a)


def annulus_average_gap_bound(points, masses, grad_values, center, s1, s2):
    """Both sides of the annulus-control inequality on samples.

    Returns (gap, bound) for the averages of grad_values over the
    projected small/large balls, with bound = 2 mass(annulus)/mass(B2)
    times the sup norm; the inequality is a counting identity and holds
    exactly on weighted samples.
    """
    pts = np.asarray(points, float).reshape(-1, 3)
    masses = np.asarray(masses, float).reshape(-1)
    vals = np.asarray(grad_values, float).reshape(-1)
    d = core.dist(pts, core.as_point(center))
    in1 = d <= s1
    in2 = d <= s2
    if masses[in1].sum() == 0 or masses[in2].sum() == 0:
        raise ValueError("empty ball")
    e1 = np.average(vals[in1], weights=masses[in1])
    e2 = np.average(vals[in2], weights=masses[in2])
    annulus = masses[in2 & ~in1].sum()
    bound = 2.0 * annulus / masses[in2].sum() * np.abs(vals[in2]).max()
    return float(abs(e1 - e2)), float(bound)


def gradient_fluctuation_probe(g: graphs.GridGraph, ball: Ball,
                               delta_scale=0.1, n_side=5):
    """Largest average-gradient gap between the ball and a sub-ball.

    Sub-ball centers run over a deterministic n_side^3 lattice in the
    ball snapped to the nearest graph sample (so centers stay within
    s/10 of the graph); radii shrink geometrically from r/2 down to
    delta_scale * r.  Averages are cell-area weighted over projected
    nodes.  Returns (best Ball or None, gap).
    """
    grad = graphs.intrinsic_gradient(g)
    ii, jj = projected_ball_nodes(g, ball)
    if len(ii) == 0:
        raise ValueError("no graph samples in the ball")
    whole = grad[ii, jj].mean()
    pts = graphs.all_graph_points(g).reshape(-1, 3)
    r = ball.radius
    offs = np.linspace(-0.5, 0.5, n_side)
    best_gap, best_ball = 0.0, None
    centers = []
    for ox in offs:
        for oy in offs:
            for ot in offs:
                u = np.array([ox * r, oy * r, ot * r * r])
                if core.norm(u) > r:
                    continue
                cand = core.mul(ball.center, u)
                k = int(np.argmin(core.dist(pts, cand)))
                centers.append(pts[k])
    if centers:
        centers = np.unique(np.array(centers), axis=0)
    for c in centers:
        gap_c = core.dist(c, ball.center)
        s = r / 2
        while s >= delta_scale * r - 1e-15:
            if gap_c + s <= r:  # keep the sub-ball inside B
                sub = Ball(c, s)
                si, sj = projected_ball_nodes(g, sub)
                if len(si) > 0:
                    gap = abs(grad[si, sj].mean() - whole)
                    if gap > best_gap:
                        best_gap, best_ball = float(gap), sub
            s /= 2
    return best_ball, best_gap
