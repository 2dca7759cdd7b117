import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisrect import beta, burgers, cli, core, graphs, planes

RNG = np.random.default_rng(53)


def plane_samples(theta, offset, n=200, rng=RNG):
    sub = planes.VerticalSubgroup(theta)
    vs = rng.uniform(-1, 1, n)
    ts = rng.uniform(-1, 1, n)
    pts = planes.from_plane_coords(np.column_stack([vs, ts]), sub)
    return pts + offset * np.concatenate([sub.normal, [0.0]])


def test_beta_zero_on_vertical_planes():
    for theta in (0.0, 0.7, np.pi / 2, 2.4):
        pts = plane_samples(theta, 0.3)
        rec = beta.beta_vertical(pts, beta.Ball(pts[0], 2.0))
        assert rec.beta <= 1e-9


def test_beta_unit_square_quarter():
    horiz = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)
    pts = np.column_stack([horiz, np.zeros(4)])
    rec = beta.beta_vertical(pts, beta.Ball(np.array([0.5, 0.5, 0.0]), 2.0))
    assert abs(rec.beta - 0.25) <= 1e-12
    width, theta, off = beta.brute_min_width(horiz)
    assert abs(0.5 * width / 2.0 - 0.25) <= 1e-3


def test_calipers_match_brute_force():
    for k in range(50):
        rng = np.random.default_rng(100 + k)
        n = rng.integers(4, 60)
        pts3 = rng.uniform(-2, 2, (n, 3))
        ball = beta.Ball(pts3[0], 4.0)
        cal = beta.beta_vertical(pts3, ball).beta
        inside = pts3[beta.points_in_ball(pts3, ball)]
        bru = 0.5 * beta.brute_min_width(inside[:, :2])[0] / ball.radius
        diam = np.ptp(inside[:, :2], axis=0).max() * np.sqrt(2)
        tol = 1e-6 + (np.pi / 720) * diam / ball.radius
        assert bru >= cal - 1e-12  # grid can only overshoot
        assert abs(cal - bru) <= tol


def sequential_chain(points):
    """Oracle: Andrew's monotone chain, one point at a time, exact ints."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def turn(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


@st.composite
def integer_clouds(draw):
    """Integer planar clouds with duplicate rows and collinear runs.

    Integer coordinates keep every cross product exact.  A spread of 0
    or 1 gives clouds with one or a few distinct points.
    """
    spread = draw(st.sampled_from([0, 1, 3, 20, 1000]))
    coord = st.integers(-spread, spread)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=80))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.tuples(coord, coord))
        step = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        ks = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=20))
        pts += [(start[0] + k * step[0], start[1] + k * step[1]) for k in ks]
    pts += draw(st.lists(st.sampled_from(pts), max_size=len(pts)))
    return [list(p) for p in draw(st.permutations(pts))]


@settings(deadline=None, max_examples=300)
@given(integer_clouds())
def test_convex_hull_matches_sequential_chain(points):
    hull = beta.convex_hull(np.array(points, float))
    assert hull.tolist() == [[float(x), float(y)]
                             for x, y in sequential_chain(points)]


@settings(deadline=None)
@given(integer_clouds())
def test_min_width_within_brute_grid(points):
    pts = np.array(points, float)
    width = beta.min_width_direction(pts)[0]
    brute = beta.brute_min_width(pts)[0]
    diam = np.ptp(pts, axis=0).max() * np.sqrt(2)
    assert width <= brute + 1e-9 * (1 + diam)
    assert brute - width <= (np.pi / 720) * diam + 1e-9


def loop_segment_widths(n_seg, hull, hull_seg, pts, pts_seg):
    """Oracle: the width scan one segment at a time, one matmul each."""
    ids = np.arange(n_seg + 1)
    h_at = np.searchsorted(hull_seg, ids).tolist()
    p_at = np.searchsorted(pts_seg, ids).tolist()
    nxt = np.arange(1, len(hull) + 1)
    first, last = beta._run_ends(hull_seg)
    nxt[last] = np.flatnonzero(first)
    edges = hull[nxt] - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    edges = edges / np.where(lengths > 0, lengths, 1.0)[:, None]
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=-1)
    out = []
    for b in range(n_seg):
        h0, h1 = h_at[b], h_at[b + 1]
        if h0 == h1:
            out.append(None)
        elif h1 - h0 == 1:
            out.append((0.0, 0.0, float(hull[h0] @ np.array([0.0, 1.0]))))
        else:
            proj = hull[h0:h1] @ normals[h0:h1].T
            widths = proj.max(axis=0) - proj.min(axis=0)
            k = int(np.argmin(widths))
            sub = planes.VerticalSubgroup(np.arctan2(edges[h0 + k, 1],
                                                     edges[h0 + k, 0]))
            along = pts[p_at[b]:p_at[b + 1]] @ sub.normal
            out.append((float(widths[k]), sub.theta,
                        float(0.5 * (along.max() + along.min()))))
    return out


def segment_hulls_of(sets):
    """_segment_hulls input and output for a list of planar point sets;
    an empty set gives an empty segment."""
    pts = [np.array(p, float).reshape(-1, 2) for p in sets]
    pts = [p[np.lexsort((p[:, 1], p[:, 0]))] for p in pts]
    seg = np.repeat(np.arange(len(pts)), [len(p) for p in pts])
    return beta._segment_hulls(np.vstack(pts), seg)


def scan_bits(scans):
    """Bits of (width, theta, offset) per scan of _segment_widths, or of
    the oracle's (width, theta, offset); None for an empty segment."""
    return [None if scan is None else _bits(
        (scan[0], scan[1].subgroup.theta, scan[1].offset)
        if len(scan) == 2 else scan) for scan in scans]


@st.composite
def width_segments(draw):
    """Segments of integer_clouds (one vertex, two vertices, collinear
    runs, duplicate rows), some empty, scaled by factors that round and
    by negative ones that turn zeros into -0.0."""
    scale = draw(st.sampled_from([1.0, -1.0, 0.125, 0.1, -0.1, 3e5]))
    sets = draw(st.lists(st.one_of(st.just([]), integer_clouds()),
                         min_size=1, max_size=10))
    return [[[scale * x, scale * y] for x, y in p] for p in sets]


@settings(deadline=None, max_examples=100)
@given(width_segments(), st.sampled_from([beta.CHUNK_PAIRS, 1, 7, 64]))
def test_segment_widths_match_per_segment_loop(sets, pairs):
    """The stacked width scan equals the per-segment loop bit for bit,
    also when tiny stacks split every hull into blocks of edges."""
    hulls = segment_hulls_of(sets)
    want = loop_segment_widths(len(sets), *hulls)
    with mock.patch.object(beta, "CHUNK_PAIRS", pairs):
        got = beta._segment_widths(len(sets), *hulls)
    assert scan_bits(got) == scan_bits(want)


def test_segment_widths_split_long_hulls_within_memory():
    """One call over hulls of 1 to 2,000 vertices (points on circles):
    _padded_stacks puts short hulls many to a stack and splits the long
    ones into edge blocks, so no product exceeds CHUNK_PAIRS entries;
    one matmul per segment would take 32 MB for the longest."""
    sizes = [1, 2, 3, 4, 7, 12, 30, 64, 100, 255, 256, 257, 600, 1333, 2000]
    sets = []
    for k, n in enumerate(sizes):
        phi = 2.0 * np.pi * np.arange(n) / n
        sets.append(np.column_stack([np.cos(phi), np.sin(phi)]) * (k + 1.5)
                    + [0.1 * k, -0.3])
    hulls = segment_hulls_of(sets)
    assert np.bincount(hulls[1]).max() > 1900
    want = loop_segment_widths(len(sets), *hulls)
    tracemalloc.start()
    try:
        got = beta._segment_widths(len(sets), *hulls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.5 MB at 2^16 pairs, 0.9 MB measured
    assert peak <= 24 * beta.CHUNK_PAIRS
    assert scan_bits(got) == scan_bits(want)


def per_ball_oracle(points, ball):
    """The per-ball path: exact membership, sequential chain, width scan.

    Returns (beta, theta, offset), or None for an empty ball.  The width
    scan uses the same array products as the batched kernel.
    """
    inside = points[core.dist(points, ball.center) <= ball.radius]
    if len(inside) == 0:
        return None
    horiz = inside[:, :2]
    hull = np.array(sequential_chain(horiz.tolist()), float)
    if len(hull) == 1:
        return 0.0, 0.0, float(hull[0] @ np.array([0.0, 1.0]))
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    edges = edges / np.hypot(edges[:, 0], edges[:, 1])[:, None]
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=-1)
    proj = hull @ normals.T
    widths = proj.max(axis=0) - proj.min(axis=0)
    k = int(np.argmin(widths))
    sub = planes.VerticalSubgroup(np.arctan2(edges[k, 1], edges[k, 0]))
    along = horiz @ sub.normal
    return (0.5 * float(widths[k]) / ball.radius, sub.theta,
            float(0.5 * (along.max() + along.min())))


FAR = 10 ** 6  # beyond every drawn radius


@st.composite
def fibred_clouds_and_balls(draw):
    """Integer 3-D clouds over integer_clouds footprints, plus balls.

    Each horizontal point carries a vertical fibre of 1-4 samples, so
    small balls hold 1, 2 or 3 distinct horizontal points.  Far filler
    samples keep at least 40 samples, and the drawn balls repeat until
    one batch spans more than CHUNK_PAIRS ball-sample pairs.  Centers
    are samples moved by at most one unit per coordinate; a far center
    gives an empty ball.
    """
    horiz = draw(integer_clouds())
    t_spread = draw(st.sampled_from([1, 3, 50]))
    pts = []
    for x, y in horiz:
        ts = draw(st.lists(st.integers(-t_spread, t_spread),
                           min_size=1, max_size=4))
        pts += [(x, y, t) for t in ts]
    shift = st.one_of(st.just((0, 0, 0)),
                      st.tuples(*[st.integers(-1, 1)] * 3))
    centers = st.tuples(st.sampled_from(pts), shift).map(
        lambda cs: np.add(*cs, dtype=float))
    pts += [(FAR + k, 0, 0) for k in range(40 - len(pts))]
    pts = np.array(pts, float)
    radii = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 8.0, 40.0, 1500.0])
    drawn = [beta.Ball(c, r) for c, r in draw(
        st.lists(st.tuples(centers, radii), min_size=1, max_size=12))]
    if draw(st.booleans()):
        drawn.append(beta.Ball(np.array([-FAR, 0.0, 0.0]), 1.0))
    reps = beta.CHUNK_PAIRS // (len(drawn) * len(pts)) + 2
    return pts, drawn, drawn * reps


def _bits(values):
    return struct.pack("<3d", *values)


@settings(deadline=None, max_examples=60)
@given(fibred_clouds_and_balls())
def test_batch_matches_per_ball_oracle(case):
    pts, drawn, balls = case
    assert len(balls) * len(pts) > beta.CHUNK_PAIRS
    want = [per_ball_oracle(pts, ball) for ball in drawn]
    got = beta.beta_vertical_batch(pts, balls)
    assert len(got) == len(balls)
    for k, rec in enumerate(got):
        ref = want[k % len(drawn)]
        assert (rec is None) == (ref is None)
        if rec is not None:
            assert rec.ball is balls[k]
            assert _bits((rec.beta, rec.best_plane.subgroup.theta,
                          rec.best_plane.offset)) == _bits(ref)


@st.composite
def row_clouds_and_balls(draw):
    """Graph-like clouds: a few horizontal rows y = const with many
    samples each, some sharing their (x, y) fibre, plus balls.

    Coordinates are multiples of 1/8 or of 0.1, and the cloud moves by
    a central or a horizontal left translation.  Multiples of 1/8 and
    the dyadic translations keep every cross product exact; tenths and
    the (0.1, -0.3, 1e3) translation round them.  Each row keeps one y
    throughout.  Centers are samples moved by at most half a unit per
    coordinate.
    """
    ys = draw(st.lists(st.integers(-16, 16), min_size=1, max_size=6,
                       unique=True))
    pts = []
    for y in ys:
        for x in draw(st.lists(st.integers(-32, 32), min_size=1,
                               max_size=30)):
            pts += [(x, y, t) for t in draw(st.lists(
                st.integers(-64, 64), min_size=1, max_size=3))]
    scale = draw(st.sampled_from([0.125, 0.1]))
    shift = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 37.5),
                                  (3.0, -2.0, 0.0), (-0.5, 4.25, 1.0),
                                  (0.1, -0.3, 1e3)]))
    pts = core.mul(np.array(shift), np.array(pts, float) * scale)
    moves = st.tuples(*[st.integers(-4, 4)] * 3)
    centers = st.tuples(st.sampled_from(range(len(pts))), moves).map(
        lambda cm: pts[cm[0]] + np.array(cm[1], float) / 8.0)
    radii = st.sampled_from([0.125, 0.5, 1.0, 2.0, 4.0, 100.0])
    balls = [beta.Ball(c, r) for c, r in draw(
        st.lists(st.tuples(centers, radii), min_size=1, max_size=12))]
    return pts, balls


@settings(deadline=None, max_examples=100)
@given(row_clouds_and_balls())
def test_row_extremes_match_per_ball_oracle(case):
    """Each distinct member set hands the hull pass at most two points
    per row (2 * rows in all), and every record equals the all-member
    oracle bit for bit."""
    pts, balls = case
    handed = []
    hulls = beta._segment_hulls

    def recording(xy, seg):
        handed.append((xy.copy(), seg.copy()))
        return hulls(xy, seg)

    with mock.patch.object(beta, "_segment_hulls", recording):
        got = beta.beta_vertical_batch(pts, balls)
    for xy, seg in handed:
        for w in np.unique(seg):
            _, per_row = np.unique(xy[seg == w, 1], return_counts=True)
            assert per_row.max() <= 2
    for ball, rec in zip(balls, got):
        ref = per_ball_oracle(pts, ball)
        assert (rec is None) == (ref is None)
        if rec is not None:
            assert rec.ball is ball
            assert _bits((rec.beta, rec.best_plane.subgroup.theta,
                          rec.best_plane.offset)) == _bits(ref)


@st.composite
def shared_member_balls(draw):
    """A cloud and a ball list in which many balls hold the same samples.

    Grid samples, some sharing their (x, y) with another sample, some
    jittered off the grid so that rounding shows, all moved by a left
    translation.  Around each drawn center the radii are concentric and
    nested: the exact distances of drawn samples (boundary ties), their
    halves and doubles, and a radius holding the whole cloud; a far
    center gives an empty ball.  The list repeats its balls in a drawn
    order, and `step` is the number of balls per chunk, so equal member
    sets fall inside one chunk and straddle chunk borders.
    """
    n = draw(st.integers(1, 40))
    grid = st.integers(-16, 16)
    pts = np.array(draw(st.lists(st.tuples(grid, grid, grid), min_size=n,
                                 max_size=n)), float) / 8.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=n // 2)):
        pts[dst, :2] = pts[src, :2]
    jitter = draw(st.sampled_from([0.0, 1e-3, 0.3]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    pts += jitter * np.random.default_rng(seed).uniform(-1, 1, pts.shape)
    shift = draw(st.sampled_from([(0.0, 0.0, 0.0), (300.0, -200.0, 1e3),
                                  (1e3, 1e3, -1e5)]))
    pts = core.mul(np.array(shift), pts)
    balls = []
    for c in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        center = pts[c]
        d = core.dist(pts, center)
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=4)):
            if d[k] > 0:
                balls += [beta.Ball(center, s * d[k]) for s in (0.5, 1, 2)]
        balls.append(beta.Ball(center, 1e3))
    balls.append(beta.Ball(core.mul(np.array(shift), [1e6, 0, 0]), 1.0))
    order = draw(st.lists(st.integers(0, len(balls) - 1), min_size=1,
                          max_size=3 * len(balls)))
    return pts, [balls[k] for k in order], draw(st.integers(1, 7))


def ring_balls(pts, centers):
    """Around each distinct center, balls through every sample and one
    and two ulps either side of it, and balls of radius 1e-200, 1e200
    and inf.  Returns (centers, radii)."""
    unique = np.unique(centers, axis=0)
    ring = [core.dist(pts[None, :, :], unique[:, None, :]).ravel()]
    for step in (np.inf, -np.inf):
        ring += [np.nextafter(ring[0], step)]
        ring += [np.nextafter(ring[-1], step)]
    special = [1e-200, 1e200, np.inf]
    return (np.vstack([np.repeat(unique, len(pts), axis=0)] * len(ring)
                      + [np.repeat(unique, len(special), axis=0)]),
            np.concatenate(ring + [np.tile(special, len(unique))]))


ON_RING = (np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 1.0]]),
           [beta.Ball(np.zeros(3), 5.0)], 1)


@settings(deadline=None, max_examples=80)
@given(shared_member_balls(),
       st.one_of(st.integers(-30, 30), st.sampled_from([-540, 520])),
       st.sampled_from([0.0, 1e3, -1e9, 1e12]))
@example(ON_RING, 0, 0.0)
# the squares and products of the far scales overflow on purpose
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
def test_inside_balls_matches_core_dist(case, exponent, lift):
    """The mask is core.dist(p, c) <= r bit for bit.

    The cloud and centers are dilated by 2^exponent and lifted by a
    central translation (0, 0, lift); at 2^-540 and 2^520 squares under-
    and overflow.  Besides the drawn balls come ring_balls, so pairs
    fall inside the band of the squared test and radii lie outside
    RADIUS_RANGE.  A pair whose horizontal distance is a radius in
    RADIUS_RANGE lies inside the band, and then the band fallback must
    have called np.hypot on gathered pairs; ON_RING has such a pair,
    (3, 4) at radius 5.
    """
    pts, balls, _ = case
    lift = core.as_point(0.0, 0.0, lift)
    pts = core.mul(lift, core.dilate(2.0 ** exponent, pts))
    centers = core.mul(lift, core.dilate(2.0 ** exponent, np.array(
        [ball.center for ball in balls])))
    ring_centers, ring_radii = ring_balls(pts, centers)
    centers = np.vstack([centers, ring_centers])
    radii = np.concatenate([[ball.radius * 2.0 ** exponent
                             for ball in balls], ring_radii])
    want = core.dist(pts[None, :, :], centers[:, None, :]) <= radii[:, None]
    with mock.patch.object(np, "hypot", wraps=np.hypot) as hypot:
        got = beta._inside_balls(np.ascontiguousarray(pts.T), centers, radii)
    assert got.dtype == bool
    assert np.array_equal(got, want)
    rel = pts[None, :, :2] - centers[:, None, :2]
    lo, hi = beta.RADIUS_RANGE
    on_ring = ((np.hypot(rel[..., 0], rel[..., 1]) == radii[:, None])
               & (radii[:, None] >= lo) & (radii[:, None] <= hi))
    if on_ring.any():
        assert [c for c in hypot.call_args_list if np.ndim(c.args[0]) == 1]


@settings(deadline=None, max_examples=60)
@given(shared_member_balls(), st.integers(1, 3))
def test_membership_chunks_match_core_dist(case, kernel):
    """Chunked masks equal core.dist(p, c) <= r, also for the balls that
    _full_balls certifies without a distance pass and when the kernel
    takes 1-3 balls per call.  Each center also gets its exact
    eccentricity as a radius, and that radius an ulp smaller, so some
    balls hold every sample only just and some miss one; each ball of
    radius 1e3 holds the whole cloud by far and must be certified."""
    pts, balls, step = case
    centers = np.array([ball.center for ball in balls])
    ecc = core.dist(pts[None, :, :], centers[:, None, :]).max(axis=1)
    centers = np.vstack([centers] * 3)
    radii = np.concatenate([[ball.radius for ball in balls], ecc,
                            np.nextafter(ecc, 0.0)])
    xyt = np.ascontiguousarray(pts.T)
    want = core.dist(pts[None, :, :], centers[:, None, :]) <= radii[:, None]
    full = beta._full_balls(xyt, centers, radii)
    assert want[full].all()
    assert full[radii == 1e3].all()
    with mock.patch.object(beta, "KERNEL_PAIRS", kernel * len(pts)):
        got = list(beta.membership_chunks(xyt, centers, radii,
                                          step * len(pts)))
    assert [s for s, _ in got] == list(range(0, len(radii), step))
    assert np.array_equal(np.vstack([m for _, m in got]), want)


@settings(deadline=None, max_examples=80)
@given(shared_member_balls())
def test_batch_shares_scans_and_matches_single_balls(case):
    """Each chunk scans each distinct member set once, and every record
    equals the one-ball batch bit for bit."""
    pts, balls, step = case
    scanned = []
    widths = beta._segment_widths

    def counting(n_seg, *args):
        scanned.append(n_seg)
        return widths(n_seg, *args)

    with mock.patch.object(beta, "CHUNK_PAIRS", step * len(pts)), \
            mock.patch.object(beta, "_segment_widths", counting):
        got = beta.beta_vertical_batch(pts, balls)
    assert len(got) == len(balls)
    masks = [tuple(core.dist(pts, ball.center) <= ball.radius)
             for ball in balls]
    assert scanned == [len(set(masks[s:s + step]))
                       for s in range(0, len(balls), step)]
    for ball, rec in zip(balls, got):
        try:
            want = beta.beta_vertical(pts, ball)
        except ValueError:
            assert rec is None
            continue
        assert rec.ball is ball
        assert _bits((rec.beta, rec.best_plane.subgroup.theta,
                      rec.best_plane.offset)) == \
            _bits((want.beta, want.best_plane.subgroup.theta,
                   want.best_plane.offset))


def test_affine_scenario_balls_flat(tmp_path):
    # every horizontal point lies on one line; rounding may pick any
    # near-collinear hull, but the width must stay at rounding level
    assert cli.main(["beta", "--scenario", "affine",
                     "--out", str(tmp_path)]) == 0
    records = beta.load_beta_records(tmp_path / "beta_records.csv")
    assert len(records) == 78
    assert max(rec.beta for rec in records) <= 1e-12


def test_beta_invariance_under_translation_dilation():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (80, 3))
    ball = beta.Ball(pts[0], 2.0)
    base = beta.beta_vertical(pts, ball).beta
    g = core.as_point(0.3, -1.2, 0.8)
    r = 2.5
    moved = core.dilate(r, core.mul(g, pts))
    moved_ball = beta.Ball(core.dilate(r, core.mul(g, ball.center)),
                           r * ball.radius)
    assert abs(beta.beta_vertical(moved, moved_ball).beta - base) <= 1e-9


def test_beta_invariance_under_rotation():
    # rotations are isometries carrying vertical planes to vertical planes
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, (70, 3))
    ball = beta.Ball(pts[0], 2.0)
    base = beta.beta_vertical(pts, ball).beta
    for theta in (0.4, 1.7, 3.0):
        rot = core.rotate(theta, pts)
        rot_ball = beta.Ball(core.rotate(theta, ball.center), ball.radius)
        assert abs(beta.beta_vertical(rot, rot_ball).beta - base) <= 1e-9


def test_beta_record_consistency():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, (50, 3))
    ball = beta.Ball(pts[0], 2.0)
    rec = beta.beta_vertical(pts, ball)
    inside = pts[beta.points_in_ball(pts, ball)]
    sup = planes.dist_to_plane(inside, rec.best_plane).max() / ball.radius
    assert abs(sup - rec.beta) <= 1e-12
    assert 0 <= rec.beta <= np.ptp(inside[:, :2], axis=0).max() / ball.radius


def test_beta_monotone_under_refinement():
    def cloud(n):
        ys = np.linspace(-1, 1, n)
        ts = np.linspace(-1, 1, n)
        yy, tt = np.meshgrid(ys, ts, indexing="ij")
        phi = 0.2 * yy ** 2
        return graphs.graph_points((np.stack([yy, tt], -1).reshape(-1, 2),
                                    phi.ravel()))

    ball = beta.Ball(np.array([0.0, 0.0, 0.0]), 1.5)
    coarse = beta.beta_vertical(cloud(11), ball).beta
    fine = beta.beta_vertical(cloud(41), ball).beta
    assert fine >= coarse - 1e-9


def test_beta_against_candidate():
    g = burgers.grid_from_function(lambda y, t: 0.5 * y + 0.2, (-1, 1), (-1, 1), 41, 41)
    ball = beta.Ball(graphs.graph_map(g, 20, 20), 0.6)
    assert beta.beta_against_candidate(g, ball, g) == 0
    psi = burgers.grid_from_function(lambda y, t: 0.5 * y + 0.35, (-1.2, 1.2), (-1.5, 1.5), 41, 41)
    val = beta.beta_against_candidate(g, ball, psi)
    assert abs(val - 0.15 / 0.6) <= 1e-9


def test_beta_against_candidate_hyperbolic_vs_flat():
    g = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                   (-0.5, 0.5), (-0.5, 0.5), 61, 61)
    ball = beta.Ball(np.array([0.0, 0.0, 0.0]), 1.0)
    psi = burgers.grid_from_function(lambda y, t: 0 * y, (-1.5, 1.5), (-2, 2), 21, 21)
    ii, jj = beta.projected_ball_nodes(g, ball)
    expect = np.abs(g.phi[ii, jj]).max()
    assert abs(beta.beta_against_candidate(g, ball, psi) - expect) <= 1e-12


def test_beta_cg_estimate_affine():
    g = burgers.grid_from_function(lambda y, t: 0.5 * y - 0.1, (-1, 1), (-1, 1), 33, 33)
    ball = beta.Ball(graphs.graph_map(g, 16, 16), 0.5)
    val, report = beta.beta_cg_estimate(g, ball, lipschitz=2.0, starts=2,
                                        maxiter=120, target=1e-7)
    assert val <= 1e-6


def test_beta_cg_estimate_zero_gradient_family_member():
    g = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                   (-0.4, 0.4), (-0.4, 0.4), 41, 41)
    ball = beta.Ball(np.array([0.0, 0.0, 0.0]), 0.5)
    val, report = beta.beta_cg_estimate(g, ball, lipschitz=2.0, starts=3,
                                        maxiter=200, target=5e-4)
    assert val <= 1e-3


def test_beta_cg_monotone_in_knots():
    g = burgers.grid_from_function(lambda y, t: 0.3 * y + 0.05 * np.sin(3 * y),
                                   (-1, 1), (-1, 1), 33, 33)
    ball = beta.Ball(graphs.graph_map(g, 16, 16), 0.5)
    v3, _ = beta.beta_cg_estimate(g, ball, lipschitz=2.0, knots=3, starts=2,
                                  maxiter=80)
    v5, _ = beta.beta_cg_estimate(g, ball, lipschitz=2.0, knots=5, starts=2,
                                  maxiter=80)
    assert v5 <= v3 + 1e-12


def test_thin_boundary_uniform_plane():
    pts = plane_samples(np.pi / 2, 0.0, n=4000, rng=np.random.default_rng(3))
    masses = np.ones(len(pts))
    a_vals = []
    for r in (0.4, 0.5):
        s, a = beta.thin_boundary_radius(pts, masses, np.zeros(3), r, 0.2)
        assert r <= s <= 1.2 * r + 1e-12
        a_vals.append(a)
    assert max(a_vals) <= 12.0  # dimensional constant, stable across r
    assert abs(a_vals[0] - a_vals[1]) <= 0.7 * max(a_vals)


def test_thin_boundary_avoids_concentrated_sphere():
    rng = np.random.default_rng(5)
    rho = 1.1
    dirs = rng.normal(size=(3000, 3))
    shell = core.dilate(rho / core.norm(dirs), dirs)  # homogeneous norm rho
    bulk = rng.uniform(-0.3, 0.3, (500, 3))
    allpts = np.vstack([shell, bulk])
    allm = np.ones(len(allpts))
    s, a = beta.thin_boundary_radius(allpts, allm, np.zeros(3), 1.0, 0.2)
    assert abs(s - rho) >= 0.02  # the loaded radius is dodged


def test_thin_boundary_large_lambda_trivial():
    pts = plane_samples(np.pi / 2, 0.0, n=1000, rng=np.random.default_rng(8))
    masses = np.ones(len(pts))
    d = core.dist(pts, np.zeros(3))
    r = 0.5
    total = masses[d <= 2 * r].sum()
    for lam in (0.6, 0.9, 2.0):
        m = masses[(d >= (1 - lam) * r) & (d <= (1 + lam) * r)].sum()
        assert m <= 2.0 * lam * total + 1e-12


def test_annulus_control_inequality():
    g = burgers.grid_from_function(lambda y, t: 0.4 * np.abs(y), (-1, 1), (-1, 1), 61, 61)
    pts = graphs.all_graph_points(g).reshape(-1, 3)
    masses = g.mass.ravel()
    vals = graphs.intrinsic_gradient(g).ravel()
    gap, bound = beta.annulus_average_gap_bound(pts, masses, vals,
                                                pts[len(pts) // 2], 0.4, 0.7)
    assert gap <= bound + 1e-12


def test_probe_affine_flat():
    g = burgers.grid_from_function(lambda y, t: 0.7 * y, (-1.2, 1.2), (-1.2, 1.2), 81, 81)
    ball = beta.Ball(np.array([0.0, 0.0, 0.0]), 1.0)
    _, gap = beta.gradient_fluctuation_probe(g, ball, 0.2)
    assert gap <= 10 * g.dy


def test_probe_detects_kink():
    g = burgers.grid_from_function(lambda y, t: np.abs(y), (-1.2, 1.2), (-1.2, 1.2), 121, 121)
    ball = beta.Ball(np.array([0.0, 0.0, 0.0]), 1.0)
    best, gap = beta.gradient_fluctuation_probe(g, ball, 0.1)
    assert gap >= 0.5
    assert best is not None


def test_probe_zero_gradient_example_is_quiet():
    g = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                   (-0.5, 0.5), (-0.5, 0.5), 101, 101)
    ball = beta.Ball(np.array([0.0, 0.0, 0.0]), 0.6)
    _, gap = beta.gradient_fluctuation_probe(g, ball, 0.2)
    assert gap <= 50 * g.dy ** 2 + 1e-6


def test_beta_records_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1, 1, (40, 3))
    records = [beta.beta_vertical(pts, beta.Ball(pts[k], 1.5))
               for k in range(3)]
    path = tmp_path / "records.csv"
    beta.save_beta_records(records, path)
    back = beta.load_beta_records(path)
    assert len(back) == 3
    for a, b in zip(records, back):
        assert a.beta == b.beta
        assert a.best_plane.subgroup.theta == b.best_plane.subgroup.theta
        assert a.best_plane.offset == b.best_plane.offset


def test_beta_empty_ball_raises():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError):
        beta.beta_vertical(pts, beta.Ball(np.array([50.0, 0, 0]), 0.5))


def test_ball_rejects_nan_radius():
    for radius in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            beta.Ball(np.zeros(3), radius)
    rec = beta.beta_vertical_batch(np.zeros((3, 3)),
                                   [beta.Ball(np.zeros(3), np.inf)])[0]
    assert rec.beta == 0.0
