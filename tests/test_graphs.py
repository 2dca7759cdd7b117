from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisrect import burgers, core, graphs, partition, planes

RNG = np.random.default_rng(37)


def make_graph(fn, y_range=(-1, 1), t_range=(-1, 1), n=41):
    return burgers.grid_from_function(fn, y_range, t_range, n, n)


def test_graph_map_flat():
    g = make_graph(lambda y, t: 0 * y)
    p = graphs.graph_map(g, 3, 5)
    assert np.allclose(p, [0, g.ys[3], g.ts[5]])


def test_graph_map_constant_and_tilt():
    c = 0.7
    g = make_graph(lambda y, t: c + 0 * y)
    i, j = 4, 9
    expect = core.mul([0, g.ys[i], g.ts[j]], [c, 0, 0])
    assert np.allclose(graphs.graph_map(g, i, j), expect)
    assert np.allclose(expect, [c, g.ys[i], g.ts[j] - c * g.ys[i] / 2])
    tilt = make_graph(lambda y, t: y, n=21)
    i = int(round((1 - tilt.y0) / tilt.dy))
    j = int(round((0 - tilt.t0) / tilt.dt))
    assert np.allclose(graphs.graph_map(tilt, i, j), [1, 1, -0.5])


def test_graph_map_range_check():
    g = make_graph(lambda y, t: 0 * y, n=5)
    with pytest.raises(IndexError):
        graphs.graph_map(g, 5, 0)


def test_lipschitz_constant_flat_is_zero():
    g = make_graph(lambda y, t: 0.3 + 0 * y, n=11)
    assert graphs.lipschitz_constant(graphs.all_graph_points(g)) == 0.0


def test_lipschitz_constant_translation_stable():
    g = make_graph(lambda y, t: y, n=13)
    pts = graphs.all_graph_points(g).reshape(-1, 3)
    base = graphs.lipschitz_constant(pts)
    assert 0 < base < np.inf
    q = core.as_point(0.4, -0.9, 1.7)
    moved = graphs.lipschitz_constant(core.mul(q, pts))
    assert abs(moved - base) <= 1e-9 * max(1, base)


def test_lipschitz_constant_detects_non_graph():
    # two points in the same fiber: equal vertical projections
    w = core.as_point(0, 0.5, 0.25)
    p1 = core.mul(w, [0.3, 0, 0])
    p2 = core.mul(w, [-0.2, 0, 0])
    assert graphs.lipschitz_constant(np.array([p1, p2])) == np.inf


def loop_pair_scan(pts):
    """Oracle: (aperture, Lipschitz constant) from one ordered pair at a
    time, with the shared-fibre rule of cone_aperture."""
    tol = core.dist_error(pts)
    alpha, lip = np.inf, 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            dw, dv = planes.split(core.mul(core.inv(pts[i]), pts[j]),
                                  planes.subgroup_y_t())
            wn, vn = float(core.norm(dw)), float(core.norm(dv))
            if wn <= tol < vn:
                return 0.0, np.inf
            if vn > 0:
                alpha = min(alpha, wn / vn)
                lip = max(lip, vn / wn if wn > 0 else np.inf)
    return alpha, lip


@st.composite
def pair_clouds(draw):
    """Up to 24 grid samples (duplicates, shared cosets and shared fibres
    all likely), dilated and left-translated, and a block of 1-3 rows."""
    n = draw(st.integers(2, 24))
    grid = st.integers(-6, 6)
    pts = np.array(draw(st.lists(st.tuples(grid, grid, grid), min_size=n,
                                 max_size=n)), float) / 4.0
    scale = draw(st.sampled_from([1e-2, 1.0, 1e3]))
    shift = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.3, -0.7, 0.2),
                                  (300.0, -200.0, 1e3)]))
    pts = core.mul(scale * np.array(shift), core.dilate(scale, pts))
    return pts, draw(st.integers(1, 3))


@settings(deadline=None, max_examples=150)
@given(pair_clouds())
def test_pair_scan_matches_per_pair_oracle(case):
    pts, rows = case
    alpha, lip = loop_pair_scan(pts)
    with mock.patch.object(graphs, "PAIR_BUDGET", rows * len(pts)):
        assert graphs.cone_aperture(pts) == alpha
        got = graphs.lipschitz_constant(pts)
    if 0 < lip < np.inf:
        assert got == pytest.approx(lip, rel=1e-12)
    else:
        assert got == lip


@st.composite
def fibre_pairs(draw):
    """A float cloud at scale 10^-2..10^3, left-translated, one of its
    samples p and a signed step s along the normal of W."""
    scale = 10.0 ** draw(st.floats(-2, 3))
    n = draw(st.integers(1, 12))
    unit = st.floats(-1, 1)
    pts = np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=n,
                                 max_size=n)))
    x, y, t = draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5),
                             st.floats(-25, 25)))
    pts = core.mul(core.as_point(scale * x, scale * y, scale ** 2 * t),
                   core.dilate(scale, pts))
    s = draw(st.floats(1e-3, 2)) * draw(st.sampled_from([-1, 1])) * scale
    return pts, draw(st.integers(0, n - 1)), s


@settings(deadline=None, max_examples=200)
@given(fibre_pairs())
def test_shared_fibre_caught_up_to_rounding(case):
    """q = p . (s n, 0) shares p's vertical projection, so no cloud
    holding both is a graph over W, whatever the rounding of q."""
    pts, k, s = case
    n = planes.subgroup_y_t().normal
    q = core.mul(pts[k], np.array([s * n[0], s * n[1], 0.0]))
    cloud = np.vstack([pts, q])
    assert graphs.cone_aperture(cloud) == 0.0
    assert graphs.lipschitz_constant(cloud) == np.inf
    report, = partition.verify_pieces(cloud, {"": np.arange(len(cloud))})
    assert not report.graph_ok


def test_intrinsic_gradient_affine():
    for c, d in [(2.0, -1.0), (0.0, 0.3), (-1.5, 0.0)]:
        g = make_graph(lambda y, t: c * y + d)
        assert np.abs(graphs.intrinsic_gradient(g) - c).max() <= 1e-10


def test_intrinsic_gradient_zero_gradient_examples():
    g = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                   (-0.5, 0.5), (-0.02, 0.02), 201, 201)
    interior = graphs.intrinsic_gradient(g)[1:-1, 1:-1]
    assert np.abs(interior).max() <= 5e-5
    g2 = burgers.grid_from_function(burgers.zero_gradient_kinked,
                                    (-0.45, 0.45), (-0.06, 0.06), 181, 181)
    grad = graphs.intrinsic_gradient(g2)
    away = np.broadcast_to(np.abs(g2.ts)[None, :] >= 3 * g2.dt, grad.shape)
    assert np.abs(grad[1:-1, 1:-1][away[1:-1, 1:-1]]).max() <= 5e-5


def test_gradient_routes_agree():
    g = make_graph(lambda y, t: 0.5 * y + 0.1 * np.sin(y + t), n=201)
    pde = graphs.intrinsic_gradient(g)
    quo = graphs.quotient_gradient(g)
    ok = np.isfinite(quo)
    assert ok.mean() > 0.5
    assert np.abs((pde - quo)[ok]).max() <= 5 * g.dy


def test_gradient_bounded_by_lipschitz_estimate():
    g = make_graph(lambda y, t: 0.8 * y - 0.2, n=41)
    pts = graphs.all_graph_points(g).reshape(-1, 3)
    lhat = graphs.lipschitz_constant(pts)
    assert np.abs(graphs.intrinsic_gradient(g)).max() <= lhat + 10 * g.dy


def test_translate_identity_and_constant():
    g = make_graph(lambda y, t: 0.4 + 0 * y, n=21)
    same = graphs.translate_graph(g, core.identity())
    assert np.abs(same.phi - g.phi[:same.ny, :same.nt]).max() <= 1e-12
    moved = graphs.translate_graph(g, core.as_point(0.25, 0, 0))
    assert np.abs(moved.phi - 0.65).max() <= 1e-10


def test_translate_gradient_chain_rule():
    g = make_graph(lambda y, t: 0.3 * y + 0.05 * np.sin(2 * y), n=161)
    q = core.as_point(0.2, 0.3, -0.1)
    gq = graphs.translate_graph(g, q)
    grad_q = graphs.intrinsic_gradient(gq)
    # pull each target node back through the shear and compare gradients
    yy, tt = np.meshgrid(gq.ys, gq.ts, indexing="ij")
    W = planes.subgroup_y_t()
    src = planes.project_chart(planes.shear(
        core.inv(q), planes.from_plane_coords(np.stack([yy, tt], axis=-1), W),
        W), W)
    orig = graphs.intrinsic_gradient(g)
    gi = np.clip(np.round((src[..., 0] - g.y0) / g.dy).astype(int), 0, g.ny - 1)
    gj = np.clip(np.round((src[..., 1] - g.t0) / g.dt).astype(int), 0, g.nt - 1)
    diff = np.abs(grad_q[2:-2, 2:-2] - orig[gi, gj][2:-2, 2:-2])
    assert np.percentile(diff, 95) <= 20 * g.dy


def test_translated_sample_cloud_matches_formula():
    g = make_graph(lambda y, t: 0.6 + 0 * y, n=15)
    q = core.as_point(0.3, 0.2, 0.1)
    translated = core.mul(q, graphs.all_graph_points(g).reshape(-1, 3))
    gq = graphs.translate_graph(g, q)
    cloud = graphs.all_graph_points(gq).reshape(-1, 3)
    # every resampled graph point must lie on the translated cloud's plane
    d = np.abs(cloud[:, 0] - (0.6 + 0.3))
    assert d.max() <= 1e-10
    assert np.abs(translated[:, 0] - 0.9).max() <= 1e-12


def test_translate_matches_translated_cloud():
    # set-level oracle: resampled graph points sit on the moved cloud
    g = make_graph(lambda y, t: 0.3 * y + 0.04 * np.sin(2 * y + t), n=101)
    q = core.as_point(0.15, -0.2, 0.1)
    moved_cloud = core.mul(q, graphs.all_graph_points(g).reshape(-1, 3))
    gq = graphs.translate_graph(g, q)
    resampled = graphs.all_graph_points(gq).reshape(-1, 3)
    rng = np.random.default_rng(4)
    pick = rng.integers(0, len(resampled), 60)
    worst = 0.0
    for p in resampled[pick]:
        worst = max(worst, float(core.dist(moved_cloud, p).min()))
    # within one grid gap plus the reported interpolation error
    gap = core.dist(moved_cloud[0], moved_cloud[1])
    assert worst <= 3 * max(g.dy, np.sqrt(g.dt)) + gq.interp_error


def test_dilate_graph():
    g = make_graph(lambda y, t: 0.4 + 0 * y, n=15)
    assert np.abs(graphs.dilate_graph(g, 1.0).phi - g.phi).max() == 0
    g2 = graphs.dilate_graph(g, 2.0)
    assert np.abs(g2.phi - 0.8).max() == 0
    assert g2.dy == 2 * g.dy and g2.dt == 4 * g.dt


def test_dilate_preserves_lipschitz_estimate():
    g = make_graph(lambda y, t: 0.5 * y + 0.1 * np.sin(3 * y), n=31)
    base = graphs.lipschitz_constant(graphs.all_graph_points(g))
    scaled = graphs.lipschitz_constant(
        graphs.all_graph_points(graphs.dilate_graph(g, 2.0)))
    assert abs(scaled - base) <= 0.05 * max(base, 1e-12)


def test_graph_distance():
    g = make_graph(lambda y, t: 0 * y, n=21)
    assert graphs.graph_distance(g, (3, 4), (3, 4)) == 0
    d = graphs.graph_distance(g, (0, 0), (5, 7))
    y, y2 = g.ys[0], g.ys[5]
    t, t2 = g.ts[0], g.ts[7]
    assert np.isclose(d, max(abs(y - y2), np.sqrt(abs(t - t2))))


def test_ball_projection_identity():
    # pi_W of in-ball graph points equals the graph-metric ball on the chart
    g = make_graph(lambda y, t: 0.2 * y, n=31)
    pts = graphs.all_graph_points(g).reshape(-1, 3)
    nodes = g.nodes()
    # the chart projection inverts the graph lift exactly
    w_yt = planes.subgroup_y_t()
    assert np.abs(planes.project_chart(pts, w_yt) - nodes).max() <= 1e-12
    center = pts[len(pts) // 2]
    w0 = planes.project_chart(center, w_yt)
    s = 0.5
    lift_of = dict(zip(map(tuple, np.round(nodes, 12)), pts))
    proj_side = {tuple(w) for w, p in zip(np.round(nodes, 12), pts)
                 if core.dist(p, center) <= s}
    dgamma_side = {tuple(w) for w in np.round(nodes, 12)
                   if core.dist(lift_of[tuple(w)],
                                lift_of[tuple(np.round(w0, 12))]) <= s}
    assert proj_side == dgamma_side


def test_mass_matches_area_formula():
    c = 1.2
    g = make_graph(lambda y, t: c * y, n=41)
    total = g.mass.sum()
    area = (g.ys[-1] - g.ys[0] + g.dy) * (g.ts[-1] - g.ts[0] + g.dt)
    assert abs(total - area * np.sqrt(1 + c * c)) <= 1e-6 * total


def test_ball_inclusion_calibration():
    g = make_graph(lambda y, t: 0.5 * y, (-2, 2), (-2, 2), n=81)
    center = graphs.graph_map(g, 40, 40)
    b = graphs.calibrate_ball_inclusion(g, center, 0.8)
    assert 0 < b <= 1
    # sandwich property holds at the calibrated b on the samples
    nodes = planes.from_plane_coords(g.nodes(), planes.subgroup_y_t())
    fiber = planes.dist_to_fiber(center, nodes, planes.subgroup_y_t())
    on_graph = core.dist(graphs.all_graph_points(g).reshape(-1, 3), center)
    covered = fiber <= b * 0.8 - 1e-12
    assert np.all(on_graph[covered] <= 0.8 + 1e-12)


def test_serialization_roundtrip(tmp_path):
    g = make_graph(lambda y, t: 0.3 * y + 0.1 * t, n=7)
    prefix = tmp_path / "grid"
    graphs.save_grid_graph(g, prefix)
    g2 = graphs.load_grid_graph(prefix)
    assert np.array_equal(g.phi, g2.phi)
    assert np.array_equal(g.mass, g2.mass)
    ps = graphs.point_set(g)
    path = tmp_path / "points.csv"
    graphs.save_point_set(ps, path)
    ps2 = graphs.load_point_set(path)
    assert np.array_equal(ps.points, ps2.points)
    assert np.array_equal(ps.masses, ps2.masses)
