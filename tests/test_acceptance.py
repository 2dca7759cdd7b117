"""Acceptance suite: one test per criterion, pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line
per criterion; any failure names the criterion that broke.
"""

import numpy as np
import pytest

from heisrect import beta, burgers, cli, core, cubes, graphs, partition, planes

W_YT = planes.subgroup_y_t()
N_BULK = 100_000


def _report(name, **vals):
    detail = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in vals.items())
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_group_metric_suite():
    rng = np.random.default_rng(1)
    p, q, r = (rng.uniform(-10, 10, (N_BULK, 3)) for _ in range(3))
    scale = 1 + max(np.abs(a).max() for a in (p, q, r))
    assoc = np.abs(core.mul(core.mul(p, q), r)
                   - core.mul(p, core.mul(q, r))).max()
    assert assoc <= 1e-12 * scale

    g = rng.uniform(-10, 10, (N_BULK, 3))
    d0 = core.dist(p, q)
    left = np.max(np.abs(core.dist(core.mul(g, p), core.mul(g, q)) - d0)
                  / np.maximum(d0, 1e-30))
    assert left <= 1e-9

    fac = rng.uniform(1e-3, 1e3, N_BULK)
    dh = core.dist(core.dilate(fac, p), core.dilate(fac, q))
    hom = np.max(np.abs(dh - fac * d0) / np.maximum(dh, 1e-30))
    assert hom <= 1e-9

    th = rng.uniform(0, 2 * np.pi, N_BULK)
    rot_iso = np.max(np.abs(core.dist(core.rotate(th, p), core.rotate(th, q))
                            - d0) / np.maximum(d0, 1e-30))
    assert rot_iso <= 1e-9
    rot_hom = np.abs(core.rotate(th, core.mul(p, q))
                     - core.mul(core.rotate(th, p), core.rotate(th, q))).max()
    assert rot_hom <= 1e-12 * scale

    tri = core.dist(p, q) + core.dist(q, r) - core.dist(p, r)
    assert tri.min() >= -1e-12 * scale
    _report("01 group/metric", assoc=float(assoc), left=float(left),
            hom=float(hom), rot=float(rot_iso), triangle=float(tri.min()))


def test_criterion_02_splitting_suite():
    rng = np.random.default_rng(2)
    p = rng.uniform(-10, 10, (N_BULK, 3))
    thetas = rng.uniform(0, np.pi, 16)
    worst = 0.0
    for theta in thetas:
        sub = planes.VerticalSubgroup(theta)
        pw, pv = planes.split(p, sub)
        worst = max(worst, float(np.abs(core.mul(pw, pv) - p).max()))
    assert worst <= 1e-10

    h = 1e-5
    jac_err = 0.0
    for _ in range(100):
        q = rng.uniform(-5, 5, 3)
        at = rng.uniform(-3, 3, 2)
        j = np.empty((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            up = planes.project_chart(planes.shear(
                q, planes.from_plane_coords(at + e, W_YT), W_YT), W_YT)
            dn = planes.project_chart(planes.shear(
                q, planes.from_plane_coords(at - e, W_YT), W_YT), W_YT)
            j[:, k] = (up - dn) / (2 * h)
        jac_err = max(jac_err, abs(np.linalg.det(j) - 1))
    assert jac_err <= 1e-8
    _report("02 splitting", recomposition=worst, jacobian=jac_err)


def test_criterion_03_distance_to_plane_oracle():
    rng = np.random.default_rng(3)
    h = 0.05
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-3, 3, 3)
        plane = planes.VerticalPlane(
            planes.VerticalSubgroup(rng.uniform(0, np.pi)),
            rng.uniform(-2, 2))
        closed = float(planes.dist_to_plane(p, plane))
        sub = plane.subgroup
        u, n = sub.direction, sub.normal
        base = plane.offset * n
        v_hat = (p[:2] - base) @ u
        foot = np.array([base[0] + v_hat * u[0], base[1] + v_hat * u[1], 0.0])
        t_hat = core.mul(core.inv(foot), p)[2]  # centers the search window
        vs = np.arange(v_hat - 3.0, v_hat + 3.0, h)
        ts = np.arange(t_hat - 0.5, t_hat + 0.5, h * h / 4)
        V, T = np.meshgrid(vs, ts, indexing="ij")
        grid = np.stack([base[0] + V * u[0], base[1] + V * u[1], T], axis=-1)
        brute = float(core.dist(grid.reshape(-1, 3), p).min())
        assert brute >= closed - 1e-12
        worst = max(worst, abs(brute - closed))
    assert worst <= 2 * h
    _report("03 plane distance oracle", worst=worst, tol=2 * h)


def test_criterion_04_beta_oracle_equivalence():
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng(400 + k)
        pts = rng.uniform(-2, 2, (rng.integers(4, 80), 3))
        ball = beta.Ball(pts[0], 4.0)
        cal = beta.beta_vertical(pts, ball).beta
        inside = pts[beta.points_in_ball(pts, ball)]
        bru = 0.5 * beta.brute_min_width(inside[:, :2])[0] / ball.radius
        diam = float(np.ptp(inside[:, :2], axis=0).max()) * np.sqrt(2)
        tol = 1e-6 + (np.pi / 720) * diam / ball.radius
        assert bru >= cal - 1e-12
        assert abs(cal - bru) <= tol
        worst = max(worst, abs(cal - bru))

    rng = np.random.default_rng(44)
    for theta in (0.0, 0.9, np.pi / 2, 2.6):
        sub = planes.VerticalSubgroup(theta)
        coords = np.column_stack([rng.uniform(-1, 1, 300),
                                  rng.uniform(-1, 1, 300)])
        pts = planes.from_plane_coords(coords, sub)
        pts = pts + 0.7 * np.concatenate([sub.normal, [0.0]])
        rec = beta.beta_vertical(pts, beta.Ball(pts[0], 2.0))
        assert rec.beta <= 1e-9

    horiz = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)
    square = np.column_stack([horiz, np.zeros(4)])
    rec = beta.beta_vertical(square, beta.Ball(np.array([0.5, 0.5, 0.0]), 2.0))
    assert rec.beta == 0.25
    _report("04 beta oracle", calipers_vs_brute=worst, unit_square=rec.beta)


def test_criterion_05_intrinsic_gradient_suite():
    affine_err = 0.0
    for c, d in [(2.0, -1.0), (0.0, 0.3), (-0.7, 0.1)]:
        g = burgers.grid_from_function(lambda y, t: c * y + d,
                                       (-1, 1), (-1, 1), 41, 41)
        affine_err = max(affine_err,
                         float(np.abs(graphs.intrinsic_gradient(g) - c).max()))
    assert affine_err <= 1e-10

    g = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                   (-0.5, 0.5), (-0.02, 0.02), 1001, 41)
    assert abs(g.dy - 1e-3) < 1e-12 and abs(g.dt - 1e-3) < 1e-12
    smooth_err = float(np.abs(graphs.intrinsic_gradient(g)).max())
    assert smooth_err <= 1e-6

    g2 = burgers.grid_from_function(burgers.zero_gradient_kinked,
                                    (-0.45, 0.45), (-0.06, 0.06), 901, 121)
    grad2 = graphs.intrinsic_gradient(g2)[1:-1, 1:-1]
    away = np.broadcast_to(np.abs(g2.ts[1:-1])[None, :] >= 3 * g2.dt,
                           grad2.shape)
    kink_err = float(np.abs(grad2[away]).max())
    assert kink_err <= 1e-6

    g3 = burgers.grid_from_function(lambda y, t: 0.5 * y + 0.05 * np.sin(4 * y),
                                    (-1, 1), (-1, 1), 81, 81)
    lhat = graphs.lipschitz_constant(
        graphs.all_graph_points(g3).reshape(-1, 3)[::5])
    bound_gap = float(np.abs(graphs.intrinsic_gradient(g3)).max()
                      - (lhat + 5 * np.sqrt(g3.dy) + 10 * g3.dy))
    assert bound_gap <= 0
    _report("05 intrinsic gradient", affine=affine_err, smooth=smooth_err,
            kinked=kink_err, bound_slack=-bound_gap)


def test_criterion_06_burgers_suite():
    spec = burgers.constant_spec(1.3, 0.4, (-1, 1), (-1, 1))
    g = burgers.solve_cg(spec, 41, 41)
    plane_err = float(np.abs(g.phi - (1.3 * g.ys[:, None] + 0.4)).max())
    assert plane_err <= 1e-12

    spec2 = burgers.linear_spec(0.0, 1.0, (-0.5, 0.5), (-0.3, 0.3))
    g2 = burgers.solve_cg(spec2, 81, 81)
    yy, tt = np.meshgrid(g2.ys, g2.ts, indexing="ij")
    hyper_err = float(np.abs(g2.phi - tt / (yy + 1.0)).max())
    assert hyper_err <= 1e-9

    residual = burgers.verify_along_characteristics(g2, spec2)
    assert residual <= 1e-8

    spec3 = burgers.linear_spec(0.0, -1.0, (-0.5, 1.5), (-0.3, 0.3))
    with pytest.raises(burgers.CrossingDetected) as err:
        burgers.solve_cg(spec3, 21, 21)
    assert abs(err.value.s_star - 1.0) <= 1e-12
    _report("06 burgers", plane=plane_err, hyperbolic=hyper_err,
            residual=residual, crossing_at=float(err.value.s_star))


@pytest.fixture(scope="module")
def plane_tree_acc():
    rng = np.random.default_rng(7)
    n = 500
    pts = np.column_stack([np.zeros(n), rng.uniform(-1, 1, n),
                           rng.uniform(-1, 1, n)])
    masses = np.ones(n)
    return cubes.build_cubes(pts, masses, j_min=-3, j_max=2), pts, masses


def test_criterion_07_cube_suite(plane_tree_acc):
    tree, pts, masses = plane_tree_acc
    inner_c = cubes.check_tree_invariants(tree)
    assert inner_c > 0

    total = masses.sum()
    for j in range(tree.j_min, tree.j_max + 1):
        level = sum(tree.mass[c] for c in tree.at_level(j))
        assert abs(level - total) <= 1e-12 * total

    rng = np.random.default_rng(77)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 50000:
        attempts += 1
        i1, i2 = rng.integers(0, len(pts), 2)
        if i1 == i2:
            continue
        d = float(core.dist(pts[i1], pts[i2]))
        if d < 2.0 ** (tree.j_min + 1) or d > 2.0 ** tree.j_max:
            continue
        j, c1, c2 = cubes.sibling_pair(tree, i1, i2)
        assert c1 != c2
        assert core.dist(tree.points[tree.samples(c2)],
                         tree.center(c1)).max() <= 4 * 2.0 ** j
        assert core.dist(tree.points[tree.samples(c1)],
                         tree.center(c2)).max() <= 4 * 2.0 ** j
        checked += 1
    assert checked == 1000
    _report("07 cubes", inner_ball_c=inner_c, sibling_pairs=checked)


def test_criterion_08_wgl_empirics():
    g = burgers.grid_from_function(lambda y, t: 0.5 * y, (-1, 1), (-1, 1),
                                   25, 25)
    ps = graphs.point_set(g)
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-3, j_max=2)
    cache = cubes.cube_beta_cache(tree)
    affine_rep = cubes.carleson_sum(tree, cache, [0.001, 0.01, 0.1, 0.5])
    assert all(k == 0 for k in affine_rep.sup_k)

    g2 = burgers.grid_from_function(
        lambda y, t: 0.5 * y + 0.05 * np.sin(4 * y), (-1, 1), (-1, 1), 41, 41)
    ps2 = graphs.point_set(g2)
    sup_at_01 = []
    sup_small = []
    for (jmin, jmax) in [(-4, 2), (-3, 3), (-2, 4)]:
        tr = cubes.build_cubes(ps2.points, ps2.masses, j_min=jmin, j_max=jmax)
        ca = cubes.cube_beta_cache(tr)
        rep = cubes.carleson_sum(tr, ca, [0.02, 0.05, 0.1, 0.2])
        for ks in rep.per_root.values():
            assert all(ks[i] >= ks[i + 1] - 1e-15 for i in range(len(ks) - 1))
        sup_at_01.append(rep.sup_k[2])
        sup_small.append(rep.sup_k[0])
    top = max(sup_at_01)
    assert all(np.isfinite(v) for v in sup_at_01)
    floor = 0.05
    assert max(sup_at_01) - min(sup_at_01) <= 0.2 * max(top, floor)
    _report("08 wgl empirics", sup_K_01=top, windows=len(sup_at_01),
            sup_K_002=max(sup_small))


def test_criterion_09_fluctuation_probe():
    g = burgers.grid_from_function(lambda y, t: 0.7 * y, (-1.2, 1.2),
                                   (-1.2, 1.2), 81, 81)
    ball = beta.Ball(np.zeros(3), 1.0)
    _, flat_gap = beta.gradient_fluctuation_probe(g, ball, 0.2)
    assert flat_gap <= 10 * g.dy

    g2 = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                    (-0.5, 0.5), (-0.5, 0.5), 101, 101)
    _, quiet_gap = beta.gradient_fluctuation_probe(
        g2, beta.Ball(np.zeros(3), 0.6), 0.2)
    assert quiet_gap <= 10 * g2.dy

    g3 = burgers.grid_from_function(lambda y, t: np.abs(y), (-1.2, 1.2),
                                    (-1.2, 1.2), 121, 121)
    best, kink_gap = beta.gradient_fluctuation_probe(
        g3, beta.Ball(np.zeros(3), 1.0), 0.1)
    assert kink_gap >= 0.5
    assert best is not None
    _report("09 fluctuation probe", affine=flat_gap, zero_gradient=quiet_gap,
            kink=kink_gap)


def test_criterion_10_partition_pipeline():
    ps = cli.build_scenario("two_patch_union", 0, None)[1]
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-3, j_max=5)
    cache = cubes.cube_beta_cache(tree)
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    assert len(tree.samples(root)) > 0.9 * len(ps.points)
    b = 0.4
    result = partition.graph_piece_partition(tree, root, cache, b=b, eps=0.05)
    assert len(result.piece_reports) >= 2
    sizes = sorted(len(r.indices) for r in result.piece_reports)
    assert sizes[-1] >= 20  # the split is not a pointwise shattering
    for rep in result.piece_reports:
        assert rep.graph_ok
        assert rep.aperture > 0
    raster_slack = 4 * result.cell ** 2
    assert result.uncovered_area <= b * result.root_mass + raster_slack

    # no flatness violators: the coding degenerates to a single piece
    g = burgers.grid_from_function(lambda y, t: 0.5 * y, (-1, 1), (-1, 1),
                                   21, 21)
    ps2 = graphs.point_set(g)
    tr2 = cubes.build_cubes(ps2.points, ps2.masses, j_min=-3, j_max=2)
    ca2 = cubes.cube_beta_cache(tr2)
    root2 = max(tr2.roots(), key=lambda c: tr2.mass[c])
    result2 = partition.graph_piece_partition(tr2, root2, ca2, b=0.2, eps=0.5)
    assert result2.flat_violators == []
    assert len(result2.piece_reports) == 1
    assert result2.piece_reports[0].code == ""
    _report("10 partition pipeline",
            pieces=len(result.piece_reports),
            min_aperture=min(r.aperture for r in result.piece_reports),
            uncovered=result.uncovered_area,
            budget=b * result.root_mass)


def test_criterion_11_measure_lemma():
    g = burgers.grid_from_function(lambda y, t: 0.4 * y, (-1.5, 1.5),
                                   (-1.5, 1.5), 61, 61)
    ps = graphs.point_set(g)
    rng = np.random.default_rng(11)
    chart = planes.project_chart(ps.points, W_YT)
    cell = 2.0 * partition.median_projected_spacing(chart)
    ratios = []
    for _ in range(12):
        center = ps.points[rng.integers(0, len(ps.points))]
        r = rng.uniform(0.3, 1.2)
        mask = core.dist(ps.points, center) <= r
        if mask.sum() < 10:
            continue
        area = partition.projection_area(chart[mask], cell)
        ratios.append(area / ps.masses[mask].sum())
    C = 1.25 * max(ratios)
    checked = 0
    for _ in range(400):
        if checked >= 100:
            break
        # regions thick relative to the raster cell, like the calibration
        if rng.uniform() < 0.5:
            center = ps.points[rng.integers(0, len(ps.points))]
            mask = core.dist(ps.points, center) <= rng.uniform(0.4, 1.3)
        else:
            lo_y, lo_t = rng.uniform(-1.5, 0.6), rng.uniform(-1.5, 0.6)
            hi_y = lo_y + rng.uniform(0.5, 1.2)
            hi_t = lo_t + rng.uniform(0.5, 1.2)
            mask = ((ps.points[:, 1] >= lo_y) & (ps.points[:, 1] <= hi_y)
                    & (ps.points[:, 2] >= lo_t) & (ps.points[:, 2] <= hi_t))
        if mask.sum() < 25:
            continue
        area = partition.projection_area(chart[mask], cell)
        assert area <= C * ps.masses[mask].sum()
        checked += 1
    assert checked == 100

    deltas = []
    for r in (0.5, 0.8, 1.1):
        center = graphs.graph_map(g, 30, 30)
        mask = core.dist(ps.points, center) <= r
        area = partition.projection_area(chart[mask], cell)
        deltas.append(area / r ** 3)
    assert min(deltas) > 0
    _report("11 measure lemma", C=C, regions=checked, bvp_delta=min(deltas))
