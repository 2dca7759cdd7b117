import numpy as np
import pytest
from hypothesis import given, strategies as st

from heisrect import core, planes

RNG = np.random.default_rng(23)
W_YT = planes.subgroup_y_t()

coord = st.floats(-10, 10, allow_nan=False)
angle = st.floats(0, np.pi, exclude_max=True, allow_nan=False)


@given(coord, coord, coord, angle)
def test_split_recomposes_everywhere(x, y, t, theta):
    sub = planes.VerticalSubgroup(theta)
    p = core.as_point(x, y, t)
    pw, pv = planes.split(p, sub)
    assert np.abs(core.mul(pw, pv) - p).max() <= 1e-10
    assert planes.dist_to_plane(pw, planes.VerticalPlane(sub, 0.0)) <= 1e-9
    assert abs(pv[2]) <= 1e-12 and abs(pv[:2] @ sub.direction) <= 1e-9


@given(coord, coord, angle)
def test_project_chart_inverts_plane_coords(a, t, theta):
    sub = planes.VerticalSubgroup(theta)
    at = np.array([a, t])
    back = planes.project_chart(planes.from_plane_coords(at, sub), sub)
    assert np.abs(back - at).max() <= 1e-12


@given(coord, coord, coord, angle)
def test_project_chart_factors_through_project_w(x, y, t, theta):
    sub = planes.VerticalSubgroup(theta)
    p = core.as_point(x, y, t)
    direct = planes.project_chart(p, sub)
    via_w = planes.project_chart(planes.project_w(p, sub), sub)
    assert np.abs(direct - via_w).max() <= 1e-12


def brute_dist_to_plane(p, plane, v_range=3.0, nv=241, nt=2401):
    """Oracle: minimize d(p, q) over a dense grid of plane points."""
    sub = plane.subgroup
    u = sub.direction
    n = sub.normal
    base = plane.offset * n
    # center the search window on the nearest fiber data
    v_hat = (np.asarray(p[:2]) - base) @ u
    vs = np.linspace(v_hat - v_range, v_hat + v_range, nv)
    zs = base[None, :] + vs[:, None] * u[None, :]
    # pick the t window from the vertical coordinate of candidate points
    q0 = np.column_stack([zs, np.zeros(nv)])
    t_center = np.median(core.mul(core.inv(q0), np.asarray(p, float))[:, 2])
    ts = np.linspace(-abs(t_center) - 3.0, abs(t_center) + 3.0, nt)
    best = np.inf
    for t in ts:
        q = np.column_stack([zs, np.full(nv, t)])
        best = min(best, core.dist(np.asarray(p, float), q).min())
    return best


def test_split_example():
    pw, pv = planes.split(core.as_point(1, 2, 3), W_YT)
    assert np.allclose(pw, [0, 2, 4])
    assert np.allclose(pv, [1, 0, 0])
    assert np.allclose(core.mul(pw, pv), [1, 2, 3])


def test_split_fixes_subgroup_and_annihilates_complement():
    w = core.as_point(0, 1.5, -2.0)
    pw, pv = planes.split(w, W_YT)
    assert np.allclose(pw, w) and np.allclose(pv, 0)
    v = core.as_point(0.7, 0, 0)
    pw, pv = planes.split(v, W_YT)
    assert np.allclose(pw, 0) and np.allclose(pv, v)


def test_recomposition_random():
    p = RNG.uniform(-10, 10, (5000, 3))
    th = RNG.uniform(0, np.pi, 5000)
    for theta in np.unique(np.round(th, 1))[:12]:
        sub = planes.VerticalSubgroup(theta)
        pw, pv = planes.split(p, sub)
        assert np.abs(core.mul(pw, pv) - p).max() <= 1e-10


def test_split_idempotent():
    p = RNG.uniform(-5, 5, (100, 3))
    sub = planes.VerticalSubgroup(0.7)
    pw, pv = planes.split(p, sub)
    assert np.abs(planes.project_w(pw, sub) - pw).max() <= 1e-12
    assert np.abs(planes.project_v(pv, sub) - pv).max() <= 1e-12


def test_rotation_equivariance():
    p = RNG.uniform(-5, 5, (200, 3))
    for theta in (0.3, 1.1):
        sub = planes.VerticalSubgroup(np.pi / 2)
        rot_sub = planes.VerticalSubgroup(np.pi / 2 + theta)
        lhs = planes.project_w(core.rotate(theta, p), rot_sub)
        rhs = core.rotate(theta, planes.project_w(p, sub))
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_dist_to_plane_examples():
    plane = planes.VerticalPlane(W_YT, 0.0)
    assert planes.dist_to_plane(core.as_point(3, 5, 7), plane) == 3
    w = core.as_point(0, 2, 5)
    assert planes.dist_to_plane(w, plane) == 0
    for theta in (0.0, 0.4, 1.3, 2.2):
        p0 = planes.VerticalPlane(planes.VerticalSubgroup(theta), 0.0)
        assert planes.dist_to_plane(core.as_point(0, 0, 9), p0) == 0


def test_dist_to_plane_brute_force_oracle():
    for _ in range(12):
        p = RNG.uniform(-2, 2, 3)
        plane = planes.VerticalPlane(
            planes.VerticalSubgroup(RNG.uniform(0, np.pi)),
            RNG.uniform(-1.5, 1.5))
        closed = planes.dist_to_plane(p, plane)
        brute = brute_dist_to_plane(p, plane)
        step = 2 * 3.0 / 240
        assert brute >= closed - 1e-12
        assert abs(brute - closed) <= 2 * step


def test_midpoint_change_bound():
    # two-sided plane distances are controlled by any single reference plane
    pts = RNG.uniform(-1, 1, (60, 3))
    r = 2.0
    for theta in (0.2, 1.0, 2.5):
        sub = planes.VerticalSubgroup(theta)
        ref = planes.plane_through(RNG.uniform(-1, 1, 3), sub)
        sup_ref = planes.dist_to_plane(pts, ref).max() / r
        worst = 0.0
        for y in pts:
            through_y = planes.plane_through(y, sub)
            worst = max(worst, planes.dist_to_plane(pts, through_y).max() / r)
        assert worst <= 2 * sup_ref + 1e-12


def test_cone_examples():
    cone = planes.ConeSpec(W_YT, 0.5)
    x = core.as_point(0.4, -0.7, 0.2)
    assert planes.in_cone(x, x, cone)
    p = core.as_point(1, 0.1, 0)
    alpha_star = np.sqrt(0.05)
    assert planes.in_cone(core.identity(), p, planes.ConeSpec(W_YT, alpha_star + 1e-9))
    assert not planes.in_cone(core.identity(), p, planes.ConeSpec(W_YT, alpha_star - 1e-3))
    assert planes.in_cone(core.identity(), core.as_point(1, 0, 0),
                          planes.ConeSpec(W_YT, 1e-6))


def test_shear_identity_and_inverse():
    w = core.as_point(0, 1.3, -0.4)
    assert np.allclose(planes.shear(core.identity(), w, W_YT), w)
    for _ in range(20):
        p = RNG.uniform(-3, 3, 3)
        w = planes.from_plane_coords(RNG.uniform(-3, 3, 2), W_YT)
        back = planes.shear(core.inv(p), planes.shear(p, w, W_YT), W_YT)
        assert np.abs(back - w).max() <= 1e-10


def test_shear_rejects_off_plane_points():
    with pytest.raises(ValueError):
        planes.shear(core.as_point(1, 0, 0), core.as_point(0.5, 1, 0), W_YT)


def test_shear_unit_jacobian():
    h = 1e-5
    for _ in range(20):
        p = RNG.uniform(-3, 3, 3)
        at = RNG.uniform(-2, 2, 2)

        def chart_shear(ab):
            w = planes.from_plane_coords(ab, W_YT)
            return planes.project_chart(planes.shear(p, w, W_YT), W_YT)

        j = np.empty((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            j[:, k] = (chart_shear(at + e) - chart_shear(at - e)) / (2 * h)
        assert abs(np.linalg.det(j) - 1) <= 1e-8


def brute_dist_to_fiber(p, w, sub, s_range=8.0, ns=160001):
    ss = np.linspace(-s_range, s_range, ns)
    fiber = core.mul(np.asarray(w, float),
                     np.column_stack([ss[:, None] * sub.normal, np.zeros(ns)]))
    return core.dist(np.asarray(p, float), fiber).min()


def test_dist_to_fiber_matches_brute_force():
    for _ in range(25):
        p = RNG.uniform(-2, 2, 3)
        w = planes.from_plane_coords(RNG.uniform(-2, 2, 2), W_YT)
        exact = planes.dist_to_fiber(p, w, W_YT)
        brute = brute_dist_to_fiber(p, w, W_YT)
        assert brute >= exact - 1e-9
        assert abs(exact - brute) <= 1e-3
