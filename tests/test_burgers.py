import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisrect import burgers, graphs

RNG = np.random.default_rng(41)


def bisect_solve_cg(spec, ny, nt, tol=1e-12):
    """Oracle: the source t of each node by bisection on
    t + y g(t) = tau - (c/2) y^2 until the bracket is below tol."""
    if ny < 3 or nt < 3:
        raise ValueError("need at least a 3x3 output grid")
    burgers._check_injective(spec)
    ys = np.linspace(spec.y_range[0], spec.y_range[1], ny)
    taus = np.linspace(spec.t_range[0], spec.t_range[1], nt)
    t_min, t_max = spec.g_t[0], spec.g_t[-1]
    ycol = ys[:, None]
    rhs = taus[None, :] - 0.5 * spec.c * ycol ** 2
    low_end = t_min + ys * float(spec.g(t_min))
    high_end = t_max + ys * float(spec.g(t_max))
    bad = (low_end > rhs.min(axis=1) + tol) | (high_end < rhs.max(axis=1) - tol)
    if bad.any():
        raise ValueError("g knots do not cover the characteristic sources "
                         f"at y={ys[bad][0]}")
    lo = np.full_like(rhs, t_min)
    hi = np.full_like(rhs, t_max)
    for _ in range(64):
        if hi.max() - lo.min() < tol and np.all(hi - lo < tol):
            break
        mid = 0.5 * (lo + hi)
        high = mid + ycol * spec.g(mid) > rhs
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return spec.c * ycol + spec.g(0.5 * (lo + hi))


@st.composite
def cg_specs(draw):
    """Specs of 2-9 knots and |c| <= 1 with grids of at most 21x21;
    some cross or leave the knots' reach."""
    k = draw(st.integers(2, 9))
    gaps = draw(st.lists(st.floats(0.1, 6.0), min_size=k - 1,
                         max_size=k - 1))
    g_t = draw(st.floats(-6.0, -1.5)) + np.concatenate([[0.0],
                                                        np.cumsum(gaps)])
    g_v = draw(st.lists(st.floats(-1.5, 1.5), min_size=k, max_size=k))
    y0, t0 = draw(st.floats(-1.0, 0.5)), draw(st.floats(-1.0, 0.5))
    spec = burgers.CGSpec(draw(st.floats(-1.0, 1.0)), g_t, g_v,
                          (y0, y0 + draw(st.floats(0.01, 1.0))),
                          (t0, t0 + draw(st.floats(0.01, 1.0))))
    return spec, draw(st.integers(3, 21)), draw(st.integers(3, 21))


def edge_spec(excess):
    """Two flat knots whose reach ends `excess` below the window's end."""
    return burgers.CGSpec(0.0, [-1.0, 1.0], [0.0, 0.0], (-0.5, 0.5),
                          (0.0, 1.0 + excess))


@settings(deadline=None, max_examples=60)
@given(cg_specs())
@example((edge_spec(1e-13), 5, 5))
@example((edge_spec(1e-11), 5, 5))
def test_closed_form_matches_bisection(case):
    """The closed-form solve raises what the bisection raises, or agrees
    with it within the bisection's stopping error: a 1e-12 bracket in t
    moves g by at most its Lipschitz constant times 1e-12.  The two
    examples sit either side of the 1e-12 coverage slack."""
    spec, ny, nt = case
    try:
        want = bisect_solve_cg(spec, ny, nt)
    except (burgers.CrossingDetected, ValueError) as err:
        with pytest.raises(type(err)) as got:
            burgers.solve_cg(spec, ny, nt)
        assert got.value.args == err.args
        return
    phi = burgers.solve_cg(spec, ny, nt).phi
    bound = spec.g_lipschitz() * 1e-12 + 1e-15 * (1 + np.abs(want))
    assert np.all(np.abs(phi - want) <= bound)


def test_constant_trace_gives_plane():
    spec = burgers.constant_spec(1.7, -0.4, (-1, 1), (-1, 1))
    g = burgers.solve_cg(spec, 41, 41)
    yy = g.ys[:, None]
    assert np.abs(g.phi - (1.7 * yy - 0.4)).max() <= 1e-12


def test_linear_trace_reproduces_hyperbolic_solution():
    spec = burgers.linear_spec(0.0, 1.0, (-0.5, 0.5), (-0.3, 0.3))
    g = burgers.solve_cg(spec, 81, 81)
    yy, tt = np.meshgrid(g.ys, g.ts, indexing="ij")
    assert np.abs(g.phi - tt / (yy + 1.0)).max() <= 1e-9


def test_focusing_trace_detects_crossing():
    spec = burgers.linear_spec(0.0, -1.0, (-0.5, 1.5), (-0.3, 0.3))
    with pytest.raises(burgers.CrossingDetected) as err:
        burgers.solve_cg(spec, 21, 21)
    assert abs(err.value.s_star - 1.0) <= 1e-12


def test_fan_reports_crossing_parameter():
    spec = burgers.linear_spec(0.0, -1.0, (-0.5, 1.5), (-0.3, 0.3))
    fan = burgers.characteristic_fan(spec)
    assert fan.crossing is not None
    assert abs(fan.crossing[0] - 1.0) <= 1e-12
    ts = [c[0] for c in fan.curves]
    assert ts == sorted(ts)


def test_solver_output_satisfies_pde():
    spec = burgers.CGSpec(0.5, np.linspace(-4, 4, 9),
                          0.3 * np.sin(np.linspace(-4, 4, 9)),
                          (-0.4, 0.4), (-0.4, 0.4))
    g = burgers.solve_cg(spec, 161, 161)
    grad = graphs.intrinsic_gradient(g)[2:-2, 2:-2]
    assert np.abs(grad - 0.5).max() <= 0.05


def test_residual_self_consistency():
    spec = burgers.linear_spec(0.0, 1.0, (-0.5, 0.5), (-0.3, 0.3))
    g = burgers.solve_cg(spec, 81, 81)
    assert burgers.verify_along_characteristics(g, spec) <= 1e-8


def test_residual_affine_exact():
    spec = burgers.constant_spec(2.0, 0.5, (-1, 1), (-1, 1))
    g = burgers.grid_from_function(lambda y, t: 2.0 * y + 0.5,
                                   (-1, 1), (-1, 1), 41, 41)
    assert burgers.verify_along_characteristics(g, spec) <= 1e-12


def test_residual_flags_mismatch():
    g = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                   (-0.5, 0.5), (-0.3, 0.3), 41, 41)
    spec = burgers.linear_spec(1.0, 1.0, (-0.5, 0.5), (-0.3, 0.3))
    assert burgers.verify_along_characteristics(g, spec) >= 0.1


def test_plane_fit_affine():
    g = burgers.grid_from_function(lambda y, t: 3.0 * y - 1.0,
                                   (-1, 1), (-1, 1), 41, 41)
    c, d, resid = burgers.entire_cg_plane_fit(g)
    assert abs(c - 3.0) <= 1e-10
    assert abs(d + 1.0) <= 1e-10
    assert resid <= 1e-12


def test_plane_fit_of_solver_output():
    spec = burgers.constant_spec(0.8, 0.1, (-1, 1), (-1, 1))
    g = burgers.solve_cg(spec, 41, 41)
    _, _, resid = burgers.entire_cg_plane_fit(g)
    assert resid <= 1e-9


def test_plane_fit_hyperbolic_is_cg_but_not_planar():
    g = burgers.grid_from_function(burgers.zero_gradient_smooth,
                                   (-0.5, 0.5), (-0.5, 0.5), 101, 101)
    c, d, resid = burgers.entire_cg_plane_fit(g, spread_tol=0.01)
    assert resid >= 0.05  # a locally constant-gradient graph need not be a plane


def test_plane_fit_rejects_varying_gradient():
    g = burgers.grid_from_function(lambda y, t: np.abs(y),
                                   (-1, 1), (-1, 1), 41, 41)
    with pytest.raises(burgers.NotConstantGradient):
        burgers.entire_cg_plane_fit(g)


def test_kinked_example_reassembled_from_two_solves():
    # upper branch: trace g(t) = t; lower branch: trace g(t) = -t
    upper = burgers.CGSpec(0.0, [0.0, 2.0], [0.0, 2.0], (-0.5, 0.5), (0.0, 0.4))
    g_up = burgers.solve_cg(upper, 41, 41)
    yy, tt = np.meshgrid(g_up.ys, g_up.ts, indexing="ij")
    assert np.abs(g_up.phi - burgers.zero_gradient_kinked(yy, tt)).max() <= 1e-9
    lower = burgers.CGSpec(0.0, [-2.0, 0.0], [2.0, 0.0], (-0.5, 0.5), (-0.4, 0.0))
    g_lo = burgers.solve_cg(lower, 41, 41)
    yl, tl = np.meshgrid(g_lo.ys, g_lo.ts, indexing="ij")
    # t = 0 nodes belong to the upper branch; compare strictly below it
    below = tl < 0
    assert np.abs((g_lo.phi - burgers.zero_gradient_kinked(yl, tl))[below]).max() <= 1e-9
    # the two solves agree on the shared t = 0 row
    assert np.abs(g_lo.phi[:, -1] - g_up.phi[:, 0]).max() <= 1e-9


def test_make_admissible_affine_candidate():
    spec = burgers.constant_spec(0.5, 0.0, (-1, 1), (-1, 1), pad=30.0)
    ball = (np.array([0.0, 0.0, 0.0]), 1.0)
    cand = burgers.make_admissible(spec, ball)
    yy = cand.ys[:, None]
    assert np.abs(cand.phi - 0.5 * yy).max() <= 1e-10
    assert cand.lipschitz_estimate < 2.0


def test_make_admissible_zero_gradient_candidate():
    knots = np.linspace(-8, 8, 5)
    spec = burgers.CGSpec(0.0, knots, np.interp(knots, [-8, 8], [-8, 8]),
                          (-0.4, 0.4), (-0.4, 0.4))
    ball = (np.array([0.0, 0.0, 0.0]), 0.5)
    cand = burgers.make_admissible(spec, ball)
    yy, tt = np.meshgrid(cand.ys, cand.ts, indexing="ij")
    # the exact solution of this trace has gradient identically zero
    assert np.abs(cand.phi - tt / (yy + 1.0)).max() <= 1e-9
    grad = graphs.intrinsic_gradient(cand)[2:-2, 2:-2]
    assert np.abs(grad).max() <= 10 * cand.dy ** 2 * 6  # FD resolution floor


def test_make_admissible_rejects_steep_candidates():
    knots = np.linspace(-40, 40, 7)
    vals = 30 * np.sign(np.sin(3 * knots))
    spec = burgers.CGSpec(0.0, knots, vals, (-0.4, 0.4), (-0.4, 0.4))
    ball = (np.array([0.0, 0.0, 0.0]), 0.5)
    try:
        burgers.make_admissible(spec, ball, lipschitz_cap=1.0)
    except burgers.CrossingDetected:
        pass  # steep zig-zag traces may shock before the cap trips
    except ValueError as err:
        assert getattr(err, "lipschitz_estimate", 2.0) > 1.0
    else:
        pytest.fail("steep candidate was not rejected")


def test_coverage_failure_raises():
    spec = burgers.CGSpec(0.0, [-0.1, 0.1], [0.0, 0.0], (-1, 1), (-1, 1))
    with pytest.raises(ValueError):
        burgers.solve_cg(spec, 21, 21)
