"""Vertical subgroups, the splitting p = p_W . p_V, cones and shears.

A vertical subgroup W is the plane V x R where V is the horizontal line
at angle theta from the positive x-axis; the complementary horizontal
subgroup is V-perp x {0}.  Cosets z . W are encoded canonically by
(theta, offset) with offset = <z_H, n> for the unit normal
n = (-sin theta, cos theta) of V.
"""

from dataclasses import dataclass

import numpy as np

from . import core


def _snap(v, eps=1e-15):
    """Zero out rounding dust so the canonical axes are exact."""
    v[np.abs(v) < eps] = 0.0
    return v


@dataclass(frozen=True)
class VerticalSubgroup:
    """W = V x R with V the line at angle theta; theta canonical in [0, pi)."""

    theta: float = np.pi / 2

    def __post_init__(self):
        object.__setattr__(self, "theta", core.normalize_angle(self.theta))

    @property
    def direction(self):
        """Unit vector spanning V in the horizontal plane."""
        return _snap(np.array([np.cos(self.theta), np.sin(self.theta)]))

    @property
    def normal(self):
        """Unit vector spanning V-perp in the horizontal plane."""
        return _snap(np.array([-np.sin(self.theta), np.cos(self.theta)]))


def subgroup_y_t() -> VerticalSubgroup:
    """The (y, t)-plane {x = 0}, the default chart for graphs."""
    return VerticalSubgroup(np.pi / 2)


@dataclass(frozen=True)
class VerticalPlane:
    """Coset z . W as {p : <p_H, n_theta> = offset}."""

    subgroup: VerticalSubgroup
    offset: float


def plane_through(z, subgroup: VerticalSubgroup) -> VerticalPlane:
    """Canonical (theta, offset) encoding of the coset z . W."""
    z = core.as_point(z)
    return VerticalPlane(subgroup, float(z[..., :2] @ subgroup.normal))


@dataclass(frozen=True)
class ConeSpec:
    """Cone {p : ||p_W|| <= alpha ||p_V||} around the V-direction."""

    subgroup: VerticalSubgroup
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("cone aperture must be positive")


def split(p, subgroup: VerticalSubgroup):
    """Unique factorization p = p_W . p_V.

    With a = <z, u> and b = <z, n> (u spanning V, n spanning V-perp),
    the symplectic correction is omega(pi_V z, pi_Vperp z) = a b / 4, so

        p_W = (a u, t - a b / 2),   p_V = (b n, 0).

    Returns (p_W, p_V) broadcast over leading axes of p.
    """
    p = np.asarray(p, float)
    u = subgroup.direction
    n = subgroup.normal
    a = p[..., 0] * u[0] + p[..., 1] * u[1]
    b = p[..., 0] * n[0] + p[..., 1] * n[1]
    pw = np.empty(p.shape)
    pw[..., 0] = a * u[0]
    pw[..., 1] = a * u[1]
    pw[..., 2] = p[..., 2] - 0.5 * a * b
    pv = np.zeros(p.shape)
    pv[..., 0] = b * n[0]
    pv[..., 1] = b * n[1]
    return pw, pv


def project_w(p, subgroup: VerticalSubgroup):
    return split(p, subgroup)[0]


def project_v(p, subgroup: VerticalSubgroup):
    return split(p, subgroup)[1]


def dist_to_plane(p, plane: VerticalPlane):
    """Metric distance to the coset, inf over q in z . W of d(p, q).

    Closed form |<p_H, n> - offset|: the t-component of q^-1 . p is
    affine with unit slope in the free vertical parameter of q and can
    always be zeroed, leaving the Euclidean offset of the horizontal
    parts.  Validated against brute-force minimization in the tests.
    """
    p = np.asarray(p, float)
    n = plane.subgroup.normal
    return np.abs(p[..., 0] * n[0] + p[..., 1] * n[1] - plane.offset)


def in_cone(base, p, cone: ConeSpec) -> bool:
    """True iff p lies in the cone translated to base."""
    d = core.mul(core.inv(core.as_point(base)), core.as_point(p))
    dw, dv = split(d, cone.subgroup)
    return bool(np.all(core.norm(dw) <= cone.alpha * core.norm(dv)))


def shear(p, w, subgroup: VerticalSubgroup):
    """The map P_p(w) = pi_W(p . w) on W; unit Jacobian, inverse P_{p^-1}."""
    w = np.asarray(w, float)
    off = dist_to_plane(w, VerticalPlane(subgroup, 0.0))
    if not np.all(off <= 1e-12 + 1e-9 * off):
        raise ValueError("shear argument must lie on the subgroup")
    return project_w(core.mul(core.as_point(p), w), subgroup)


def project_chart(p, subgroup: VerticalSubgroup):
    """pi_W in the (a, t) chart of W: p -> (a, t - a b / 2), a along V.

    Equals the W-coordinates of split(p)[0]; inverse of from_plane_coords
    on W.  At subgroup_y_t() this is (x, y, t) -> (y, t + x y / 2), the
    inverse of the graph lift in graphs.graph_points.
    """
    p = np.asarray(p, float)
    u = subgroup.direction
    n = subgroup.normal
    a = p[..., 0] * u[0] + p[..., 1] * u[1]
    b = p[..., 0] * n[0] + p[..., 1] * n[1]
    return np.stack([a, p[..., 2] - 0.5 * a * b], axis=-1)


def from_plane_coords(at, subgroup: VerticalSubgroup):
    at = np.asarray(at, float)
    u = subgroup.direction
    out = np.empty(at.shape[:-1] + (3,))
    out[..., 0] = at[..., 0] * u[0]
    out[..., 1] = at[..., 0] * u[1]
    out[..., 2] = at[..., 1]
    return out


def dist_to_fiber(p, w, subgroup: VerticalSubgroup):
    """Distance from p to the horizontal fiber w . (V-perp x {0}).

    Reduces to min over s of max(hypot(a - s, b), sqrt(|c + s b / 2|))
    with a, b the fiber/transverse horizontal coordinates of w^-1 . p
    and c its vertical coordinate.  The minimum sits at a minimizer of
    one branch or at a branch crossing, all of which solve quadratics;
    every candidate is evaluated and the best kept.
    """
    p = np.asarray(p, float)
    w = np.asarray(w, float)
    u = core.mul(core.inv(w), np.broadcast_to(p, w.shape))
    n = subgroup.normal
    dvec = subgroup.direction
    # express the horizontal part in (fiber direction, transverse) coords
    a = u[..., 0] * n[0] + u[..., 1] * n[1]
    b = u[..., 0] * dvec[0] + u[..., 1] * dvec[1]
    c = u[..., 2]

    def value(s):
        return np.maximum(np.hypot(a - s, b), np.sqrt(np.abs(c + 0.5 * s * b)))

    best = value(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.where(b != 0, -2.0 * c / np.where(b != 0, b, 1.0), a)
    best = np.minimum(best, value(s0))
    # crossings hypot(a-s,b)^2 = +-(c + s b / 2), quadratics in s
    for sign in (1.0, -1.0):
        B = -0.5 * sign * b - 2.0 * a
        C = a * a + b * b - sign * c
        disc = B * B - 4.0 * C
        ok = disc >= 0
        root = np.sqrt(np.where(ok, disc, 0.0))
        for r in ((-B + root) / 2.0, (-B - root) / 2.0):
            best = np.minimum(best, np.where(ok, value(r), np.inf))
    return best
