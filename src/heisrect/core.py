"""Heisenberg group arithmetic on R^3.

Points are numpy arrays [x, y, t] (or stacks of shape (..., 3)); the
horizontal part is z = x + iy, the vertical coordinate is t.  The group
law is

    (x, y, t) . (x', y', t') = (x + x', y + y', t + t' + (x y' - y x') / 2)

and all metric notions use the homogeneous norm max(|z|, sqrt(|t|)).
Every function is pure and broadcasts over leading axes.
"""

import math

import numpy as np

HPoint = np.ndarray  # shape (..., 3), coordinates [x, y, t]


def as_point(x, y=None, t=None) -> HPoint:
    """Build a point from three scalars, or pass an array through."""
    if y is None:
        p = np.asarray(x, dtype=float)
        if p.shape[-1] != 3:
            raise ValueError("point arrays must have 3 trailing coordinates")
        return p
    return np.array([x, y, t], dtype=float)


def identity() -> HPoint:
    return np.zeros(3)


def mul(p: HPoint, q: HPoint) -> HPoint:
    """Group product p . q."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = p[..., 0] + q[..., 0]
    out[..., 1] = p[..., 1] + q[..., 1]
    out[..., 2] = (p[..., 2] + q[..., 2]
                   + 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]))
    return out


def inv(p: HPoint) -> HPoint:
    """Group inverse; (-x, -y, -t) because the central term cancels."""
    return -np.asarray(p, float)


def norm(p: HPoint):
    """Homogeneous norm max(|z|, sqrt(|t|)); zero only at the identity."""
    p = np.asarray(p, float)
    return np.maximum(np.hypot(p[..., 0], p[..., 1]), np.sqrt(np.abs(p[..., 2])))


def dist(p: HPoint, q: HPoint):
    """Left-invariant metric d(p, q) = ||q^-1 . p||."""
    return norm(mul(inv(q), p))


def dist_error(points):
    """Bound on the rounding of dist between two of the points.

    The central term of mul rounds with absolute error at most
    eps * (2 max|t| + max|z|^2); its square root dominates the relative
    rounding of the horizontal part.  The bound scales with the data, so
    a distance or norm at most this large is zero up to rounding.
    """
    points = np.asarray(points, float).reshape(-1, 3)
    s = 2.0 * np.abs(points[:, 2]).max() + np.hypot(points[:, 0],
                                                    points[:, 1]).max() ** 2
    return 4.0 * math.sqrt(np.finfo(float).eps * float(s))


def dilate(r, p: HPoint) -> HPoint:
    """Anisotropic dilation (z, t) -> (r z, r^2 t); requires r > 0."""
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise ValueError("dilation factor must be positive")
    p = np.asarray(p, float)
    out = np.empty(np.broadcast_shapes(r.shape + (1,), p.shape))
    out[..., 0] = r * p[..., 0]
    out[..., 1] = r * p[..., 1]
    out[..., 2] = r * r * p[..., 2]
    return out


def rotate(theta, p: HPoint) -> HPoint:
    """Rotation (z, t) -> (e^{i theta} z, t) about the t-axis."""
    theta = np.asarray(theta, float)
    p = np.asarray(p, float)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(np.broadcast_shapes(theta.shape + (1,), p.shape))
    out[..., 0] = c * p[..., 0] - s * p[..., 1]
    out[..., 1] = s * p[..., 0] + c * p[..., 1]
    out[..., 2] = p[..., 2]
    return out


def normalize_angle(theta: float) -> float:
    """Reduce a direction angle to the canonical range [0, pi)."""
    out = float(theta) % np.pi
    if out >= np.pi:  # guards the th % pi == pi rounding corner
        out -= np.pi
    return out
