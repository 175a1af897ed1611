"""Coordinate model of the first Heisenberg group.

Points live in exponential coordinates (x, y, t) with the polarized group
law; the left-invariant horizontal frame is

    X1 = d/dx - (y/2) d/dt,   X2 = d/dy + (x/2) d/dt,   T = d/dt.

Everything here is plain arithmetic on the coordinates, componentwise over
numpy arrays when arrays are passed in.
"""
from __future__ import annotations

from typing import NamedTuple

# Group identities hold to this tolerance for coordinate magnitudes <= 10.
GROUP_TOL = 1e-12
HORIZONTAL_TOL = 1e-12


class HPoint(NamedTuple):
    x: float
    y: float
    t: float


class FrameVector(NamedTuple):
    """Tangent vector decomposed in the frame {X1, X2, T} at ``base``."""

    a: float
    b: float
    w: float
    base: HPoint


def as_point(p) -> HPoint:
    if isinstance(p, HPoint):
        return p
    x, y, t = p
    return HPoint(x, y, t)


def mul(g, h) -> HPoint:
    """Group product: (a,b,c)(x,y,t) = (a+x, b+y, c+t+(a*y-x*b)/2)."""
    g = as_point(g)
    h = as_point(h)
    return HPoint(g.x + h.x, g.y + h.y, g.t + h.t + 0.5 * (g.x * h.y - h.x * g.y))


def inv(g) -> HPoint:
    """Group inverse; the central correction cancels, so it is plain negation."""
    g = as_point(g)
    return HPoint(-g.x, -g.y, -g.t)


def dilate(s: float, g) -> HPoint:
    """Anisotropic dilation (sx, sy, s^2 t); s must be positive."""
    if not s > 0:
        raise ValueError(f"dilation factor must be positive, got {s}")
    g = as_point(g)
    return HPoint(s * g.x, s * g.y, s * s * g.t)


def frame_decompose(base, v) -> FrameVector:
    """Write a coordinate velocity (dx, dy, dt) at ``base`` in the frame.

    a = dx, b = dy, and the T-coefficient is w = dt + (y/2) dx - (x/2) dy.
    The velocity is horizontal exactly when w = 0.
    """
    base = as_point(base)
    dx, dy, dt = v
    w = dt + 0.5 * base.y * dx - 0.5 * base.x * dy
    return FrameVector(dx, dy, w, base)


def frame_reconstruct(fv: FrameVector):
    """Inverse of frame_decompose: coordinate velocity of a*X1 + b*X2 + w*T."""
    dt = fv.w - 0.5 * fv.base.y * fv.a + 0.5 * fv.base.x * fv.b
    return (fv.a, fv.b, dt)

def is_horizontal(fv: FrameVector, tol: float = HORIZONTAL_TOL) -> bool:
    return abs(fv.w) <= tol


def perp(v):
    """Planar perp (a, b) -> (b, -a). perp(perp(v)) = -v and perp(v).v = 0."""
    a, b = v
    return (b, -a)


IDENTITY = HPoint(0.0, 0.0, 0.0)
