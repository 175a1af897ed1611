"""Truncated Taylor jets: forward-mode derivatives without finite differences.

Two flavors cover everything downstream:

* ``Jet1`` -- univariate, carries value and d/ds up to third order (seed
  curves need three derivatives, boundary curves two).
* ``Jet2`` -- bivariate in (x, y), carries value, gradient, and Hessian.

This module holds the only copy of the jet rules.  ``expr.deriv``
interprets them; ``expr.jet_kernel`` runs them once over symbolic
coefficients and records what they do as straight-line numpy code.

Coefficients may be Python floats, numpy arrays, or anything else that
takes numpy's ufuncs and ``zeros_like``/``ones_like``; all rules are plain
arithmetic, so grids evaluate in one vectorized pass.  Domain checking
(log of a nonpositive value etc.) is the caller's job -- see expr.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Jet1:
    f: object
    d1: object = 0.0
    d2: object = 0.0
    d3: object = 0.0

    @staticmethod
    def variable(value):
        return Jet1(value, _ones_like(value), _zeros_like(value), _zeros_like(value))

    @staticmethod
    def constant(value):
        return Jet1(value, _zeros_like(value), _zeros_like(value), _zeros_like(value))

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        o = _lift1(other)
        return Jet1(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __neg__(self):
        return Jet1(-self.f, -self.d1, -self.d2, -self.d3)

    def __sub__(self, other):
        o = _lift1(other)
        return Jet1(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __rsub__(self, other):
        return _lift1(other) - self

    def __mul__(self, other):
        o = _lift1(other)
        a0, a1, a2, a3 = self.f, self.d1, self.d2, self.d3
        b0, b1, b2, b3 = o.f, o.d1, o.d2, o.d3
        return Jet1(
            a0 * b0,
            a1 * b0 + a0 * b1,
            a2 * b0 + 2.0 * a1 * b1 + a0 * b2,
            a3 * b0 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + a0 * b3,
        )

    __rmul__ = __mul__

    def reciprocal(self):
        b0, b1, b2, b3 = self.f, self.d1, self.d2, self.d3
        inv = 1.0 / b0
        inv2 = inv * inv
        return Jet1(
            inv,
            -b1 * inv2,
            (2.0 * b1 * b1 - b0 * b2) * inv2 * inv,
            (-b3 * b0 * b0 + 6.0 * b0 * b1 * b2 - 6.0 * b1 * b1 * b1) * inv2 * inv2,
        )

    def __truediv__(self, other):
        return self * _lift1(other).reciprocal()

    def __rtruediv__(self, other):
        return _lift1(other) * self.reciprocal()

    def __pow__(self, c):
        return _power(self, c)

    # -- composition with an outer scalar function -----------------------
    def compose(self, g0, g1, g2, g3):
        """Faa di Bruno through order three for g applied to this jet."""
        u1, u2, u3 = self.d1, self.d2, self.d3
        return Jet1(
            g0,
            g1 * u1,
            g2 * u1 * u1 + g1 * u2,
            g3 * u1 * u1 * u1 + 3.0 * g2 * u1 * u2 + g1 * u3,
        )

    def sin(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self.compose(s, c, -s, -c)

    def cos(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self.compose(c, -s, -c, s)

    def tan(self):
        t = np.tan(self.f)
        sec2 = 1.0 + t * t
        return self.compose(t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))

    def exp(self):
        e = np.exp(self.f)
        return self.compose(e, e, e, e)

    def log(self):
        u = self.f
        return self.compose(np.log(u), 1.0 / u, -1.0 / (u * u), 2.0 / (u * u * u))

    def sqrt(self):
        r = np.sqrt(self.f)
        return self.compose(r, 0.5 / r, -0.25 / (r * self.f), 0.375 / (r * self.f * self.f))

    def atan(self):
        u = self.f
        d = 1.0 / (1.0 + u * u)
        return self.compose(np.arctan(u), d, -2.0 * u * d * d, (6.0 * u * u - 2.0) * d * d * d)

    def absval(self):
        # Derivative sign(f) away from zero; at exactly zero the reported
        # derivatives are zero (one-sided information is not representable).
        s = np.sign(self.f)
        z = _zeros_like(self.f)
        return self.compose(np.abs(self.f), s, z, z)

    def sgnval(self):
        z = _zeros_like(self.f)
        return Jet1(np.sign(self.f), z, z, z)


def atan2_jet1(y: Jet1, x: Jet1) -> Jet1:
    """Jet of atan2(y(s), x(s)); branch-independent, needs x^2 + y^2 > 0.

    Built from the quotient-rule expansion of theta' = (x y' - y x')/rho^2
    rather than atan of a ratio, so it is smooth across both axes.
    """
    u0, u1, u2, u3 = x.f, x.d1, x.d2, x.d3
    v0, v1, v2, v3 = y.f, y.d1, y.d2, y.d3
    c0 = u0 * v1 - v0 * u1
    c1 = u0 * v2 - v0 * u2
    c2 = u0 * v3 - v0 * u3 + u1 * v2 - v1 * u2
    r0 = u0 * u0 + v0 * v0
    r1 = 2.0 * (u0 * u1 + v0 * v1)
    r2 = 2.0 * (u1 * u1 + u0 * u2 + v1 * v1 + v0 * v2)
    inv = 1.0 / r0
    inv2 = inv * inv
    return Jet1(
        np.arctan2(v0, u0),
        c0 * inv,
        (c1 * r0 - c0 * r1) * inv2,
        c2 * inv - (2.0 * c1 * r1 + c0 * r2) * inv2 + 2.0 * c0 * r1 * r1 * inv2 * inv,
    )


@dataclass(frozen=True, slots=True)
class Jet2:
    f: object
    fx: object = 0.0
    fy: object = 0.0
    fxx: object = 0.0
    fxy: object = 0.0
    fyy: object = 0.0

    @staticmethod
    def variables(x, y):
        one, zero = _ones_like(x), _zeros_like(x)
        return (
            Jet2(x, one, zero, zero, zero, zero),
            Jet2(y, _zeros_like(y), _ones_like(y), zero, zero, zero),
        )

    @staticmethod
    def constant(value):
        z = _zeros_like(value)
        return Jet2(value, z, z, z, z, z)

    def __add__(self, other):
        o = _lift2(other)
        return Jet2(self.f + o.f, self.fx + o.fx, self.fy + o.fy,
                    self.fxx + o.fxx, self.fxy + o.fxy, self.fyy + o.fyy)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.f, -self.fx, -self.fy, -self.fxx, -self.fxy, -self.fyy)

    def __sub__(self, other):
        o = _lift2(other)
        return Jet2(self.f - o.f, self.fx - o.fx, self.fy - o.fy,
                    self.fxx - o.fxx, self.fxy - o.fxy, self.fyy - o.fyy)

    def __rsub__(self, other):
        return _lift2(other) - self

    def __mul__(self, other):
        o = _lift2(other)
        a, b = self, o
        return Jet2(
            a.f * b.f,
            a.fx * b.f + a.f * b.fx,
            a.fy * b.f + a.f * b.fy,
            a.fxx * b.f + 2.0 * a.fx * b.fx + a.f * b.fxx,
            a.fxy * b.f + a.fx * b.fy + a.fy * b.fx + a.f * b.fxy,
            a.fyy * b.f + 2.0 * a.fy * b.fy + a.f * b.fyy,
        )

    __rmul__ = __mul__

    def reciprocal(self):
        b = self.f
        inv = 1.0 / b
        inv2 = inv * inv
        inv3 = inv2 * inv
        return Jet2(
            inv,
            -self.fx * inv2,
            -self.fy * inv2,
            (2.0 * self.fx * self.fx - b * self.fxx) * inv3,
            (2.0 * self.fx * self.fy - b * self.fxy) * inv3,
            (2.0 * self.fy * self.fy - b * self.fyy) * inv3,
        )

    def __truediv__(self, other):
        return self * _lift2(other).reciprocal()

    def __rtruediv__(self, other):
        return _lift2(other) * self.reciprocal()

    def __pow__(self, c):
        return _power(self, c)

    def compose(self, g0, g1, g2):
        return Jet2(
            g0,
            g1 * self.fx,
            g1 * self.fy,
            g2 * self.fx * self.fx + g1 * self.fxx,
            g2 * self.fx * self.fy + g1 * self.fxy,
            g2 * self.fy * self.fy + g1 * self.fyy,
        )

    def sin(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self.compose(s, c, -s)

    def cos(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self.compose(c, -s, -c)

    def tan(self):
        t = np.tan(self.f)
        sec2 = 1.0 + t * t
        return self.compose(t, sec2, 2.0 * t * sec2)

    def exp(self):
        e = np.exp(self.f)
        return self.compose(e, e, e)

    def log(self):
        u = self.f
        return self.compose(np.log(u), 1.0 / u, -1.0 / (u * u))

    def sqrt(self):
        r = np.sqrt(self.f)
        return self.compose(r, 0.5 / r, -0.25 / (r * self.f))

    def atan(self):
        u = self.f
        d = 1.0 / (1.0 + u * u)
        return self.compose(np.arctan(u), d, -2.0 * u * d * d)

    def absval(self):
        s = np.sign(self.f)
        z = _zeros_like(self.f)
        return self.compose(np.abs(self.f), s, z)

    def sgnval(self):
        z = _zeros_like(self.f)
        return Jet2(np.sign(self.f), z, z, z, z, z)


def atan2_jet2(y: Jet2, x: Jet2) -> Jet2:
    """Jet of atan2(y(x1,x2), x(x1,x2)); smooth wherever x^2 + y^2 > 0."""
    u, v = x, y
    rho2 = u.f * u.f + v.f * v.f
    inv = 1.0 / rho2
    # N_a = u v_a - v u_a, theta_a = N_a / rho^2
    nx = u.f * v.fx - v.f * u.fx
    ny = u.f * v.fy - v.f * u.fy
    rx = 2.0 * (u.f * u.fx + v.f * v.fx)
    ry = 2.0 * (u.f * u.fy + v.f * v.fy)
    nxx = u.fx * v.fx + u.f * v.fxx - v.fx * u.fx - v.f * u.fxx
    nxy = u.fy * v.fx + u.f * v.fxy - v.fy * u.fx - v.f * u.fxy
    nyy = u.fy * v.fy + u.f * v.fyy - v.fy * u.fy - v.f * u.fyy
    inv2 = inv * inv
    return Jet2(
        np.arctan2(v.f, u.f),
        nx * inv,
        ny * inv,
        nxx * inv - nx * rx * inv2,
        nxy * inv - nx * ry * inv2,
        nyy * inv - ny * ry * inv2,
    )


def _power(jet, c):
    """jet ** c for a constant exponent; exact products for integer c."""
    if isinstance(c, (Jet1, Jet2)):
        raise TypeError("exponent must be a constant, not a jet")
    cf = float(c)
    if cf == int(cf) and abs(cf) <= 128:
        n = int(cf)
        if n == 0:
            return type(jet).constant(_ones_like(jet.f))
        inverted = n < 0
        n = abs(n)
        out = jet
        for _ in range(n - 1):
            out = out * jet
        return out.reciprocal() if inverted else out
    u = jet.f
    g0 = np.power(u, cf)
    g1 = cf * np.power(u, cf - 1.0)
    g2 = cf * (cf - 1.0) * np.power(u, cf - 2.0)
    if isinstance(jet, Jet1):
        g3 = cf * (cf - 1.0) * (cf - 2.0) * np.power(u, cf - 3.0)
        return jet.compose(g0, g1, g2, g3)
    return jet.compose(g0, g1, g2)


def _lift1(v):
    return v if isinstance(v, Jet1) else Jet1.constant(v)


def _lift2(v):
    return v if isinstance(v, Jet2) else Jet2.constant(v)


def _zeros_like(v):
    return 0.0 if isinstance(v, (float, int, np.generic)) else np.zeros_like(v)


def _ones_like(v):
    return 1.0 if isinstance(v, (float, int, np.generic)) else np.ones_like(v)
