"""Closed forms the benchmark checks the program against.

Everything here is plain numpy (and scipy root bracketing) on formulas
written out by hand; nothing calls ``heisminimal.expr`` or
``heisminimal.dual``, so a fault in the program's own evaluation cannot
make a check agree with it.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi


class Curve:
    """Closed curve c(theta) with its first derivative, as numpy callables.

    ``exprs`` are the same components written in the program's
    expression language, so a config and its closed form cannot drift.
    """

    def __init__(self, exprs, c, dc, *, planar=False):
        self.exprs = list(exprs)
        self.c = c
        self.dc = dc
        self.planar = planar

    def config(self, **extra):
        cfg = {"curve": {"c": self.exprs, "period": TWO_PI}}
        cfg.update(extra)
        return cfg

    def defect(self, th):
        """w = c3' + (c2 c1' - c1 c2') / 2; zero where the tangent is horizontal."""
        c1, c2, _ = self.c(th)
        d1, d2, d3 = self.dc(th)
        return d3 + 0.5 * (c2 * d1 - c1 * d2)

    def gap(self, t, phi):
        """F(t, phi) = c3(phi) - c3(t) + (c1(phi) c2(t) - c1(t) c2(phi)) / 2."""
        a1, a2, a3 = self.c(t)
        b1, b2, b3 = self.c(phi)
        return b3 - a3 + 0.5 * (b1 * a2 - a1 * b2)

    def gap_partials(self, t, phi):
        a1, a2, _ = self.c(t)
        b1, b2, _ = self.c(phi)
        da1, da2, da3 = self.dc(t)
        db1, db2, db3 = self.dc(phi)
        f_t = -da3 + 0.5 * (b1 * da2 - da1 * b2)
        f_phi = db3 + 0.5 * (db1 * a2 - a1 * db2)
        return f_t, f_phi

    def slope(self, t, phi):
        """phi'(t) = -F_t / F_phi along the zero set of F."""
        f_t, f_phi = self.gap_partials(t, phi)
        return -f_t / f_phi

    def partner(self, t, phi_guess):
        """The zero of F(t, .) nearest phi_guess, by Newton on phi."""
        phi = float(phi_guess)
        for _ in range(30):
            f = float(self.gap(t, phi))
            _, f_phi = self.gap_partials(t, phi)
            step = f / float(f_phi)
            phi -= step
            if abs(step) <= 1e-15 * max(1.0, abs(phi)):
                break
        return phi

    def defect_zeros(self, n=8192):
        th = np.linspace(0.0, TWO_PI, n + 1)
        w = self.defect(th)
        out = [float(th[k]) for k in range(n) if w[k] == 0.0]
        for k in np.nonzero(w[:-1] * w[1:] < 0.0)[0]:
            out.append(brentq(self.defect, th[k], th[k + 1], xtol=1e-15))
        return sorted(out)

    def tail_start(self, near, delta):
        """A chord (t, phi) on the branch that closes at a horizontal point.

        The horizontal-tangent point nearest ``near`` is t_d; the chord
        starts ``delta`` before it, with phi the first zero of F(t, .)
        after t.  Continuing from there reaches the diagonal at t_d
        after about delta / h steps, so the job's size does not depend
        on where the seeded family puts its horizontal points.
        """
        zeros = [z for z in self.defect_zeros() if z > delta]
        t_d = min(zeros, key=lambda z: abs(z - near))
        t = t_d - delta
        phi = t + np.linspace(1e-6, TWO_PI - 1e-6, 8192)
        f = self.gap(t, phi)
        k = int(np.nonzero(f[:-1] * f[1:] < 0.0)[0][0])
        phi_s = brentq(lambda p: self.gap(t, p), phi[k], phi[k + 1],
                       xtol=1e-15)
        return t, phi_s


def _lit(v: float) -> str:
    return f"({float(v)!r})"


def family(a: float, b: float, c: float) -> Curve:
    """c(theta) = (1 - cos, sin, a(1 - cos) + b sin^2 + c sin (1 - cos)).

    Horizontal at theta = 0 for every (a, b, c).  good_curve is
    (2, 0, 1) and bad_curve is (1/5, 1, 0).
    """
    exprs = ["1 - cos(theta)", "sin(theta)",
             f"{_lit(a)}*(1 - cos(theta)) + {_lit(b)}*sin(theta)^2"
             f" + {_lit(c)}*sin(theta)*(1 - cos(theta))"]

    def cf(th):
        s, co = np.sin(th), np.cos(th)
        return 1.0 - co, s, a * (1.0 - co) + b * s * s + c * s * (1.0 - co)

    def dcf(th):
        s, co = np.sin(th), np.cos(th)
        return (s, co, a * s + 2.0 * b * s * co
                + c * (co * (1.0 - co) + s * s))

    return Curve(exprs, cf, dcf)


def nonlegendrian_curve(exprs) -> Curve:
    """(1 - cos, sin, sin/2 + sin^2/8): |w| >= 3/8 everywhere."""

    def cf(th):
        s, co = np.sin(th), np.cos(th)
        return 1.0 - co, s, 0.5 * s + 0.125 * s * s

    def dcf(th):
        s, co = np.sin(th), np.cos(th)
        return s, co, 0.5 * co + 0.25 * s * co

    return Curve(exprs, cf, dcf)


def planar_circle(exprs) -> Curve:
    """(cos, sin, 0): w = -1/2, but the whole curve is planar."""

    def cf(th):
        return np.cos(th), np.sin(th), 0.0 * th

    def dcf(th):
        return -np.sin(th), np.cos(th), 0.0 * th

    return Curve(exprs, cf, dcf, planar=True)


def on_family_curve(curve: Curve, pts: np.ndarray) -> float:
    """Worst distance of (x, y, t) rows from a (1 - cos, sin, .) curve."""
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    th = np.arctan2(y, 1.0 - x)
    c1, c2, c3 = curve.c(th)
    return float(np.max(np.abs(np.stack([c1 - x, c2 - y, c3 - t]))))


def chord_gap(rows: np.ndarray) -> np.ndarray:
    """F of a chord from its endpoints: t1 - t0 + (x1 y0 - x0 y1) / 2."""
    x0, y0, t0, x1, y1, t1 = rows.T
    return t1 - t0 + 0.5 * (x1 * y0 - x0 * y1)


# ---------------------------------------------------------------------------
# Graph patches


class Height:
    """Height u(x, y) with analytic first derivatives."""

    def __init__(self, expr, u, ux, uy):
        self.expr = expr
        self.u = u
        self.ux = ux
        self.uy = uy

    def gauss(self, x, y):
        """p = u_x + y/2, q = u_y - x/2."""
        return self.ux(x, y) + 0.5 * y, self.uy(x, y) - 0.5 * x


def quadratic_height(a, b, c, d, e, k) -> Height:
    """u = a x^2 + b x y + c y^2 + d x + e y + k sin(x)."""
    expr = (f"{_lit(a)}*x^2 + {_lit(b)}*x*y + {_lit(c)}*y^2 + {_lit(d)}*x"
            f" + {_lit(e)}*y + {_lit(k)}*sin(x)")
    return Height(
        expr,
        lambda x, y: a * x * x + b * x * y + c * y * y + d * x + e * y
        + k * np.sin(x),
        lambda x, y: 2.0 * a * x + b * y + d + k * np.cos(x),
        lambda x, y: b * x + 2.0 * c * y + e)


def glue_normal_defect(mu, lam, kappa):
    """Normal defect across y = 0 of u1 = mu x y (below) and
    u2 = lam x y + kappa x^2 (above), for x > 0.

    On the line, the unit Gauss maps are (0, sign(mu - 1/2)) and
    (2 kappa, lam - 1/2) / |.|; the normal is (0, +-1).
    """
    n1 = math.copysign(1.0, mu - 0.5)
    n2 = (lam - 0.5) / math.hypot(2.0 * kappa, lam - 0.5)
    return abs(n1 - n2)


def rotation_orbit(x0, y0, t):
    """Flow of (-y, x): rotation by angle t."""
    ct, st = np.cos(t), np.sin(t)
    return x0 * ct - y0 * st, x0 * st + y0 * ct


def radial_orbit(x0, y0, t):
    """Flow of the perp Gauss field of the flat graph u = 0.

    (q, -p) / |(p, q)| = (-x, -y) / r: unit speed toward the origin.
    """
    r = math.hypot(x0, y0)
    scale = (r - t) / r
    return x0 * scale, y0 * scale


def circle_frame(radius, h_slope):
    """kappa and w0 of gamma = R (cos(s/R), sin(s/R)), h0 = k s + const."""
    return -1.0 / radius, h_slope - 0.5 * radius
