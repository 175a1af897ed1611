"""Ruled surfaces swept from a planar seed curve.

A seed is a unit-speed plane curve; from each seed point a straight rule
leaves in the direction perpendicular to the tangent.  A height profile
along the seed fixes the lift of the ruling into the group so that every
rule is a horizontal line.  This module builds such surfaces, locates
the radii where the lifted graph turns characteristic, scans for rule
crossings in the plane, and exposes the lift as a graph patch so the
curvature and variational machinery from :mod:`heisminimal.graph`
applies unchanged.

Two closed-form families with characteristic-point-free members are
provided (``persistent_family``), along with ``persistence_check``,
which decides harmonicity plus vanishing curvature residual for an
arbitrary patch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from .expr import Expr, evaluate, jet_kernel, parse
from .geom import cluster_points, segment_crossings
from .graph import (CHAR_TOL, DomainError, ExprPatch, GraphPatch,
                    minimality_residual)
from .heis import HPoint
from .roots import scan_zeros

# A seed with curvature below this is treated as locally straight; the
# characteristic quadratic degenerates to a linear equation there.
KAPPA_TOL = 1e-12
# Discriminant window inside which the two characteristic radii are
# reported as a single double root.
DISC_TOL = 1e-10
# Planar distance for "this crossing sits on the characteristic set".
CROSS_MATCH_TOL = 1e-8


class SeedValidationError(ValueError):
    """Raised when a surface is built over a seed that is not unit speed."""

    def __init__(self, report: "SeedReport"):
        self.report = report
        super().__init__(
            f"seed speed deviates from 1 by up to {report.max_deviation:.3e} "
            f"at {report.violations.size} of {report.n} grid points")


# ---------------------------------------------------------------------------
# Seed curves

class SeedCurve:
    """Planar curve with three derivatives, intended to be unit speed.

    Closed-form seeds come from a pair of expressions in ``s``; sampled
    seeds are rebuilt as cubic splines over arclength (the samples may
    use any regular parameterization).
    """

    def __init__(self, s_range, jets_fn, *, closed, source,
                 original_param=None):
        s0, s1 = (float(v) for v in s_range)
        if not s0 < s1:
            raise ValueError("seed parameter range must have positive length")
        self.s_range = (s0, s1)
        self._jets_fn = jets_fn
        self.closed = bool(closed)
        self.period = s1 - s0 if closed else None
        self.source = source
        # For sampled seeds: map from arclength back to the original
        # sample parameter, used to carry auxiliary data along.
        self.original_param = original_param

    @staticmethod
    def from_exprs(x_src, y_src, s_range) -> "SeedCurve":
        xe = parse(x_src, ("s",)) if isinstance(x_src, str) else x_src
        ye = parse(y_src, ("s",)) if isinstance(y_src, str) else y_src

        kernel = jet_kernel((xe, ye), "s", 3)

        def jets_fn(s):
            jx, jy = kernel(np.asarray(s, dtype=float))
            return jx + jy

        seed = SeedCurve(s_range, jets_fn, closed=False, source="expr")
        seed.closed, seed.period = _detect_closed(seed)
        return seed

    @staticmethod
    def from_samples(s_vals, x_vals, y_vals, *, n_dense: int = 16384,
                     n_knots: int = 4097) -> "SeedCurve":
        s_vals = np.asarray(s_vals, dtype=float)
        x_vals = np.asarray(x_vals, dtype=float)
        y_vals = np.asarray(y_vals, dtype=float)
        if s_vals.ndim != 1 or s_vals.size < 8:
            raise ValueError("sampled seed needs at least 8 nodes")
        if np.any(np.diff(s_vals) <= 0):
            raise ValueError("sample parameters must be strictly increasing")
        if x_vals.shape != s_vals.shape or y_vals.shape != s_vals.shape:
            raise ValueError("sample arrays must share one shape")
        x_sp = CubicSpline(s_vals, x_vals)
        y_sp = CubicSpline(s_vals, y_vals)
        dense = np.linspace(s_vals[0], s_vals[-1], n_dense)
        speed = np.hypot(x_sp(dense, 1), y_sp(dense, 1))
        if speed.min() <= 1e-8:
            raise ValueError("sampled seed has a near-singular point")
        sigma = cumulative_simpson(speed, x=dense, initial=0.0)
        s_of_sigma = CubicSpline(sigma, dense)
        length = float(sigma[-1])
        knots = np.linspace(0.0, length, n_knots)
        sk = np.clip(s_of_sigma(knots), s_vals[0], s_vals[-1])
        x_arc = CubicSpline(knots, x_sp(sk))
        y_arc = CubicSpline(knots, y_sp(sk))
        return SeedCurve._from_splines((0.0, length), x_arc, y_arc,
                                       original_param=s_of_sigma)

    @staticmethod
    def _from_splines(s_range, x_arc, y_arc, original_param=None):
        dx = [x_arc.derivative(k) for k in (1, 2, 3)]
        dy = [y_arc.derivative(k) for k in (1, 2, 3)]

        def jets_fn(s):
            s = np.asarray(s, dtype=float)
            return (x_arc(s), dx[0](s), dx[1](s), dx[2](s),
                    y_arc(s), dy[0](s), dy[1](s), dy[2](s))

        seed = SeedCurve(s_range, jets_fn, closed=False, source="spline",
                         original_param=original_param)
        seed.closed, seed.period = _detect_closed(seed)
        return seed

    def jets(self, s):
        """(x, x', x'', x''', y, y', y'', y''') as arrays shaped like s."""
        return self._jets_fn(np.asarray(s, dtype=float))

    def point(self, s):
        j = self.jets(s)
        return j[0], j[4]

    def grid(self, n: int) -> np.ndarray:
        """n parameters over the range; a closed seed omits the end."""
        s0, s1 = self.s_range
        return np.linspace(s0, s1, n, endpoint=not self.closed)

    def wrap(self, s):
        """Reduce s into the base interval for closed seeds."""
        if not self.closed:
            return s
        s0, _ = self.s_range
        return s0 + np.mod(s - s0, self.period)


def _detect_closed(seed: SeedCurve):
    s0, s1 = seed.s_range
    j0 = seed.jets(np.asarray([s0]))
    j1 = seed.jets(np.asarray([s1]))
    gap = max(abs(float(j0[k][0] - j1[k][0])) for k in (0, 1, 4, 5))
    if gap <= 1e-9:
        return True, s1 - s0
    return False, None


@dataclass(frozen=True)
class SeedReport:
    ok: bool
    max_deviation: float
    violations: np.ndarray  # parameter values where |speed - 1| > tol
    n: int
    tol: float


def validate_seed(seed: SeedCurve, n: int = 1000,
                  tol: float = 1e-8) -> SeedReport:
    """Check unit speed on an n-point parameter grid."""
    s = np.linspace(seed.s_range[0], seed.s_range[1], n)
    j = seed.jets(s)
    dev = np.abs(np.hypot(j[1], j[5]) - 1.0)
    bad = dev > tol
    return SeedReport(ok=not bool(bad.any()),
                      max_deviation=float(dev.max()),
                      violations=s[bad], n=n, tol=tol)


# ---------------------------------------------------------------------------
# Height profile along the seed

class HeightProfile:
    """Scalar profile h(s) with two derivatives."""

    def __init__(self, jets_fn, source):
        self._jets_fn = jets_fn
        self.source = source

    @staticmethod
    def from_expr(src) -> "HeightProfile":
        e = parse(src, ("s",)) if isinstance(src, str) else src

        kernel = jet_kernel((e,), "s", 2)

        def jets_fn(s):
            return kernel(np.asarray(s, dtype=float))[0]

        return HeightProfile(jets_fn, "expr")

    @staticmethod
    def from_spline(spline: CubicSpline) -> "HeightProfile":
        d1, d2 = spline.derivative(1), spline.derivative(2)

        def jets_fn(s):
            s = np.asarray(s, dtype=float)
            return spline(s), d1(s), d2(s)

        return HeightProfile(jets_fn, "spline")

    def jets(self, s):
        """(h, h', h'') as arrays shaped like s."""
        return self._jets_fn(np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# The ruled surface

class RuledSurface:
    """Seed curve, height profile, and a signed radius range.

    The planar footprint of the rule through ``gamma(s)`` is
    ``F(s, r) = gamma(s) + r * perp(gamma'(s))`` and the lift fixes the
    height so each rule is horizontal:
    ``t(s, r) = h(s) - (r / 2) * gamma(s) . gamma'(s)``.
    """

    def __init__(self, seed: SeedCurve, h0: HeightProfile, r_range,
                 *, validate: bool = True):
        r0, r1 = (float(v) for v in r_range)
        if not r0 < r1:
            raise ValueError("radius range must have positive length")
        if validate:
            report = validate_seed(seed)
            if not report.ok:
                raise SeedValidationError(report)
        self.seed = seed
        self.h0 = h0
        self.r_range = (r0, r1)

    # -- frame data --------------------------------------------------------

    def _frame(self, s):
        x, x1, x2, x3, y, y1, y2, y3 = self.seed.jets(s)
        h, h1, h2 = self.h0.jets(s)
        g = x * x1 + y * y1
        g1 = x1 * x1 + y1 * y1 + x * x2 + y * y2
        g2 = 3.0 * (x1 * x2 + y1 * y2) + x * x3 + y * y3
        kappa = x2 * y1 - y2 * x1
        w0 = h1 + 0.5 * (x1 * y - y1 * x)
        return {"x": x, "x1": x1, "x2": x2, "x3": x3,
                "y": y, "y1": y1, "y2": y2, "y3": y3,
                "h": h, "h1": h1, "h2": h2,
                "g": g, "g1": g1, "g2": g2, "kappa": kappa, "w0": w0}

    def kappa(self, s):
        f = self._frame(s)
        return f["kappa"]

    def w0(self, s):
        f = self._frame(s)
        return f["w0"]

    def _check_range(self, s, r):
        s = np.asarray(s, dtype=float)
        r = np.asarray(r, dtype=float)
        s0, s1 = self.seed.s_range
        r0, r1 = self.r_range
        s_slack = 1e-12 * max(1.0, s1 - s0)
        r_slack = 1e-12 * max(1.0, r1 - r0)
        if not self.seed.closed:
            if np.any(s < s0 - s_slack) or np.any(s > s1 + s_slack):
                raise DomainError("seed parameter outside its range")
        if np.any(r < r0 - r_slack) or np.any(r > r1 + r_slack):
            raise DomainError("rule radius outside its range")

    # -- evaluation ---------------------------------------------------------

    def param_F(self, s, r, *, check: bool = True):
        """Planar footprint and its Jacobian determinant ``r*kappa - 1``."""
        if check:
            self._check_range(s, r)
        s = self.seed.wrap(np.asarray(s, dtype=float))
        r = np.asarray(r, dtype=float)
        f = self._frame(s)
        x = f["x"] + r * f["y1"]
        y = f["y"] - r * f["x1"]
        jacdet = r * f["kappa"] - 1.0
        return x, y, jacdet

    def lift(self, s, r, *, check: bool = True):
        """Points of the lifted surface as (x, y, t) arrays."""
        if check:
            self._check_range(s, r)
        s = self.seed.wrap(np.asarray(s, dtype=float))
        r = np.asarray(r, dtype=float)
        f = self._frame(s)
        x = f["x"] + r * f["y1"]
        y = f["y"] - r * f["x1"]
        t = f["h"] - 0.5 * r * f["g"]
        return x, y, t

    def lift_point(self, s: float, r: float) -> HPoint:
        x, y, t = self.lift(float(s), float(r))
        return HPoint(float(x), float(y), float(t))

    def rule_segment(self, s):
        """Endpoints of the rule at s, at the two radius extremes."""
        r0, r1 = self.r_range
        x0, y0, _ = self.param_F(s, r0)
        x1, y1, _ = self.param_F(s, r1)
        return (x0, y0), (x1, y1)


# ---------------------------------------------------------------------------
# Characteristic locus

@dataclass(frozen=True)
class CharLocus:
    """Characteristic radii along a parameter grid.

    ``roots`` is (n, 2), nan-padded, ascending where present.  ``points``
    collects the in-radius-range locus as rows (s, r, x, y).
    """

    s: np.ndarray
    kappa: np.ndarray
    w0: np.ndarray
    disc: np.ndarray
    roots: np.ndarray
    n_roots: np.ndarray
    double: np.ndarray
    points: np.ndarray

    def all_roots(self):
        """Flat (s, r) pairs over every root, in or out of radius range."""
        keep = np.isfinite(self.roots)
        s2 = np.repeat(self.s[:, None], 2, axis=1)
        return s2[keep], self.roots[keep]


def _char_roots_scalar(kappa: float, w0: float):
    """Radii solving (kappa/2) r^2 - r + w0 = 0, stable in all regimes."""
    if abs(kappa) <= KAPPA_TOL:
        return (w0,), False
    disc = 1.0 - 2.0 * kappa * w0
    if abs(disc) <= DISC_TOL:
        return (1.0 / kappa,), True
    if disc < 0.0:
        return (), False
    sq = math.sqrt(disc)
    # (1 + sq) never cancels; the smaller root comes from the product
    # w0 * 2 / kappa / (r_big) rearranged to avoid subtraction.
    r_big = (1.0 + sq) / kappa
    r_small = 2.0 * w0 / (1.0 + sq)
    lo, hi = sorted((r_big, r_small))
    return (lo, hi), False


def char_locus(surface: RuledSurface, s_grid=257) -> CharLocus:
    """Characteristic radii of the lift over a grid of seed parameters."""
    if np.isscalar(s_grid):
        s = surface.seed.grid(int(s_grid))
    else:
        s = np.asarray(s_grid, dtype=float)
    f = surface._frame(s)
    kappa, w0 = f["kappa"], f["w0"]
    disc = 1.0 - 2.0 * kappa * w0
    n = s.size
    roots = np.full((n, 2), np.nan)
    double = np.zeros(n, dtype=bool)
    for i in range(n):
        rs, dbl = _char_roots_scalar(float(kappa[i]), float(w0[i]))
        roots[i, :len(rs)] = rs
        double[i] = dbl
    n_roots = np.isfinite(roots).sum(axis=1)
    r0, r1 = surface.r_range
    rows = []
    for i in range(n):
        for r in roots[i]:
            if np.isfinite(r) and r0 <= r <= r1:
                x, y, _ = surface.param_F(float(s[i]), float(r))
                rows.append((float(s[i]), float(r), float(x), float(y)))
    points = np.asarray(rows, dtype=float).reshape(-1, 4)
    return CharLocus(s=s, kappa=kappa, w0=w0, disc=disc, roots=roots,
                     n_roots=n_roots, double=double, points=points)


def beta_denominator_roots(surface: RuledSurface, s: float, *,
                           n: int = 4001, tol: float = 1e-10) -> np.ndarray:
    """Roots of the slope denominator in r, found by scanning.

    Independent of the closed-form quadratic: ``roots.scan_zeros`` over
    an n-point grid of the r-range refines sign changes by Brent's
    method and tangential touches (|D| <= ``tol`` times the scale of
    the coefficients) by bounded minimization of |D|, away from the
    sign changes; roots within 1e-9 merge.
    """
    f = surface._frame(np.asarray([float(s)]))
    kappa = float(f["kappa"][0])
    w0 = float(f["w0"][0])

    def den(r):
        return w0 - r + 0.5 * kappa * r * r

    r0, r1 = surface.r_range
    grid = np.linspace(r0, r1, n)
    scale = max(1.0, abs(w0), abs(r1), abs(r0))
    roots, _ = scan_zeros(den, grid, den(grid), xtol=1e-14, merge_tol=1e-9,
                          touch_tol=tol * scale)
    return roots


@dataclass(frozen=True)
class BetaValue:
    value: float  # nan when the slope is infinite
    infinite: bool


def normal_beta(surface: RuledSurface, s: float, r: float,
                *, inf_tol: float = 1e-9) -> BetaValue:
    """Slope of the lifted normal direction at (s, r).

    Blows up exactly on the characteristic locus; the flag reports that
    instead of a meaningless quotient.
    """
    surface._check_range(s, r)
    f = surface._frame(np.asarray([float(s)]))
    kappa = float(f["kappa"][0])
    w0 = float(f["w0"][0])
    r = float(r)
    den = w0 - r + 0.5 * kappa * r * r
    num = r * kappa - 1.0
    scale = max(1.0, abs(w0), abs(r), 0.5 * abs(kappa) * r * r)
    if abs(den) <= inf_tol * scale:
        return BetaValue(value=math.nan, infinite=True)
    return BetaValue(value=num / den, infinite=False)


# ---------------------------------------------------------------------------
# Rule crossings in the plane

@dataclass(frozen=True)
class Crossing:
    s_a: float
    s_b: float
    x: float
    y: float
    characteristic: bool


@dataclass(frozen=True)
class CrossingReport:
    crossings: tuple
    diagnostic_pass: bool
    n_rules: int
    s_values: np.ndarray


def rule_crossing_scan(surface: RuledSurface, s_n: int = 64, *,
                       match_tol: float = CROSS_MATCH_TOL,
                       cluster_tol: float = 1e-7) -> CrossingReport:
    """Pairwise rule intersections over an s-grid of segments.

    Each crossing is annotated with whether it lies (to ``match_tol``)
    on the planar characteristic set.  A rule meeting two or more
    distinct characteristic crossing points fails the diagnostic.
    """
    s = surface.seed.grid(s_n)
    (ax, ay), (bx, by) = surface.rule_segment(s)
    p0 = np.column_stack([ax, ay])
    p1 = np.column_stack([bx, by])
    hits = segment_crossings(p0, p1)
    locus = char_locus(surface, s)
    char_xy = locus.points[:, 2:4] if locus.points.size else None
    crossings = []
    per_rule: dict[int, list] = {}
    for i, j, (cx, cy) in hits:
        is_char = False
        if char_xy is not None:
            d = np.hypot(char_xy[:, 0] - cx, char_xy[:, 1] - cy)
            is_char = bool(d.min() <= match_tol)
        crossings.append(Crossing(float(s[i]), float(s[j]),
                                  float(cx), float(cy), is_char))
        if is_char:
            per_rule.setdefault(i, []).append((cx, cy))
            per_rule.setdefault(j, []).append((cx, cy))
    diagnostic_pass = True
    for pts in per_rule.values():
        clusters = cluster_points(np.asarray(pts, dtype=float), cluster_tol)
        if len(clusters) >= 2:
            diagnostic_pass = False
            break
    return CrossingReport(crossings=tuple(crossings),
                          diagnostic_pass=diagnostic_pass,
                          n_rules=s_n, s_values=s)


# ---------------------------------------------------------------------------
# The lift as a graph patch

def _invert_footprint(surf: RuledSurface, tree, params, tol, max_iter, x, y):
    """Newton solve of F(s, r) = (x, y) from the nearest tabulated node.

    Returns (s, r, converged).  A module function rather than a method,
    so that a patch's mask can hold it without holding the patch.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(x, y).shape
    xf = np.broadcast_to(x, shape).ravel().astype(float)
    yf = np.broadcast_to(y, shape).ravel().astype(float)
    s0, s1 = surf.seed.s_range
    r0, r1 = surf.r_range
    _, idx = tree.query(np.column_stack([xf, yf]))
    s = params[idx, 0].copy()
    r = params[idx, 1].copy()
    cap_s = 0.5 * (s1 - s0)
    cap_r = 0.5 * (r1 - r0)
    for _ in range(max_iter):
        f = surf._frame(surf.seed.wrap(s))
        fx = f["x"] + r * f["y1"] - xf
        fy = f["y"] - r * f["x1"] - yf
        xs = f["x1"] + r * f["y2"]
        xr = f["y1"]
        ys = f["y1"] - r * f["x2"]
        yr = -f["x1"]
        det = xs * yr - xr * ys
        with np.errstate(all="ignore"):
            ds = (yr * fx - xr * fy) / det
            dr = (-ys * fx + xs * fy) / det
        bad = ~(np.isfinite(ds) & np.isfinite(dr))
        ds[bad] = 0.0
        dr[bad] = 0.0
        np.clip(ds, -cap_s, cap_s, out=ds)
        np.clip(dr, -cap_r, cap_r, out=dr)
        s -= ds
        r -= dr
        if surf.seed.closed:
            s = surf.seed.wrap(s)
    f = surf._frame(surf.seed.wrap(s))
    res = np.hypot(f["x"] + r * f["y1"] - xf, f["y"] - r * f["x1"] - yf)
    scale = np.maximum(1.0, np.maximum(np.abs(xf), np.abs(yf)))
    ok = np.isfinite(res) & (res <= tol * scale)
    r_slack = 1e-9 * max(1.0, r1 - r0)
    ok &= (r >= r0 - r_slack) & (r <= r1 + r_slack)
    if not surf.seed.closed:
        s_slack = 1e-9 * max(1.0, s1 - s0)
        ok &= (s >= s0 - s_slack) & (s <= s1 + s_slack)
    return s.reshape(shape), r.reshape(shape), ok.reshape(shape)


class RuledLiftPatch(GraphPatch):
    """Graph patch backed by Newton inversion of the planar footprint.

    Points where the inversion fails (outside the swept region, or near
    a fold of the footprint) are masked out of the domain.  Jets come
    from implicit differentiation of the parameterization, so they are
    exact for the surface and the curvature machinery uses them
    directly.
    """

    def __init__(self, surface: RuledSurface, rect=None, *,
                 seed_grid=(192, 64), newton_tol: float = 1e-12,
                 max_iter: int = 40):
        self.surface = surface
        r0, r1 = surface.r_range
        sn, rn = seed_grid
        s_nodes = surface.seed.grid(sn)
        r_nodes = np.linspace(r0, r1, rn)
        S, R = np.meshgrid(s_nodes, r_nodes, indexing="ij")
        X, Y, _ = surface.param_F(S.ravel(), R.ravel(), check=False)
        self._newton = newton = (
            surface, cKDTree(np.column_stack([X, Y])),
            np.column_stack([S.ravel(), R.ravel()]), float(newton_tol),
            int(max_iter))
        if rect is None:
            rect = (X.min(), X.max(), Y.min(), Y.max())
        # the mask closes over the solver's data, not over the patch, so a
        # dropped patch is freed at once instead of by the cycle collector
        super().__init__(rect, mask_fn=lambda x, y: _invert_footprint(
            *newton, x, y)[2])

    def invert(self, x, y):
        """Solve F(s, r) = (x, y); returns (s, r, converged)."""
        return _invert_footprint(*self._newton, x, y)

    def jet(self, x, y):
        s, r, ok = self.invert(x, y)
        surf = self.surface
        f = surf._frame(surf.seed.wrap(s))
        xs = f["x1"] + r * f["y2"]
        xr = f["y1"]
        ys = f["y1"] - r * f["x2"]
        yr = -f["x1"]
        det = xs * yr - xr * ys
        with np.errstate(all="ignore"):
            s_x = yr / det
            s_y = -xr / det
            r_x = -ys / det
            r_y = xs / det
            # Second derivatives of the chart, then of the inverse map.
            xss = f["x2"] + r * f["y3"]
            xsr = f["y2"]
            yss = f["y2"] - r * f["x3"]
            ysr = -f["x2"]
            ts = f["h1"] - 0.5 * r * f["g1"]
            tr = -0.5 * f["g"]
            tss = f["h2"] - 0.5 * r * f["g2"]
            tsr = -0.5 * f["g1"]
            u = f["h"] - 0.5 * r * f["g"]
            ux = ts * s_x + tr * r_x
            uy = ts * s_y + tr * r_y

            def second(sa, ra, sb, rb):
                qx = xss * sa * sb + xsr * (sa * rb + ra * sb)
                qy = yss * sa * sb + ysr * (sa * rb + ra * sb)
                s_ab = -(s_x * qx + s_y * qy)
                r_ab = -(r_x * qx + r_y * qy)
                return (tss * sa * sb + tsr * (sa * rb + ra * sb)
                        + ts * s_ab + tr * r_ab)

            uxx = second(s_x, r_x, s_x, r_x)
            uxy = second(s_x, r_x, s_y, r_y)
            uyy = second(s_y, r_y, s_y, r_y)
        nan = np.where(ok, 0.0, np.nan)
        return (u + nan, ux + nan, uy + nan,
                uxx + nan, uxy + nan, uyy + nan)


# ---------------------------------------------------------------------------
# Persistent families and the persistence check

def _flit(v: float) -> str:
    """Float literal for building expression source."""
    # float() first: numpy scalar reprs are not parseable literals
    return f"({float(v)!r})"


def persistent_family(kind: str, *, m: float = 0.0, a: float = 0.0,
                      b: float = 0.0, x0: float = 0.0, y0: float = 0.0,
                      rect=(-2.0, 2.0, -2.0, 2.0),
                      hole_radius: float = 0.05,
                      cut_halfwidth: float = 0.02,
                      outer_radius: Optional[float] = None) -> ExprPatch:
    """Closed-form member of one of the two characteristic-free families.

    ``QUADRATIC``: graph over the whole plane, ruled by parallel lines
    of slope ``m`` through ``(x0, y0)``; ``a`` and ``b`` set the height
    profile along the spine.  ``HELICOID``: multiple of the polar angle
    plus a constant, on a domain with the origin (and a ray, for the
    branch cut) removed.
    """
    if kind == "QUADRATIC":
        for name, v in (("m", m), ("a", a), ("b", b), ("x0", x0), ("y0", y0)):
            if not math.isfinite(float(v)):
                raise ValueError(f"parameter {name} must be finite")
        norm = math.sqrt(1.0 + m * m)
        e1, e2 = 1.0 / norm, m / norm
        p0 = x0 * e1 + y0 * e2
        sx = (f"((x - {_flit(x0)})*{_flit(e1)}"
              f" + (y - {_flit(y0)})*{_flit(e2)})")
        rx = (f"((x - {_flit(x0)})*{_flit(e2)}"
              f" - (y - {_flit(y0)})*{_flit(e1)})")
        u_src = (f"{_flit(a)}*{sx} + {_flit(b)}"
                 f" - 0.5*{rx}*({_flit(p0)} + {sx})")
        return ExprPatch(u_src, rect)
    if kind == "HELICOID":
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("parameters a and b must be finite")
        if hole_radius <= 0.0:
            raise ValueError("domain would contain the origin; "
                             "hole_radius must be positive")
        u_src = f"{_flit(a)}*atan2(y, x) + {_flit(b)}"
        hr2 = hole_radius * hole_radius
        cut = math.pi - cut_halfwidth
        outer2 = None if outer_radius is None else outer_radius * outer_radius

        def mask_fn(x, y):
            rho2 = x * x + y * y
            keep = (rho2 >= hr2) & (np.abs(np.arctan2(y, x)) <= cut)
            if outer2 is not None:
                keep = keep & (rho2 <= outer2)
            return keep

        return ExprPatch(u_src, rect, mask=mask_fn)
    raise ValueError(f"unknown family kind: {kind!r}")


def quadratic_seed_surface(m: float = 0.0, a: float = 0.0, b: float = 0.0,
                           x0: float = 0.0, y0: float = 0.0, *,
                           s_range=(-4.0, 4.0),
                           r_range=(-4.0, 4.0)) -> RuledSurface:
    """The straight-spine ruled surface whose lift is the QUADRATIC member.

    Independent route to the same graph: build the spine as a seed and
    lift it, instead of writing the height formula down.
    """
    norm = math.sqrt(1.0 + m * m)
    e1, e2 = 1.0 / norm, m / norm
    gx = f"{_flit(x0)} + s*{_flit(e1)}"
    gy = f"{_flit(y0)} + s*{_flit(e2)}"
    seed = SeedCurve.from_exprs(gx, gy, s_range)
    h0 = HeightProfile.from_expr(f"{_flit(a)}*s + {_flit(b)}")
    return RuledSurface(seed, h0, r_range)


@dataclass(frozen=True)
class PersistenceReport:
    persistent: bool
    laplacian_dual: float
    laplacian_fd: float
    strong: float
    weak: float
    n_points: int


def persistence_check(patch: GraphPatch, *, grid_n: int = 41,
                      lap_tol: float = 1e-6, res_tol: float = 1e-6,
                      char_tol: float = CHAR_TOL) -> PersistenceReport:
    """Harmonic height plus vanishing curvature residual.

    The Laplacian is measured two ways (patch jets, and a fourth-order
    stencil on raw heights with the center value subtracted before
    weighting to kill cancellation); both maxima are reported and both
    must clear ``lap_tol``.
    """
    x0, x1, y0, y1 = patch.rect
    h = 4.0 * patch.fd_step()
    margin = 2.0 * h + 1e-12 * patch.size()
    gx = np.linspace(x0 + margin, x1 - margin, grid_n)
    gy = np.linspace(y0 + margin, y1 - margin, grid_n)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    offsets = (-2.0 * h, -h, 0.0, h, 2.0 * h)
    keep = np.ones(X.shape, dtype=bool)
    for d in offsets:
        keep &= patch.contains(X + d, Y) & patch.contains(X, Y + d)
    X, Y = X[keep], Y[keep]
    if X.size == 0:
        raise ValueError("no interior grid points clear of the mask")
    jets = patch.jet(X, Y)
    lap_dual = float(np.nanmax(np.abs(jets[3] + jets[5]))) if X.size else 0.0
    vals = {d: patch.height(X + d, Y) for d in offsets}
    vals_y = {d: patch.height(X, Y + d) for d in offsets}
    center = vals[0.0]

    def second_fd(v):
        return (-(v[-2.0 * h] - center) + 16.0 * (v[-h] - center)
                + 16.0 * (v[h] - center) - (v[2.0 * h] - center)) / (12.0 * h * h)

    lap_fd = float(np.nanmax(np.abs(second_fd(vals) + second_fd(vals_y))))
    rep = minimality_residual(patch, char_tol=char_tol)
    persistent = (max(lap_dual, lap_fd) <= lap_tol) and (rep.strong <= res_tol)
    return PersistenceReport(persistent=persistent,
                             laplacian_dual=lap_dual, laplacian_fd=lap_fd,
                             strong=rep.strong, weak=rep.weak,
                             n_points=int(X.size))


# ---------------------------------------------------------------------------
# Thickness of the swept region inside a window

@dataclass(frozen=True)
class ThicknessReport:
    value: float
    s_min: float
    zero_flag: bool


def horizontal_thickness(surface: RuledSurface, rect,
                         s_n: int = 200) -> ThicknessReport:
    """Smallest distance along a rule from the seed to the window edge.

    Reporting only: zero (seed point outside the window) is flagged,
    not raised.
    """
    x0, x1, y0, y1 = (float(v) for v in rect)
    s = surface.seed.grid(s_n)
    j = surface.seed.jets(s)
    px, py = j[0], j[4]
    dx, dy = j[5], -j[1]  # rule direction, unit for a valid seed
    best = math.inf
    s_min = float(s[0])
    zero = False
    for k in range(s.size):
        if not (x0 <= px[k] <= x1 and y0 <= py[k] <= y1):
            best, s_min, zero = 0.0, float(s[k]), True
            break
        d = math.inf
        for sign in (1.0, -1.0):
            ux, uy = sign * dx[k], sign * dy[k]
            tau = math.inf
            if abs(ux) > 1e-15:
                tau = min(tau, max((x1 - px[k]) / ux, (x0 - px[k]) / ux))
            if abs(uy) > 1e-15:
                tau = min(tau, max((y1 - py[k]) / uy, (y0 - py[k]) / uy))
            d = min(d, tau)
        if d < best:
            best, s_min = d, float(s[k])
    if best == 0.0:
        zero = True
    return ThicknessReport(value=float(best), s_min=s_min, zero_flag=zero)


# ---------------------------------------------------------------------------
# Configuration and mesh export

def _require_keys(cfg: dict, required: set, optional: set = frozenset()):
    if not isinstance(cfg, dict):
        raise ValueError("configuration must be a JSON object")
    keys = set(cfg)
    unknown = keys - required - optional
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")


def surface_from_config(cfg: dict, *, validate: bool = True) -> RuledSurface:
    """Build a surface from {"gamma", "h0", "s_range", "r_range"}.

    ``gamma`` is either two expressions in ``s`` or a sample table
    {"s", "x", "y"}; sampled seeds are refit over arclength and the
    stated s_range must match the sample range.  ``h0`` is an
    expression in ``s`` or {"values": [...]} aligned with the samples.
    """
    _require_keys(cfg, {"gamma", "h0", "s_range", "r_range"})
    s_range = cfg["s_range"]
    if (not isinstance(s_range, (list, tuple)) or len(s_range) != 2):
        raise ValueError("s_range must be a two-element list")
    r_range = cfg["r_range"]
    if (not isinstance(r_range, (list, tuple)) or len(r_range) != 2):
        raise ValueError("r_range must be a two-element list")
    gamma = cfg["gamma"]
    h0_cfg = cfg["h0"]
    if isinstance(gamma, (list, tuple)) and len(gamma) == 2:
        seed = SeedCurve.from_exprs(gamma[0], gamma[1], s_range)
        if not isinstance(h0_cfg, str):
            raise ValueError("closed-form seeds need a closed-form h0")
        h0 = HeightProfile.from_expr(h0_cfg)
    elif isinstance(gamma, dict):
        _require_keys(gamma, {"s", "x", "y"})
        s_vals = np.asarray(gamma["s"], dtype=float)
        if s_vals.size and (abs(s_vals[0] - s_range[0]) > 1e-9
                            or abs(s_vals[-1] - s_range[1]) > 1e-9):
            raise ValueError("s_range does not match the sample range")
        seed = SeedCurve.from_samples(s_vals, gamma["x"], gamma["y"])
        knots = np.linspace(seed.s_range[0], seed.s_range[1], 2049)
        sk = np.clip(seed.original_param(knots), s_vals[0], s_vals[-1])
        if isinstance(h0_cfg, str):
            e = parse(h0_cfg, ("s",))
            vals = np.broadcast_to(
                np.asarray(evaluate(e, {"s": sk}), dtype=float), sk.shape)
        elif isinstance(h0_cfg, dict):
            _require_keys(h0_cfg, {"values"})
            v = np.asarray(h0_cfg["values"], dtype=float)
            if v.shape != s_vals.shape:
                raise ValueError("h0 values must align with the seed samples")
            vals = CubicSpline(s_vals, v)(sk)
        else:
            raise ValueError("h0 must be an expression or a value table")
        h0 = HeightProfile.from_spline(CubicSpline(knots, vals))
    else:
        raise ValueError("gamma must be two expressions or a sample table")
    return RuledSurface(seed, h0, r_range, validate=validate)


def export_mesh(surface: RuledSurface, s_n: int = 48, r_n: int = 12) -> str:
    """Wavefront-style mesh of the lift; deterministic text."""
    r0, r1 = surface.r_range
    s = surface.seed.grid(s_n)
    r = np.linspace(r0, r1, r_n)
    S, R = np.meshgrid(s, r, indexing="ij")
    X, Y, T = surface.lift(S.ravel(), R.ravel(), check=False)
    lines = [f"v {x:.12g} {y:.12g} {t:.12g}" for x, y, t in zip(X, Y, T)]
    def vid(i, j):
        return i * r_n + j + 1
    closed = surface.seed.closed
    i_max = s_n if closed else s_n - 1
    for i in range(i_max):
        i2 = (i + 1) % s_n
        for j in range(r_n - 1):
            lines.append(f"f {vid(i, j)} {vid(i2, j)} "
                         f"{vid(i2, j + 1)} {vid(i, j + 1)}")
    return "\n".join(lines) + "\n"
