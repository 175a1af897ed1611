"""Integral curves of continuous planar fields via Picard iteration.

The fields traced here are merely continuous in general, so the
integrator of record is the Picard map itself: iterate
phi(t) = p0 + integral of X(phi(s)) ds with composite-Simpson
quadrature on a fixed grid until the sup-update stalls.  A smoothed
companion field (mollification by a compact bump) supports the
comparison arguments; Runge-Kutta exists only as a cross-check on
smooth inputs, where its order claims actually hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.optimize import minimize_scalar

from .expr import parse, evaluate
from .graph import GraphPatch, gauss_grid

__all__ = [
    "PlanarField",
    "MollifiedField",
    "IntegralCurve",
    "gauss_perp_field",
    "mollify",
    "picard",
    "rk4_trace",
    "straightness",
]

PICARD_TOL = 1e-10


class PlanarField:
    """A planar vector field on a compact rectangle.

    ``fn`` maps coordinate arrays to a pair of component arrays.  The
    field need not be differentiable; everything downstream assumes
    only continuity and boundedness.
    """

    def __init__(self, fn: Callable, rect, *, name: str = "field"):
        x0, x1, y0, y1 = (float(v) for v in rect)
        if not (x0 < x1 and y0 < y1):
            raise ValueError("field rectangle must have positive extent")
        self.fn = fn
        self.rect = (x0, x1, y0, y1)
        self.name = name

    @classmethod
    def from_exprs(cls, ax, ay, rect, *, name: str = "field"):
        ea = parse(ax, ("x", "y")) if isinstance(ax, str) else ax
        eb = parse(ay, ("x", "y")) if isinstance(ay, str) else ay

        def fn(x, y):
            env = {"x": x, "y": y}
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            a = np.broadcast_to(np.asarray(evaluate(ea, env), float), shape)
            b = np.broadcast_to(np.asarray(evaluate(eb, env), float), shape)
            return a, b

        return cls(fn, rect, name=name)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.fn(x, y)

    def eval_clamped(self, x, y):
        """Evaluate with the arguments clipped to the rectangle.

        Picard iterates may step outside the domain mid-iteration;
        clamping keeps the map well defined without extrapolating.
        """
        x0, x1, y0, y1 = self.rect
        x = np.clip(np.asarray(x, dtype=float), x0, x1)
        y = np.clip(np.asarray(y, dtype=float), y0, y1)
        return self.fn(x, y)

    def grid(self, n: int):
        x0, x1, y0, y1 = self.rect
        gx = np.linspace(x0, x1, n)
        gy = np.linspace(y0, y1, n)
        return np.meshgrid(gx, gy, indexing="ij")

    def bound(self, n: int = 65) -> float:
        """Sampled sup of |X| over the rectangle."""
        gx, gy = self.grid(n)
        a, b = self(gx, gy)
        m = np.hypot(a, b)
        m = m[np.isfinite(m)]
        if m.size == 0:
            raise ValueError("field has no finite values on its rectangle")
        return float(m.max())

    def modulus(self, delta: float, n: int = 33) -> float:
        """Empirical modulus of continuity at separation ``delta``.

        Max observed |X(P) - X(Q)| over sampled pairs with
        |P - Q| <= delta.  A measurement stand-in for the true modulus:
        it can only underreport, never overreport.
        """
        if delta <= 0:
            raise ValueError("separation must be positive")
        gx, gy = self.grid(n)
        px = gx.ravel()
        py = gy.ravel()
        a, b = self(px, py)
        x0, x1, y0, y1 = self.rect
        worst = 0.0
        angles = np.arange(8) * (math.pi / 4.0)
        for radius in (delta, 0.5 * delta, 0.25 * delta):
            for ang in angles:
                qx = px + radius * math.cos(ang)
                qy = py + radius * math.sin(ang)
                keep = (qx >= x0) & (qx <= x1) & (qy >= y0) & (qy <= y1)
                if not keep.any():
                    continue
                aq, bq = self(qx[keep], qy[keep])
                gap = np.hypot(aq - a[keep], bq - b[keep])
                gap = gap[np.isfinite(gap)]
                if gap.size:
                    worst = max(worst, float(gap.max()))
        return worst


class MollifiedField(PlanarField):
    """Smoothed companion of a field, defined on the shrunk rectangle."""

    def __init__(self, fn, rect, *, base: PlanarField, epsilon: float,
                 sup_gap: float):
        super().__init__(fn, rect, name=f"{base.name}~{epsilon:g}")
        self.base = base
        self.epsilon = epsilon
        self.sup_gap = sup_gap


def _bump_weights(epsilon: float, n: int = 17):
    """Tensor-product Simpson weights for a normalized compact bump."""
    s = np.linspace(-1.0, 1.0, n)
    with np.errstate(divide="ignore", over="ignore"):
        psi = np.where(np.abs(s) < 1.0,
                       np.exp(-1.0 / np.maximum(1.0 - s * s, 1e-300)), 0.0)
    simp = np.ones(n)
    simp[1:-1:2] = 4.0
    simp[2:-1:2] = 2.0
    w1 = simp * psi
    w = np.outer(w1, w1)
    w /= w.sum()
    u = epsilon * s
    return u, w


def mollify(field: PlanarField, epsilon: float, *, quad_n: int = 17,
            report_n: int = 33) -> MollifiedField:
    """Convolve with a compact smooth bump of radius ``epsilon``.

    The result lives on the rectangle shrunk by ``epsilon`` on every
    side, so the quadrature never reads the base field outside its own
    domain.  The reported ``sup_gap`` is a sampled sup of |smoothed -
    original| over the shrunk rectangle, sharpened by a local line
    search around the grid argmax.
    """
    x0, x1, y0, y1 = field.rect
    if epsilon <= 0:
        raise ValueError("mollification radius must be positive")
    if 2 * epsilon >= min(x1 - x0, y1 - y0):
        raise ValueError("mollification radius exceeds the domain margin")
    inner = (x0 + epsilon, x1 - epsilon, y0 + epsilon, y1 - epsilon)
    u, w = _bump_weights(epsilon, quad_n)

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        flat_x = x.ravel()[:, None, None] + u[None, :, None]
        flat_y = y.ravel()[:, None, None] + u[None, None, :]
        a, b = field(flat_x, flat_y)
        out_a = (a * w).sum(axis=(1, 2)).reshape(x.shape)
        out_b = (b * w).sum(axis=(1, 2)).reshape(x.shape)
        return out_a, out_b

    smooth = MollifiedField(fn, inner, base=field, epsilon=epsilon,
                            sup_gap=0.0)

    gx = np.linspace(inner[0], inner[1], report_n)
    gy = np.linspace(inner[2], inner[3], report_n)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    sa, sb = smooth(mx, my)
    ba, bb = field(mx, my)
    gap = np.hypot(sa - ba, sb - bb)
    flat = np.nan_to_num(gap.ravel(), nan=0.0)
    k = int(flat.argmax())
    best = float(flat[k])
    i, j = divmod(k, report_n)

    def gap_at(px, py):
        a1, b1 = smooth(np.asarray([px]), np.asarray([py]))
        a0, b0 = field(np.asarray([px]), np.asarray([py]))
        g = math.hypot(float(a1[0] - a0[0]), float(b1[0] - b0[0]))
        return g if math.isfinite(g) else 0.0

    # One bounded line search per axis around the grid argmax; this is
    # what lets a jump discontinuity report its full height instead of
    # whatever the grid happened to straddle.
    cx, cy = float(gx[i]), float(gy[j])
    lo = float(gy[max(j - 1, 0)])
    hi = float(gy[min(j + 1, report_n - 1)])
    res = minimize_scalar(lambda t: -gap_at(cx, t), bounds=(lo, hi),
                          method="bounded")
    best = max(best, -float(res.fun))
    cy2 = float(res.x)
    lo = float(gx[max(i - 1, 0)])
    hi = float(gx[min(i + 1, report_n - 1)])
    res = minimize_scalar(lambda t: -gap_at(t, cy2), bounds=(lo, hi),
                          method="bounded")
    best = max(best, -float(res.fun))

    smooth.sup_gap = best
    return smooth


def gauss_perp_field(patch: GraphPatch, rect=None, *,
                     name: str = "gauss-perp") -> PlanarField:
    """The unit field perpendicular to a graph's horizontal Gauss map.

    Undefined on the characteristic set, where the magnitude vanishes;
    evaluation there yields NaNs, so trace curves launched off that set
    and keep the rectangle clear of it.
    """
    if rect is None:
        rect = patch.rect

    def fn(x, y):
        p, q, mag = gauss_grid(patch, x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return q / mag, -p / mag

    return PlanarField(fn, rect, name=name)


@dataclass
class IntegralCurve:
    """Picard output: samples, iteration count, and the last update."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    n_iterations: int
    residual: float
    truncated: bool
    updates: np.ndarray

    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,x,y,residual\n")
            for row in zip(self.t, self.x, self.y, self.updates):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def picard(field: PlanarField, p0, t_max: float, *, n_steps: int = 2048,
           n_iter: int = 80, tol: float = PICARD_TOL) -> IntegralCurve:
    """Trace the integral curve of ``field`` from ``p0`` on [0, t_max].

    Iterates the integral map against composite-Simpson quadrature on a
    uniform grid of ``n_steps`` steps, until the sup-norm update drops
    to ``tol`` or ``n_iter`` rounds have run.  Evaluation is clamped to
    the field's rectangle during iteration; if the converged curve
    itself leaves the rectangle, it is truncated at the first exit and
    flagged, never extrapolated.
    """
    x0, x1, y0, y1 = field.rect
    px, py = float(p0[0]), float(p0[1])
    if not (x0 <= px <= x1 and y0 <= py <= y1):
        raise ValueError("start point lies outside the field rectangle")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("trace time must be finite and positive")
    if n_steps < 2:
        raise ValueError("need at least two quadrature steps")

    t = np.linspace(0.0, t_max, n_steps + 1)
    cx = np.full(n_steps + 1, px)
    cy = np.full(n_steps + 1, py)
    updates = np.zeros(n_steps + 1)
    residual = math.inf
    rounds = 0
    for rounds in range(1, n_iter + 1):
        a, b = field.eval_clamped(cx, cy)
        nx = px + cumulative_simpson(a, x=t, initial=0.0)
        ny = py + cumulative_simpson(b, x=t, initial=0.0)
        updates = np.hypot(nx - cx, ny - cy)
        residual = float(updates.max())
        cx, cy = nx, ny
        if residual <= tol:
            break

    slack = 1e-12 * max(1.0, x1 - x0, y1 - y0)
    inside = ((cx >= x0 - slack) & (cx <= x1 + slack)
              & (cy >= y0 - slack) & (cy <= y1 + slack))
    truncated = not bool(inside.all())
    if truncated:
        last = int(np.argmin(inside))  # first False
        last = max(last, 1)
        t, cx, cy, updates = (arr[:last] for arr in (t, cx, cy, updates))

    return IntegralCurve(t, cx, cy, rounds, residual, truncated, updates)


def rk4_trace(field: PlanarField, p0, t_max: float, *,
              n_steps: int = 2048) -> IntegralCurve:
    """Classical Runge-Kutta on the same sample grid.

    A cross-check for smooth fields only; for merely continuous fields
    its order claims are void and ``picard`` is the integrator of
    record.
    """
    t = np.linspace(0.0, t_max, n_steps + 1)
    h = t_max / n_steps
    xs = np.empty(n_steps + 1)
    ys = np.empty(n_steps + 1)
    xs[0], ys[0] = float(p0[0]), float(p0[1])

    def f(x, y):
        a, b = field.eval_clamped(np.asarray([x]), np.asarray([y]))
        return float(a[0]), float(b[0])

    for i in range(n_steps):
        x, y = xs[i], ys[i]
        k1 = f(x, y)
        k2 = f(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
        k3 = f(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
        k4 = f(x + h * k3[0], y + h * k3[1])
        xs[i + 1] = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        ys[i + 1] = y + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])

    return IntegralCurve(t, xs, ys, 0, 0.0, False, np.zeros(n_steps + 1))


def straightness(curve) -> float:
    """Deviation of a sampled curve from its own chord.

    Max sample-to-chord distance divided by chord length, where the
    chord joins the first and last samples.  Zero means a straight
    segment to working precision.
    """
    if isinstance(curve, IntegralCurve):
        pts = curve.points()
    else:
        pts = np.asarray(curve, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of planar samples")
    if pts.shape[0] < 3:
        raise ValueError("need at least three samples")
    d = pts[-1] - pts[0]
    chord = float(np.hypot(d[0], d[1]))
    extent = float(np.abs(pts - pts[0]).max())
    if chord <= 1e-12 * max(1.0, extent):
        raise ValueError("degenerate curve: endpoints coincide")
    rel = pts - pts[0]
    dist = np.abs(d[0] * rel[:, 1] - d[1] * rel[:, 0]) / chord
    return float(dist.max() / chord)
