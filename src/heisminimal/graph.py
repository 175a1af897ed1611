"""Graphs over planar domains and their horizontal geometry.

A patch is a height function on a rectangle (optionally masked), given
either by an expression or by grid samples.  On top of it sit the
horizontal Gauss map, mean curvature, characteristic-point scans, the
horizontal perimeter energy with first and second variations, and defect
checks for piecewise gluings.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .expr import Expr, evaluate, jet_kernel, parse, to_text
from .geom import cluster_points
from .quadrature import gauss_legendre, integrate_rect, integrate_two_sided

CHAR_TOL = 1e-9
CHAR_MARGIN = 1e-3
GLUE_TOL = 1e-8


class CharacteristicError(ValueError):
    """Raised when an operation hits the characteristic set."""


class SupportError(ValueError):
    """Raised when a test function's support is unusable."""


class DomainError(ValueError):
    """Raised when a point lies outside a patch's domain."""


def _arrays(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.broadcast_arrays(x, y)


# ---------------------------------------------------------------------------
# patches


class GraphPatch:
    """A height function on a rectangle with an optional mask.

    ``rect`` is (x0, x1, y0, y1).  ``mask_fn``, when present, maps
    coordinate arrays to a boolean keep-array; points where it is False
    do not belong to the domain.
    """

    rect: tuple[float, float, float, float]
    mask_fn: Optional[Callable]

    def __init__(self, rect, mask_fn=None):
        x0, x1, y0, y1 = (float(v) for v in rect)
        if not (x0 < x1 and y0 < y1):
            raise ValueError("domain rectangle must have positive extent")
        self.rect = (x0, x1, y0, y1)
        self.mask_fn = mask_fn

    def size(self) -> float:
        x0, x1, y0, y1 = self.rect
        return max(x1 - x0, y1 - y0)

    def contains(self, x, y):
        x, y = _arrays(x, y)
        x0, x1, y0, y1 = self.rect
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        if self.mask_fn is not None:
            inside = inside & np.asarray(self.mask_fn(x, y), dtype=bool)
        return inside

    def jet(self, x, y):
        """(u, ux, uy, uxx, uxy, uyy) as arrays broadcast like x, y."""
        raise NotImplementedError

    def height(self, x, y):
        return self.jet(x, y)[0]

    def fd_step(self) -> float:
        return 1e-4 * self.size()


class ExprPatch(GraphPatch):
    """Patch whose height is a closed-form expression in x and y."""

    def __init__(self, u, rect, mask=None):
        if isinstance(u, str):
            u = parse(u, ("x", "y"))
        self.u_expr: Expr = u
        self._kernel = jet_kernel((u,), ("x", "y"), 2)
        self.mask_expr = None
        mask_fn = mask
        if isinstance(mask, str):
            mask = parse(mask, ("x", "y"))
        if isinstance(mask, Expr):
            self.mask_expr = mask
            mask_fn = _expr_mask(mask)
        super().__init__(rect, mask_fn)

    def jet(self, x, y):
        # The expression must be evaluable on the whole bounding
        # rectangle; the mask only controls domain membership.  Isolated
        # singular points (a masked-out pole, say) yield quiet NaNs.
        (parts,) = self._kernel(*_arrays(x, y))
        return parts


def _expr_mask(mask: Expr):
    """Keep-array callable: the points where ``mask`` is >= 0."""
    return lambda x, y: np.asarray(evaluate(mask, {"x": x, "y": y})) >= 0.0


class SampledPatch(GraphPatch):
    """Patch built from height samples on a rectilinear grid.

    Evaluation goes through a bicubic spline, whose own first and second
    derivatives make up the jet, so curvature and the Newton steps of the
    characteristic scan read the same Hessian as for any other patch.
    """

    def __init__(self, xs, ys, values, mask_fn=None):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("sample coordinates must be 1D")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("sample coordinates must be strictly increasing")
        if values.shape != (xs.size, ys.size):
            raise ValueError("values must have shape (len(xs), len(ys))")
        if xs.size < 4 or ys.size < 4:
            raise ValueError("need at least 4 samples per axis")
        super().__init__((xs[0], xs[-1], ys[0], ys[-1]), mask_fn)
        self.xs, self.ys, self.values = xs, ys, values
        self._spline = RectBivariateSpline(xs, ys, values, kx=3, ky=3)

    def jet(self, x, y):
        x, y = _arrays(x, y)
        shape = x.shape
        xf, yf = x.ravel(), y.ravel()
        parts = [self._spline.ev(xf, yf, dx=i, dy=j).reshape(shape)
                 for (i, j) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
        return tuple(parts)


def patch_from_config(cfg: dict) -> GraphPatch:
    """Build a patch from the JSON form {"u": ..., "domain": ..., "mask"?}."""
    if not isinstance(cfg, dict):
        raise ValueError("patch config must be an object")
    allowed = {"u", "domain", "mask"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown patch keys: {sorted(unknown)}")
    for key in ("u", "domain"):
        if key not in cfg:
            raise ValueError(f"patch config missing key '{key}'")
    domain = cfg["domain"]
    if not (isinstance(domain, (list, tuple)) and len(domain) == 4):
        raise ValueError("domain must be [x0, x1, y0, y1]")
    u = cfg["u"]
    mask = cfg.get("mask")
    if isinstance(u, str):
        return ExprPatch(u, domain, mask=mask)
    if isinstance(u, dict):
        unknown = set(u) - {"xs", "ys", "values"}
        if unknown:
            raise ValueError(f"unknown sample keys: {sorted(unknown)}")
        mask_fn = None
        if isinstance(mask, str):
            mask_fn = _expr_mask(parse(mask, ("x", "y")))
        return SampledPatch(u["xs"], u["ys"], u["values"], mask_fn=mask_fn)
    raise ValueError("u must be an expression string or a sample table")


# ---------------------------------------------------------------------------
# Gauss map and curvature


@dataclass(frozen=True)
class GaussData:
    x: float
    y: float
    p: float
    q: float
    mag: float
    nu: Optional[tuple[float, float]]
    characteristic: bool


def gauss_grid(patch: GraphPatch, x, y):
    """Raw horizontal Gauss components (p, q, mag) on arrays."""
    x, y = _arrays(x, y)
    _, ux, uy, _, _, _ = patch.jet(x, y)
    p = ux + 0.5 * y
    q = uy - 0.5 * x
    return p, q, np.sqrt(p * p + q * q)


def horizontal_gauss(patch: GraphPatch, x: float, y: float,
                     char_tol: float = CHAR_TOL) -> GaussData:
    """Gauss data at one point; characteristic points carry nu=None."""
    if not bool(patch.contains(x, y)):
        raise DomainError(f"point ({x}, {y}) outside the patch domain")
    p, q, mag = gauss_grid(patch, x, y)
    p, q, mag = float(p), float(q), float(mag)
    characteristic = mag <= char_tol
    nu = None if characteristic else (p / mag, q / mag)
    return GaussData(float(x), float(y), p, q, mag, nu, characteristic)


def _gauss_newton_step(patch, x, y):
    """Least-squares Newton step for (p, q) = 0, componentwise.

    Uses a closed-form 2x2 pseudo-inverse: the adjugate where the
    Jacobian is well conditioned, the rank-one formula otherwise.
    Non-finite jets yield an infinite step.
    """
    _, ux, uy, uxx, uxy, uyy = patch.jet(x, y)
    p = ux + 0.5 * y
    q = uy - 0.5 * x
    a, b = uxx, uxy + 0.5
    c, d = uxy - 0.5, uyy
    with np.errstate(all="ignore"):
        det = a * d - b * c
        fro2 = a * a + b * b + c * c + d * d
        finite = np.isfinite(det) & np.isfinite(fro2) \
            & np.isfinite(p) & np.isfinite(q)
        invertible = finite & (np.abs(det) > 1e-13 * np.maximum(fro2, 1e-300))
        sx = (d * p - b * q) / det
        sy = (-c * p + a * q) / det
        tx = (a * p + c * q) / np.maximum(fro2, 1e-300)
        ty = (b * p + d * q) / np.maximum(fro2, 1e-300)
        sx = np.where(invertible, sx, tx)
        sy = np.where(invertible, sy, ty)
        sx = np.where(finite, sx, np.inf)
        sy = np.where(finite, sy, np.inf)
    return sx, sy


def char_distance_estimate(patch: GraphPatch, x, y):
    """Newton-step distance estimate to the characteristic set.

    One least-squares Newton step for (p, q) = 0; near a simple zero this
    approximates the true distance, which makes it a usable proximity
    guard even between scan points.
    """
    x, y = _arrays(x, y)
    sx, sy = _gauss_newton_step(patch, x, y)
    with np.errstate(all="ignore"):
        return np.hypot(sx, sy)


def _curvature(patch, x, y):
    _, ux, uy, uxx, uxy, uyy = patch.jet(x, y)
    p = ux + 0.5 * np.asarray(y, dtype=float)
    q = uy - 0.5 * np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        mag2 = p * p + q * q
        num = q * q * uxx - 2.0 * p * q * uxy + p * p * uyy
        return num / np.power(mag2, 1.5)


def h_curvature(patch: GraphPatch, x: float, y: float, *,
                char_tol: float = CHAR_TOL,
                char_margin: float = CHAR_MARGIN,
                char_points: Optional[np.ndarray] = None) -> float:
    """Horizontal mean curvature of the graph at one point.

    H = div(nu) for the unit horizontal Gauss map nu = (p, q)/|(p, q)|,
    taken in closed form from the patch's second-order jet: exact for
    expression and ruled patches, the spline's own derivatives for
    sampled ones.  Refuses to evaluate at characteristic points and
    within ``char_margin`` of them (known points from ``char_points``
    plus a Newton-step proximity estimate).
    """
    if not bool(patch.contains(x, y)):
        raise DomainError(f"point ({x}, {y}) outside the patch domain")
    _, _, mag = gauss_grid(patch, x, y)
    if float(mag) <= char_tol:
        raise CharacteristicError(
            f"curvature undefined at characteristic point ({x}, {y})")
    if char_margin > 0.0:
        if char_points is not None and len(char_points):
            d = np.hypot(char_points[:, 0] - x, char_points[:, 1] - y)
            if float(d.min()) <= char_margin:
                raise CharacteristicError(
                    f"point ({x}, {y}) within {char_margin} of a "
                    "characteristic point")
        est = float(char_distance_estimate(patch, x, y))
        if np.isfinite(est) and est <= char_margin:
            raise CharacteristicError(
                f"point ({x}, {y}) within estimated distance {est:.3e} "
                "of the characteristic set")
    return float(_curvature(patch, x, y))


def curvature_field(patch: GraphPatch, x, y, *,
                    char_tol: float = CHAR_TOL,
                    char_margin: float = CHAR_MARGIN,
                    char_points: Optional[np.ndarray] = None):
    """Vectorized ``h_curvature`` with NaN at excluded points.

    Exclusions: outside the domain, |(p,q)| <= char_tol, within
    char_margin of a known characteristic point, or Newton-estimated
    distance <= char_margin.
    """
    x, y = _arrays(x, y)
    keep = patch.contains(x, y)
    _, _, mag = gauss_grid(patch, x, y)
    keep = keep & (mag > char_tol)
    if char_margin > 0.0:
        if char_points is not None and len(char_points):
            pts = np.asarray(char_points, dtype=float)
            d2 = ((x[..., None] - pts[:, 0]) ** 2
                  + (y[..., None] - pts[:, 1]) ** 2).min(axis=-1)
            keep = keep & (np.sqrt(d2) > char_margin)
        est = char_distance_estimate(patch, x, y)
        keep = keep & ~(np.isfinite(est) & (est <= char_margin))
    return np.where(keep, _curvature(patch, x, y), np.nan)


# ---------------------------------------------------------------------------
# characteristic scan


def characteristic_scan(patch: GraphPatch, grid_n: int = 64, *,
                        char_tol: float = CHAR_TOL,
                        refine_tol: float = 1e-10,
                        dedup_tol: float = 1e-7) -> np.ndarray:
    """Locate characteristic points: grid screen, then per-cell refinement.

    Cells whose corner values straddle zero in both p and q are refined
    by greedy quadrisection down to ``refine_tol`` and polished with a
    few Newton steps.  Grid points already at magnitude <= char_tol are
    kept as seeds so nothing visible at grid resolution is lost.
    Returns an array of shape (k, 2), lexicographically sorted.
    """
    x0, x1, y0, y1 = patch.rect
    xs = np.linspace(x0, x1, grid_n + 1)
    ys = np.linspace(y0, y1, grid_n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    p, q, mag = gauss_grid(patch, X, Y)
    valid = patch.contains(X, Y)

    seeds = np.stack([X[valid & (mag <= char_tol)],
                      Y[valid & (mag <= char_tol)]], axis=-1)

    def corner_stats(a):
        c = np.stack([a[:-1, :-1], a[1:, :-1], a[:-1, 1:], a[1:, 1:]])
        return c.min(axis=0), c.max(axis=0)

    p_lo, p_hi = corner_stats(p)
    q_lo, q_hi = corner_stats(q)
    v_any = np.stack([valid[:-1, :-1], valid[1:, :-1],
                      valid[:-1, 1:], valid[1:, 1:]]).any(axis=0)
    slack = 1e-14 * max(1.0, float(np.abs(mag).max()))
    cand = v_any & (p_lo <= slack) & (p_hi >= -slack) \
        & (q_lo <= slack) & (q_hi >= -slack)
    ci, cj = np.nonzero(cand)

    points = []
    if ci.size:
        lo_x, hi_x = xs[ci].copy(), xs[ci + 1].copy()
        lo_y, hi_y = ys[cj].copy(), ys[cj + 1].copy()
        cell = (xs[1] - xs[0])
        levels = int(np.ceil(np.log2(max(cell / max(refine_tol, 1e-14), 2.0))))
        levels = min(levels + 4, 52)
        for _ in range(levels):
            mx = 0.5 * (lo_x + hi_x)
            my = 0.5 * (lo_y + hi_y)
            qx = np.stack([0.5 * (lo_x + mx), 0.5 * (mx + hi_x),
                           0.5 * (lo_x + mx), 0.5 * (mx + hi_x)])
            qy = np.stack([0.5 * (lo_y + my), 0.5 * (lo_y + my),
                           0.5 * (my + hi_y), 0.5 * (my + hi_y)])
            _, _, m = gauss_grid(patch, qx, qy)
            pick = m.argmin(axis=0)
            west = (pick % 2) == 0
            south = pick < 2
            hi_x = np.where(west, mx, hi_x)
            lo_x = np.where(west, lo_x, mx)
            hi_y = np.where(south, my, hi_y)
            lo_y = np.where(south, lo_y, my)
        points.append(np.stack([0.5 * (lo_x + hi_x),
                                0.5 * (lo_y + hi_y)], axis=-1))
    if seeds.size:
        points.append(seeds)
    if not points:
        return np.empty((0, 2))
    pts = np.concatenate(points, axis=0)

    # Newton polish; keep the best iterate per point.
    best = pts.copy()
    _, _, best_mag = gauss_grid(patch, best[:, 0], best[:, 1])
    cur = pts.copy()
    cap = 0.5 * (xs[1] - xs[0]) if len(xs) > 1 else patch.size()
    for _ in range(8):
        sx, sy = _gauss_newton_step(patch, cur[:, 0], cur[:, 1])
        with np.errstate(all="ignore"):
            norm = np.hypot(sx, sy)
            scale = np.where(norm > cap, cap / np.maximum(norm, 1e-300), 1.0)
            scale = np.where(np.isfinite(norm), scale, 0.0)
            sx = np.where(np.isfinite(sx), sx, 0.0)
            sy = np.where(np.isfinite(sy), sy, 0.0)
        cur = cur - np.stack([sx * scale, sy * scale], axis=-1)
        _, _, m = gauss_grid(patch, cur[:, 0], cur[:, 1])
        better = m < best_mag
        best[better] = cur[better]
        best_mag = np.where(better, m, best_mag)

    keep = (best_mag <= char_tol) & patch.contains(best[:, 0], best[:, 1])
    found = best[keep]
    mags = best_mag[keep]
    if not len(found):
        return np.empty((0, 2))

    reps = []
    for members in cluster_points(found, dedup_tol):
        k = members[np.argmin(mags[members])]
        reps.append(found[k])
    reps = np.array(reps)
    order = np.lexsort((reps[:, 1], reps[:, 0]))
    return reps[order]


# ---------------------------------------------------------------------------
# energy and variations


@dataclass(frozen=True)
class EnergyResult:
    value: float
    estimate: float
    res: int


def energy(patch: GraphPatch, res: int = 32) -> EnergyResult:
    """Horizontal perimeter energy by tensor Gauss-Legendre quadrature.

    The error estimate compares against a half-resolution pass.
    """
    if res < 16:
        raise ValueError("energy resolution must be at least 16")

    def integrand(X, Y):
        _, _, mag = gauss_grid(patch, X, Y)
        if patch.mask_fn is not None:
            mag = np.where(patch.mask_fn(X, Y), mag, 0.0)
        return mag

    full = integrate_rect(integrand, patch.rect, res)
    half = integrate_rect(integrand, patch.rect, max(res // 2, 8))
    return EnergyResult(full, abs(full - half), res)


@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported bump, a product of 1D mollifier profiles.

    The profile exp(-1/(1-z^2)) vanishes with all derivatives at the
    edge of [-1, 1], so the bump and its gradient are identically zero
    outside the open support rectangle.
    """

    cx: float
    cy: float
    rx: float
    ry: float

    def __post_init__(self):
        if self.rx <= 0 or self.ry <= 0:
            raise ValueError("bump radii must be positive")

    @property
    def support(self):
        return (self.cx - self.rx, self.cx + self.rx,
                self.cy - self.ry, self.cy + self.ry)

    @staticmethod
    def _profile(z):
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) < 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = np.where(inside, np.exp(-1.0 / np.where(
                inside, 1.0 - z * z, 1.0)), 0.0)
        return val

    @staticmethod
    def _profile_d(z):
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) < 1.0
        safe = np.where(inside, 1.0 - z * z, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = np.where(
                inside,
                np.exp(-1.0 / safe) * (-2.0 * z) / (safe * safe),
                0.0)
        return val

    def value(self, x, y):
        x, y = _arrays(x, y)
        return (self._profile((x - self.cx) / self.rx)
                * self._profile((y - self.cy) / self.ry))

    def grad(self, x, y):
        x, y = _arrays(x, y)
        zx = (x - self.cx) / self.rx
        zy = (y - self.cy) / self.ry
        bx, by = self._profile(zx), self._profile(zy)
        return (self._profile_d(zx) * by / self.rx,
                bx * self._profile_d(zy) / self.ry)


@dataclass(frozen=True)
class VariationResult:
    first: float
    second: float


def variation(patch: GraphPatch, phi: Bump, *, res: int = 24,
              char_tol: float = CHAR_TOL,
              char_margin: float = CHAR_MARGIN,
              char_points: Optional[np.ndarray] = None,
              scan_grid: int = 48) -> VariationResult:
    """First and second variation of the energy along a normal bump.

    Raises SupportError when the bump leaves the domain, touches the
    mask, or overlaps the characteristic set.
    """
    if char_points is None:
        char_points = characteristic_scan(patch, scan_grid,
                                          char_tol=char_tol)
    sx0, sx1, sy0, sy1 = phi.support
    xs, wx = gauss_legendre(res, sx0, sx1)
    ys, wy = gauss_legendre(res, sy0, sy1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fault = _support_fault(patch, phi, char_points, char_margin, X, Y)
    if fault:
        raise SupportError(fault)
    p, q, mag = gauss_grid(patch, X, Y)
    if np.any(mag <= char_tol):
        raise SupportError("bump support overlaps the characteristic set")
    gx, gy = phi.grad(X, Y)
    first = np.einsum("i,j,ij->", wx, wy, (p * gx + q * gy) / mag)
    quad = (q * gx - p * gy) ** 2 / mag ** 3
    second = np.einsum("i,j,ij->", wx, wy, quad)
    return VariationResult(float(first), float(second))


def bump_battery(patch: GraphPatch, count: int = 20, *,
                 char_points: Optional[np.ndarray] = None,
                 char_margin: float = CHAR_MARGIN,
                 char_tol: float = CHAR_TOL,
                 scan_grid: int = 48) -> list[Bump]:
    """Deterministic battery of admissible bumps inside a patch.

    Candidate centers march over an interior lattice; radii start at a
    sixth of the extents and shrink once if too few fit.  Bumps whose
    support leaves the domain, touches the mask, or comes within
    ``char_margin`` of the characteristic set are skipped.
    """
    if char_points is None:
        char_points = characteristic_scan(patch, scan_grid,
                                          char_tol=char_tol)
    x0, x1, y0, y1 = patch.rect
    ex, ey = x1 - x0, y1 - y0
    chosen: list[Bump] = []
    for shrink in (1.0, 0.6, 0.36):
        rx, ry = ex / 6.0 * shrink, ey / 6.0 * shrink
        chosen = []
        for j in range(7):
            for i in range(7):
                cx = x0 + ex * (i + 1) / 8.0
                cy = y0 + ey * (j + 1) / 8.0
                phi = Bump(cx, cy, rx, ry)
                if _bump_admissible(patch, phi, char_points, char_margin,
                                    char_tol):
                    chosen.append(phi)
                if len(chosen) == count:
                    return chosen
        if len(chosen) >= count:
            return chosen[:count]
    return chosen


def _support_fault(patch, phi, char_points, char_margin, X, Y):
    """Why bump ``phi`` is unusable on ``patch``, or None.

    Its support must stay inside the rectangle and ``char_margin`` clear
    of ``char_points``, and the nodes X, Y must stay off the mask.
    """
    sx0, sx1, sy0, sy1 = phi.support
    x0, x1, y0, y1 = patch.rect
    if sx0 < x0 or sx1 > x1 or sy0 < y0 or sy1 > y1:
        return "bump support leaves the patch domain"
    if len(char_points):
        inx = (char_points[:, 0] >= sx0 - char_margin) \
            & (char_points[:, 0] <= sx1 + char_margin) \
            & (char_points[:, 1] >= sy0 - char_margin) \
            & (char_points[:, 1] <= sy1 + char_margin)
        if bool(inx.any()):
            return "bump support overlaps the characteristic set"
    if patch.mask_fn is not None and not np.all(patch.mask_fn(X, Y)):
        return "bump support touches the patch mask"
    return None


def _bump_admissible(patch, phi, char_points, char_margin, char_tol):
    sx0, sx1, sy0, sy1 = phi.support
    PX, PY = np.meshgrid(np.linspace(sx0, sx1, 9), np.linspace(sy0, sy1, 9),
                         indexing="ij")
    if _support_fault(patch, phi, char_points, char_margin, PX, PY):
        return False
    _, _, mag = gauss_grid(patch, PX, PY)
    return bool(np.all(mag > char_tol))


@dataclass(frozen=True)
class MinimalityReport:
    strong: float
    weak: float
    n_strong: int
    n_bumps: int
    char_points: np.ndarray


def minimality_residual(patch: GraphPatch, *, grid_n: int = 41,
                        char_tol: float = CHAR_TOL,
                        char_margin: float = CHAR_MARGIN,
                        scan_grid: int = 64,
                        bump_count: int = 20,
                        bump_res: int = 24) -> MinimalityReport:
    """Strong and weak minimality defects of a patch.

    Strong: max |H| over an interior grid, excluding char_margin
    neighborhoods of the characteristic set.  Weak: max |first
    variation| over a deterministic bump battery.
    """
    char_pts = characteristic_scan(patch, scan_grid, char_tol=char_tol)
    x0, x1, y0, y1 = patch.rect
    gx = np.linspace(x0, x1, grid_n)
    gy = np.linspace(y0, y1, grid_n)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    H = curvature_field(patch, X, Y, char_tol=char_tol,
                        char_margin=char_margin, char_points=char_pts)
    finite = np.isfinite(H)
    strong = float(np.abs(H[finite]).max()) if finite.any() else 0.0
    bumps = bump_battery(patch, bump_count, char_points=char_pts,
                         char_margin=char_margin, char_tol=char_tol)
    weak = 0.0
    for phi in bumps:
        v = variation(patch, phi, res=bump_res, char_tol=char_tol,
                      char_margin=char_margin, char_points=char_pts)
        weak = max(weak, abs(v.first))
    return MinimalityReport(strong, weak, int(finite.sum()), len(bumps),
                            char_pts)


# ---------------------------------------------------------------------------
# gluing


@dataclass(frozen=True)
class InterfaceCurve:
    """Planar interface curve tau -> (x(tau), y(tau)) with a unit normal.

    The normal is the tangent rotated by -90 degrees (perp), optionally
    flipped; by convention it points from side 1 into side 2.
    """

    x_expr: Expr
    y_expr: Expr
    tau_range: tuple[float, float]
    flip_normal: bool = False

    @staticmethod
    def from_config(cfg: dict) -> "InterfaceCurve":
        allowed = {"x", "y", "tau_range", "flip_normal"}
        unknown = set(cfg) - allowed
        if unknown:
            raise ValueError(f"unknown interface keys: {sorted(unknown)}")
        for key in ("x", "y", "tau_range"):
            if key not in cfg:
                raise ValueError(f"interface config missing '{key}'")
        tau_range = cfg["tau_range"]
        if not (isinstance(tau_range, (list, tuple)) and len(tau_range) == 2
                and all(type(v) in (int, float)
                        and abs(v) <= sys.float_info.max for v in tau_range)):
            raise ValueError("interface.tau_range must be a pair of finite "
                             f"numbers, got {tau_range!r}")
        flip = cfg.get("flip_normal", False)
        if not isinstance(flip, bool):
            raise ValueError("interface.flip_normal must be true or false, "
                             f"got {flip!r}")
        return InterfaceCurve(parse(cfg["x"], ("tau",)),
                              parse(cfg["y"], ("tau",)),
                              tuple(float(v) for v in tau_range), flip)

    def point(self, tau):
        env = {"tau": np.asarray(tau, dtype=float)}
        return (np.asarray(evaluate(self.x_expr, env), dtype=float)
                + 0.0 * env["tau"],
                np.asarray(evaluate(self.y_expr, env), dtype=float)
                + 0.0 * env["tau"])

    def tangent(self, tau):
        tau = np.asarray(tau, dtype=float)
        kernel = jet_kernel((self.x_expr, self.y_expr), "tau", 1)
        (_, dx), (_, dy) = kernel(tau)
        dx, dy = dx + 0.0 * tau, dy + 0.0 * tau  # -0.0 reads +0.0
        speed = np.hypot(dx, dy)
        if np.any(speed <= 1e-12):
            raise ValueError("interface curve has a vanishing tangent")
        return dx / speed, dy / speed

    def normal(self, tau):
        tx, ty = self.tangent(tau)
        nx, ny = ty, -tx
        if self.flip_normal:
            nx, ny = -nx, -ny
        return nx, ny

    def side2_predicate(self, samples: int = 1024):
        """Boolean field: True on the side the normal points into."""
        taus = np.linspace(self.tau_range[0], self.tau_range[1], samples)
        cx, cy = self.point(taus)
        nx, ny = self.normal(taus)

        def predicate(x, y):
            x, y = _arrays(x, y)
            d2 = ((x[..., None] - cx) ** 2 + (y[..., None] - cy) ** 2)
            k = d2.argmin(axis=-1)
            dot = (x - cx[k]) * nx[k] + (y - cy[k]) * ny[k]
            return dot > 0.0

        return predicate


def _unit_field(side, char_tol):
    """Normalize a patch or raw horizontal field to a unit-field callable."""
    if isinstance(side, GraphPatch):
        def fn(x, y):
            p, q, mag = gauss_grid(side, x, y)
            if np.any(mag <= char_tol):
                raise CharacteristicError(
                    "horizontal field is characteristic on the interface")
            return p / mag, q / mag
        return fn

    def fn(x, y):
        p, q = side(x, y)
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        mag = np.sqrt(p * p + q * q)
        if np.any(mag <= char_tol):
            raise CharacteristicError(
                "horizontal field is characteristic on the interface")
        return p / mag, q / mag
    return fn


@dataclass(frozen=True)
class GlueReport:
    defect: float
    glue_pass: bool
    n_taus: int
    weak_defect: Optional[float]
    bump_integrals: tuple


def glue_check(side1, side2, interface: InterfaceCurve, *,
               tau_n: int = 256, glue_tol: float = GLUE_TOL,
               char_tol: float = CHAR_TOL, bump_count: int = 20,
               bump_res: int = 6, split_depth: int = 6,
               side2_predicate: Optional[Callable] = None,
               weak: Optional[bool] = None) -> GlueReport:
    """Normal-continuity defect of two horizontal fields across a curve.

    ``side1`` and ``side2`` are patches or callables returning raw (p, q).
    The strong defect is max |(nu1 - nu2) . n| over a tau grid.  When both
    sides are patches, a battery of bumps straddling the interface probes
    the weak form of the glued field.
    """
    if tau_n < 2:
        raise ValueError("need at least two interface samples")
    f1 = _unit_field(side1, char_tol)
    f2 = _unit_field(side2, char_tol)
    taus = np.linspace(interface.tau_range[0], interface.tau_range[1], tau_n)
    cx, cy = interface.point(taus)
    nx, ny = interface.normal(taus)
    p1, q1 = f1(cx, cy)
    p2, q2 = f2(cx, cy)
    defect = float(np.abs((p1 - p2) * nx + (q1 - q2) * ny).max())

    both_patches = isinstance(side1, GraphPatch) and isinstance(
        side2, GraphPatch)
    if weak is None:
        weak = both_patches
    weak_defect = None
    integrals: list[float] = []
    if weak:
        if not both_patches:
            raise ValueError("weak gluing check needs patches on both sides")
        pred = side2_predicate or interface.side2_predicate()
        integrals = _glue_weak_battery(side1, side2, interface, pred,
                                       bump_count, bump_res, split_depth,
                                       char_tol)
        weak_defect = max((abs(v) for v in integrals), default=0.0)
    return GlueReport(defect, defect <= glue_tol, tau_n, weak_defect,
                      tuple(integrals))


def _glue_weak_battery(patch1, patch2, interface, pred, count, res, depth,
                       char_tol):
    a, b = interface.tau_range
    taus = a + (b - a) * (np.arange(count) + 0.5) / count
    cxs, cys = interface.point(taus)
    spacing = float(np.hypot(np.diff(cxs), np.diff(cys)).min()) \
        if count > 1 else 0.25 * (b - a)
    u1x0, u1x1, u1y0, u1y1 = patch1.rect
    u2x0, u2x1, u2y0, u2y1 = patch2.rect
    ux0, ux1 = min(u1x0, u2x0), max(u1x1, u2x1)
    uy0, uy1 = min(u1y0, u2y0), max(u1y1, u2y1)

    def union_clearance(x, y):
        return min(x - ux0, ux1 - x, y - uy0, uy1 - y)

    vals = []
    for cx, cy in zip(cxs, cys):
        r = min(0.75 * spacing, 0.9 * union_clearance(float(cx), float(cy)))
        if r <= 0:
            continue
        phi = Bump(float(cx), float(cy), r, r)

        def make_integrand(patch):
            def fn(X, Y):
                p, q, mag = gauss_grid(patch, X, Y)
                gx, gy = phi.grad(X, Y)
                out = (p * gx + q * gy) / np.maximum(mag, 1e-300)
                return np.where(mag <= char_tol, 0.0, out)
            return fn

        vals.append(integrate_two_sided(
            make_integrand(patch1), make_integrand(patch2), pred,
            phi.support, n=res, depth=depth))
    return vals
