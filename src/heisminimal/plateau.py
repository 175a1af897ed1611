"""Spanning analysis for closed boundary curves.

Given a closed curve in the group, the central object is the two-point
accessibility function

    F(t, theta) = [c(t)^{-1} . c(theta)]_3,

the vertical part of the displacement between two boundary points.  Its
zero set names the pairs of points joined by a horizontal straight
chord, so any ruled spanning surface must thread its rules through it.
This module evaluates F, extracts access sets and isolated points,
continues the chord-partner branch phi(t) by its defining slope ODE,
assembles the swept chord family into a candidate spanning disk, and
issues a verdict for curves with no horizontal tangents and no planar
arc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dual import Jet1
from .expr import Expr, evaluate, parse
from .geom import plane_fit, segment_crossings
from .heis import HPoint
from .roots import scan_zeros

TWO_PI = 2.0 * math.pi


def _jet_parts(value, like):
    if isinstance(value, Jet1):
        parts = (value.f, value.d1, value.d2, value.d3)
    else:
        parts = (value, 0.0, 0.0, 0.0)
    return tuple(np.broadcast_to(np.asarray(p, dtype=float), like.shape)
                 for p in parts)


class ClosedCurve:
    """Closed curve (c1, c2, c3)(theta) on one period.

    Components are expressions in ``theta``; closure of positions is
    checked at ingestion.
    """

    def __init__(self, c1, c2, c3, period: float = TWO_PI):
        def as_expr(src):
            return parse(src, ("theta",)) if isinstance(src, str) else src

        self.c1, self.c2, self.c3 = (as_expr(c) for c in (c1, c2, c3))
        self.period = float(period)
        if not self.period > 0:
            raise ValueError("period must be positive")
        a = np.asarray(self.point(0.0))
        b = np.asarray(self.point(self.period))
        gap = np.abs(a - b).max()
        if gap > 1e-9:
            raise ValueError(f"curve is not closed: endpoint gap {gap:.3e}")

    @staticmethod
    def from_config(cfg: dict) -> "ClosedCurve":
        if not isinstance(cfg, dict):
            raise ValueError("curve configuration must be a JSON object")
        unknown = set(cfg) - {"c", "period"}
        if unknown:
            raise ValueError(f"unknown keys: {sorted(unknown)}")
        if "c" not in cfg:
            raise ValueError("missing key: c")
        c = cfg["c"]
        if not isinstance(c, (list, tuple)) or len(c) != 3:
            raise ValueError("c must list three component expressions")
        return ClosedCurve(c[0], c[1], c[2],
                           float(cfg.get("period", TWO_PI)))

    def jets(self, theta):
        """Three (value, d1, d2, d3) tuples, arrays shaped like theta."""
        theta = np.asarray(theta, dtype=float)
        jt = Jet1.variable(theta)
        with np.errstate(all="ignore"):
            out = [evaluate(e, {"theta": jt})
                   for e in (self.c1, self.c2, self.c3)]
        return tuple(_jet_parts(o, theta) for o in out)

    def point(self, theta):
        j = self.jets(theta)
        return j[0][0], j[1][0], j[2][0]

    def hpoint(self, theta: float) -> HPoint:
        x, y, t = self.point(float(theta))
        return HPoint(float(x), float(y), float(t))


def legendrian_defect(curve: ClosedCurve, theta):
    """Vertical speed relative to the horizontal plane field.

    Zero exactly where the curve's tangent is horizontal.
    """
    (c1, d1, _, _), (c2, d2, _, _), (_, d3, _, _) = curve.jets(theta)
    return d3 + 0.5 * (c2 * d1 - c1 * d2)


def access_value(curve: ClosedCurve, t, theta):
    """Vertical gap F(t, theta) of the chord from c(t) to c(theta)."""
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    (a1, _, _, _), (a2, _, _, _), (a3, _, _, _) = curve.jets(t)
    (b1, _, _, _), (b2, _, _, _), (b3, _, _, _) = curve.jets(theta)
    return b3 - a3 + 0.5 * (b1 * a2 - a1 * b2)


def access_partials(curve: ClosedCurve, t, theta):
    """(F, dF/dt, dF/dtheta) at (t, theta)."""
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    (a1, da1, _, _), (a2, da2, _, _), (a3, da3, _, _) = curve.jets(t)
    (b1, db1, _, _), (b2, db2, _, _), (b3, db3, _, _) = curve.jets(theta)
    f = b3 - a3 + 0.5 * (b1 * a2 - a1 * b2)
    f_t = -da3 + 0.5 * (b1 * da2 - da1 * b2)
    f_theta = db3 + 0.5 * (db1 * a2 - a1 * db2)
    return f, f_t, f_theta


def access_matrix(curve: ClosedCurve, n: int = 1024):
    """(thetas, F) with F[i, j] = F(thetas[i], thetas[j])."""
    thetas = np.linspace(0.0, curve.period, n, endpoint=False)
    (c1, _, _, _), (c2, _, _, _), (c3, _, _, _) = curve.jets(thetas)
    f = (c3[None, :] - c3[:, None]
         + 0.5 * (c1[None, :] * c2[:, None] - c1[:, None] * c2[None, :]))
    return thetas, f


@dataclass(frozen=True)
class AccessSet:
    t: float
    thetas: np.ndarray          # in [0, period), sorted
    tangential: np.ndarray      # aligned flags: touch without sign change


def access_set(curve: ClosedCurve, t: float, *, n: int = 1024,
               refine_tol: float = 1e-10,
               tangential_tol: float = 1e-9,
               dedup_tol: float = 1e-7) -> AccessSet:
    """Partners of t: zeros of theta -> F(t, theta) over one period.

    Transversal zeros are refined by Brent's method to ``refine_tol``;
    tangential touches are local minima of |F| below ``tangential_tol``
    and are flagged.  Zeros within ``dedup_tol`` merge, transversal
    winning, and every theta lies in [0, period).  See
    ``roots.scan_zeros`` for the rules.
    """
    if n < 256:
        raise ValueError("need at least 256 grid points")
    period = curve.period
    t = float(t)
    thetas = np.linspace(0.0, period, n, endpoint=False)
    zeros, flags = scan_zeros(
        lambda th: float(access_value(curve, t, th)), thetas,
        access_value(curve, t, thetas), xtol=refine_tol,
        merge_tol=dedup_tol, period=period, touch_tol=tangential_tol)
    return AccessSet(t=t, thetas=zeros, tangential=flags)


@dataclass(frozen=True)
class IsolatedReport:
    thetas: np.ndarray       # isolated points of the access relation
    defects: np.ndarray      # legendrian defect there (should vanish)
    consistent: bool
    notes: tuple


def _defect_zeros(curve: ClosedCurve, n: int) -> np.ndarray:
    thetas = np.linspace(0.0, curve.period, n, endpoint=False)
    zeros, _ = scan_zeros(lambda th: float(legendrian_defect(curve, th)),
                          thetas, legendrian_defect(curve, thetas),
                          xtol=1e-12, merge_tol=1e-9, period=curve.period)
    return zeros


def isolated_points(curve: ClosedCurve, *, n: int = 1024,
                    match_tol: float = 1e-6) -> IsolatedReport:
    """Parameters whose only chord partner is the point itself.

    Candidates are the zeros of the defect (an isolated point must have
    a horizontal tangent); each is kept when its access set collapses
    to the diagonal.  A coarse sweep also looks for singleton access
    sets away from defect zeros, which would be geometrically
    impossible and are reported instead of trusted.
    """
    period = curve.period

    def singleton(t0, n_grid):
        gaps = np.abs(access_set(curve, t0, n=n_grid).thetas - t0)
        gaps = np.minimum(gaps, period - gaps)
        return gaps.size > 0 and gaps.max() <= match_tol

    out = [t0 for t0 in _defect_zeros(curve, n) if singleton(t0, n)]
    defects = [float(legendrian_defect(curve, t0)) for t0 in out]
    notes = []
    probe = np.linspace(0.0, period, 32, endpoint=False)
    for t0 in probe:
        if abs(float(legendrian_defect(curve, t0))) < 1e-3:
            continue
        if singleton(float(t0), max(n // 2, 256)):
            notes.append(f"singleton access set at non-horizontal t={t0:.6f}")
    return IsolatedReport(thetas=np.asarray(out, dtype=float),
                          defects=np.asarray(defects, dtype=float),
                          consistent=not notes, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Branch continuation

@dataclass(frozen=True)
class Continuation:
    status: str                      # MONOTONE | OBSTRUCTED | TERMINATED
    t: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    obstruction_t: Optional[float]
    diagonal_t: Optional[float]
    reason: str


def _phi_slope(curve: ClosedCurve, t: float, phi: float,
               den_tol: float) -> float:
    f, f_t, f_phi = access_partials(curve, t, phi)
    scale = max(1.0, abs(float(f_t)))
    if abs(float(f_phi)) <= den_tol * scale:
        raise ZeroDivisionError("vanishing denominator")
    return -float(f_t) / float(f_phi)


def phi_continue(curve: ClosedCurve, t_start: float,
                 phi_start: Optional[float] = None, *,
                 offset: float = 1e-4, n_steps: int = 2048,
                 den_tol: float = 1e-8,
                 diag_gap: Optional[float] = None,
                 stop_at_obstruction: bool = True) -> Continuation:
    """Follow the chord-partner branch phi(t) from a starting pair.

    With ``phi_start`` omitted, ``t_start`` must be a horizontal-tangent
    point; the branch is entered a parameter ``offset`` past it, with
    the partner a full turn ahead minus the offset.  Fixed-step
    fourth-order integration of the slope ODE, projected back onto the
    zero set after every step; halts are:

    * a sign change of phi' -> OBSTRUCTED, with the change bracketed;
    * a vanishing phi-derivative of the gap -> TERMINATED;
    * the diagonal reached, or a full period covered -> MONOTONE.

    ``stop_at_obstruction=False`` records the first slope reversal but
    keeps integrating (the status stays OBSTRUCTED); forced assembly
    uses this to show what the folded family looks like.
    """
    period = curve.period
    t0 = float(t_start)
    if phi_start is None:
        w0 = float(legendrian_defect(curve, t0))
        if abs(w0) > 1e-6:
            raise ValueError("branch seeding needs a horizontal-tangent "
                             f"start; defect there is {w0:.3e}")
        t = t0 + offset
        phi = t0 + period - offset
    else:
        t = t0
        phi = float(phi_start)
        if phi <= t:
            phi += period
    if diag_gap is None:
        diag_gap = max(offset, 1e-6)
    h = period / n_steps
    ts = [t]
    phis = [phi]
    try:
        slope0 = _phi_slope(curve, t, phi, den_tol)
    except ZeroDivisionError:
        return Continuation(status="TERMINATED", t=np.asarray(ts),
                            phi=np.asarray(phis),
                            phi_prime=np.asarray([math.nan]),
                            obstruction_t=None, diagonal_t=None,
                            reason="vanishing denominator at the seed")
    slopes = [slope0]
    sign0 = math.copysign(1.0, slope0)
    t_end = t0 + period
    obstruction_t = None

    def finish(status, diagonal_t, reason):
        if obstruction_t is not None:
            status = "OBSTRUCTED"
        return Continuation(status=status, t=np.asarray(ts),
                            phi=np.asarray(phis),
                            phi_prime=np.asarray(slopes),
                            obstruction_t=obstruction_t,
                            diagonal_t=diagonal_t, reason=reason)

    def rk4(tc, pc, hc):
        k1 = _phi_slope(curve, tc, pc, den_tol)
        k2 = _phi_slope(curve, tc + hc / 2, pc + hc * k1 / 2, den_tol)
        k3 = _phi_slope(curve, tc + hc / 2, pc + hc * k2 / 2, den_tol)
        k4 = _phi_slope(curve, tc + hc, pc + hc * k3, den_tol)
        out = pc + hc * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        # the branch is the zero set of the gap, not the ODE trajectory;
        # project back so the chords stay horizontal to round-off
        for _ in range(3):
            f, _, f_phi = access_partials(curve, tc + hc, out)
            if abs(float(f_phi)) <= den_tol:
                break
            out -= float(f) / float(f_phi)
        return out

    while t < t_end - 1e-12:
        hc = min(h, t_end - t)
        try:
            phi_new = rk4(t, phi, hc)
            slope_new = _phi_slope(curve, t + hc, phi_new, den_tol)
        except ZeroDivisionError:
            if obstruction_t is None:
                return finish("TERMINATED", None, "vanishing denominator")
            return finish("OBSTRUCTED", None, "vanishing denominator")
        if math.copysign(1.0, slope_new) != sign0:
            # bracket the slope's zero crossing to resolve the halt point
            lo, hi = t, t + hc
            p_lo = phi
            for _ in range(12):
                mid = 0.5 * (lo + hi)
                try:
                    p_mid = rk4(lo, p_lo, mid - lo)
                    s_mid = _phi_slope(curve, mid, p_mid, den_tol)
                except ZeroDivisionError:
                    break
                if math.copysign(1.0, s_mid) == sign0:
                    lo, p_lo = mid, p_mid
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
            if obstruction_t is None:
                obstruction_t = t_star
            if stop_at_obstruction:
                ts.append(t_star)
                phis.append(p_lo)
                slopes.append(0.0)
                return finish("OBSTRUCTED", None, "slope changed sign")
            sign0 = math.copysign(1.0, slope_new)
        t += hc
        phi = phi_new
        ts.append(t)
        phis.append(phi)
        slopes.append(slope_new)
        if phi - t <= diag_gap:
            return finish("MONOTONE", 0.5 * (phi + t),
                          "reached the diagonal")
        if phi - t >= 2.0 * period - diag_gap:
            return finish("MONOTONE", 0.5 * (phi + t) - period,
                          "reached the diagonal from above")
    return finish("MONOTONE", None, "full period covered")


# ---------------------------------------------------------------------------
# Assembling the chord family

@dataclass(frozen=True)
class AssembleReport:
    ok: bool
    fold_ok: bool
    vertex: Optional[tuple]      # common crossing point, when one exists
    max_rule_defect: float       # worst |w| over ends and midpoints
    max_on_manifold: float       # worst |F(t, phi(t))| along the branch
    n_chords: int
    continuation: Continuation
    chords: np.ndarray           # (n, 2, 3): endpoint triples


def spanning_assemble(curve: ClosedCurve, cont: Continuation, *,
                      force: bool = False, n_chords: int = 128,
                      vertex_tol: float = 1e-6) -> AssembleReport:
    """Sweep the branch ``cont`` into a candidate spanning disk.

    Requires a MONOTONE branch unless ``force`` overrides; the forced
    path (continued with ``stop_at_obstruction=False``) still measures
    everything and reports the fold instead of hiding it.  The planar
    projections of the chords may meet; they must do so at one common
    point (the candidate's center) or the family folds over itself.
    """
    if cont.status != "MONOTONE" and not force:
        raise ValueError(f"branch is {cont.status}, not MONOTONE; "
                         "pass force=True to assemble anyway")
    idx = np.linspace(0, cont.t.size - 1, min(n_chords, cont.t.size))
    idx = np.unique(idx.astype(int))
    t_sel = cont.t[idx]
    phi_sel = cont.phi[idx]
    a = np.column_stack(curve.point(t_sel))
    b = np.column_stack(curve.point(np.mod(phi_sel, curve.period)))
    chords = np.stack([a, b], axis=1)
    f_vals = access_value(curve, t_sel, np.mod(phi_sel, curve.period))
    max_f = float(np.abs(f_vals).max())
    # a straight chord has constant frame defect equal to the vertical
    # gap of its endpoints, so ends and midpoint share one number
    defect = []
    for (p, q) in chords:
        for lam in (0.0, 0.5, 1.0):
            x = (1 - lam) * p[0] + lam * q[0]
            y = (1 - lam) * p[1] + lam * q[1]
            vx, vy, vt = q[0] - p[0], q[1] - p[1], q[2] - p[2]
            defect.append(abs(vt + 0.5 * (y * vx - x * vy)))
    max_rule_defect = float(max(defect))
    hits = segment_crossings(chords[:, 0, :2], chords[:, 1, :2])
    vertex = None
    fold_ok = True
    if hits:
        pts = np.asarray([h[2] for h in hits], dtype=float)
        center = pts.mean(axis=0)
        spread = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        if float(spread.max()) <= vertex_tol:
            vertex = (float(center[0]), float(center[1]))
        else:
            fold_ok = False
    ok = fold_ok and cont.status == "MONOTONE" and max_rule_defect <= 1e-10
    return AssembleReport(ok=ok, fold_ok=fold_ok, vertex=vertex,
                          max_rule_defect=max_rule_defect,
                          max_on_manifold=max_f,
                          n_chords=int(t_sel.size), continuation=cont,
                          chords=chords)


# ---------------------------------------------------------------------------
# Verdict for curves without horizontal tangents

@dataclass(frozen=True)
class Verdict:
    status: str                  # NO_RULED_SPANNING_GRAPH | INCONCLUSIVE
    legendrian_min: float
    planar_window: Optional[tuple]   # (start, end, residual) if found


def nonlegendrian_verdict(curve: ClosedCurve, *, n: int = 1024,
                          window: float = 0.1, w_tol: float = 1e-6,
                          plane_tol: float = 1e-8) -> Verdict:
    """Rule out a ruled spanning graph for fully non-horizontal curves.

    Two escape hatches keep the verdict honest: a vanishing defect
    somewhere, or a genuinely planar arc of parameter length at least
    ``window`` (where a planar ruling needs no horizontal tangents).
    """
    thetas = np.linspace(0.0, curve.period, n, endpoint=False)
    w = np.abs(legendrian_defect(curve, thetas))
    w_min = float(w.min())
    planar = None
    starts = np.linspace(0.0, curve.period, 512, endpoint=False)
    m = max(int(math.ceil(window / (curve.period / 64))), 8)
    for s0 in starts:
        sample = np.linspace(s0, s0 + window, m)
        pts = np.column_stack(curve.point(np.mod(sample, curve.period)))
        _, _, residual = plane_fit(pts)
        if residual <= plane_tol:
            planar = (float(s0), float(s0 + window), float(residual))
            break
    if w_min > w_tol and planar is None:
        return Verdict(status="NO_RULED_SPANNING_GRAPH",
                       legendrian_min=w_min, planar_window=None)
    return Verdict(status="INCONCLUSIVE", legendrian_min=w_min,
                   planar_window=planar)
