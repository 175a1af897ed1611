"""Acceptance battery: the package's headline guarantees, one test each.

Every test prints a single ``criterion N: PASS/FAIL (...)`` line on the
real terminal (bypassing capture) and then asserts, so a full run shows
twelve verdict lines.  Expected values come from closed forms where one
exists and from frozen independent computations otherwise; tolerances are
stated inline.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from heisminimal import cli, heis
from heisminimal.expr import deriv, evaluate, parse, to_text
from heisminimal.flow import (PlanarField, gauss_perp_field, mollify,
                              picard, straightness)
from heisminimal.graph import (Bump, ExprPatch, InterfaceCurve,
                               bump_battery, gauss_grid, glue_check,
                               minimality_residual, patch_from_config,
                               variation)
from heisminimal.plateau import (ClosedCurve, access_partials, access_set,
                                 access_value, legendrian_defect,
                                 nonlegendrian_verdict, phi_continue,
                                 spanning_assemble)
from heisminimal.quadrature import gauss_legendre
from heisminimal.ruled import (HeightProfile, RuledLiftPatch, RuledSurface,
                               SeedCurve, beta_denominator_roots, char_locus,
                               persistence_check, persistent_family,
                               surface_from_config)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TWO_PI = 2.0 * math.pi
# frozen continuation landmarks of the two closed test curves
ALPHA = 2.7770844908340435
T_STAR = 1.4712695926215387

RULED_BATTERY = ("ruled_line", "ruled_circle", "ruled_ellipse_arc",
                 "ruled_spiral_arc", "ruled_spline")


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _battery_surface(name: str) -> RuledSurface:
    return surface_from_config(_fixture(name)["surface"])


def _curve(name: str) -> ClosedCurve:
    return ClosedCurve.from_config(_fixture(name)["curve"])


def test_criterion_01_quadratic_family(capsys):
    """50 random parameter tuples: harmonic to 1e-8, residual to 1e-6."""
    rng = np.random.default_rng(20270819)
    worst_lap = worst_strong = 0.0
    for _ in range(50):
        m, a, b, x0, y0 = rng.uniform(-2.0, 2.0, 5)
        patch = persistent_family("QUADRATIC", m=m, a=a, b=b, x0=x0, y0=y0,
                                  rect=(-2.0, 2.0, -2.0, 2.0))
        rep = persistence_check(patch)
        worst_lap = max(worst_lap, rep.laplacian_dual, rep.laplacian_fd)
        worst_strong = max(worst_strong, rep.strong)
    ok = worst_lap <= 1e-8 and worst_strong <= 1e-6
    _report(capsys, 1, ok,
            f"50 tuples, laplacian <= {worst_lap:.2e}, "
            f"strong residual <= {worst_strong:.2e}")


def test_criterion_02_helicoid_family(capsys):
    """Random multiples of the polar angle: residual to 1e-6 on an annulus."""
    rng = np.random.default_rng(20270820)
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(0.2, 1.5)
        b = rng.uniform(-1.0, 1.0)
        patch = persistent_family("HELICOID", a=a, b=b,
                                  rect=(-2.0, 2.0, -2.0, 2.0),
                                  hole_radius=0.5, outer_radius=2.0)
        rep = persistence_check(patch)
        worst = max(worst, rep.strong, rep.laplacian_dual, rep.laplacian_fd)
    ok = worst <= 1e-6
    _report(capsys, 2, ok,
            f"5 random (a, b) on 0.5 <= rho <= 2, worst defect {worst:.2e}")


def test_criterion_03_ruled_battery_minimality(capsys):
    """Five seed/height pairs: strong 1e-6 and weak 1e-5 off the locus."""
    worst_strong = worst_weak = 0.0
    total_bumps = 0
    for name in RULED_BATTERY:
        patch = RuledLiftPatch(_battery_surface(name))
        rep = minimality_residual(patch)
        worst_strong = max(worst_strong, rep.strong)
        worst_weak = max(worst_weak, rep.weak)
        total_bumps += rep.n_bumps
    ok = worst_strong <= 1e-6 and worst_weak <= 1e-5 and total_bumps >= 20
    _report(capsys, 3, ok,
            f"5 surfaces, strong <= {worst_strong:.2e}, "
            f"weak <= {worst_weak:.2e} over {total_bumps} bumps")


def test_criterion_04_characteristic_roots_two_routes(capsys):
    """Stable quadratic roots against denominator scans, plus the circle."""
    worst = 0.0
    worst_wide = 0.0
    compared = 0
    counts_agree = True
    for name in RULED_BATTERY:
        base = _battery_surface(name)
        # second pass with a widened radius window, so surfaces whose
        # configured band dodges the locus still contribute roots; near
        # the discriminant's zeros the scan can only localize to the
        # square root of machine precision, hence the looser bar there
        wide = RuledSurface(base.seed, base.h0, (-3.0, 3.0), validate=False)
        s0, s1 = base.seed.s_range
        if base.seed.closed:
            svals = np.linspace(s0, s1, 9, endpoint=False)
        else:
            pad = 0.05 * (s1 - s0)
            svals = np.linspace(s0 + pad, s1 - pad, 9)
        for s in svals:
            for surf, bar in ((base, "strict"), (wide, "wide")):
                r0, r1 = surf.r_range
                loc = char_locus(surf, s_grid=np.asarray([float(s)]))
                rs = loc.roots[0]
                rs = np.sort(rs[np.isfinite(rs) & (rs >= r0) & (rs <= r1)])
                scan = beta_denominator_roots(surf, float(s))
                if len(rs) != len(scan):
                    counts_agree = False
                    continue
                if not len(rs):
                    continue
                gap = float(np.abs(rs - scan).max())
                if bar == "strict":
                    worst = max(worst, gap)
                    compared += len(rs)
                else:
                    worst_wide = max(worst_wide, gap)

    seed = SeedCurve.from_exprs("cos(s)", "sin(s)", (0.0, TWO_PI))
    circle = RuledSurface(seed, HeightProfile.from_expr("0"), (-2.0, 0.5))
    loc = char_locus(circle, s_grid=33)
    finite = loc.roots[np.isfinite(loc.roots)]
    circle_ok = (bool(loc.double.all())
                 and float(np.abs(loc.disc).max()) <= 1e-10
                 and float(np.abs(finite + 1.0).max()) <= 1e-9)

    ok = (counts_agree and compared >= 15 and worst <= 1e-9
          and worst_wide <= 1e-6 and circle_ok)
    _report(capsys, 4, ok,
            f"{compared} in-band roots agree to {worst:.2e} "
            f"(widened window {worst_wide:.2e}); circle double root "
            f"r = -1 with |disc| <= {float(np.abs(loc.disc).max()):.1e}")


def test_criterion_05_glue_interface(capsys):
    """Piecewise pair: exact normal continuity, weak form to 1e-4."""
    cfg = _fixture("glue_example")
    side1 = patch_from_config(cfg["side1"])
    side2 = patch_from_config(cfg["side2"])
    interface = InterfaceCurve.from_config(cfg["interface"])
    rep = glue_check(side1, side2, interface, bump_count=20)
    ok = (rep.defect == 0.0 and rep.glue_pass
          and len(rep.bump_integrals) == 20
          and rep.weak_defect is not None and rep.weak_defect <= 1e-4)
    _report(capsys, 5, ok,
            f"interface defect {rep.defect!r}, weak defect "
            f"{rep.weak_defect:.2e} over {len(rep.bump_integrals)} bumps")


def test_criterion_06_good_curve_spans(capsys):
    """Isolated start, monotone continuation to its landmark, no folds."""
    curve = _curve("good_curve")
    aset = access_set(curve, 0.0)
    gaps = np.minimum(aset.thetas % TWO_PI, TWO_PI - aset.thetas % TWO_PI)
    singleton = aset.thetas.size >= 1 and float(gaps.max()) <= 1e-6
    interior = np.linspace(0.05, TWO_PI - 0.05, 20001)
    floor = float(np.abs(access_value(curve, 0.0, interior)).min())
    cont = phi_continue(curve, 0.0)
    rep = spanning_assemble(curve, cont)
    ok = (singleton and floor > 1e-9
          and cont.status == "MONOTONE"
          and cont.diagonal_t is not None
          and abs(cont.diagonal_t - ALPHA) <= 1e-3
          and rep.ok and rep.fold_ok)
    _report(capsys, 6, ok,
            f"access set {{0}} (interior floor {floor:.1e}), MONOTONE to "
            f"t = {cont.diagonal_t:.6f}, fold-free mesh of {rep.n_chords} "
            "rules")


def test_criterion_07_bad_curve_obstructed(capsys):
    """Continuation stalls inside the expected window."""
    curve = _curve("bad_curve")
    cont = phi_continue(curve, 0.0)
    t = cont.obstruction_t
    ok = (cont.status == "OBSTRUCTED" and t is not None
          and math.pi / 2 - 0.5 < t < math.pi / 2 + 0.5
          and abs(t - T_STAR) <= 1e-4)
    _report(capsys, 7, ok,
            f"OBSTRUCTED at t* = {t:.6f} in (pi/2 - 0.5, pi/2 + 0.5)")


def test_criterion_08_nonlegendrian_floor(capsys):
    """Horizontality defect bounded away from zero rules out a graph."""
    curve = _curve("nonlegendrian_curve")
    thetas = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
    w_min = float(np.abs(legendrian_defect(curve, thetas)).min())
    verdict = nonlegendrian_verdict(curve)
    ok = (0.374 <= w_min <= 0.376
          and verdict.status == "NO_RULED_SPANNING_GRAPH")
    _report(capsys, 8, ok,
            f"min |w| = {w_min:.6f} over 10^4 samples, "
            f"verdict {verdict.status}")


def test_criterion_09_flow_traces(capsys):
    """Fixed-point orbits, straight rule traces, mollified error budget."""
    # rotation field against the exact orbit over a full period
    rot = PlanarField.from_exprs("-y", "x", (-1.2, 1.2, -1.2, 1.2))
    orbit = picard(rot, (1.0, 0.0), TWO_PI)
    sup = float(np.hypot(orbit.x - np.cos(orbit.t),
                         orbit.y - np.sin(orbit.t)).max())

    # traces along the perpendicular of the unit Gauss map are rules
    patch = ExprPatch("x*y/2", (-1.5, 1.5, 0.2, 1.5))
    field = gauss_perp_field(patch)
    worst_straight = 0.0
    for start in ((0.9, 0.5), (-0.9, 0.5), (0.3, 1.0)):
        tr = picard(field, start, 0.25)
        worst_straight = max(worst_straight, straightness(tr))

    # mollified flows stay within twice the measured field gap
    def kink(x, y):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x), np.abs(x)

    base = PlanarField(kink, (-1.0, 1.0, -1.0, 1.0), name="kink")
    true = picard(base, (-0.75, -0.5), 1.1)
    budget_ok = True
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        mol = mollify(base, eps)
        tr = picard(mol, (-0.75, -0.5), 1.1)
        diff = np.hypot(tr.x - true.x, tr.y - true.y)
        bound = 2.0 * mol.sup_gap * tr.t + 1e-9
        budget_ok = budget_ok and bool(np.all(diff <= bound))
        gaps.append(mol.sup_gap)

    ok = sup <= 1e-6 and worst_straight <= 1e-8 and budget_ok
    _report(capsys, 9, ok,
            f"orbit sup {sup:.2e}, straightness <= {worst_straight:.2e}, "
            f"mollified within 2*M_k*t for M_k = "
            f"{', '.join(f'{g:.3f}' for g in gaps)}")


def test_criterion_10_variational_checks(capsys):
    """Vanishing first variation on minimal patches, detection on x^2."""
    minimal = [
        patch_from_config(_fixture("patch_flat")["patch"]),
        persistent_family("QUADRATIC", **{
            k: v for k, v in _fixture("persistent_quadratic")["family"].items()
            if k != "kind"}),
    ]
    hel = dict(_fixture("persistent_helicoid")["family"])
    hel.pop("kind")
    hel["rect"] = tuple(hel["rect"])
    minimal.append(persistent_family("HELICOID", **hel))

    worst_first = 0.0
    worst_second = 0.0
    n_bumps = 0
    for patch in minimal:
        for phi in bump_battery(patch, 20):
            v = variation(patch, phi)
            worst_first = max(worst_first, abs(v.first))
            worst_second = min(worst_second, v.second)
            n_bumps += 1
    minimal_ok = worst_first <= 1e-6 and worst_second >= -1e-10

    # a visibly non-minimal graph: some bump sees a first variation,
    # and the analytic value matches a central-difference oracle taken
    # on the same quadrature grid
    patch = ExprPatch("x^2", (0.5, 2.5, -1.0, 1.0))
    eps = 1e-5
    peak = 0.0
    worst_rel = 0.0
    for phi in bump_battery(patch, 20):
        v = variation(patch, phi)
        sx0, sx1, sy0, sy1 = phi.support
        xs, wx = gauss_legendre(24, sx0, sx1)
        ys, wy = gauss_legendre(24, sy0, sy1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        p, q, _ = gauss_grid(patch, X, Y)
        gx, gy = phi.grad(X, Y)

        def e_of(sgn):
            mag = np.hypot(p + sgn * eps * gx, q + sgn * eps * gy)
            return float(np.einsum("i,j,ij->", wx, wy, mag))

        oracle = (e_of(+1.0) - e_of(-1.0)) / (2.0 * eps)
        peak = max(peak, abs(v.first))
        worst_rel = max(worst_rel, abs(v.first - oracle) / abs(oracle))
    nonmin_ok = peak >= 1e-3 and worst_rel <= 1e-6

    ok = minimal_ok and nonmin_ok
    _report(capsys, 10, ok,
            f"{n_bumps} bumps on minimal patches: |E'(0)| <= "
            f"{worst_first:.2e}, E''(0) >= {worst_second:.2e}; x^2 peak "
            f"|E'(0)| = {peak:.2e} matches oracle to {worst_rel:.2e}")


def test_criterion_11_invariant_suites(capsys):
    """1000 randomized trials per module against its structural laws."""
    rng = np.random.default_rng(20270821)
    checks: list[tuple[str, bool]] = []

    # group, frame, and jet machinery
    ok = True
    for _ in range(1000):
        g, h, k = (heis.HPoint(*rng.uniform(-3, 3, 3)) for _ in range(3))
        lhs = heis.mul(heis.mul(g, h), k)
        rhs = heis.mul(g, heis.mul(h, k))
        scale = 1.0 + max(abs(c) for c in (*lhs, *rhs))
        ok &= all(abs(a - b) <= 1e-12 * scale for a, b in zip(lhs, rhs))
        ok &= heis.mul(g, heis.inv(g)) == (0.0, 0.0, 0.0)
        base = heis.HPoint(*rng.uniform(-3, 3, 3))
        v = tuple(rng.uniform(-3, 3, 3))
        w = heis.frame_decompose(base, v).w
        moved = (v[0], v[1], v[2] + 0.5 * (g.x * v[1] - v[0] * g.y))
        w2 = heis.frame_decompose(heis.mul(g, base), moved).w
        s = float(rng.uniform(0.3, 2.0))
        wd = heis.frame_decompose(
            heis.dilate(s, base), (s * v[0], s * v[1], s * s * v[2])).w
        sc = 1.0 + abs(w)
        ok &= abs(w2 - w) <= 1e-12 * sc and abs(wd - s * s * w) <= 1e-11 * sc
    checks.append(("group/frame", ok))

    # second-order jets against exact polynomial derivatives
    e = parse("c0 + c1*x + c2*x^2 + c3*x^3 + c4*x^4",
              ("x", "c0", "c1", "c2", "c3", "c4"))
    x = rng.uniform(-2, 2, 1000)
    c = rng.uniform(-2, 2, (5, 1000))
    env = {"x": x, **{f"c{i}": c[i] for i in range(5)}}
    d1 = deriv(e, "x", 1, env)
    d2 = deriv(e, "x", 2, env)
    r1 = c[1] + 2 * c[2] * x + 3 * c[3] * x ** 2 + 4 * c[4] * x ** 3
    r2 = 2 * c[2] + 6 * c[3] * x + 12 * c[4] * x ** 2
    checks.append(("jets", bool(np.abs(d1 - r1).max() <= 1e-10)
                   and bool(np.abs(d2 - r2).max() <= 1e-10)))

    # quadrature: degree-7 exactness of the 4-point rule
    ok = True
    for _ in range(1000):
        coef = rng.uniform(-2, 2, 8)
        a = float(rng.uniform(-3, 0))
        b = a + float(rng.uniform(0.5, 3))
        xs, wsx = gauss_legendre(4, a, b)
        got = float(wsx @ np.polynomial.polynomial.polyval(xs, coef))
        ind = np.polynomial.polynomial.polyint(coef)
        exact = float(np.polynomial.polynomial.polyval(b, ind)
                      - np.polynomial.polynomial.polyval(a, ind))
        ok &= abs(got - exact) <= 1e-12 * (1.0 + abs(exact))
    checks.append(("quadrature", ok))

    # expression engine against a parallel numpy evaluation
    templates = [
        ("sin(x)*cos(y) + x^2*y", lambda X, Y: np.sin(X) * np.cos(Y)
         + X ** 2 * Y),
        ("exp(x/3) - y/(1 + x^2)", lambda X, Y: np.exp(X / 3)
         - Y / (1 + X ** 2)),
        ("atan2(y, x + 4)", lambda X, Y: np.arctan2(Y, X + 4)),
        ("sqrt(x^2 + y^2 + 1)", lambda X, Y: np.sqrt(X ** 2 + Y ** 2 + 1)),
        ("tan(x/4) + atan(y)", lambda X, Y: np.tan(X / 4) + np.arctan(Y)),
    ]
    ok = True
    for src, ref in templates:
        expr = parse(src, ("x", "y"))
        X = rng.uniform(-2, 2, 200)
        Y = rng.uniform(-2, 2, 200)
        got = evaluate(expr, {"x": X, "y": Y})
        want = ref(X, Y)
        ok &= bool(np.allclose(got, want, rtol=1e-12, atol=1e-12))
        again = evaluate(parse(to_text(expr), ("x", "y")), {"x": X, "y": Y})
        ok &= bool(np.array_equal(got, again))
    checks.append(("expressions", ok))

    # graph patches: horizontal gauss components against height differences
    ok = True
    for _ in range(10):
        m, a, b_, x0, y0 = rng.uniform(-1.5, 1.5, 5)
        patch = persistent_family("QUADRATIC", m=m, a=a, b=b_, x0=x0, y0=y0)
        X = rng.uniform(-1.8, 1.8, 100)
        Y = rng.uniform(-1.8, 1.8, 100)
        p, q, _ = gauss_grid(patch, X, Y)
        h = 1e-6
        ux = (patch.height(X + h, Y) - patch.height(X - h, Y)) / (2 * h)
        uy = (patch.height(X, Y + h) - patch.height(X, Y - h)) / (2 * h)
        ok &= bool(np.abs(p - (ux + Y / 2)).max() <= 1e-6)
        ok &= bool(np.abs(q - (uy - X / 2)).max() <= 1e-6)
    for _ in range(20):
        bump = Bump(*rng.uniform(-1, 1, 2), *rng.uniform(0.1, 0.5, 2))
        sx0, sx1, sy0, sy1 = bump.support
        xs = np.concatenate([sx1 + rng.uniform(0.0, 2.0, 25),
                             sx0 - rng.uniform(0.0, 2.0, 25)])
        ys = rng.uniform(sy0 - 2, sy1 + 2, 50)
        ok &= bool(np.all(bump.value(xs, ys) == 0.0))
    checks.append(("graph", ok))

    # ruled lifts: rules are horizontal, footprint jacobian affine in r
    ok = True
    h = 1e-6
    for i in range(20):
        if i % 2 == 0:
            phi0, px, py = (float(v) for v in rng.uniform(-3, 3, 3))
            seed = SeedCurve.from_exprs(
                f"({px!r}) + s*({math.cos(phi0)!r})",
                f"({py!r}) + s*({math.sin(phi0)!r})", (-2.0, 2.0))
        else:
            R = float(rng.uniform(0.7, 2.0))
            cx, cy = (float(v) for v in rng.uniform(-1, 1, 2))
            seed = SeedCurve.from_exprs(
                f"({cx!r}) + ({R!r})*cos(s/({R!r}))",
                f"({cy!r}) + ({R!r})*sin(s/({R!r}))", (0.0, 2.5))
        c0, c1 = (float(v) for v in rng.uniform(-1, 1, 2))
        surf = RuledSurface(seed, HeightProfile.from_expr(
            f"({c0!r}) + ({c1!r})*s"), (-1.5, 1.5))
        s0, s1 = surf.seed.s_range
        svals = rng.uniform(s0 + 0.05, s1 - 0.05, 50)
        rvals = rng.uniform(-1.4, 1.4, 50)
        for s, r in zip(svals, rvals):
            xm, ym, tm = surf.lift(s, r - h)
            xp, yp, tp = surf.lift(s, r + h)
            xc, yc, _ = surf.lift(s, r)
            w_rule = ((tp - tm) + 0.5 * yc * (xp - xm)
                      - 0.5 * xc * (yp - ym)) / (2 * h)
            ok &= abs(w_rule) <= 1e-7 * (1.0 + abs(xc) + abs(yc))

        def detDF(s, r):
            xps, yps, _ = surf.lift(s + h, r)
            xms, yms, _ = surf.lift(s - h, r)
            xpr, ypr, _ = surf.lift(s, r + h)
            xmr, ymr, _ = surf.lift(s, r - h)
            return ((xps - xms) * (ypr - ymr)
                    - (xpr - xmr) * (yps - yms)) / (4 * h * h)

        s_mid = float(rng.uniform(s0 + 0.1, s1 - 0.1))
        ok &= abs(detDF(s_mid, 0.0) + 1.0) <= 1e-5
        d_lo, d_mid, d_hi = (detDF(s_mid, r) for r in (-1.0, 0.0, 1.0))
        ok &= abs(d_mid - 0.5 * (d_lo + d_hi)) <= 1e-5
    checks.append(("ruled", ok))

    # closed curves: antisymmetry, vanishing diagonal, diagonal slope
    ok = True
    for _ in range(10):
        a1, a2, b1 = (float(v) for v in rng.uniform(-0.4, 0.4, 3))
        curve = ClosedCurve(
            f"cos(theta) + ({a1!r})*sin(2*theta)",
            f"sin(theta) + ({a2!r})*cos(3*theta)",
            f"({b1!r})*sin(theta)")
        t = rng.uniform(0.0, TWO_PI, 100)
        th = rng.uniform(0.0, TWO_PI, 100)
        f1 = access_value(curve, t, th)
        f2 = access_value(curve, th, t)
        ok &= bool(np.abs(f1 + f2).max() <= 1e-12 * (1 + np.abs(f1).max()))
        diag = access_value(curve, t, t)
        ok &= bool(np.all(diag == 0.0))
        _, _, f_phi = access_partials(curve, t, t)
        w = legendrian_defect(curve, t)
        ok &= bool(np.abs(f_phi - w).max() <= 1e-12 * (1 + np.abs(w).max()))
    checks.append(("closed curves", ok))

    # integral curves obey the field bound as a Lipschitz constant
    ok = True
    fields = [
        PlanarField.from_exprs("-y", "x", (-1.2, 1.2, -1.2, 1.2)),
        PlanarField.from_exprs("0.4 - 0.2*y", "0.3*x + 0.1",
                               (-1.5, 1.5, -1.5, 1.5)),
        PlanarField.from_exprs("0.7", "-0.4", (-2.0, 2.0, -2.0, 2.0)),
    ]
    starts = [(1.0, 0.0), (0.2, -0.3), (-0.5, 0.5)]
    for field, start in zip(fields, starts):
        tr = picard(field, start, 1.5)
        bound = field.bound()
        i = rng.integers(0, tr.t.size, 334)
        j = rng.integers(0, tr.t.size, 334)
        step = np.hypot(tr.x[i] - tr.x[j], tr.y[i] - tr.y[j])
        ok &= bool(np.all(step <= bound * np.abs(tr.t[i] - tr.t[j]) + 1e-10))
    checks.append(("flow", ok))

    # cli: mutated configs are rejected with exit code 2, never a crash
    ok = True
    templates_cli = [
        ("gauss-scan", _fixture("patch_flat")),
        ("char-locus", _fixture("ruled_line")),
        ("persistent", _fixture("persistent_quadratic")),
        ("plateau-scan", _fixture("good_curve")),
        ("glue-check", _fixture("glue_example")),
        ("flow-trace", _fixture("flow_rotation")),
    ]
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        cfg_path = Path(td) / "cfg.json"
        out = Path(td) / "out"
        for k in range(1000):
            command, base = templates_cli[k % len(templates_cli)]
            mutated = dict(base)
            if k % 2 == 0:
                mutated[f"bogus_{k}"] = 1
            else:
                required = sorted(set(mutated) - {"t_start", "phi_start",
                                                  "force", "n_chords"})
                del mutated[required[k % len(required)]]
            cfg_path.write_text(json.dumps(mutated))
            rc = cli.main([command, "--input", str(cfg_path),
                           "--out", str(out)])
            ok &= rc == 2
    checks.append(("cli", ok))

    failed = [name for name, good in checks if not good]
    _report(capsys, 11, not failed,
            "group/frame, jets, quadrature, expressions, graph, ruled, "
            "closed curves, flow, cli all hold"
            if not failed else f"failed suites: {failed}")


def test_criterion_12_deterministic_artifacts(capsys, tmp_path):
    """Two consecutive runs per fixture produce byte-identical artifacts."""
    table = [
        ("good_curve", "plateau-scan"),
        ("bad_curve", "phi-continue"),
        ("complicated_curve", "plateau-scan"),
        ("nonlegendrian_curve", "plateau-scan"),
        ("planar_circle", "plateau-scan"),
        ("ruled_line", "char-locus"),
        ("ruled_circle", "char-locus"),
        ("ruled_ellipse_arc", "char-locus"),
        ("ruled_spiral_arc", "char-locus"),
        ("ruled_spline", "char-locus"),
        ("glue_example", "glue-check"),
        ("persistent_quadratic", "persistent"),
        ("persistent_helicoid", "persistent"),
        ("patch_flat", "gauss-scan"),
        ("flow_rotation", "flow-trace"),
    ]
    assert {name for name, _ in table} == {
        p.stem for p in FIXTURES.glob("*.json")}
    mismatched = []
    n_files = 0
    for name, command in table:
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / name / tag
            rc = cli.main([command, "--input",
                           str(FIXTURES / f"{name}.json"),
                           "--out", str(out)])
            assert rc == 0, (name, command)
            blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
        if blobs[0] != blobs[1]:
            mismatched.append(name)
        n_files += len(blobs[0])
    ok = not mismatched
    _report(capsys, 12, ok,
            f"15 fixtures, {n_files} artifacts byte-identical across reruns"
            if ok else f"mismatched fixtures: {mismatched}")
