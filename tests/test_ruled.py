"""Seed curves, ruled lifts, characteristic radii, crossings, persistence."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisminimal.graph import DomainError, ExprPatch, minimality_residual
from heisminimal.heis import HPoint
from heisminimal.ruled import (
    CharLocus,
    HeightProfile,
    RuledLiftPatch,
    RuledSurface,
    SeedCurve,
    SeedValidationError,
    beta_denominator_roots,
    char_locus,
    export_mesh,
    horizontal_thickness,
    normal_beta,
    persistence_check,
    persistent_family,
    quadratic_seed_surface,
    rule_crossing_scan,
    surface_from_config,
    validate_seed,
)

TWO_PI = 2.0 * math.pi


def circle_surface(r_range=(-0.6, 0.8)) -> RuledSurface:
    return surface_from_config({
        "gamma": ["cos(s)", "sin(s)"], "h0": "0",
        "s_range": [0.0, TWO_PI], "r_range": list(r_range),
    })


def axis_surface() -> RuledSurface:
    return surface_from_config({
        "gamma": ["s", "0"], "h0": "0",
        "s_range": [0.0, 3.0], "r_range": [-1.5, 1.5],
    })


def ellipse_arc_surface(r_range=(-0.25, 0.25)) -> RuledSurface:
    tau = np.linspace(0.2, 1.4, 160)
    return surface_from_config({
        "gamma": {"s": tau.tolist(),
                  "x": (1.3 * np.cos(tau)).tolist(),
                  "y": (0.8 * np.sin(tau)).tolist()},
        "h0": "0.1*sin(s)",
        "s_range": [0.2, 1.4], "r_range": list(r_range),
    })


class TestSeedCurve:
    def test_circle_is_closed_and_unit_speed(self):
        seed = SeedCurve.from_exprs("cos(s)", "sin(s)", (0.0, TWO_PI))
        assert seed.closed and abs(seed.period - TWO_PI) < 1e-12
        report = validate_seed(seed)
        assert report.ok
        assert report.max_deviation < 1e-12

    def test_double_speed_line_fails_everywhere(self):
        seed = SeedCurve.from_exprs("2*s", "0", (0.0, 1.0))
        report = validate_seed(seed)
        assert not report.ok
        assert report.violations.size == report.n == 1000
        assert report.max_deviation == pytest.approx(1.0)

    def test_sampled_seed_is_revalidated_after_refit(self):
        surf = ellipse_arc_surface()
        report = validate_seed(surf.seed)
        assert report.ok
        # refit must meet the same bar a closed-form seed would
        assert report.max_deviation <= 1e-8

    def test_sampled_seed_rejects_bad_tables(self):
        s = np.linspace(0, 1, 20)
        with pytest.raises(ValueError, match="at least 8"):
            SeedCurve.from_samples(s[:5], s[:5], s[:5])
        s_bad = s.copy()
        s_bad[10] = s_bad[9]
        with pytest.raises(ValueError, match="increasing"):
            SeedCurve.from_samples(s_bad, s, s)
    def test_retracing_samples_fail_revalidation(self):
        # x doubles back at tau = pi/2; the arclength refit cannot be
        # unit speed there and construction must refuse it
        tau = np.linspace(0.2, 2.9, 80)
        cfg = {"gamma": {"s": tau.tolist(),
                         "x": np.sin(tau).tolist(),
                         "y": (0.0 * tau).tolist()},
               "h0": "0", "s_range": [0.2, 2.9], "r_range": [-0.1, 0.1]}
        with pytest.raises(SeedValidationError):
            surface_from_config(cfg)

    def test_wrap_reduces_into_period(self):
        seed = SeedCurve.from_exprs("cos(s)", "sin(s)", (0.0, TWO_PI))
        assert seed.wrap(TWO_PI + 0.3) == pytest.approx(0.3)
        open_seed = SeedCurve.from_exprs("s", "0", (0.0, 1.0))
        assert open_seed.wrap(1.7) == 1.7


class TestRuledSurface:
    def test_axis_lift_is_half_product(self):
        surf = axis_surface()
        s = np.array([0.5, 1.0, 2.0])
        r = np.array([0.3, -0.8, 1.1])
        x, y, t = surf.lift(s, r)
        np.testing.assert_allclose(x, s)
        np.testing.assert_allclose(y, -r)
        np.testing.assert_allclose(t, x * y / 2.0, atol=1e-15)
        p = surf.lift_point(1.0, 0.5)
        assert isinstance(p, HPoint)
        assert p.t == pytest.approx(p.x * p.y / 2.0)

    def test_circle_lift_is_flat(self):
        surf = circle_surface()
        s = np.linspace(0, TWO_PI, 40)
        r = np.linspace(-0.5, 0.7, 40)
        _, _, t = surf.lift(s, r)
        assert np.abs(t).max() <= 1e-14

    def test_circle_footprint_scales_radially(self):
        surf = circle_surface()
        x, y, jac = surf.param_F(0.9, 0.4)
        assert float(x) == pytest.approx(1.4 * math.cos(0.9))
        assert float(y) == pytest.approx(1.4 * math.sin(0.9))
        assert float(jac) == pytest.approx(-1.4)

    def test_jacobian_determinant_matches_finite_differences(self):
        h = 1e-5
        for surf in (circle_surface(), ellipse_arc_surface()):
            s0, s1 = surf.seed.s_range
            r0, r1 = surf.r_range
            s = np.linspace(s0 + 0.05, s1 - 0.05, 9)
            r = np.linspace(r0 + 0.05, r1 - 0.05, 7)
            S, R = np.meshgrid(s, r, indexing="ij")
            def F(ss, rr):
                x, y, _ = surf.param_F(ss, rr, check=False)
                return x, y
            xs0, ys0 = F(S - h, R)
            xs1, ys1 = F(S + h, R)
            xr0, yr0 = F(S, R - h)
            xr1, yr1 = F(S, R + h)
            det_fd = ((xs1 - xs0) * (yr1 - yr0)
                      - (xr1 - xr0) * (ys1 - ys0)) / (4.0 * h * h)
            _, _, jac = surf.param_F(S, R, check=False)
            assert np.abs(det_fd - jac).max() <= 1e-8

    def test_rules_are_horizontal(self):
        # frame coefficient of the r-velocity of the lift
        for surf in (circle_surface(), ellipse_arc_surface()):
            s0, s1 = surf.seed.s_range
            s = np.linspace(s0, s1, 25)
            r = np.linspace(surf.r_range[0], surf.r_range[1], 11)
            S, R = np.meshgrid(s, r, indexing="ij")
            x, y, _ = surf.lift(S, R, check=False)
            j = surf.seed.jets(S)
            dx, dy = j[5], -j[1]
            dt = -0.5 * (j[0] * j[1] + j[4] * j[5])  # exact: t linear in r
            w = dt + 0.5 * y * dx - 0.5 * x * dy
            assert np.abs(w).max() <= 1e-10

    def test_range_checks_raise(self):
        surf = axis_surface()
        with pytest.raises(DomainError):
            surf.param_F(3.5, 0.0)
        with pytest.raises(DomainError):
            surf.lift(1.0, 2.0)
        closed = circle_surface()
        # closed seeds wrap in s but still enforce the radius range
        closed.param_F(7.0, 0.0)
        with pytest.raises(DomainError):
            closed.param_F(1.0, 0.9)

    def test_invalid_seed_rejected_at_construction(self):
        seed = SeedCurve.from_exprs("2*s", "0", (0.0, 1.0))
        h0 = HeightProfile.from_expr("0")
        with pytest.raises(SeedValidationError) as err:
            RuledSurface(seed, h0, (-1.0, 1.0))
        assert err.value.report.violations.size == 1000

    def test_bad_radius_range_rejected(self):
        seed = SeedCurve.from_exprs("s", "0", (0.0, 1.0))
        with pytest.raises(ValueError, match="positive length"):
            RuledSurface(seed, HeightProfile.from_expr("0"), (1.0, -1.0))


class TestCharLocus:
    def test_circle_double_root(self):
        loc = char_locus(circle_surface((-2.0, -0.5)), 33)
        np.testing.assert_allclose(loc.kappa, -1.0, atol=1e-12)
        np.testing.assert_allclose(loc.w0, -0.5, atol=1e-12)
        assert np.abs(loc.disc).max() <= 1e-10
        assert loc.double.all()
        assert (loc.n_roots == 1).all()
        np.testing.assert_allclose(loc.roots[:, 0], -1.0, atol=1e-12)
        # every in-range locus point footprints to the origin
        assert loc.points.shape[0] == 33
        assert np.abs(loc.points[:, 2:]).max() <= 1e-12

    def test_axis_single_root_at_zero(self):
        loc = char_locus(axis_surface(), 9)
        assert (loc.n_roots == 1).all()
        assert not loc.double.any()
        np.testing.assert_allclose(loc.roots[:, 0], 0.0, atol=1e-15)

    def test_straight_seed_root_equals_height_slope(self):
        surf = surface_from_config({
            "gamma": ["0.6*s", "0.8*s"], "h0": "0.37*s + 0.2",
            "s_range": [-2.0, 2.0], "r_range": [-2.0, 2.0],
        })
        loc = char_locus(surf, 9)
        np.testing.assert_allclose(loc.roots[:, 0], 0.37, atol=1e-12)

    def test_roots_satisfy_the_quadratic(self):
        surf = ellipse_arc_surface((-3.0, 3.0))
        loc = char_locus(surf, 65)
        s, r = loc.all_roots()
        assert r.size > 0
        f = surf._frame(s)
        residual = 0.5 * f["kappa"] * r * r - r + f["w0"]
        assert np.abs(residual).max() <= 1e-10

    def test_closed_form_agrees_with_denominator_scan(self):
        cases = [
            (ellipse_arc_surface((-3.0, 3.0)), (0.3, 0.7, 1.1)),
            (circle_surface((-2.0, -0.5)), (0.0, 2.0)),
            (axis_surface(), (0.5, 2.5)),
        ]
        for surf, samples in cases:
            for s in samples:
                scan = beta_denominator_roots(surf, s)
                loc = char_locus(surf, np.array([s]))
                closed = loc.roots[0][np.isfinite(loc.roots[0])]
                r0, r1 = surf.r_range
                closed = closed[(closed >= r0) & (closed <= r1)]
                assert scan.size == closed.size
                if scan.size:
                    assert np.abs(np.sort(scan) - np.sort(closed)).max() <= 1e-9


class TestNormalBeta:
    def test_circle_profile(self):
        surf = circle_surface()
        for s in (0.0, 1.3, 4.0):
            for r in (-0.5, 0.0, 0.4, 0.7):
                out = normal_beta(surf, s, r)
                assert not out.infinite
                assert out.value == pytest.approx(2.0 / (1.0 + r), rel=1e-12)

    def test_on_seed_value_is_reciprocal_slope(self):
        surf = ellipse_arc_surface()
        for s in (0.3, 0.8):
            w0 = float(surf.w0(np.array([s]))[0])
            out = normal_beta(surf, s, 0.0)
            assert out.value == pytest.approx(-1.0 / w0, rel=1e-12)

    def test_infinite_exactly_on_characteristic_radius(self):
        surf = circle_surface((-2.0, -0.5))
        hit = normal_beta(surf, 1.0, -1.0)
        assert hit.infinite and math.isnan(hit.value)
        for off in (1e-4, -1e-4):
            miss = normal_beta(surf, 1.0, -1.0 + off)
            assert not miss.infinite
            assert math.isfinite(miss.value)


class TestRuleCrossings:
    def test_parallel_rules_never_cross(self):
        report = rule_crossing_scan(axis_surface(), 64)
        assert report.crossings == ()
        assert report.diagnostic_pass

    def test_circle_rules_meet_at_the_center(self):
        report = rule_crossing_scan(circle_surface((-2.0, -0.5)), 64)
        assert len(report.crossings) > 0
        for c in report.crossings:
            assert math.hypot(c.x, c.y) <= 1e-12
            assert c.characteristic
        # many crossings per rule, but one point: diagnostic stays green
        assert report.diagnostic_pass

    def test_generic_arc_with_thin_rules_has_no_crossings(self):
        surf = ellipse_arc_surface()
        assert rule_crossing_scan(surf, 64).crossings == ()
        # sweep again at four times the resolution
        assert rule_crossing_scan(surf, 256).crossings == ()


class TestRuledLiftPatch:
    def test_axis_patch_matches_closed_form_exactly(self):
        patch = RuledLiftPatch(axis_surface(), rect=(0.3, 2.7, -1.2, 1.2))
        ref = ExprPatch("x*y/2", (0.3, 2.7, -1.2, 1.2))
        rng = np.random.default_rng(7)
        x = rng.uniform(0.4, 2.6, 200)
        y = rng.uniform(-1.1, 1.1, 200)
        for got, want in zip(patch.jet(x, y), ref.jet(x, y)):
            assert np.abs(got - want).max() <= 1e-12

    def test_circle_patch_is_flat(self):
        patch = RuledLiftPatch(circle_surface(), rect=(0.45, 1.1, 0.3, 0.95))
        rng = np.random.default_rng(3)
        x = rng.uniform(0.46, 1.09, 150)
        y = rng.uniform(0.31, 0.94, 150)
        assert patch.contains(x, y).all()
        for part in patch.jet(x, y):
            assert np.abs(part).max() <= 1e-12

    def test_points_off_the_swept_region_are_masked(self):
        patch = RuledLiftPatch(circle_surface())
        # inside the bounding box but in the hole of the annulus
        assert not patch.contains(0.05, 0.0)
        assert patch.contains(1.0, 0.0)

    def test_dropped_patch_is_freed_without_the_cycle_collector(self):
        surf = circle_surface()
        gc.disable()
        try:
            patch = RuledLiftPatch(surf, seed_grid=(24, 8))
            assert patch.contains(1.0, 0.0)
            ref = weakref.ref(patch)
            del patch
            assert ref() is None
        finally:
            gc.enable()

    def test_inversion_roundtrip(self):
        surf = ellipse_arc_surface()
        patch = RuledLiftPatch(surf)
        rng = np.random.default_rng(11)
        s = rng.uniform(0.05, 1.2, 120)
        r = rng.uniform(-0.2, 0.2, 120)
        x, y, _ = surf.param_F(s, r, check=False)
        s2, r2, ok = patch.invert(x, y)
        assert ok.all()
        assert np.abs(s2 - s).max() <= 1e-9
        assert np.abs(r2 - r).max() <= 1e-9

    def test_sampled_seed_lift_is_minimal(self):
        patch = RuledLiftPatch(ellipse_arc_surface())
        report = minimality_residual(patch)
        assert report.strong <= 1e-6
        assert report.weak <= 1e-5
        assert report.n_bumps == 20

    def test_gauss_direction_constant_along_rules(self):
        surf = ellipse_arc_surface()
        patch = RuledLiftPatch(surf)
        s = np.full(9, 0.7)
        r = np.linspace(-0.2, 0.2, 9)
        x, y, _ = surf.param_F(s, r, check=False)
        _, ux, uy, _, _, _ = patch.jet(x, y)
        p = ux + 0.5 * y
        q = uy - 0.5 * x
        mag = np.hypot(p, q)
        j = surf.seed.jets(s)
        cross = p * j[5] - q * j[1]  # component off the tangent line
        assert np.abs(cross / mag).max() <= 1e-9
        dots = (p * j[1] + q * j[5]) / mag
        assert (dots > 0).all() or (dots < 0).all()


class TestPersistentFamily:
    def test_flat_member_is_half_product(self):
        patch = persistent_family("QUADRATIC")
        x = np.array([1.0, -0.7, 0.3])
        y = np.array([2.0, 0.4, -1.1])
        np.testing.assert_allclose(patch.height(x, y), x * y / 2.0,
                                   atol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="finite"):
            persistent_family("QUADRATIC", m=math.inf)
        with pytest.raises(ValueError, match="origin"):
            persistent_family("HELICOID", a=1.0, hole_radius=0.0)
        with pytest.raises(ValueError, match="unknown"):
            persistent_family("CONE")

    @settings(max_examples=6, deadline=None)
    @given(m=st.floats(-4, 4), a=st.floats(-1, 1), b=st.floats(-1, 1),
           x0=st.floats(-0.8, 0.8), y0=st.floats(-0.8, 0.8))
    def test_quadratic_members_persist(self, m, a, b, x0, y0):
        patch = persistent_family("QUADRATIC", m=m, a=a, b=b, x0=x0, y0=y0)
        report = persistence_check(patch)
        assert report.persistent
        assert max(report.laplacian_dual, report.laplacian_fd) <= 1e-8
        assert report.strong <= 1e-6

    def test_quadratic_member_equals_its_ruled_lift(self):
        # same graph, reached two ways: height formula vs seeded rules
        params = [(0.0, 0.0, 0.0, 0.0, 0.0), (0.7, 0.3, -0.2, 0.5, -0.4),
                  (-2.1, 0.9, 0.4, -0.3, 0.6)]
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.9, 1.9, 250)
        y = rng.uniform(-1.9, 1.9, 250)
        for m, a, b, x0, y0 in params:
            formula = persistent_family("QUADRATIC", m=m, a=a, b=b,
                                        x0=x0, y0=y0)
            lifted = RuledLiftPatch(quadratic_seed_surface(m, a, b, x0, y0),
                                    rect=(-2, 2, -2, 2))
            for got, want in zip(lifted.jet(x, y), formula.jet(x, y)):
                assert np.abs(got - want).max() <= 1e-10

    def test_helicoid_members_persist(self):
        report = persistence_check(persistent_family("HELICOID", a=0.8,
                                                     b=0.1))
        assert report.persistent
        assert max(report.laplacian_dual, report.laplacian_fd) <= 1e-8


class TestPersistenceCheck:
    def test_half_product_passes(self):
        assert persistence_check(ExprPatch("x*y/2", (-2, 2, -2, 2))).persistent

    def test_paraboloid_fails_on_laplacian(self):
        report = persistence_check(ExprPatch("x^2 + y^2", (-2, 2, -2, 2)))
        assert not report.persistent
        assert report.laplacian_dual == pytest.approx(4.0)
        assert report.laplacian_fd == pytest.approx(4.0, abs=1e-6)


class TestHorizontalThickness:
    def test_axis_seed_in_symmetric_window(self):
        report = horizontal_thickness(axis_surface(), (0.0, 3.0, -1.0, 1.0))
        assert report.value == pytest.approx(1.0)
        assert not report.zero_flag

    def test_seed_on_the_window_edge_flags_zero(self):
        report = horizontal_thickness(axis_surface(), (0.0, 3.0, 0.0, 1.0))
        assert report.value == 0.0
        assert report.zero_flag

    def test_seed_outside_the_window_flags_zero(self):
        report = horizontal_thickness(axis_surface(), (5.0, 6.0, -1.0, 1.0))
        assert report.value == 0.0
        assert report.zero_flag

    def test_circle_seed_reaches_the_square_at_the_axes(self):
        report = horizontal_thickness(circle_surface(),
                                      (-2.0, 2.0, -2.0, 2.0))
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert not report.zero_flag


class TestConfigAndExport:
    def test_unknown_and_missing_keys_rejected(self):
        good = {"gamma": ["s", "0"], "h0": "0",
                "s_range": [0, 1], "r_range": [-1, 1]}
        with pytest.raises(ValueError, match="unknown"):
            surface_from_config({**good, "color": "red"})
        bad = dict(good)
        del bad["h0"]
        with pytest.raises(ValueError, match="missing"):
            surface_from_config(bad)

    def test_sample_range_mismatch_rejected(self):
        tau = np.linspace(0.2, 1.4, 40)
        with pytest.raises(ValueError, match="sample range"):
            surface_from_config({
                "gamma": {"s": tau.tolist(),
                          "x": np.cos(tau).tolist(),
                          "y": np.sin(tau).tolist()},
                "h0": "0", "s_range": [0.0, 1.4], "r_range": [-0.1, 0.1],
            })

    def test_height_table_must_align_with_samples(self):
        tau = np.linspace(0.0, 1.0, 40)
        cfg = {"gamma": {"s": tau.tolist(), "x": tau.tolist(),
                         "y": (0.0 * tau).tolist()},
               "h0": {"values": [0.0, 1.0]},
               "s_range": [0.0, 1.0], "r_range": [-0.1, 0.1]}
        with pytest.raises(ValueError, match="align"):
            surface_from_config(cfg)

    def test_closed_form_seed_needs_closed_form_height(self):
        with pytest.raises(ValueError, match="closed-form h0"):
            surface_from_config({"gamma": ["s", "0"], "h0": {"values": [0.0]},
                                 "s_range": [0, 1], "r_range": [-1, 1]})

    def test_mesh_export_is_deterministic(self):
        surf = ellipse_arc_surface()
        text = export_mesh(surf, 8, 4)
        assert text == export_mesh(surf, 8, 4)
        lines = text.strip().splitlines()
        n_v = sum(1 for ln in lines if ln.startswith("v "))
        n_f = sum(1 for ln in lines if ln.startswith("f "))
        assert n_v == 8 * 4
        assert n_f == 7 * 3

    def test_mesh_export_closes_the_seam_for_loops(self):
        text = export_mesh(circle_surface(), 12, 3)
        n_f = sum(1 for ln in text.strip().splitlines()
                  if ln.startswith("f "))
        assert n_f == 12 * 2
