"""Accessibility, chord branches, assembly, and spanning verdicts."""
import math

import numpy as np
import pytest

from heisminimal.heis import HPoint, mul
from heisminimal.plateau import (
    ClosedCurve,
    access_matrix,
    access_partials,
    access_set,
    access_value,
    isolated_points,
    legendrian_defect,
    nonlegendrian_verdict,
    phi_continue,
    spanning_assemble,
)

TWO_PI = 2.0 * math.pi
# second horizontal-tangent parameter of the well-behaved example below
ALPHA = 2.7770844908340435
# slope-reversal parameter of the obstructed example
T_STAR = 1.4712695926215387


def good_curve() -> ClosedCurve:
    return ClosedCurve("1 - cos(theta)", "sin(theta)",
                       "2 - 2*cos(theta) + sin(theta)"
                       " - sin(theta)*cos(theta)")


def bad_curve() -> ClosedCurve:
    return ClosedCurve("1 - cos(theta)", "sin(theta)",
                       "1/5 - 1/5*cos(theta) + sin(theta)^2")


def nonleg_curve() -> ClosedCurve:
    return ClosedCurve("1 - cos(theta)", "sin(theta)",
                       "1/2*sin(theta) + 1/8*sin(theta)^2")


def planar_circle() -> ClosedCurve:
    return ClosedCurve("cos(theta)", "sin(theta)", "0")


def complicated_curve() -> ClosedCurve:
    return ClosedCurve("1 - cos(theta)", "sin(theta)",
                       "sin(4*sin(theta)*(1 - cos(theta)))")


class TestClosedCurve:
    def test_open_curve_rejected(self):
        with pytest.raises(ValueError, match="not closed"):
            ClosedCurve("cos(theta)", "sin(theta)", "theta")

    def test_config_ingestion(self):
        curve = ClosedCurve.from_config(
            {"c": ["cos(theta)", "sin(theta)", "0"],
             "period": 6.283185307179586})
        x, y, t = curve.point(0.0)
        assert (x, y, t) == (1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="unknown"):
            ClosedCurve.from_config({"c": ["0", "0", "0"], "speed": 2})
        with pytest.raises(ValueError, match="three"):
            ClosedCurve.from_config({"c": ["cos(theta)", "sin(theta)"]})

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            ClosedCurve("cos(theta)", "sin(theta)", "0", period=-1.0)


class TestLegendrianDefect:
    def test_planar_circle_is_constant(self):
        th = np.linspace(0, TWO_PI, 64)
        np.testing.assert_allclose(legendrian_defect(planar_circle(), th),
                                   -0.5, atol=1e-15)

    def test_good_curve_closed_form(self):
        th = np.linspace(0, TWO_PI, 200)
        w = legendrian_defect(good_curve(), th)
        ref = 2 * np.sin(th) + np.cos(th) / 2 - np.cos(2 * th) + 0.5
        assert np.abs(w - ref).max() <= 1e-14

    def test_nonleg_curve_defect_floor(self):
        th = np.linspace(0, TWO_PI, 4096, endpoint=False)
        w = legendrian_defect(nonleg_curve(), th)
        assert np.abs(w).min() == pytest.approx(3.0 / 8.0, abs=1e-6)


class TestAccessValue:
    def test_good_curve_from_base_point(self):
        curve = good_curve()
        assert float(access_value(curve, 0.0, math.pi)) == pytest.approx(4.0)
        th = np.linspace(0, TWO_PI, 100)
        f = access_value(curve, 0.0, th)
        ref = (1 - np.cos(th)) * (2 + np.sin(th))
        assert np.abs(f - ref).max() <= 1e-14

    def test_planar_circle_closed_form(self):
        curve = planar_circle()
        t = np.linspace(0, TWO_PI, 17)
        f = access_value(curve, t[:, None], t[None, :])
        ref = -0.5 * np.sin(t[None, :] - t[:, None])
        assert np.abs(f - ref).max() <= 1e-15

    def test_matrix_agrees_with_pointwise(self):
        curve = good_curve()
        thetas, f = access_matrix(curve, 256)
        assert f.shape == (256, 256)
        ref = access_value(curve, thetas[100], thetas)
        np.testing.assert_array_equal(f[100], ref)


class TestAccessInvariants:
    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(42)
        t, th = rng.uniform(0, TWO_PI, (2, 1000))
        for curve in (good_curve(), bad_curve(), planar_circle()):
            f = access_value(curve, t, th)
            g = access_value(curve, th, t)
            assert np.abs(f + g).max() <= 1e-12

    def test_diagonal_is_exactly_zero(self):
        rng = np.random.default_rng(43)
        t = rng.uniform(0, TWO_PI, 1000)
        for curve in (good_curve(), complicated_curve()):
            assert np.abs(access_value(curve, t, t)).max() == 0.0

    def test_diagonal_theta_slope_is_the_defect(self):
        rng = np.random.default_rng(44)
        t = rng.uniform(0, TWO_PI, 500)
        for curve in (good_curve(), bad_curve(), nonleg_curve()):
            _, _, f_theta = access_partials(curve, t, t)
            w = legendrian_defect(curve, t)
            assert np.abs(f_theta - w).max() <= 1e-14

    def test_left_translation_leaves_access_unchanged(self):
        curve = good_curve()
        g = HPoint(0.3, -1.2, 0.7)
        rng = np.random.default_rng(45)
        t = rng.uniform(0, TWO_PI, 60)
        x, y, z = curve.point(t)
        moved = [mul(g, HPoint(float(a), float(b), float(c)))
                 for a, b, c in zip(x, y, z)]

        def f_of(pts, i, j):
            p, q = pts[i], pts[j]
            return q[2] - p[2] + 0.5 * (q[0] * p[1] - p[0] * q[1])

        orig = list(zip(x, y, z))
        new = [(p.x, p.y, p.t) for p in moved]
        gap = max(abs(f_of(new, i, j) - f_of(orig, i, j))
                  for i in range(60) for j in range(60))
        assert gap <= 1e-8


class TestAccessSet:
    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError, match="256"):
            access_set(planar_circle(), 0.0, n=128)

    def test_planar_circle_partners(self):
        out = access_set(planar_circle(), 0.7)
        np.testing.assert_allclose(out.thetas, [0.7, 0.7 + math.pi],
                                   atol=1e-10)
        assert not out.tangential.any()

    @pytest.mark.parametrize("make", [good_curve, bad_curve, nonleg_curve,
                                      planar_circle, complicated_curve],
                             ids=lambda m: m.__name__)
    def test_transversal_zeros_are_accurate_and_in_period(self, make):
        curve = make()
        for t in np.arange(24) * math.pi / 12:
            out = access_set(curve, t)
            assert np.all((out.thetas >= 0.0) & (out.thetas < TWO_PI)), t
            crossing = out.thetas[~out.tangential]
            f = np.abs(access_value(curve, t, crossing))
            assert f.size == 0 or f.max() <= 1e-10, (t, f.max())

    def test_good_curve_base_point_is_alone(self):
        out = access_set(good_curve(), 0.0)
        assert out.thetas.size == 1
        assert abs(out.thetas[0]) <= 1e-9
        # the gap function touches zero without crossing there
        assert out.tangential[0]


class TestIsolatedPoints:
    def test_good_curve_has_two(self):
        report = isolated_points(good_curve())
        np.testing.assert_allclose(report.thetas, [0.0, ALPHA], atol=1e-8)
        assert np.abs(report.defects).max() <= 1e-12
        assert report.consistent

    def test_obstructed_curve_keeps_two_of_four_candidates(self):
        report = isolated_points(bad_curve())
        np.testing.assert_allclose(report.thetas,
                                   [0.0, 4.8339959734878315], atol=1e-8)
        assert report.consistent

    def test_wiggly_height_curve(self):
        report = isolated_points(complicated_curve())
        np.testing.assert_allclose(report.thetas,
                                   [1.7173265686274172, 4.565858738552169],
                                   atol=1e-6)
        assert report.consistent


class TestPhiContinue:
    def test_good_curve_reaches_the_diagonal(self):
        cont = phi_continue(good_curve(), 0.0)
        assert cont.status == "MONOTONE"
        assert cont.diagonal_t == pytest.approx(ALPHA, abs=1e-3)
        # the branch leaves the seed with unit slope, downhill
        assert cont.phi_prime[0] == pytest.approx(-1.0, abs=1e-3)
        assert np.all(np.diff(cont.phi) < 1e-12)
        f = access_value(good_curve(), cont.t, np.mod(cont.phi, TWO_PI))
        assert np.abs(f).max() <= 1e-9

    def test_bad_curve_is_obstructed_in_the_window(self):
        cont = phi_continue(bad_curve(), 0.0)
        assert cont.status == "OBSTRUCTED"
        assert cont.obstruction_t == pytest.approx(T_STAR, abs=1e-4)
        assert abs(cont.obstruction_t - math.pi / 2) < 0.5
        assert cont.phi[-1] == pytest.approx(5.4164, abs=1e-3)

    def test_planar_circle_runs_a_full_period(self):
        cont = phi_continue(planar_circle(), 0.0, math.pi)
        assert cont.status == "MONOTONE"
        assert cont.reason == "full period covered"
        assert np.abs(cont.phi - cont.t - math.pi).max() <= 1e-12
        assert np.abs(cont.phi_prime - 1.0).max() <= 1e-12

    def test_seeding_requires_horizontal_tangent(self):
        with pytest.raises(ValueError, match="horizontal-tangent"):
            phi_continue(planar_circle(), 0.0)


class TestSpanningAssemble:
    def test_planar_circle_cone_over_the_center(self):
        curve = planar_circle()
        report = spanning_assemble(curve, phi_continue(curve, 0.0, math.pi))
        assert report.ok and report.fold_ok
        assert report.vertex is not None
        assert math.hypot(*report.vertex) <= 1e-9
        assert report.max_rule_defect <= 1e-10
        assert report.max_on_manifold <= 1e-9

    def test_good_curve_assembles_without_folds(self):
        curve = good_curve()
        report = spanning_assemble(curve, phi_continue(curve, 0.0))
        assert report.ok and report.fold_ok
        assert report.max_rule_defect <= 1e-10
        assert report.continuation.status == "MONOTONE"

    def test_obstructed_branch_refused_without_force(self):
        curve = bad_curve()
        with pytest.raises(ValueError, match="force"):
            spanning_assemble(curve, phi_continue(curve, 0.0))

    def test_forced_assembly_exposes_the_fold(self):
        curve = bad_curve()
        cont = phi_continue(curve, 0.0, stop_at_obstruction=False)
        report = spanning_assemble(curve, cont, force=True)
        assert not report.fold_ok
        assert not report.ok
        # the chords stay horizontal; the failure is the fold alone
        assert report.max_rule_defect <= 1e-10
        assert report.continuation.obstruction_t == pytest.approx(T_STAR,
                                                                  abs=1e-4)


class TestVerdict:
    def test_fully_nonhorizontal_twisted_curve(self):
        verdict = nonlegendrian_verdict(nonleg_curve())
        assert verdict.status == "NO_RULED_SPANNING_GRAPH"
        assert verdict.legendrian_min == pytest.approx(3.0 / 8.0, abs=1e-6)
        assert verdict.planar_window is None

    def test_planar_curve_escapes_the_verdict(self):
        verdict = nonlegendrian_verdict(planar_circle())
        assert verdict.status == "INCONCLUSIVE"
        assert verdict.planar_window is not None
        assert verdict.planar_window[2] <= 1e-8

    def test_curve_with_horizontal_tangents_is_inconclusive(self):
        verdict = nonlegendrian_verdict(good_curve())
        assert verdict.status == "INCONCLUSIVE"
        assert verdict.legendrian_min <= 1e-6
