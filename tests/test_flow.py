"""Picard tracing, mollification, and rule-straightness checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisminimal.flow import (
    PlanarField,
    gauss_perp_field,
    mollify,
    picard,
    rk4_trace,
    straightness,
)
from heisminimal.graph import ExprPatch
from heisminimal.ruled import (
    HeightProfile,
    RuledLiftPatch,
    RuledSurface,
    SeedCurve,
    persistent_family,
)


def rotation_field() -> PlanarField:
    return PlanarField.from_exprs("-y", "x", (-1.2, 1.2, -1.2, 1.2))


def kink_field() -> PlanarField:
    # continuous but not differentiable across x = 0
    return PlanarField(lambda x, y: (np.ones_like(x), np.abs(x)),
                       (-1.0, 1.0, -1.0, 1.0))


class TestPlanarField:
    def test_rect_validation(self):
        with pytest.raises(ValueError, match="extent"):
            PlanarField.from_exprs("1", "0", (1.0, -1.0, 0.0, 1.0))

    def test_bound_on_rotation(self):
        assert rotation_field().bound() == pytest.approx(
            math.hypot(1.2, 1.2), rel=1e-12)

    def test_modulus_matches_lipschitz_rate(self):
        field = rotation_field()
        # |X(P) - X(Q)| = |P - Q| exactly for this field, so the paired
        # samples at separation delta report delta itself
        assert field.modulus(0.2) == pytest.approx(0.2, rel=1e-9)
        assert field.modulus(0.4) == pytest.approx(0.4, rel=1e-9)
        with pytest.raises(ValueError, match="positive"):
            field.modulus(0.0)


class TestMollify:
    def test_constant_field_is_fixed(self):
        const = PlanarField.from_exprs("1", "0", (-1, 1, -1, 1))
        smooth = mollify(const, 0.2)
        assert smooth.sup_gap == 0.0
        a, b = smooth(np.array([0.1, -0.3]), np.array([0.0, 0.5]))
        np.testing.assert_array_equal(a, 1.0)
        np.testing.assert_array_equal(b, 0.0)

    def test_radius_exceeding_margin_rejected(self):
        const = PlanarField.from_exprs("1", "0", (0, 1, 0, 1))
        with pytest.raises(ValueError, match="margin"):
            mollify(const, 0.5)
        with pytest.raises(ValueError, match="positive"):
            mollify(const, 0.0)

    def test_step_field_gap_concentrates_at_the_jump(self):
        sgn = PlanarField(lambda x, y: (np.sign(y), np.zeros_like(y)),
                          (-1, 1, -1, 1))
        smooth = mollify(sgn, 0.1, quad_n=129)
        # the full jump height, up to the quadrature's center weight
        assert smooth.sup_gap == pytest.approx(1.0, abs=0.02)
        ys = np.array([0.15, 0.3, -0.5, 0.8, -0.101])
        a, b = smooth(np.zeros_like(ys), ys)
        assert np.abs(a - np.sign(ys)).max() <= 1e-12
        assert np.abs(b).max() <= 1e-12

    def test_smooth_field_gap_decays_monotonically(self):
        field = PlanarField.from_exprs("sin(3*x)*cos(2*y)", "cos(x*y)",
                                       (-1, 1, -1, 1))
        gaps = [mollify(field, e).sup_gap for e in (0.2, 0.1, 0.05, 0.025)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3


class TestPicard:
    def test_constant_field_exact(self):
        const = PlanarField.from_exprs("1", "0", (-1, 1, -1, 1))
        curve = picard(const, (0.0, 0.0), 0.9)
        assert np.abs(curve.x - curve.t).max() <= 1e-12
        assert np.abs(curve.y).max() == 0.0
        assert not curve.truncated

    def test_rotation_field_against_closed_form(self):
        curve = picard(rotation_field(), (1.0, 0.0), 2 * math.pi)
        err = np.hypot(curve.x - np.cos(curve.t),
                       curve.y - np.sin(curve.t)).max()
        assert err <= 1e-6
        assert curve.residual <= 1e-10
        assert curve.n_iterations < 80

    def test_rk4_cross_check_on_smooth_field(self):
        field = rotation_field()
        pic = picard(field, (1.0, 0.0), 2 * math.pi)
        rk = rk4_trace(field, (1.0, 0.0), 2 * math.pi, n_steps=512)
        sub = np.linspace(0, 2048, 513).astype(int)
        gap = np.hypot(pic.x[sub] - rk.x, pic.y[sub] - rk.y).max()
        assert gap <= 1e-8

    def test_domain_exit_truncates_with_flag(self):
        const = PlanarField.from_exprs("1", "0", (-1, 1, -1, 1))
        curve = picard(const, (0.9, 0.0), 1.0)
        assert curve.truncated
        assert curve.t[-1] == pytest.approx(0.1, abs=1e-3)
        assert curve.x[-1] <= 1.0 + 1e-9

    def test_start_point_validation(self):
        const = PlanarField.from_exprs("1", "0", (-1, 1, -1, 1))
        with pytest.raises(ValueError, match="outside"):
            picard(const, (2.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="positive"):
            picard(const, (0.0, 0.0), -1.0)
        with pytest.raises(ValueError, match="finite"):
            picard(const, (0.0, 0.0), math.nan)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2048), st.integers(0, 2048))
    def test_lipschitz_bound_on_samples(self, i, j):
        field = rotation_field()
        curve = _rotation_curve()
        m = _rotation_bound()
        gap = math.hypot(curve.x[i] - curve.x[j], curve.y[i] - curve.y[j])
        assert gap <= m * abs(curve.t[i] - curve.t[j]) + 1e-10

    def test_csv_round_trip_is_deterministic(self, tmp_path):
        curve = picard(rotation_field(), (1.0, 0.0), 1.0, n_steps=64)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        curve.to_csv(p1)
        curve.to_csv(p2)
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        lines = data.decode().strip().split("\n")
        assert lines[0] == "t,x,y,residual"
        assert len(lines) == 66


_ROT_CACHE = {}


def _rotation_curve():
    if "curve" not in _ROT_CACHE:
        _ROT_CACHE["curve"] = picard(rotation_field(), (1.0, 0.0),
                                     2 * math.pi)
    return _ROT_CACHE["curve"]


def _rotation_bound():
    if "bound" not in _ROT_CACHE:
        _ROT_CACHE["bound"] = rotation_field().bound()
    return _ROT_CACHE["bound"]


class TestMollifiedComparison:
    def test_trajectory_gap_obeys_sup_gap_bound(self):
        field = kink_field()
        base = picard(field, (-0.75, -0.5), 1.1)
        assert not base.truncated
        for eps in (0.2, 0.1, 0.05):
            smooth = mollify(field, eps)
            curve = picard(smooth, (-0.75, -0.5), 1.1)
            diff = np.hypot(curve.x - base.x, curve.y - base.y).max()
            assert diff <= 2.0 * smooth.sup_gap * 1.1

    def test_field_values_converge_along_curves(self):
        field = kink_field()
        base = picard(field, (-0.75, -0.5), 1.1)
        a0, b0 = field(base.x, base.y)
        gaps = []
        for eps in (0.2, 0.1, 0.05):
            smooth = mollify(field, eps)
            curve = picard(smooth, (-0.75, -0.5), 1.1)
            a1, b1 = smooth(curve.x, curve.y)
            gaps.append(float(np.hypot(a1 - a0, b1 - b0).max()))
        assert gaps[1] <= gaps[0] * 1.05 + 1e-12
        assert gaps[2] <= gaps[1] * 1.05 + 1e-12
        assert gaps[2] <= 0.05


class TestStraightness:
    def test_collinear_samples(self):
        assert straightness([(0, 0), (0.5, 0.5), (1, 1)]) == 0.0

    def test_quarter_circle_sagitta(self):
        th = np.linspace(0, math.pi / 2, 101)
        arc = np.column_stack([np.cos(th), np.sin(th)])
        assert straightness(arc) == pytest.approx((math.sqrt(2) - 1) / 2,
                                                  rel=1e-9)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="three"):
            straightness([(0, 0), (1, 1)])
        th = np.linspace(0, 2 * math.pi, 32)
        loop = np.column_stack([np.cos(th), np.sin(th)])
        with pytest.raises(ValueError, match="degenerate"):
            straightness(loop)


class TestGaussPerpRules:
    def test_quadratic_graph_rules_are_straight(self):
        patch = ExprPatch("x*y/2", (-1, 1, 0.2, 1.2))
        curve = picard(gauss_perp_field(patch), (0.3, 1.1), 0.8)
        assert not curve.truncated
        assert straightness(curve) <= 1e-8

    def test_helicoid_rules_are_straight(self):
        patch = persistent_family("HELICOID", a=0.5, b=0.0,
                                  rect=(-2, 2, -2, 2))
        # subrectangle clear of the characteristic circle rho = 1
        field = gauss_perp_field(patch, rect=(0.75, 1.6, 0.75, 1.6))
        curve = picard(field, (1.1, 1.1), 0.4)
        assert not curve.truncated
        assert straightness(curve) <= 1e-6

    def test_ruled_lift_rules_are_straight(self):
        seed = SeedCurve.from_exprs("cos(s)", "sin(s)", (0.0, 2 * math.pi))
        surf = RuledSurface(seed, HeightProfile.from_expr("0"), (-0.6, 0.8))
        patch = RuledLiftPatch(surf, rect=(0.45, 1.1, 0.3, 0.95))
        curve = picard(gauss_perp_field(patch), (0.9, 0.8), 0.45)
        assert not curve.truncated
        assert straightness(curve) <= 1e-6
