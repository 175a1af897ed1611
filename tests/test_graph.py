"""Patches, the horizontal Gauss map, curvature, scans, energy, gluing."""
import math

import numpy as np
import pytest
import sympy as sp

from heisminimal.graph import (
    CHAR_TOL,
    CharacteristicError,
    DomainError,
    ExprPatch,
    GlueReport,
    InterfaceCurve,
    SampledPatch,
    SupportError,
    Bump,
    bump_battery,
    characteristic_scan,
    curvature_field,
    energy,
    gauss_grid,
    glue_check,
    h_curvature,
    horizontal_gauss,
    minimality_residual,
    patch_from_config,
    variation,
)
from heisminimal.quadrature import integrate_rect

# min(a, b) written with the available primitives
WEDGE_MASK = ("(x^2 + y^2 - 0.0025 + (pi - 0.02)^2 - atan2(y, x)^2"
              " - abs(x^2 + y^2 - 0.0025 - (pi - 0.02)^2 + atan2(y, x)^2))"
              " / 2")


def fd_curvature(patch, x, y, h=1e-4):
    """Test oracle: H = d(nu_1)/dx + d(nu_2)/dy by 4th-order central
    differences of the unit Gauss map, independent of the jet's Hessian."""
    def nu(px, py):
        p, q, mag = gauss_grid(patch, px, py)
        return p / mag, q / mag
    w = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    ks = (-2, -1, 1, 2)
    dp = sum(wk * nu(x + k * h, y)[0] for wk, k in zip(w, ks))
    dq = sum(wk * nu(x, y + k * h)[1] for wk, k in zip(w, ks))
    return float(dp + dq)


def helicoid_patch(a: float, b: float = 0.0) -> ExprPatch:
    return ExprPatch(f"{a} * atan2(y, x) + {b}", (-2, 2, -2, 2),
                     mask=WEDGE_MASK)


class TestHorizontalGauss:
    def test_zero_graph_components(self):
        patch = ExprPatch("0", (-2, 2, -2, 2))
        g = horizontal_gauss(patch, 1.0, 1.0)
        assert g.p == pytest.approx(0.5, abs=1e-15)
        assert g.q == pytest.approx(-0.5, abs=1e-15)
        assert not g.characteristic
        assert g.nu is not None
        assert math.hypot(*g.nu) == pytest.approx(1.0, abs=1e-12)

    def test_saddle_graph_components(self):
        patch = ExprPatch("x*y/2", (-3, 3, -3, 3))
        g = horizontal_gauss(patch, 1.0, 2.0)
        assert g.p == pytest.approx(2.0, abs=1e-15)
        assert g.q == pytest.approx(0.0, abs=1e-15)

    def test_characteristic_point_has_no_normal(self):
        patch = ExprPatch("x*y/2", (-3, 3, -3, 3))
        g = horizontal_gauss(patch, 0.7, 0.0)
        assert g.characteristic
        assert g.nu is None
        assert g.mag <= CHAR_TOL

    def test_outside_domain_rejected(self):
        patch = ExprPatch("0", (0, 1, 0, 1))
        with pytest.raises(DomainError):
            horizontal_gauss(patch, 2.0, 0.5)


class TestCurvature:
    def test_zero_graph_is_flat(self):
        patch = ExprPatch("0", (-2, 2, -2, 2))
        assert h_curvature(patch, 1.0, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_saddle_graph_is_flat(self):
        patch = ExprPatch("x*y/2", (-2, 2, 0.1, 2))
        assert h_curvature(patch, 0.5, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_helicoid_is_flat_off_its_circle(self):
        patch = helicoid_patch(0.5)
        for x, y in [(0.3, 0.2), (1.4, 0.6), (0.0, 1.8)]:
            assert h_curvature(patch, x, y) == pytest.approx(0.0, abs=1e-10)

    def test_parabola_value_matches_symbolic_oracle(self):
        x, y = sp.symbols("x y")
        u = x ** 2
        p = sp.diff(u, x) + y / 2
        q = sp.diff(u, y) - x / 2
        mag = sp.sqrt(p ** 2 + q ** 2)
        H = sp.diff(p / mag, x) + sp.diff(q / mag, y)
        expected = float(H.subs({x: 0.7, y: 0.4}))
        patch = ExprPatch("x^2", (0.1, 2, -2, 2))
        got = h_curvature(patch, 0.7, 0.4)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_refuses_at_characteristic_point(self):
        patch = ExprPatch("x*y/2", (-2, 2, -2, 2))
        with pytest.raises(CharacteristicError):
            h_curvature(patch, 0.5, 0.0)

    def test_refuses_within_margin(self):
        patch = ExprPatch("x*y/2", (-2, 2, -2, 2))
        with pytest.raises(CharacteristicError):
            h_curvature(patch, 0.5, 5e-4, char_margin=1e-3)
        # allowed once the margin is relaxed
        val = h_curvature(patch, 0.5, 5e-4, char_margin=0.0)
        assert abs(val) < 1e-9

    def test_refuses_near_known_points(self):
        patch = ExprPatch("x^2", (-2, 2, -2, 2))
        pts = np.array([[0.5, 0.3]])
        with pytest.raises(CharacteristicError):
            h_curvature(patch, 0.5004, 0.3, char_points=pts,
                        char_margin=1e-3)

    def test_finite_difference_route_matches_exact(self):
        patch = ExprPatch("x^2 + x*y/4", (0.2, 1.4, 0.2, 1.4))
        exact = h_curvature(patch, 0.8, 0.8)
        fd = fd_curvature(patch, 0.8, 0.8)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)

    def test_sampled_patch_uses_spline_hessian(self):
        xs = np.linspace(0.3, 1.3, 81)
        ys = np.linspace(0.3, 1.3, 81)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = (X ** 2 + Y ** 2) ** 2 / 8.0
        sampled = SampledPatch(xs, ys, vals)
        exprp = ExprPatch("(x^2 + y^2)^2 / 8", (0.3, 1.3, 0.3, 1.3))
        a = h_curvature(sampled, 0.8, 0.7)
        b = h_curvature(exprp, 0.8, 0.7)
        assert a == pytest.approx(b, rel=1e-4)
        assert fd_curvature(sampled, 0.8, 0.7) == pytest.approx(a, rel=1e-4)

    def test_field_masks_exclusions_with_nan(self):
        patch = ExprPatch("x*y/2", (-1, 1, -1, 1))
        X, Y = np.meshgrid(np.linspace(-0.9, 0.9, 7),
                           np.linspace(-0.9, 0.9, 7), indexing="ij")
        H = curvature_field(patch, X, Y, char_points=np.empty((0, 2)))
        assert np.isnan(H[:, 3]).all()  # the y = 0 row
        good = np.isfinite(H)
        assert good.sum() > 30
        assert np.abs(H[good]).max() < 1e-12


class TestCharacteristicScan:
    def test_zero_graph_single_point(self):
        patch = ExprPatch("0", (-1, 1, -1, 1))
        pts = characteristic_scan(patch)
        assert len(pts) >= 1
        assert np.hypot(pts[:, 0], pts[:, 1]).max() <= 1e-9

    def test_saddle_graph_line(self):
        patch = ExprPatch("x*y/2", (-1, 1, -1, 1))
        pts = characteristic_scan(patch)
        assert len(pts) > 30
        assert np.abs(pts[:, 1]).max() <= 1e-9
        assert pts[:, 0].min() < -0.8 and pts[:, 0].max() > 0.8

    def test_all_points_characteristic(self):
        patch = ExprPatch("x^2 - y^2/3 + x*y/2", (-2, 2, -2, 2))
        pts = characteristic_scan(patch)
        for x0, y0 in pts:
            _, _, mag = gauss_grid(patch, x0, y0)
            assert float(mag) <= 1e-9

    def test_grid_zeros_are_not_missed(self):
        patch = ExprPatch("x*y/2", (-1, 1, -1, 1))
        n = 64
        xs = np.linspace(-1, 1, n + 1)
        ys = np.linspace(-1, 1, n + 1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        _, _, mag = gauss_grid(patch, X, Y)
        tiny = np.stack([X[mag <= 1e-12], Y[mag <= 1e-12]], axis=-1)
        assert len(tiny) > 0
        pts = characteristic_scan(patch, n)
        for gx, gy in tiny:
            d = np.hypot(pts[:, 0] - gx, pts[:, 1] - gy).min()
            assert d <= 1e-7

    def test_helicoid_circle(self):
        patch = helicoid_patch(0.5)
        pts = characteristic_scan(patch, 96)
        assert len(pts) > 20
        rho = np.hypot(pts[:, 0], pts[:, 1])
        assert np.abs(rho - 1.0).max() <= 1e-8

    def test_fully_noncharacteristic_patch(self):
        patch = ExprPatch("x*y/2", (-1, 1, 0.5, 1.5))
        assert len(characteristic_scan(patch)) == 0


class TestEnergy:
    def test_zero_graph_closed_form(self):
        # integral of |(y/2, -x/2)| over the unit square
        exact = (math.sqrt(2.0) + math.asinh(1.0)) / 6.0
        patch = ExprPatch("0", (0, 1, 0, 1))
        result = energy(patch)
        assert result.value == pytest.approx(exact, abs=1e-8)
        assert result.estimate >= abs(result.value - exact)

    def test_saddle_graph_closed_form(self):
        patch = ExprPatch("x*y/2", (0, 1, 0, 1))
        assert energy(patch).value == pytest.approx(0.5, abs=1e-12)

    def test_resolution_floor(self):
        patch = ExprPatch("0", (0, 1, 0, 1))
        with pytest.raises(ValueError):
            energy(patch, res=8)


class TestBump:
    def test_compact_support(self):
        phi = Bump(0.0, 0.0, 1.0, 1.0)
        assert phi.value(0.999, 0.0) > 0.0
        assert phi.value(1.0, 0.0) == 0.0
        assert phi.value(1.5, 0.2) == 0.0
        gx, gy = phi.grad(1.2, 0.0)
        assert gx == 0.0 and gy == 0.0

    def test_peak_value(self):
        phi = Bump(0.0, 0.0, 1.0, 1.0)
        assert float(phi.value(0.0, 0.0)) == pytest.approx(
            math.exp(-2.0), rel=1e-14)

    def test_gradient_matches_differences(self):
        phi = Bump(0.3, -0.2, 0.7, 0.5)
        h = 1e-6
        for x, y in [(0.5, 0.0), (0.1, -0.4), (-0.2, 0.05)]:
            gx, gy = phi.grad(x, y)
            fx = (phi.value(x + h, y) - phi.value(x - h, y)) / (2 * h)
            fy = (phi.value(x, y + h) - phi.value(x, y - h)) / (2 * h)
            assert float(gx) == pytest.approx(float(fx), rel=1e-7, abs=1e-9)
            assert float(gy) == pytest.approx(float(fy), rel=1e-7, abs=1e-9)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            Bump(0, 0, -1.0, 1.0)


class TestVariation:
    def test_minimal_graph_is_critical(self):
        patch = ExprPatch("x*y/2", (-1, 1, 0.1, 1.9))
        phi = Bump(0.2, 1.0, 0.35, 0.35)
        v = variation(patch, phi)
        assert abs(v.first) <= 1e-12
        assert v.second >= 0.0

    def test_support_must_avoid_characteristic_set(self):
        patch = ExprPatch("x*y/2", (-1, 1, -1, 1))
        with pytest.raises(SupportError):
            variation(patch, Bump(0.5, 0.05, 0.2, 0.2))

    def test_support_must_stay_inside_domain(self):
        patch = ExprPatch("0", (0, 1, 0, 1))
        with pytest.raises(SupportError):
            variation(patch, Bump(0.9, 0.5, 0.3, 0.3))

    def test_nonminimal_graph_detected_and_oracle_matched(self):
        patch = ExprPatch("x^2", (0.5, 2.5, -1, 1))
        phi = Bump(1.5, 0.0, 0.4, 0.4)
        v = variation(patch, phi, res=48)
        assert abs(v.first) >= 1e-3

        # Independent oracle: difference quotient of the energy in the
        # perturbation size.  The perturbed and unperturbed integrands
        # agree off the bump support, so integrating the difference over
        # the support alone is exact.
        def perturbed_energy(eps):
            def integrand(X, Y):
                _, ux, uy, _, _, _ = patch.jet(X, Y)
                gx, gy = phi.grad(X, Y)
                p = ux + eps * gx + 0.5 * Y
                q = uy + eps * gy - 0.5 * X
                return np.hypot(p, q)
            return integrate_rect(integrand, phi.support, 48)

        eps = 1e-4
        fd = (perturbed_energy(eps) - perturbed_energy(-eps)) / (2 * eps)
        assert v.first == pytest.approx(fd, rel=1e-6)

    def test_second_variation_nonnegative_battery(self):
        patch = ExprPatch("x*y/2", (-1, 1, 0.1, 1.9))
        pts = characteristic_scan(patch)
        for phi in bump_battery(patch, 20, char_points=pts):
            v = variation(patch, phi, char_points=pts)
            assert abs(v.first) <= 1e-6
            assert v.second >= -1e-10


class TestMinimality:
    def test_saddle_graph_minimal(self):
        patch = ExprPatch("x*y/2", (-1, 1, -1, 1))
        rep = minimality_residual(patch)
        assert rep.strong <= 1e-6
        assert rep.weak <= 1e-5
        assert rep.n_bumps == 20
        assert rep.n_strong > 1000

    def test_helicoid_minimal(self):
        patch = helicoid_patch(0.5, 0.3)
        rep = minimality_residual(patch)
        assert rep.strong <= 1e-6
        assert rep.weak <= 1e-5

    def test_parabola_not_minimal(self):
        patch = ExprPatch("x^2", (0.5, 2.5, -1, 1))
        rep = minimality_residual(patch)
        assert rep.strong >= 1e-2
        assert rep.weak >= 1e-4


class TestGlue:
    def fixture_pieces(self):
        lower = ExprPatch("0", (0.0, 2.5, -1.5, 0.0))
        upper = ExprPatch("-x*y/2", (0.0, 2.5, 0.0, 1.5))
        iface = InterfaceCurve.from_config({
            "x": "tau", "y": "0", "tau_range": [0.5, 2.0],
            "flip_normal": True,
        })
        return lower, upper, iface

    def test_fixture_defect_is_exactly_zero(self):
        lower, upper, iface = self.fixture_pieces()
        rep = glue_check(lower, upper, iface)
        assert rep.defect == 0.0
        assert rep.glue_pass
        assert rep.n_taus == 256

    def test_fixture_weak_battery(self):
        lower, upper, iface = self.fixture_pieces()
        rep = glue_check(lower, upper, iface,
                         side2_predicate=lambda x, y: np.asarray(y) > 0)
        assert rep.weak_defect is not None
        assert rep.weak_defect <= 1e-4
        assert len(rep.bump_integrals) == 20

    def test_mismatched_constant_fields(self):
        iface = InterfaceCurve.from_config(
            {"x": "tau", "y": "0", "tau_range": [0.0, 1.0],
             "flip_normal": True})
        f1 = lambda x, y: (np.ones_like(x), np.zeros_like(x))
        f2 = lambda x, y: (np.zeros_like(x), np.ones_like(x))
        rep = glue_check(f1, f2, iface)
        assert rep.defect == pytest.approx(1.0, abs=1e-14)
        assert not rep.glue_pass

    def test_tangential_jump_passes(self):
        iface = InterfaceCurve.from_config(
            {"x": "tau", "y": "0", "tau_range": [0.0, 1.0],
             "flip_normal": True})
        f1 = lambda x, y: (np.ones_like(x), np.zeros_like(x))
        f2 = lambda x, y: (-np.ones_like(x), np.zeros_like(x))
        rep = glue_check(f1, f2, iface)
        assert rep.defect == 0.0
        assert rep.glue_pass

    def test_characteristic_field_on_interface_rejected(self):
        patch = ExprPatch("x*y/2", (-1, 1, -1, 1))
        iface = InterfaceCurve.from_config(
            {"x": "tau", "y": "0", "tau_range": [-0.5, 0.5]})
        with pytest.raises(CharacteristicError):
            glue_check(patch, patch, iface, weak=False)

    @pytest.mark.parametrize("tau_range", [
        ["abc", 2.0], [0.5], [0.5, 1.0, 2.0], [0.5, math.inf],
        [math.nan, 2.0], [True, 2.0], [10**400, 2.0], "0.5, 2.0", None,
    ])
    def test_bad_tau_range_is_named(self, tau_range):
        with pytest.raises(ValueError, match=r"interface\.tau_range"):
            InterfaceCurve.from_config(
                {"x": "tau", "y": "0", "tau_range": tau_range})

    @pytest.mark.parametrize("flip", ["false", "true", 0, 1, None])
    def test_non_boolean_flip_normal_is_named(self, flip):
        with pytest.raises(ValueError, match=r"interface\.flip_normal"):
            InterfaceCurve.from_config(
                {"x": "tau", "y": "0", "tau_range": [0.0, 1.0],
                 "flip_normal": flip})

    def test_degenerate_interface_rejected(self):
        iface = InterfaceCurve.from_config(
            {"x": "1", "y": "0", "tau_range": [0.0, 1.0]})
        f = lambda x, y: (np.ones_like(x), np.zeros_like(x))
        with pytest.raises(ValueError):
            glue_check(f, f, iface)


class TestConfigs:
    def test_expression_patch_roundtrip(self):
        patch = patch_from_config({"u": "x^2 + y", "domain": [0, 1, 0, 1]})
        assert isinstance(patch, ExprPatch)
        assert float(patch.height(0.5, 0.25)) == pytest.approx(0.5)

    def test_sampled_patch_from_table(self):
        xs = list(np.linspace(0, 1, 9))
        ys = list(np.linspace(0, 1, 9))
        vals = [[xi * yi / 2 for yi in ys] for xi in xs]
        patch = patch_from_config(
            {"u": {"xs": xs, "ys": ys, "values": vals},
             "domain": [0, 1, 0, 1]})
        assert isinstance(patch, SampledPatch)
        assert float(patch.height(0.5, 0.5)) == pytest.approx(0.125,
                                                              abs=1e-12)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            patch_from_config({"u": "0", "domain": [0, 1, 0, 1],
                               "extra": 1})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            patch_from_config({"u": "0"})

    def test_bad_sample_table_rejected(self):
        with pytest.raises(ValueError):
            SampledPatch([0, 1, 2], [0, 1, 2, 3], np.zeros((3, 4)))
        with pytest.raises(ValueError):
            SampledPatch([0, 1, 1, 2], [0, 1, 2, 3], np.zeros((4, 4)))
