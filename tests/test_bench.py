"""Benchmark registry: the exact cantilever field and the canned cases."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdfem.bench import (
    CANTILEVER,
    CASES,
    case_names,
    check_case,
    run_case,
    timoshenko_exact,
)
from mdfem.coupling import build_interface
from mdfem.elasticity import Material, SolidModel
from mdfem.errors import ConfigError
from mdfem.mesh import build_mesh
from mdfem.structural import PlateModel

C = CANTILEVER


def _gauss(n, lo, hi):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


class TestExactSolution:
    def test_clamped_at_origin(self):
        ux, uy, *_ = timoshenko_exact(0.0, 0.0)
        assert ux == 0.0
        assert uy == 0.0

    def test_tip_deflection_value(self):
        # P [(4 + 5 nu) D^2 L / 4 + 2 L^3] / (6 E I) lands on -0.0690 exactly
        # for these constants.
        _, uy, *_ = timoshenko_exact(C["L"], 0.0)
        assert uy == pytest.approx(-0.0690, rel=1e-12)

    def test_normal_stress_is_plain_bending(self):
        _, _, sxx, syy, _ = timoshenko_exact(12.0, 2.0)
        assert sxx == pytest.approx(C["P"] * (C["L"] - 12.0) * 2.0 / (C["D"] ** 3 / 12.0))
        assert syy == 0.0

    def test_broadcasts_over_arrays(self):
        x = np.linspace(0.0, C["L"], 7)
        y = np.zeros(7)
        out = timoshenko_exact(x, y)
        assert all(np.shape(f) == (7,) for f in out)

    @given(st.floats(min_value=0.0, max_value=48.0))
    def test_free_surfaces_carry_no_traction(self, x):
        for y in (-0.5 * C["D"], 0.5 * C["D"]):
            _, _, _, syy, sxy = timoshenko_exact(x, y)
            assert syy == 0.0
            assert abs(sxy) <= 1e-12 * C["P"]

    @given(st.floats(min_value=0.0, max_value=48.0))
    def test_section_resultants_match_the_applied_load(self, x):
        # Shear resultant -P, bending moment P (L - x); the integrands are
        # quadratic in y so three Gauss points integrate them exactly.
        y, w = _gauss(3, -0.5 * C["D"], 0.5 * C["D"])
        _, _, sxx, _, sxy = timoshenko_exact(x, y)
        assert w @ sxy == pytest.approx(-C["P"], rel=1e-12)
        assert w @ (sxx * y) == pytest.approx(
            C["P"] * (C["L"] - x), rel=1e-12, abs=1e-9 * C["P"]
        )

    @given(
        st.floats(min_value=1.0, max_value=47.0),
        st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_stress_field_is_divergence_free(self, x, y):
        h = 1e-4
        _, _, sxx_e, _, sxy_n = timoshenko_exact(x + h, y)
        _, _, sxx_w, _, sxy_s = timoshenko_exact(x - h, y)
        _, _, _, syy_n, sxy_e = timoshenko_exact(x, y + h)
        _, _, _, syy_s, sxy_w = timoshenko_exact(x, y - h)
        scale = C["P"] * C["L"] / (C["D"] ** 3 / 12.0)
        assert abs((sxx_e - sxx_w) + (sxy_e - sxy_w)) / (2 * h) <= 1e-6 * scale
        assert abs((sxy_n - sxy_s) + (syy_n - syy_s)) / (2 * h) <= 1e-6 * scale


class TestRegistry:
    def test_case_names_lists_the_registry(self):
        names = case_names()
        assert names == list(CASES)
        assert "timo-q4-conforming" in names
        assert "plate3d-reference" in names

    def test_unknown_case_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown bench case"):
            run_case("timo-q5-conforming")

    def test_check_case_flags_values_outside_the_band(self):
        rows = check_case("timo-q4-conforming", {"tip_rel_err": 0.5})
        row = {r[0]: r for r in rows}["tip_rel_err"]
        assert row[1] == 0.5
        assert not row[4]

    def test_check_case_reports_missing_metrics_as_failures(self):
        rows = check_case("timo-q4-conforming", {})
        assert rows
        assert not any(r[4] for r in rows)


@pytest.fixture(scope="module")
def q4_case():
    return run_case("timo-q4-conforming")


@pytest.fixture(scope="module")
def spline_case():
    return run_case("timo-spline-conforming")


class TestCantileverCases:
    def test_q4_conforming_hits_its_bands(self, q4_case):
        assert all(ok for *_, ok in check_case("timo-q4-conforming", q4_case))

    def test_q4_tip_matches_the_exact_solution(self, q4_case):
        assert q4_case["tip_uy_exact"] == pytest.approx(-0.0690, rel=1e-12)
        assert q4_case["tip_rel_err"] < 0.015
        assert q4_case["centerline_uy_rel_l2"] < 0.02

    def test_q4_solve_is_cheap(self, q4_case):
        assert q4_case["runtime_s"] < 5.0

    def test_q4_residual_is_at_solver_precision(self, q4_case):
        assert q4_case["residual"] < 1e-8

    def test_alpha_auto_lands_in_the_expected_band(self):
        m = run_case("timo-q4-alpha-auto")
        assert 2.4e7 < m["alpha"] < 9.4e7
        assert m["tip_rel_err"] < 0.015
        assert m["understabilized_fails"] == 1.0
        assert m["runtime_s"] < 30.0

    def test_spline_conforming_hits_its_bands(self, spline_case):
        assert all(ok for *_, ok in check_case("timo-spline-conforming", spline_case))

    def test_spline_stress_recovery_is_tight(self, spline_case):
        assert spline_case["sxx_line_rel_l2"] < 0.03
        assert spline_case["interface_sxy_rel_l2"] > 0.0

    def test_shear_study_nu_zero_couples_cleaner(self):
        m = run_case("timo-spline-shear-study")
        assert 0.0 < m["interface_sxy_rel_l2_nu00"] < m["interface_sxy_rel_l2_nu03"]
        assert m["mismatch_ratio"] < 1.0

    def test_refinement_errors_decrease_monotonically(self):
        m = run_case("timo-spline-refinement")
        assert m["err_level0"] > m["err_level1"] > m["err_level2"] > 0.0

    def test_nonconforming_cut_matches_the_conforming_twin(self):
        m = run_case("timo-nonconforming-29.97")
        assert m["tip_vs_conforming_rel"] < 0.01
        assert m["tip_uy"] == pytest.approx(m["conforming_tip_uy"], rel=0.01)
        assert m["residual"] < 1e-8


class TestFrame:
    def test_joint_panel_model_tracks_the_continuum_reference(self):
        m = run_case("frame")
        assert m["alpha"] == 1.0e7
        assert m["tip_vs_reference_rel"] < 0.03
        # The span tip dominates; the column top only moves through the
        # joint's shear lag.
        assert abs(m["column_top_uy"]) < 0.2 * abs(m["tip_uy"])


class TestPlate3D:
    def test_conforming_interface_covers_the_section(self):
        mat = Material(E=1000.0, nu=0.3, thickness=20.0)
        solid = SolidModel(
            build_mesh(
                "solid3d", "spline", 3, (8, 4, 5),
                ((0.0, 160.0), (0.0, 25.0), (0.0, 20.0)),
            ),
            mat,
        )
        plate = PlateModel(
            build_mesh(
                "plate", "spline", 3, (16, 2),
                ((160.0, 320.0), (0.0, 25.0)), z_mid=10.0,
            ),
            mat,
            theory="mindlin",
        )
        op = build_interface(solid, plate, axis=0, side=1)
        assert op.measure == pytest.approx(25.0 * 20.0, rel=1e-10)

    def test_nonconforming_overlap_matches_the_conforming_run(self):
        m = run_case("plate3d-nonconforming")
        assert m["alpha"] == 5.0e3
        assert m["tip_vs_conforming_rel"] < 0.03
