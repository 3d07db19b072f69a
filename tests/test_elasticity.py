"""Plane-stress / 3D continuum kernels: constitutive law, strain
kinematics, element stiffness, consistent loads."""
import numpy as np
import pytest

from mdfem.elasticity import (
    Material,
    SolidModel,
    constitutive_solid,
    interpolate,
    solid_kinematics,
)
from mdfem.errors import ConfigError
from mdfem.mesh import SplineDir, build_mesh, quadrature_data
from oracles import b_matrix_solid


def strain_displacement_solid(mesh, e, parent):
    """B matrix at parent points of one element."""
    return interpolate(mesh, e, parent, solid_kinematics(mesh.dim))[1]


def stiffness_solid(mesh, e, material):
    return SolidModel(mesh, material).element_stiffness(e)


def q4_model(nelems=(1, 1), extents=((0.0, 1.0), (0.0, 1.0)), E=1.0, nu=0.0):
    mesh = build_mesh("solid2d", "lagrange", (1, 1), nelems, extents)
    return SolidModel(mesh, Material(E=E, nu=nu))


class TestMaterial:
    def test_defaults(self):
        m = Material(E=3.0e7, nu=0.3)
        assert m.k_shear == pytest.approx(5.0 / 6.0)
        assert m.G == pytest.approx(3.0e7 / 2.6)

    def test_section_properties(self):
        m = Material(E=1.0, nu=0.0, thickness=6.0, width=1.0)
        assert m.area == pytest.approx(6.0)
        assert m.inertia == pytest.approx(18.0)

    @pytest.mark.parametrize("kwargs", [
        dict(E=0.0, nu=0.3),
        dict(E=-5.0, nu=0.3),
        dict(E=1.0, nu=0.5),
        dict(E=1.0, nu=-1.0),
        dict(E=1.0, nu=0.3, thickness=0.0),
        dict(E=1.0, nu=0.3, width=-2.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Material(**kwargs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["E", "nu", "k_shear", "thickness",
                                      "width"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "3e7",
                                       None, True])
    def test_non_finite_or_non_number_is_named(self, name, value):
        # NaN and inf pass every comparison test below, and would fail
        # only in scipy's solve; a string would fail them with a bare
        # TypeError.
        kwargs = {"E": 3.0e7, "nu": 0.3, name: value}
        with pytest.raises(ConfigError, match=rf"^material {name} must be "
                                              r"a finite number, got "):
            Material(**kwargs)

    @pytest.mark.parametrize("name", ["E", "k_shear", "thickness", "width"])
    def test_non_positive_is_named(self, name):
        with pytest.raises(ConfigError, match=rf"^material {name} must be "
                                              r"positive, got -1"):
            Material(**{"E": 3.0e7, "nu": 0.3, name: -1})


class TestConstitutive:
    def test_plane_stress_nu_zero(self):
        C = constitutive_solid(Material(E=1.0, nu=0.0), dim=2)
        np.testing.assert_allclose(C, np.diag([1.0, 1.0, 0.5]), atol=1e-15)

    def test_plane_stress_bench_values(self):
        C = constitutive_solid(Material(E=3.0e7, nu=0.3), dim=2)
        assert C[0, 0] == pytest.approx(3.2967e7, rel=1e-4)
        assert C[0, 1] == pytest.approx(0.3 * C[0, 0], rel=1e-12)
        assert C[2, 2] == pytest.approx(3.0e7 / 2.6, rel=1e-12)

    def test_three_d_spd(self):
        C = constitutive_solid(Material(E=210e3, nu=0.29), dim=3)
        np.testing.assert_allclose(C, C.T, atol=0)
        assert np.linalg.eigvalsh(C).min() > 0

    def test_three_d_shear_block(self):
        m = Material(E=10.0, nu=0.25)
        C = constitutive_solid(m, dim=3)
        np.testing.assert_allclose(np.diag(C)[3:], m.G, rtol=1e-14)
        assert np.all(C[3:, :3] == 0)

    def test_bad_dimension(self):
        with pytest.raises(ConfigError):
            constitutive_solid(Material(E=1.0, nu=0.0), dim=4)


class TestStrainDisplacement:
    """Strains recovered from nodal fields on one bilinear element."""

    def conftest_fields(self):
        mesh = build_mesh("solid2d", "lagrange", (1, 1), (1, 1),
                          ((-1.0, 1.0), (-0.5, 0.5)))
        pts = np.array([[0.0, 0.0], [0.3, -0.7], [-1.0, 1.0]])
        B = strain_displacement_solid(mesh, 0, pts)
        return mesh, B

    def test_rigid_translation_strain_free(self):
        mesh, B = self.conftest_fields()
        a = np.tile([0.7, -1.3], mesh.nnodes)
        np.testing.assert_allclose(B @ a, 0.0, atol=1e-14)

    def test_linear_stretch(self):
        mesh, B = self.conftest_fields()
        a = np.zeros(2 * mesh.nnodes)
        a[0::2] = mesh.nodes[:, 0]
        eps = B @ a
        np.testing.assert_allclose(eps[:, 0], 1.0, rtol=1e-13)
        np.testing.assert_allclose(eps[:, 1:], 0.0, atol=1e-13)

    def test_infinitesimal_rotation_strain_free(self):
        mesh, B = self.conftest_fields()
        w = 0.3
        a = np.zeros(2 * mesh.nnodes)
        a[0::2] = -w * mesh.nodes[:, 1]
        a[1::2] = w * mesh.nodes[:, 0]
        np.testing.assert_allclose(B @ a, 0.0, atol=1e-12)

    def test_row_layout_3d(self):
        # the strain table on one node's jet (N, dN/dx) = (0, 2, 3, 5)
        E = solid_kinematics(3)[1][0]
        B = np.einsum("rcj,j->rc", E[..., :4], [0.0, 2.0, 3.0, 5.0])
        # single node: columns are (u_x, u_y, u_z)
        np.testing.assert_allclose(B[:, 0], [2, 0, 0, 3, 0, 5])
        np.testing.assert_allclose(B[:, 1], [0, 3, 0, 2, 5, 0])
        np.testing.assert_allclose(B[:, 2], [0, 0, 5, 0, 3, 2])


class TestStiffness:
    def test_symmetry(self):
        mesh = build_mesh("solid2d", "spline", (2, 2), (2, 2), ((0.0, 3.0), (0.0, 2.0)))
        K = stiffness_solid(mesh, 1, Material(E=200.0, nu=0.3))
        assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))

    def test_q4_rigid_modes(self):
        model = q4_model(extents=((0.0, 2.0), (0.0, 1.0)), E=100.0, nu=0.25)
        K = model.element_stiffness(0)
        evals = np.linalg.eigvalsh(K)
        tol = 1e-9 * evals.max()
        assert np.sum(evals < tol) == 3
        assert evals.min() > -tol

    def test_hex8_rigid_modes(self):
        mesh = build_mesh("solid3d", "lagrange", (1, 1, 1), (1, 1, 1),
                          ((0.0, 1.0), (0.0, 2.0), (0.0, 0.5)))
        K = stiffness_solid(mesh, 0, Material(E=50.0, nu=0.2))
        evals = np.linalg.eigvalsh(K)
        tol = 1e-9 * evals.max()
        assert np.sum(evals < tol) == 6

    def test_linearity_in_modulus(self):
        mesh = build_mesh("solid2d", "lagrange", (1, 1), (1, 1), ((0.0, 1.0), (0.0, 1.0)))
        K1 = stiffness_solid(mesh, 0, Material(E=7.0, nu=0.3))
        K2 = stiffness_solid(mesh, 0, Material(E=14.0, nu=0.3))
        np.testing.assert_array_equal(K2, 2.0 * K1)

    def test_energy_matches_pointwise_quadrature(self):
        mesh = build_mesh("solid2d", "spline", (3, 3), (2, 1), ((0.0, 2.0), (0.0, 1.0)))
        mat = Material(E=30.0, nu=0.3)
        K = stiffness_solid(mesh, 0, mat)
        rng = np.random.default_rng(11)
        a = rng.standard_normal(K.shape[0])
        w, J = quadrature_data(mesh, 0, nders=1)
        eps = b_matrix_solid(np.moveaxis(J[1:], 0, -1)) @ a
        C = constitutive_solid(mat, 2)
        energy = np.sum(w * np.einsum("qa,ab,qb->q", eps, C, eps))
        assert a @ K @ a == pytest.approx(energy, rel=1e-10)


class TestPatch:
    """2x2 bilinear patch reproduces a constant-stress state exactly."""

    def test_constant_stress(self):
        model = q4_model(nelems=(2, 2), extents=((0.0, 2.0), (0.0, 1.3)), E=250.0, nu=0.3)
        mesh = model.mesh
        K = np.zeros((model.ndof, model.ndof))
        for e in range(mesh.nelem):
            dofs = model.element_dofs(e)
            K[np.ix_(dofs, dofs)] += model.element_stiffness(e)

        a_ex = np.zeros(model.ndof)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        a_ex[0::2] = 1e-3 * (0.4 + 1.1 * x - 0.6 * y)
        a_ex[1::2] = 1e-3 * (-0.2 + 0.5 * x + 0.9 * y)

        interior = 2 * 4 + np.array([0, 1])  # center node of the 3x3 grid
        fixed = np.setdiff1d(np.arange(model.ndof), interior)
        a = a_ex.copy()
        a[interior] = np.linalg.solve(
            K[np.ix_(interior, interior)], -K[np.ix_(interior, fixed)] @ a_ex[fixed]
        )

        C = constitutive_solid(model.material, 2)
        sig_ex = C @ (1e-3 * np.array([1.1, 0.9, 0.5 - 0.6]))
        pts = np.array([[0.2, -0.4], [-0.9, 0.9]])
        for e in range(mesh.nelem):
            _, sig = model.recover(e, pts, a)
            np.testing.assert_allclose(sig, np.tile(sig_ex, (len(pts), 1)),
                                       atol=1e-9)


class TestLoads:
    def test_parabolic_end_shear_resultant(self):
        """Cantilever end-shear profile integrates to the applied load."""
        mesh = build_mesh("solid2d", "lagrange", (1, 1), (40, 10),
                          ((0.0, 24.0), (-3.0, 3.0)))
        model = SolidModel(mesh, Material(E=3.0e7, nu=0.3, thickness=6.0))
        P, I, D = 1000.0, 18.0, 6.0

        def shear(x):
            t = np.zeros_like(x)
            t[:, 1] = -P / (2.0 * I) * (D**2 / 4.0 - x[:, 1] ** 2)
            return t

        f = model.traction_force(axis=0, side=1, traction=shear)
        assert abs(f[1::2].sum() + P) <= 1e-9 * P
        assert abs(f[0::2].sum()) <= 1e-9 * P
        # load lands only on the loaded face's nodes
        loaded = np.abs(mesh.nodes[:, 0] - 24.0) < 1e-12
        assert np.all(f[1::2][~loaded] == 0)

    def test_constant_normal_traction_resultant_equals_area(self):
        mesh = build_mesh("solid3d", "spline", (2, 2, 2), (2, 3, 1),
                          ((0.0, 4.0), (0.0, 5.0), (0.0, 2.0)))
        model = SolidModel(mesh, Material(E=1.0, nu=0.0))
        f = model.traction_force(axis=1, side=-1, traction=(0.0, 1.0, 0.0))
        assert f[1::3].sum() == pytest.approx(4.0 * 2.0, rel=1e-12)
        assert f[0::3].sum() == pytest.approx(0.0, abs=1e-12)

    def test_zero_traction(self):
        model = q4_model()
        f = model.traction_force(axis=0, side=1, traction=(0.0, 0.0))
        assert np.all(f == 0)

    def test_invalid_face_rejected(self):
        model = q4_model()
        with pytest.raises(ConfigError):
            model.traction_force(axis=2, side=1, traction=(1.0, 0.0))
        with pytest.raises(ConfigError):
            model.traction_force(axis=0, side=0, traction=(1.0, 0.0))

    def test_constant_body_force(self):
        mesh = build_mesh("solid2d", "spline", (2, 2), (3, 2), ((0.0, 48.0), (0.0, 6.0)))
        model = SolidModel(mesh, Material(E=1.0, nu=0.0))
        f = model.body_force((0.0, -2.5))
        assert f[1::2].sum() == pytest.approx(-2.5 * 48.0 * 6.0, rel=1e-12)
        assert f[0::2].sum() == pytest.approx(0.0, abs=1e-9)


def test_recover_evaluates_shapes_once(monkeypatch):
    """Displacement and stress come from one basis evaluation per
    direction."""
    mesh = build_mesh("solid3d", "spline", 2, (2, 1, 1),
                      ((0.0, 2.0), (0.0, 1.0), (0.0, 1.0)))
    solid = SolidModel(mesh, Material(E=1.0, nu=0.3))
    calls = []
    evaluate = SplineDir.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(SplineDir, "eval", counted)
    a = np.random.default_rng(0).standard_normal(solid.ndof)
    u, s = solid.recover(1, np.zeros((3, 3)), a)
    assert len(calls) == 3
    assert u.shape == (3, 3) and s.shape == (3, 6)
