"""Beam and plate kernels, prolongation operators, frame rotations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdfem.bspline import least_squares_project
from mdfem.elasticity import Material
from mdfem.errors import ConfigError, DomainError
from mdfem.mesh import build_mesh, bulk_points
from mdfem.structural import BeamModel, PlateModel, frame_transforms
from oracles import section_rigidities


def beam_mesh(degree, nelems, length, basis="spline", **kw):
    return build_mesh("beam", basis, degree, nelems, ((0.0, length),), **kw)


def plate_mesh(degree, nelems, lengths, **kw):
    ext = ((0.0, lengths[0]), (0.0, lengths[1]))
    return build_mesh("plate", "spline", degree, nelems, ext, **kw)


def assemble(model):
    K = np.zeros((model.ndof, model.ndof))
    for e in range(model.mesh.nelem):
        dofs = model.element_dofs(e)
        K[np.ix_(dofs, dofs)] += model.element_stiffness(e)
    return K


def solve_clamped(K, f, fixed):
    free = np.setdiff1d(np.arange(K.shape[0]), fixed)
    a = np.zeros(K.shape[0])
    a[free] = np.linalg.solve(K[np.ix_(free, free)], f[free])
    return a


class TestFrameTransforms:
    def test_zero_angle_identities(self):
        R_v, T_inv, r = frame_transforms(0.0)
        np.testing.assert_allclose(R_v, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(T_inv, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_quarter_turn(self):
        R_v, T_inv, _ = frame_transforms(np.pi / 2)
        np.testing.assert_allclose(R_v, [[0, 1], [-1, 0]], atol=1e-15)
        # sigma_xx and sigma_yy swap, shear flips sign
        np.testing.assert_allclose(
            T_inv, [[0, 1, 0], [1, 0, 0], [0, 0, -1]], atol=1e-15
        )

    def test_orthogonality(self):
        rng = np.random.default_rng(3)
        for phi in rng.uniform(-np.pi, np.pi, 5):
            R_v, _, r = frame_transforms(phi)
            np.testing.assert_allclose(R_v.T @ R_v, np.eye(2), atol=1e-14)
            assert np.linalg.det(R_v) == pytest.approx(1.0)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-14)

    def test_stress_map_matches_tensor_rotation(self):
        rng = np.random.default_rng(7)
        for phi in rng.uniform(-np.pi, np.pi, 10):
            R_v, T_inv, _ = frame_transforms(phi)
            s11, s22, s12 = rng.standard_normal(3)
            local = np.array([[s11, s12], [s12, s22]])
            glob = R_v.T @ local @ R_v
            via_map = T_inv @ np.array([s11, s22, s12])
            np.testing.assert_allclose(
                via_map, [glob[0, 0], glob[1, 1], glob[0, 1]], atol=1e-12
            )


class TestPlacement:
    """Global points and (in-plane, offset) pairs of a beam or a plate."""

    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(-np.pi, np.pi),
           origin=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           seed=st.integers(0, 2**32 - 1))
    def test_beam_round_trip(self, phi, origin, seed):
        beam = BeamModel(beam_mesh(1, 3, 10.0, "lagrange", origin=origin,
                                   phi=phi), Material(E=1.0, nu=0.3))
        x = np.random.default_rng(seed).uniform(-60.0, 60.0, (7, 2))
        inplane, offsets = beam.to_local(x)
        assert inplane.shape == (7, 1) and offsets.shape == (7,)
        np.testing.assert_allclose(beam.to_global(inplane, offsets), x,
                                   rtol=0, atol=1e-12 * np.abs(x).max())
        # Axis coordinate 2 along (cos phi, sin phi), offset 0.5 normal.
        c, s = np.cos(phi), np.sin(phi)
        np.testing.assert_allclose(
            beam.to_global(np.array([[2.0]]), np.array([0.5])),
            [np.add(origin, [2.0 * c - 0.5 * s, 2.0 * s + 0.5 * c])],
            rtol=0, atol=1e-12 * 60.0)

    @settings(max_examples=40, deadline=None)
    @given(z_mid=st.floats(-50, 50), seed=st.integers(0, 2**32 - 1))
    def test_plate_round_trip(self, z_mid, seed):
        plate = PlateModel(plate_mesh(2, (2, 1), (4.0, 2.0), z_mid=z_mid),
                           Material(E=1.0, nu=0.3))
        x = np.random.default_rng(seed).uniform(-60.0, 60.0, (7, 3))
        inplane, offsets = plate.to_local(x)
        assert inplane.shape == (7, 2) and offsets.shape == (7,)
        np.testing.assert_allclose(plate.to_global(inplane, offsets), x,
                                   rtol=0, atol=1e-12 * np.abs(x).max())
        np.testing.assert_array_equal(
            plate.to_global(np.array([[1.0, 2.0]]), np.array([0.5])),
            [[1.0, 2.0, z_mid + 0.5]])


class TestEulerBernoulli:
    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)

    def test_needs_c1_basis(self):
        with pytest.raises(ConfigError):
            BeamModel(beam_mesh(1, 8, 10.0, basis="lagrange"), self.mat,
                      theory="euler_bernoulli")
        with pytest.raises(ConfigError):
            BeamModel(beam_mesh(1, 8, 10.0), self.mat,
                      theory="euler_bernoulli")

    def test_rigid_modes_energy_free(self):
        model = BeamModel(beam_mesh(3, 5, 12.0), self.mat,
                          theory="euler_bernoulli")
        K = assemble(model)
        scale = np.abs(K).max()
        const = np.ones(model.ndof)
        lin = model.mesh.nodes[:, 0]  # Greville values reproduce x exactly
        assert np.abs(K @ const).max() <= 1e-9 * scale
        assert np.abs(K @ lin).max() <= 1e-9 * scale

    def test_single_patch_kernel_dimension(self):
        model = BeamModel(beam_mesh(3, 1, 2.0), self.mat,
                          theory="euler_bernoulli")
        evals = np.linalg.eigvalsh(model.element_stiffness(0))
        assert np.sum(evals < 1e-9 * evals.max()) == 2

    def test_cantilever_tip_exact(self):
        L, P = 48.0, 1000.0
        model = BeamModel(beam_mesh(3, 4, L), self.mat,
                          theory="euler_bernoulli")
        K = assemble(model)
        f = model.point_load(L, (-P,))
        a = solve_clamped(K, f, fixed=[0, 1])  # w = w' = 0 at the root
        _, EI, _ = section_rigidities(self.mat)
        exact = -P * L**3 / (3.0 * EI)
        assert a[-1] == pytest.approx(exact, rel=1e-6)


class TestTimoshenko:
    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)

    def test_rigid_motion_energy_free(self):
        model = BeamModel(beam_mesh(2, 6, 20.0), self.mat)
        K = assemble(model)
        x = model.mesh.nodes[:, 0]
        c1, c2, c3 = 0.3, -1.1, 0.25
        a = np.empty(model.ndof)
        a[0::3] = c1
        a[1::3] = c2 + c3 * x
        a[2::3] = c3
        assert abs(a @ K @ a) <= 1e-9 * np.abs(K).max()

    def test_cantilever_with_linear_elements(self):
        """Selective reduced integration avoids shear locking."""
        L, P = 48.0, 1000.0
        model = BeamModel(beam_mesh(1, 100, L, basis="lagrange"), self.mat)
        K = assemble(model)
        f = model.point_load(L, (0.0, -P, 0.0))
        a = solve_clamped(K, f, fixed=[0, 1, 2])
        _, EI, kGA = section_rigidities(self.mat)
        exact = -(P * L**3 / (3.0 * EI) + P * L / kGA)
        assert a[-2] == pytest.approx(exact, rel=5e-3)

    def test_cantilever_with_cubic_splines(self):
        L, P = 48.0, 1000.0
        model = BeamModel(beam_mesh(3, 8, L), self.mat)
        K = assemble(model)
        f = model.point_load(L, (0.0, -P, 0.0))
        a = solve_clamped(K, f, fixed=[0, 1, 2])
        _, EI, kGA = section_rigidities(self.mat)
        exact = -(P * L**3 / (3.0 * EI) + P * L / kGA)
        assert a[-2] == pytest.approx(exact, rel=1e-9)

    def test_slender_limit_scaling(self):
        L, P = 10.0, 1.0
        tips = []
        for h in (0.5, 0.05):
            mat = Material(E=200.0, nu=0.3, thickness=h)
            model = BeamModel(beam_mesh(3, 16, L), mat)
            K = assemble(model)
            f = model.point_load(L, (0.0, -P, 0.0))
            a = solve_clamped(K, f, fixed=[0, 1, 2])
            tips.append(a[-2])
        assert tips[1] / tips[0] == pytest.approx(1000.0, rel=0.02)


class TestBeamProlongation:
    mat = Material(E=10.0, nu=0.25, thickness=2.0)

    def model(self, theory="timoshenko", degree=3):
        return BeamModel(beam_mesh(degree, 4, 8.0), self.mat, theory=theory)

    def test_translation(self):
        model = self.model()
        a = np.zeros(model.ndof)
        a[0::3] = 0.7
        pts = np.array([[0.3], [-0.5]])
        d, s = model.recover(1, pts, np.array([0.4, -0.9]), a)
        np.testing.assert_allclose(d, [[0.7, 0.0], [0.7, 0.0]], atol=1e-14)
        np.testing.assert_allclose(s, 0.0, atol=1e-14)

    def test_midline_axial_ignores_rotation(self):
        model = self.model()
        rng = np.random.default_rng(5)
        a = np.zeros(model.ndof)
        a[0::3] = 0.4
        a[2::3] = rng.standard_normal(model.mesh.nnodes)
        d, _ = model.recover(2, np.array([[0.1]]), np.array([0.0]), a)
        assert d[0, 0] == pytest.approx(0.4, abs=1e-13)

    def test_pure_bending_strain_profile(self):
        model = self.model()
        mesh = model.mesh
        kappa = 0.03

        theta = kappa * mesh.nodes[:, 0]
        w = least_squares_project(mesh.dirs[0], lambda x: 0.5 * kappa * x ** 2)
        a = np.zeros(model.ndof)
        a[1::3] = w
        a[2::3] = theta

        parent = np.array([[0.25], [0.25], [0.25]])
        ybar = np.array([-1.0, 0.0, 1.0])
        _, B = model.prolong(1, parent, ybar)
        eps = np.einsum("qij,j->qi", B, a[model.element_dofs(1)])
        np.testing.assert_allclose(eps[:, 0], -ybar * kappa, atol=1e-10)
        np.testing.assert_allclose(eps[:, 1:], 0.0, atol=1e-10)

    def test_offset_outside_depth_rejected(self):
        model = self.model()
        with pytest.raises(DomainError):
            model.prolong(0, np.array([[0.0]]), np.array([1.2]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           theory=st.sampled_from(["timoshenko", "euler_bernoulli"]))
    def test_strain_is_displacement_gradient(self, seed, theory):
        model = self.model(theory=theory)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(model.ndof)

        xb, yb = 3.3, 0.4
        hx, hy = 1e-5 * 8.0, 1e-5 * 2.0

        def disp(x, y):
            e = model.mesh.element_containing((x,))
            parent = model.mesh.local_to_parent(e, [[x]])
            Nb, _ = model.prolong(e, parent, np.array([y]))
            return Nb[0] @ a[model.element_dofs(e)]

        dux_dx = (disp(xb + hx, yb)[0] - disp(xb - hx, yb)[0]) / (2 * hx)
        duy_dy = (disp(xb, yb + hy)[1] - disp(xb, yb - hy)[1]) / (2 * hy)
        gamma = ((disp(xb, yb + hy)[0] - disp(xb, yb - hy)[0]) / (2 * hy)
                 + (disp(xb + hx, yb)[1] - disp(xb - hx, yb)[1]) / (2 * hx))

        e = model.mesh.element_containing((xb,))
        parent = model.mesh.local_to_parent(e, [[xb]])
        _, B = model.prolong(e, parent, np.array([yb]))
        eps = B[0] @ a[model.element_dofs(e)]
        ref = max(1.0, np.abs(eps).max())
        np.testing.assert_allclose(
            [dux_dx, 0.0, gamma], eps, atol=1e-5 * ref
        )
        assert abs(duy_dy) <= 1e-5 * ref


class TestBeamSectionEnergy:
    """Cross-section integration of the prolonged strain energy matches
    the 1D beam energy density (validates I = b h^3 / 12 bookkeeping)."""

    def density_check(self, theory):
        mat = Material(E=25.0, nu=0.2, thickness=1.7, width=1.0)
        model = BeamModel(beam_mesh(3, 3, 6.0), mat, theory=theory)
        EA, EI, kGA = section_rigidities(mat)
        rng = np.random.default_rng(42)
        a = rng.standard_normal(model.ndof)
        e = 1
        ae = a[model.element_dofs(e)]

        gy, wy = np.polynomial.legendre.leggauss(4)
        h = mat.thickness
        ybar = 0.5 * h * gy
        wy = 0.5 * h * wy

        parent = np.array([[0.37]])
        Cb = model.constitutive()
        section = 0.0
        for y, wgt in zip(ybar, wy):
            _, B = model.prolong(e, parent, np.array([y]))
            epsv = B[0] @ ae
            section += wgt * mat.width * (epsv @ Cb @ epsv)

        from mdfem.mesh import parent_data
        N, dN, d2N, _ = parent_data(model.mesh, e, parent,
                                    2 if theory == "euler_bernoulli" else 1)
        if theory == "euler_bernoulli":
            wxx = d2N[0, :, 0, 0] @ ae
            beam = EI * wxx**2
        else:
            up = dN[0, :, 0] @ ae[0::3]
            tp = dN[0, :, 0] @ ae[2::3]
            gam = dN[0, :, 0] @ ae[1::3] - N[0] @ ae[2::3]
            beam = EA * up**2 + EI * tp**2 + kGA * gam**2
        assert section == pytest.approx(beam, rel=1e-10)

    def test_timoshenko(self):
        self.density_check("timoshenko")

    def test_euler_bernoulli(self):
        self.density_check("euler_bernoulli")


class TestPlateSectionEnergy:
    """The through-thickness integral of the prolonged strain energy
    e^T C e over an element equals a^T K a of the element stiffness
    (validates the h and h^3 / 12 bookkeeping)."""

    @settings(max_examples=20, deadline=None)
    @given(theory=st.sampled_from(["kirchhoff", "mindlin"]),
           degree=st.integers(2, 3), seed=st.integers(0, 2**31 - 1))
    def test_energy(self, theory, degree, seed):
        mat = Material(E=25.0, nu=0.2, thickness=1.7)
        model = PlateModel(plate_mesh(degree, (3, 2), (6.0, 4.0)), mat,
                           theory=theory)
        rng = np.random.default_rng(seed)
        e = int(rng.integers(model.mesh.nelem))
        a = rng.standard_normal(len(model.element_dofs(e)))
        local, w, *_ = bulk_points(model.mesh, e)
        parent = model.mesh.local_to_parent(e, local)
        # Two Gauss points in z integrate the quadratic energy exactly.
        gz, wz = np.polynomial.legendre.leggauss(2)
        h, C = mat.thickness, model.constitutive()
        energy = 0.0
        for z, wgt in zip(0.5 * h * gz, 0.5 * h * wz):
            _, B = model.prolong(e, parent, np.full(len(w), z))
            eps = B @ a
            energy += wgt * np.sum(w * np.einsum("qa,ab,qb->q", eps, C, eps))
        assert energy == pytest.approx(a @ model.element_stiffness(e) @ a,
                                       rel=1e-10)


class TestPlates:
    mat = Material(E=1000.0, nu=0.3, thickness=20.0)

    def test_bending_matrix_coefficient(self):
        model = PlateModel(plate_mesh(3, (2, 2), (100.0, 100.0)), self.mat,
                           theory="kirchhoff")
        (D, _), = model.stiffness_form()
        # The curvature block: jet columns (w_xx, w_xy, w_yy).
        D_b = D[0, 3:, 0, 3:]
        assert D_b[0, 0] == pytest.approx(7.326e5, rel=1e-3)
        np.testing.assert_allclose(D_b, D_b.T, atol=0)
        assert np.linalg.eigvalsh(D_b).min() > 0

    def test_kirchhoff_needs_c1(self):
        mesh = build_mesh("plate", "lagrange", (1, 1), (2, 2),
                          ((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ConfigError):
            PlateModel(mesh, self.mat, theory="kirchhoff")

    def test_kirchhoff_rigid_modes(self):
        model = PlateModel(plate_mesh(3, (4, 4), (10.0, 8.0)), self.mat,
                           theory="kirchhoff")
        K = assemble(model)
        scale = np.abs(K).max()
        x, y = model.mesh.nodes[:, 0], model.mesh.nodes[:, 1]
        for a in (np.ones(model.ndof), 0.2 + 0.5 * x - 1.3 * y):
            assert np.abs(K @ a).max() <= 1e-9 * scale

    def test_mindlin_rigid_modes(self):
        model = PlateModel(plate_mesh(2, (3, 3), (5.0, 5.0)), self.mat,
                           theory="mindlin")
        K = assemble(model)
        x, y = model.mesh.nodes[:, 0], model.mesh.nodes[:, 1]
        a = np.zeros(model.ndof)
        # w linear with beta = grad w: strain-free tilt
        a[0::3] = 0.4 * x - 0.9 * y
        a[1::3] = 0.4
        a[2::3] = -0.9
        assert np.abs(K @ a).max() <= 1e-9 * np.abs(K).max()

    def test_clamped_square_plate_center_deflection(self):
        L, p = 400.0, 10.0
        model = PlateModel(plate_mesh(3, (16, 16), (L, L)), self.mat,
                           theory="kirchhoff")
        K = assemble(model)
        f = model.pressure_load(-p)

        # clamp w on the boundary control points and the next ring inward
        n1 = model.mesh.dirs[0].n
        idx = np.arange(model.ndof).reshape(model.mesh.dirs[1].n, n1)
        fixed = np.unique(np.concatenate([
            idx[:2, :].ravel(), idx[-2:, :].ravel(),
            idx[:, :2].ravel(), idx[:, -2:].ravel(),
        ]))
        a = solve_clamped(K, f, fixed)

        e = model.mesh.element_containing((L / 2, L / 2))
        parent = model.mesh.local_to_parent(e, [[L / 2, L / 2]])
        d, _ = model.recover(e, parent, np.array([0.0]), a)
        m = model.material
        D = m.E * m.thickness**3 / (12.0 * (1.0 - m.nu**2))
        assert d[0, 2] == pytest.approx(-0.00126 * p * L**4 / D, rel=0.02)

    def test_mindlin_shear_free_state(self):
        model = PlateModel(plate_mesh(2, (3, 3), (5.0, 4.0)), self.mat,
                           theory="mindlin")
        x, y = model.mesh.nodes[:, 0], model.mesh.nodes[:, 1]
        a = np.zeros(model.ndof)
        a[0::3] = 0.2 * x + 0.6 * y
        a[1::3] = 0.2
        a[2::3] = 0.6
        pts = np.array([[0.3, -0.2], [-0.8, 0.5]])
        _, B = model.prolong(4, pts, np.array([3.0, -7.0]))
        eps = np.einsum("qij,j->qi", B, a[model.element_dofs(4)])
        np.testing.assert_allclose(eps[:, 3:], 0.0, atol=1e-12)

    def test_kirchhoff_midsurface_displacement(self):
        model = PlateModel(plate_mesh(3, (4, 4), (10.0, 10.0)), self.mat,
                           theory="kirchhoff")
        rng = np.random.default_rng(9)
        a = rng.standard_normal(model.ndof)
        pts = np.array([[0.1, 0.7]])
        d, _ = model.recover(3, pts, np.array([0.0]), a)
        N, _, _ = model.mesh.shape_ders(
            3, model.mesh.parent_to_local(3, pts), nders=0
        )
        assert d[0, 0] == 0.0 and d[0, 1] == 0.0
        assert d[0, 2] == pytest.approx(N[0] @ a[model.element_dofs(3)])

    def test_offset_outside_thickness_rejected(self):
        model = PlateModel(plate_mesh(2, (2, 2), (4.0, 4.0)), self.mat)
        with pytest.raises(DomainError):
            model.prolong(0, np.array([[0.0, 0.0]]), np.array([10.1]))

    def test_strain_is_displacement_gradient(self):
        for theory in ("mindlin", "kirchhoff"):
            model = PlateModel(plate_mesh(3, (3, 3), (6.0, 6.0)), self.mat,
                               theory=theory)
            rng = np.random.default_rng(13)
            a = rng.standard_normal(model.ndof)
            x0 = np.array([2.2, 3.1, 4.0])  # (x1, x2, x3)
            hs = 1e-5 * np.array([6.0, 6.0, 20.0])

            def disp(pt):
                e = model.mesh.element_containing(pt[:2])
                parent = model.mesh.local_to_parent(e, [pt[:2]])
                Np, _ = model.prolong(e, parent, np.array([pt[2]]))
                return Np[0] @ a[model.element_dofs(e)]

            grad = np.zeros((3, 3))
            for j in range(3):
                dp, dm = x0.copy(), x0.copy()
                dp[j] += hs[j]
                dm[j] -= hs[j]
                grad[:, j] = (disp(dp) - disp(dm)) / (2 * hs[j])
            fd = np.array([
                grad[0, 0], grad[1, 1], grad[0, 1] + grad[1, 0],
                grad[1, 2] + grad[2, 1], grad[0, 2] + grad[2, 0],
            ])

            e = model.mesh.element_containing(x0[:2])
            parent = model.mesh.local_to_parent(e, [x0[:2]])
            _, B = model.prolong(e, parent, np.array([x0[2]]))
            eps = B[0] @ a[model.element_dofs(e)]
            if theory == "kirchhoff":
                eps = np.concatenate([eps, [0.0, 0.0]])
                assert abs(grad[2, 2]) <= 1e-5
            ref = max(1.0, np.abs(eps).max())
            np.testing.assert_allclose(fd, eps, atol=2e-5 * ref)

    def test_pressure_load_total(self):
        model = PlateModel(plate_mesh(2, (3, 2), (4.0, 5.0)), self.mat)
        f = model.pressure_load(-3.0)
        assert f[0::3].sum() == pytest.approx(-3.0 * 20.0, rel=1e-12)
        assert np.all(f[1::3] == 0) and np.all(f[2::3] == 0)

    def test_edge_load_total(self):
        model = PlateModel(plate_mesh(2, (3, 2), (4.0, 5.0)), self.mat)
        f = model.edge_load(axis=0, side=1, q=-10.0)
        assert f[0::3].sum() == pytest.approx(-10.0 * 5.0, rel=1e-12)


class TestFrameMember:
    """A rotated member keeps its physics; unknowns stay global."""

    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)

    def test_rotated_stiffness_is_similarity_transform(self):
        phi = np.pi / 3
        m0 = BeamModel(beam_mesh(2, 3, 12.0), self.mat)
        m1 = BeamModel(beam_mesh(2, 3, 12.0, phi=phi, origin=(1.0, -2.0)),
                       self.mat)
        K0 = m0.element_stiffness(1)
        K1 = m1.element_stiffness(1)
        _, _, r = frame_transforms(phi)
        nen = m0.mesh.nen
        R = np.kron(np.eye(nen), r)
        np.testing.assert_allclose(K1, R.T @ K0 @ R, atol=1e-9 * np.abs(K0).max())

    def test_vertical_cantilever_under_global_load(self):
        """Column loaded sideways behaves like the horizontal twin."""
        L, P = 48.0, 1000.0
        flat = BeamModel(beam_mesh(3, 8, L), self.mat)
        Kf = assemble(flat)
        ff = flat.point_load(L, (0.0, -P, 0.0))
        af = solve_clamped(Kf, ff, fixed=[0, 1, 2])

        col = BeamModel(beam_mesh(3, 8, L, phi=np.pi / 2), self.mat)
        Kc = assemble(col)
        # local -w is global +x for a column rotated by +pi/2
        fc = col.point_load(L, (P, 0.0, 0.0))
        ac = solve_clamped(Kc, fc, fixed=[0, 1, 2])
        assert ac[-3] == pytest.approx(-af[-2], rel=1e-12)
        assert abs(ac[-2]) <= 1e-12 * abs(ac[-3])

    def test_rotated_stress_recovery(self):
        phi = np.pi / 2
        model = BeamModel(beam_mesh(3, 4, 10.0, phi=phi), self.mat)
        a = np.zeros(model.ndof)
        # uniform global-y stretch of the column = local axial strain
        a[1::3] = 0.01 * model.mesh.nodes[:, 0]
        d, s = model.recover(2, np.array([[0.2]]), np.array([0.0]), a)
        # sigma_yy in global axes, nothing else
        np.testing.assert_allclose(
            s[0], [0.0, 0.01 * self.mat.E, 0.0], atol=1e-9
        )


@pytest.mark.parametrize("make", [
    lambda mat: BeamModel(beam_mesh(2, 3, 6.0, phi=0.3), mat),
    lambda mat: BeamModel(beam_mesh(3, 3, 6.0), mat, "euler_bernoulli"),
    lambda mat: PlateModel(plate_mesh(2, (2, 2), (4.0, 4.0)), mat),
    lambda mat: PlateModel(plate_mesh(2, (2, 2), (4.0, 4.0)), mat,
                           "kirchhoff"),
])
def test_recover_prolongs_once(monkeypatch, make):
    """Displacement and stress come from one prolongation."""
    model = make(Material(E=10.0, nu=0.3, thickness=0.5))
    calls = []
    prolong = type(model).prolong

    def counted(self, *args, **kwargs):
        calls.append(1)
        return prolong(self, *args, **kwargs)

    monkeypatch.setattr(type(model), "prolong", counted)
    a = np.random.default_rng(0).standard_normal(model.ndof)
    parent = np.zeros((2, model.mesh.dim))
    model.recover(0, parent, np.array([0.1, -0.2]), a)
    assert len(calls) == 1


def _moved_beam_mesh():
    """A quadratic beam on [0, 24] whose nodes are moved off the grid:
    the affine element lookup put point_load(5.0) at x = 5.348 here."""
    mesh = beam_mesh(2, 4, 24.0)
    mesh.nodes = mesh.nodes + 0.5 * np.sin(mesh.nodes / 4.0)
    return mesh


def _weighted_beam_mesh():
    return beam_mesh(2, 4, 24.0, weights=[np.array([1.0, 0.6, 1.4, 1.0,
                                                     0.8, 1.0])])


@pytest.mark.parametrize("make", [_moved_beam_mesh, _weighted_beam_mesh],
                         ids=["moved-net", "unequal-weights"])
def test_point_load_rejects_a_map_it_cannot_invert(make):
    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
    f = BeamModel(beam_mesh(2, 4, 24.0), mat).point_load(5.0, (0.0, 1.0, 0.0))
    # The load's first moment places it: on the grid net at x = 5.
    x = beam_mesh(2, 4, 24.0).nodes[:, 0]
    assert f[1::3] @ x == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(ConfigError, match="affine beam map"):
        BeamModel(make(), mat).point_load(5.0, (0.0, 1.0, 0.0))
