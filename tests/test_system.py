"""Assembly, constraints, and the global solve path."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mdfem.coupling import build_interface
from mdfem.elasticity import Material, SolidModel
from mdfem.errors import ConfigError, DefinitenessError
from mdfem.mesh import build_mesh
from mdfem.structural import BeamModel
from mdfem.system import System, _solve_spd


def small_coupled():
    mat = Material(E=200.0, nu=0.25, thickness=1.0)
    solid = SolidModel(
        build_mesh("solid2d", "lagrange", (1, 1), (6, 3),
                   ((0.0, 3.0), (-0.5, 0.5))),
        mat,
    )
    beam = BeamModel(
        build_mesh("beam", "lagrange", 1, 5, ((0.0, 3.0),),
                   origin=(3.0, 0.0)),
        mat,
    )
    op = build_interface(solid, beam, axis=0, side=1)
    return solid, beam, op


def clamped_edge_dofs(solid, value=0.0):
    nodes = np.nonzero(np.abs(solid.mesh.nodes[:, 0]) < 1e-12)[0]
    return np.concatenate([2 * nodes, 2 * nodes + 1])


class TestAssembly:
    def test_dof_partition(self):
        solid, beam, op = small_coupled()
        sys = System([solid, beam], [op])
        assert sys.ndof == solid.ndof + beam.ndof
        ids = np.arange(sys.ndof)
        np.testing.assert_array_equal(sys.model_part(ids, 0),
                                      np.arange(solid.ndof))
        np.testing.assert_array_equal(sys.model_part(ids, 1),
                                      solid.ndof + np.arange(beam.ndof))
        np.testing.assert_array_equal(sys.global_dofs(1, [0, 2]),
                                      [solid.ndof, solid.ndof + 2])

    def test_duplicate_model_rejected(self):
        solid, beam, op = small_coupled()
        with pytest.raises(ConfigError):
            System([solid, solid])

    def test_uncoupled_bulk_is_block_diagonal(self):
        solid, beam, op = small_coupled()
        sys = System([solid, beam])
        K = sys.bulk_matrix().toarray()
        ns = solid.ndof
        assert np.all(K[:ns, ns:] == 0.0)
        assert np.all(K[ns:, :ns] == 0.0)

    def test_assembled_matrix_matches_manual_sum(self):
        solid, beam, op = small_coupled()
        alpha = 5.0e3
        sys = System([solid, beam], [op])
        sys.fix(0, clamped_edge_dofs(solid))
        f = np.zeros(beam.ndof)
        f[-2] = -1.0
        sys.load(1, f)
        sol = sys.solve(alpha=alpha)

        Kn, Kst, _ = op.matrices()
        manual = sys.bulk_matrix() + Kn + Kn.T + alpha * Kst
        diff = abs(sol.K - manual).max()
        assert diff <= 1e-12 * abs(manual).max()
        asym = abs(sol.K - sol.K.T).max()
        assert asym <= 1e-12 * abs(sol.K).max()


class TestConstraints:
    def test_conflicting_values_rejected(self):
        solid, beam, op = small_coupled()
        sys = System([solid, beam], [op])
        sys.fix(0, [0, 1], values=0.5)
        with pytest.raises(ConfigError):
            sys.fix(0, [1], values=-0.5)

    def test_nonfinite_value_rejected(self):
        solid, beam, op = small_coupled()
        sys = System([solid, beam], [op])
        with pytest.raises(ConfigError):
            sys.fix(0, [0], values=np.nan)

    def test_repeated_identical_fix_is_fine(self):
        solid, beam, op = small_coupled()
        sys = System([solid, beam], [op])
        sys.fix(0, [0], values=0.25)
        sys.fix(0, [0], values=0.25)

    def test_same_dof_twice_in_one_call(self):
        solid, beam, op = small_coupled()
        sys = System([solid, beam], [op])
        sys.fix(0, [3, 5, 3], values=[0.25, 1.0, 0.25])
        with pytest.raises(ConfigError, match="conflicting constraint on "
                                              "DOF 5$"):
            sys.fix(0, [2, 5, 4, 5], values=[0.0, 1.0, 0.0, 2.0])
        cons, vals, free = sys._free()
        np.testing.assert_array_equal(cons, [3, 5])
        np.testing.assert_array_equal(vals, [0.25, 1.0])
        assert free.sum() == sys.ndof - 2


    def test_dofs_outside_the_model_rejected(self):
        # A 2x2 Q4 solid (18 DOFs) before a Timoshenko beam: -1 and 18
        # would otherwise land on the beam's DOFs 26 and 18.
        sys = q4_and_beam()
        for dofs in ([-1], [18]):
            with pytest.raises(ConfigError, match=r"model 0: local DOF "
                                                  r"-?\d+ outside \[0, 18\)"):
                sys.fix(0, dofs, 0.5)
        assert free_count(sys) == sys.ndof

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1]),
           st.lists(st.integers(-30, 40), min_size=1, max_size=5))
    def test_fix_range_check(self, idx, dofs):
        sys = q4_and_beam()
        n = sys.models[idx].ndof
        bad = [d for d in dofs if not 0 <= d < n]
        if bad:
            with pytest.raises(ConfigError, match=rf"model {idx}: local DOF "
                                                  rf"{bad[0]} outside \[0, {n}\)$"):
                sys.fix(idx, dofs, 0.25)
            assert free_count(sys) == sys.ndof
            return
        sys.fix(idx, dofs, 0.25)
        cons, vals, _ = sys._free()
        np.testing.assert_array_equal(cons, np.unique(sys.offsets[idx]
                                                      + np.array(dofs)))
        assert np.all(vals == 0.25)


def q4_and_beam():
    mat = Material(E=200.0, nu=0.25)
    solid = SolidModel(build_mesh("solid2d", "lagrange", 1, (2, 2),
                                  ((0.0, 2.0), (0.0, 1.0))), mat)
    beam = BeamModel(build_mesh("beam", "lagrange", 1, 2, ((0.0, 2.0),),
                                origin=(2.0, 0.5)), mat)
    return System([solid, beam])


def free_count(sys):
    return int(sys._free()[2].sum())


class TestCoupledSolve:
    def test_rigid_translation_passes_through_interface(self):
        solid, beam, op = small_coupled()
        sys = System([solid, beam], [op])
        dofs = clamped_edge_dofs(solid)
        vals = np.where(dofs % 2 == 0, 0.01, -0.02)
        sys.fix(0, dofs, values=vals)
        sol = sys.solve(alpha="auto")
        assert sol.alphas[0] > 0.0
        assert sol.residual <= 1e-10

        a_b = sys.model_part(sol.a, 1)
        np.testing.assert_allclose(a_b[0::3], 0.01, atol=1e-9)
        np.testing.assert_allclose(a_b[1::3], -0.02, atol=1e-9)
        np.testing.assert_allclose(a_b[2::3], 0.0, atol=1e-9)

        # no jump energy, no stress anywhere
        _, Kst, _ = op.matrices()
        jump = sol.a @ (Kst @ sol.a)
        assert jump <= 1e-9 * sol.alphas[0] * (sol.a @ sol.a)
        a_s = sys.model_part(sol.a, 0)
        mid = np.full((1, 2), 0.0)
        for e in (0, solid.mesh.nelem // 2, solid.mesh.nelem - 1):
            _, sig = solid.recover(e, mid, a_s)
            assert np.abs(sig).max() <= 1e-9 * solid.material.E

    def test_model_order_does_not_change_physics(self):
        solid, beam, op = small_coupled()
        alpha = 2.0e3
        f = np.zeros(beam.ndof)
        f[-2] = -1.0

        sys1 = System([solid, beam], [op])
        sys1.fix(0, clamped_edge_dofs(solid))
        sys1.load(1, f)
        a1 = sys1.solve(alpha=alpha).a

        sys2 = System([beam, solid], [op])
        sys2.fix(1, clamped_edge_dofs(solid))
        sys2.load(0, f)
        sol2 = sys2.solve(alpha=alpha)

        np.testing.assert_allclose(sys2.model_part(sol2.a, 1),
                                   a1[:solid.ndof], atol=1e-12)
        np.testing.assert_allclose(sys2.model_part(sol2.a, 0),
                                   a1[solid.ndof:], atol=1e-12)

    def test_understabilized_system_is_detected(self):
        solid, beam, op = small_coupled()
        f = np.zeros(beam.ndof)
        f[-2] = -1.0

        sys = System([solid, beam], [op])
        sys.fix(0, clamped_edge_dofs(solid))
        sys.load(1, f)
        sol = sys.solve(alpha="auto")
        assert sol.residual <= 1e-10

        weak = System([solid, beam], [op])
        weak.fix(0, clamped_edge_dofs(solid))
        weak.load(1, f)
        with pytest.raises(DefinitenessError):
            weak.solve(alpha=sol.alphas[0] / 100.0)

    def test_reactions_balance_applied_load(self):
        mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
        solid = SolidModel(
            build_mesh("solid2d", "lagrange", (1, 1), (16, 8),
                       ((0.0, 24.0), (-3.0, 3.0))),
            mat,
        )
        sys = System([solid])
        sys.fix(0, clamped_edge_dofs(solid))
        P = 1000.0
        sys.load(0, solid.traction_force(
            0, 1, lambda x: np.stack(
                [np.zeros(len(x)),
                 -P / (2 * 18.0) * (9.0 - x[:, 1] ** 2)], axis=-1),
        ))
        sol = sys.solve()
        assert sol.reactions[1::2].sum() == pytest.approx(P, rel=1e-8)
        assert sol.reactions[0::2].sum() == pytest.approx(0.0, abs=1e-8 * P)


class TestSpdSolver:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(3)
        n = 600
        B = sp.random(n, n, density=0.01, random_state=rng, format="csr")
        A = (B @ B.T + sp.eye(n) * n).tocsr()
        b = rng.standard_normal(n)
        x = _solve_spd(A, b)
        ref = np.linalg.solve(A.toarray(), b)
        np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)

    def test_single_dof(self):
        x = _solve_spd(sp.csr_matrix(np.array([[4.0]])), np.array([2.0]))
        np.testing.assert_allclose(x, [0.5])

    def test_empty_system(self):
        x = _solve_spd(sp.csr_matrix((0, 0)), np.zeros(0))
        assert x.size == 0

    def test_indefinite_dense_path(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(DefinitenessError):
            _solve_spd(A, np.ones(2))

    def test_indefinite_banded_path(self):
        A = sp.eye(500, format="csr") * -1.0
        with pytest.raises(DefinitenessError):
            _solve_spd(A, np.ones(500))
