"""Assembly, constraints, and the global solve path."""
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdfem import bench, coupling, system
from mdfem import mesh as mesh_mod
from mdfem.coupling import build_interface
from mdfem.elasticity import Material, SolidModel
from mdfem.errors import ConfigError, DefinitenessError, RankError
from mdfem.mesh import build_mesh
from mdfem.nonconforming import NonconformingModel, OverlapRegion
from mdfem.structural import BeamModel, PlateModel
from mdfem.errors import MdfemError
from mdfem.system import (Pieces, System, _band_order, _block_diag,
                          _factor_spd)
from oracles import (band_fill, band_order, local_matrices, node_band,
                     node_graph, separable_full)


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


def coupled(models, *ops):
    """A `System` over ``models`` with the couplings ``ops`` added."""
    sysm = System(models)
    for op in ops:
        sysm.add_coupling(op)
    return sysm


def clamped_edge_dofs(solid, value=0.0):
    nodes = np.nonzero(np.abs(solid.mesh.nodes[:, 0]) < 1e-12)[0]
    return np.concatenate([2 * nodes, 2 * nodes + 1])


class TestAssembly:
    def test_dof_partition(self):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
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
        sys = coupled([solid, beam], op)
        sys.fix(0, clamped_edge_dofs(solid))
        f = np.zeros(beam.ndof)
        f[-2] = -1.0
        sys.load(1, f)
        sol = sys.solve(alpha=alpha)

        Kn, Kst, _ = local_matrices(op)
        manual = sys.bulk_matrix() + Kn + Kn.T + alpha * Kst
        diff = abs(sol.K - manual).max()
        assert diff <= 1e-12 * abs(manual).max()
        asym = abs(sol.K - sol.K.T).max()
        assert asym <= 1e-12 * abs(sol.K).max()

    def test_fixed_alpha_solve_after_estimate_reads_every_coupling(self):
        # The estimate keeps its blocks for the next solve; a solve with a
        # fixed alpha after it, and another after that, sum every coupling.
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        sys.fix(0, clamped_edge_dofs(solid))
        Kn, Kst, _ = local_matrices(op)
        manual = sys.bulk_matrix() + Kn + Kn.T + 5.0e3 * Kst
        sys.resolve_alpha("auto")
        for _ in range(2):
            K = sys.solve(alpha=5.0e3).K
            assert abs(K - manual).max() <= 1e-12 * abs(manual).max()


class TestConstraints:
    def test_inactive_dofs_are_pinned_at_construction(self):
        # The sliver cantilever: beam DOF 0 (global 490) lies under the
        # solid and is pinned to zero before any assembly, so another
        # value for it is a conflict at `fix`, not at `solve`.
        sys = bench.cantilever_system(
            "spline", 3, (32, 4), 8, solid_span=(0.0, 29.97),
            covered_to=29.97)["system"]
        pinned = sys.global_dofs(1, sys.models[1].inactive_dofs)
        assert 490 in pinned
        np.testing.assert_array_equal(sys._fixed[pinned], 0.0)
        sys.fix(1, [0], 0.0)
        with pytest.raises(ConfigError, match="conflicting constraint on "
                                              "DOF 490$"):
            sys.fix(1, [0], 1.0)

    def test_conflicting_values_rejected(self):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        sys.fix(0, [0, 1], values=0.5)
        with pytest.raises(ConfigError):
            sys.fix(0, [1], values=-0.5)

    def test_nonfinite_value_rejected(self):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        with pytest.raises(ConfigError):
            sys.fix(0, [0], values=np.nan)

    def test_repeated_identical_fix_is_fine(self):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        sys.fix(0, [0], values=0.25)
        sys.fix(0, [0], values=0.25)

    def test_same_dof_twice_in_one_call(self):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        sys.fix(0, [3, 5, 3], values=[0.25, 1.0, 0.25])
        with pytest.raises(ConfigError, match="conflicting constraint on "
                                              "DOF 5$"):
            sys.fix(0, [2, 5, 4, 5], values=[0.0, 1.0, 0.0, 2.0])
        cons, vals = constrained(sys)
        np.testing.assert_array_equal(cons, [3, 5])
        np.testing.assert_array_equal(vals, [0.25, 1.0])
        assert free_count(sys) == sys.ndof - 2


    def test_dofs_outside_the_model_rejected(self):
        # A 2x2 Q4 solid (18 DOFs) before a Timoshenko beam: -1 and 18
        # would otherwise land on the beam's DOFs 26 and 18.
        sys = q4_and_beam()
        for dofs in ([-1], [18]):
            with pytest.raises(ConfigError, match=r"model 0: local DOF "
                                                  r"-?\d+ outside \[0, 18\)"):
                sys.fix(0, dofs, 0.5)
        assert free_count(sys) == sys.ndof

    @pytest.mark.parametrize("dofs, shown", [
        ([0.5, 1.9], "0.5"),
        (np.array([2.0, 3.0]), "2.0"),
        (["a", "b"], "'a'"),
        ([True, False], "True"),
        ([0, None], "None"),
        (np.array([1, "x"], dtype=object), "'x'"),
    ])
    def test_non_integer_dofs_rejected(self, dofs, shown):
        # An int conversion would pin DOFs 0 and 1 for [0.5, 1.9] and for
        # [True, False], and fail on a string with numpy's bare error.
        sys = q4_and_beam()
        with pytest.raises(ConfigError, match=rf"^model 1: local DOF "
                                              rf"{re.escape(shown)} is not "
                                              rf"an integer$"):
            sys.fix(1, dofs, 0.5)
        assert free_count(sys) == sys.ndof

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, message", [
        (lambda s, n: s.load(0, ["a"] * n),
         "model 0: a load is 30 finite values, got something other than "
         "an array of numbers"),
        (lambda s, n: s.load(0, [[0.0] * (n - 1), [1.0]]),
         "model 0: a load is 30 finite values, got something other than "
         "an array of numbers"),
        (lambda s, n: s.fix(0, [0], "x"),
         "model 0: Dirichlet values are one number or one per DOF (1), "
         "got 'x'"),
        (lambda s, n: s.fix(0, [0], [1.0, 2.0]),
         "model 0: Dirichlet values are one number or one per DOF (1), "
         "got [1.0, 2.0]"),
        (lambda s, n: s.fix(0, [[0, 1], [2]]),
         "model 0: local DOFs [[0, 1], [2]] are not an array of integers"),
        (lambda s, n: s.fix(0, [0], np.nan),
         "model 0: Dirichlet values must be finite"),
    ])
    def test_unreadable_loads_and_values_are_named(self, call, message):
        # numpy's bare errors before: "could not convert string to float",
        # an inhomogeneous shape and a failed broadcast.
        sys = bench.cantilever_system("lagrange", 1, (4, 2), 4)["system"]
        n = sys.models[0].ndof
        fixed, f = sys._fixed.copy(), sys._f.copy()
        with pytest.raises(ConfigError) as exc:
            call(sys, n)
        assert str(exc.value) == message
        np.testing.assert_array_equal(sys._fixed, fixed)
        np.testing.assert_array_equal(sys._f, f)

    def test_empty_and_boxed_integer_dofs_are_valid(self):
        sys = q4_and_beam()
        sys.fix(0, [], 0.5)
        np.testing.assert_array_equal(sys.global_dofs(1, []), [])
        np.testing.assert_array_equal(
            sys.global_dofs(1, np.array([0, 2], dtype=object)),
            sys.global_dofs(1, [0, 2]))
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
        cons, vals = constrained(sys)
        np.testing.assert_array_equal(cons, np.unique(sys.offsets[idx]
                                                      + np.array(dofs)))
        assert np.all(vals == 0.25)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(-4, 5), st.integers(-4, 5).map(np.int64),
                     st.floats(), st.text(max_size=3), st.booleans()))
    @example(0.5)
    @example("0")
    @example(True)
    def test_model_index_range_check(self, idx):
        # Python indexing would take -1 and -2 as the beam and the solid,
        # and True as the beam.
        sys = q4_and_beam()
        n, a = len(sys.models), np.arange(float(sys.ndof))
        integer = (isinstance(idx, (int, np.integer))
                   and not isinstance(idx, bool))
        if integer and 0 <= idx < n:
            m, off = sys.models[idx], sys.offsets[idx]
            np.testing.assert_array_equal(sys.global_dofs(idx, [0, 1]),
                                          [off, off + 1])
            np.testing.assert_array_equal(sys.model_part(a, idx),
                                          off + np.arange(m.ndof))
            sys.load(idx, np.ones(m.ndof))
            assert sys._f.sum() == m.ndof == sys._f[off:off + m.ndof].sum()
            return
        msg = (rf"^model {idx} outside \[0, {n}\)$" if integer else
               rf"^model index {re.escape(repr(idx))} is not an integer$")
        for call in (lambda: sys.global_dofs(idx, [0]),
                     lambda: sys.fix(idx, [0, 1]),
                     lambda: sys.load(idx, np.zeros(sys.models[0].ndof)),
                     lambda: sys.model_part(a, idx)):
            with pytest.raises(ConfigError, match=msg):
                call()
        assert free_count(sys) == sys.ndof and not sys._f.any()


def q4_and_beam():
    mat = Material(E=200.0, nu=0.25)
    solid = SolidModel(build_mesh("solid2d", "lagrange", 1, (2, 2),
                                  ((0.0, 2.0), (0.0, 1.0))), mat)
    beam = BeamModel(build_mesh("beam", "lagrange", 1, 2, ((0.0, 2.0),),
                                origin=(2.0, 0.5)), mat)
    return System([solid, beam])


def free_count(sys):
    return int(np.isnan(sys._fixed).sum())


def constrained(sys):
    """The constrained DOFs of a system and their values."""
    cons = np.flatnonzero(~np.isnan(sys._fixed))
    return cons, sys._fixed[cons]


class TestCoupledSolve:
    def test_rigid_translation_passes_through_interface(self):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
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
        _, Kst, _ = local_matrices(op)
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

        sys1 = coupled([solid, beam], op)
        sys1.fix(0, clamped_edge_dofs(solid))
        sys1.load(1, f)
        a1 = sys1.solve(alpha=alpha).a

        sys2 = coupled([beam, solid], op)
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

        sys = coupled([solid, beam], op)
        sys.fix(0, clamped_edge_dofs(solid))
        sys.load(1, f)
        sol = sys.solve(alpha="auto")
        assert sol.residual <= 1e-10

        weak = coupled([solid, beam], op)
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


class TestStressBoundOnDemand:
    """H = int T^T T feeds the alpha estimate only, so only that builds
    it."""

    def loaded(self):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        sys.fix(0, clamped_edge_dofs(solid))
        sys.load(1, beam.point_load(3.0, (0.0, -1.0, 0.0)))
        return sys

    def spy(self, monkeypatch):
        """Segment products per `CouplingOperator.matrices` call."""
        counts = []
        matrices = coupling.CouplingOperator.matrices
        product = coupling.integrate_atb

        def counted_matrices(op, offsets, with_h):
            counts.append(0)
            return matrices(op, offsets, with_h)

        def counted_product(*args, **kwargs):
            counts[-1] += 1
            return product(*args, **kwargs)

        monkeypatch.setattr(coupling.CouplingOperator, "matrices",
                            counted_matrices)
        monkeypatch.setattr(coupling, "integrate_atb", counted_product)
        return counts

    def test_fixed_alpha_makes_no_h_product(self, monkeypatch):
        # The interface's segments share one point count: one batch.
        counts = self.spy(monkeypatch)
        self.loaded().solve(alpha=2.0e3)
        assert counts == [2]
        self.loaded().solve(alpha="auto")
        assert counts == [2, 3]

    @pytest.mark.parametrize("alpha", ["auto", 2.0e3])
    def test_same_numbers_as_always_building_h(self, monkeypatch, alpha):
        sol = self.loaded().solve(alpha=alpha)
        matrices = coupling.CouplingOperator.matrices
        monkeypatch.setattr(
            coupling.CouplingOperator, "matrices",
            lambda op, offsets, with_h: matrices(op, offsets, True))
        ref = self.loaded().solve(alpha=alpha)
        assert sol.alphas == ref.alphas
        np.testing.assert_array_equal(sol.a, ref.a)


def test_nitsche_sum_flushes_within_budget(monkeypatch):
    """Two couplings of twelve segments between them: with room for about
    one segment block, the blocks go to CSR in runs that each hold less
    than twice the budget, and K is the one-run sum to round-off."""
    mat = Material(E=200.0, nu=0.25, thickness=1.0)
    solid = SolidModel(build_mesh("solid2d", "spline", 2, (4, 6),
                                  ((0.0, 3.0), (-0.5, 0.5))), mat)
    beams = [BeamModel(build_mesh("beam", "spline", 2, 3, ((0.0, 2.0),),
                                  origin=(x0, 0.0)), mat)
             for x0 in (3.0, -2.0)]
    ops = [build_interface(solid, beams[0], axis=0, side=1),
           build_interface(solid, beams[1], axis=0, side=-1)]
    sysm = coupled([solid] + beams, *ops)
    sysm.fix(0, clamped_edge_dofs(solid))
    ref = sysm.solve(alpha=1.0e3).K.toarray()
    flushes = []
    flush = mesh_mod.add_blocks

    def counted(K, dofs, mats):
        if dofs:  # the bulk's models have no element-matrix rows
            flushes.append(sum(m.size for m in mats))
        return flush(K, dofs, mats)

    block = ops[0].matrices((0, solid.ndof), False)[1][0].size
    budget = int(1.5 * block)
    monkeypatch.setattr(mesh_mod, "_TRIPLET_BUDGET", budget)
    monkeypatch.setattr(mesh_mod, "add_blocks", counted)
    K = sysm.solve(alpha=1.0e3).K
    assert sum(len(op.segments) for op in ops) == 12
    assert len(flushes) >= 5
    assert max(flushes) < 2 * budget
    assert K.has_canonical_format
    np.testing.assert_allclose(K.toarray(), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


def solve_all(A, b):
    """`_factor_spd` on every DOF of ``A``, all points at the origin."""
    n = A.shape[0]
    return _factor_spd(A, np.ones(n, bool), np.zeros((n, 3)))[0](b)


class TestSpdSolver:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(3)
        n = 600
        B = sp.random(n, n, density=0.01, random_state=rng, format="csr")
        A = (B @ B.T + sp.eye(n) * n).tocsr()
        b = rng.standard_normal(n)
        x = solve_all(A, b)
        ref = np.linalg.solve(A.toarray(), b)
        np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)

    def test_single_dof(self):
        x = solve_all(sp.csr_matrix(np.array([[4.0]])), np.array([2.0]))
        np.testing.assert_allclose(x, [0.5])

    def test_empty_system(self):
        x = solve_all(sp.csr_matrix((0, 0)), np.zeros(0))
        assert x.size == 0

    def test_indefinite_dense_path(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(DefinitenessError):
            solve_all(A, np.ones(2))

    def test_indefinite_banded_path(self):
        A = sp.eye(500, format="csr") * -1.0
        with pytest.raises(DefinitenessError):
            solve_all(A, np.ones(500))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 5), st.integers(0, 2**32 - 1),
           st.sampled_from([(), (1,), (4,)]))
    def test_small_systems_match_dense_solve(self, n, ncons, seed, ncols):
        # 1-60 free DOFs take the band order and banded Cholesky too; a
        # right-hand side is one vector or one per column.
        rng = np.random.default_rng(seed)
        size = n + ncons
        B = sp.random(size, size, density=0.2, random_state=rng)
        A = (B @ B.T + sp.eye(size)).tocsr()
        free = rng.permutation(size) < n
        b = rng.standard_normal((n,) + ncols)
        solve, stats = _factor_spd(A, free, rng.random((size, 3)))
        x = solve(b)
        ref = np.linalg.solve(A.toarray()[np.ix_(free, free)], b)
        np.testing.assert_allclose(x, ref, rtol=1e-10,
                                   atol=1e-10 * abs(ref).max())
        assert stats["ndof"] == n
        assert stats["ordering"] in ("rcm", "geometric")


class TestLowerBandStorage:
    """`_factor_spd` reads a sparse matrix by its upper triangle in DOF
    numbering and stores it as the lower band of its band order: the
    other triangle is never read, and the pivot tests read the factor's
    diagonal from the band's first row."""

    @pytest.mark.parametrize("n", [40, 300])
    def test_only_the_upper_triangle_is_read(self, n):
        rng = np.random.default_rng(n)
        B = sp.random(n, n, density=3.0 / n, random_state=rng, format="csr")
        A = (B @ B.T + sp.eye(n) * 4.0).tocsr()
        A.sort_indices()  # RCM follows the stored order; COO keeps it sorted
        free = rng.random(n) < 0.9
        points = rng.random((n, 3))
        pos = _band_order(A, free, points)[1]
        # Garbage in the strict lower triangle, on A's pattern, so the
        # order is the same.
        K = A.tocoo(copy=True)
        lower = K.row > K.col
        K.data[lower] = rng.standard_normal(lower.sum()) * 1e3
        K = K.tocsr()
        assert abs(K - K.T).max() > 1.0
        np.testing.assert_array_equal(_band_order(K, free, points)[1], pos)
        b = rng.standard_normal(free.sum())
        x = _factor_spd(K, free, points)[0](b)
        ref = np.linalg.solve(A.toarray()[np.ix_(free, free)], b)
        np.testing.assert_allclose(x, ref, rtol=0,
                                   atol=1e-10 * abs(ref).max())

    @pytest.mark.parametrize("n", [2, 50])
    def test_round_off_pivot_is_a_rank_error(self, n):
        # The free-free 1D Laplacian, shifted by 1e-12: positive definite,
        # but its last pivot is round-off of the diagonal.
        main = np.full(n, 2.0 + 1e-12)
        main[[0, -1]] = 1.0 + 1e-12
        K = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1],
                     format="csr")
        with pytest.raises(RankError, match="singular"):
            solve_all(K, np.ones(n))

    @pytest.mark.parametrize("n", [2, 50])
    def test_round_off_breakdown_is_a_rank_error(self, n):
        # Shifted by -1e-13 instead, the factorization breaks down on that
        # round-off pivot: a rank defect, not an indefinite K.
        main = np.full(n, 2.0 - 1e-13)
        main[[0, -1]] = 1.0 - 1e-13
        K = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1],
                     format="csr")
        with pytest.raises(RankError, match="singular"):
            solve_all(K, np.ones(n))

    @pytest.mark.parametrize("n", [3, 200])
    def test_negative_definite_is_a_definiteness_error(self, n):
        rng = np.random.default_rng(n)
        B = sp.random(n, n, density=0.1, random_state=rng, format="csr")
        K = (-(B @ B.T) - sp.eye(n)).tocsr()
        with pytest.raises(DefinitenessError, match="not positive definite"):
            solve_all(K, np.ones(n))


def _random_csr(n, seed):
    return sp.random(n, n, density=0.3, random_state=seed, format="csr")


class TestBlockDiag:
    @pytest.mark.parametrize("sizes", [[5], [4, 6], [3, 0, 7], [0, 2, 5],
                                       [6, 1, 4]])
    def test_matches_scipy_bit_for_bit(self, sizes):
        parts = [_random_csr(n, seed) for seed, n in enumerate(sizes)]
        got = _block_diag(parts)
        ref = sp.block_diag(parts, format="csr")
        assert got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_int32_parts_give_int32(self):
        parts = [_random_csr(n, n) for n in (3, 4, 5)]
        assert all(p.indices.dtype == np.int32 for p in parts)
        got = _block_diag(parts)
        assert got.indices.dtype == got.indptr.dtype == np.int32

    def test_int64_part_is_placed_right(self):
        parts = [_random_csr(n, n) for n in (3, 4, 5)]
        wide = parts[1].copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        got = _block_diag([parts[0], wide, parts[2]])
        np.testing.assert_array_equal(
            got.toarray(), sp.block_diag(parts).toarray())


class TestSolveInputs:
    """Non-finite or misshapen solve inputs are typed errors, raised before
    any assembly."""

    def loaded(self, monkeypatch=None):
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        sys.fix(0, clamped_edge_dofs(solid))
        if monkeypatch is not None:
            monkeypatch.setattr(System, "bulk_matrix",
                                lambda self: pytest.fail("assembled"))
        return sys

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.0, -2.0e3,
                                       [np.nan], [np.inf], (0.0,)])
    def test_bad_alpha_rejected(self, monkeypatch, alpha):
        sys = self.loaded(monkeypatch)
        msg = ("one number for every coupling" if isinstance(
            alpha, (list, tuple)) else "finite and positive")
        for call in (sys.solve, sys.resolve_alpha):
            with pytest.raises(ConfigError, match=msg):
                call(alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_alpha_rejected_without_couplings(self, alpha):
        beam = BeamModel(build_mesh("beam", "lagrange", 1, 4, ((0.0, 3.0),)),
                         Material(E=200.0, nu=0.25, thickness=1.0))
        sys = System([beam])
        sys.fix(0, [0, 1, 2])
        assert sys.resolve_alpha(1.0) == []
        for call in (sys.solve, sys.resolve_alpha):
            with pytest.raises(ConfigError, match="finite and positive"):
                call(alpha=alpha)

    @pytest.mark.parametrize("alpha", [[2.0e3], (2.0e3,), [2.0e3, 2.0e3],
                                       np.array([2.0e3]), "2e3"])
    def test_one_alpha_for_all_couplings(self, monkeypatch, alpha):
        # A sequence of alphas, one per coupling, is no longer read.
        sys = self.loaded(monkeypatch)
        for call in (sys.solve, sys.resolve_alpha):
            with pytest.raises(ConfigError, match="'auto' or one number for "
                                                  "every coupling, got"):
                call(alpha=alpha)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_load_rejected(self, bad):
        sys = self.loaded()
        f = np.zeros(sys.models[1].ndof)
        f[-2] = bad
        with pytest.raises(ConfigError, match=r"model 1: a load is 18 "
                                              r"finite values"):
            sys.load(1, f)
        assert not sys._f.any()

    @pytest.mark.parametrize("shape", [(3,), (17,), (19,), (18, 1), ()])
    def test_load_length_must_match_the_model(self, shape):
        sys = self.loaded()
        assert sys.models[1].ndof == 18
        with pytest.raises(ConfigError, match=r"model 1: a load is 18 "
                                              r"finite values, got shape"):
            sys.load(1, np.ones(shape))
        assert not sys._f.any()


def band_oracle(K, perm):
    """Upper band of ``K[perm][:, perm]`` from its COO upper triangle."""
    upper = sp.triu(K[perm][:, perm]).tocoo()
    return int((upper.col - upper.row).max()) if upper.nnz else 0


def drawn_system(data):
    """A random clamped and loaded system of one of five kinds, with a
    fixed alpha for its couplings, and some more DOFs fixed (`fix_some`),
    so that some nodes are partly fixed."""
    sys, alpha = _drawn_system(data)
    fix_some(sys, data)
    return sys, alpha


def fix_some(sys, data):
    """Fix up to eight drawn DOFs of ``sys`` to zero, each model's apart."""
    dofs = data.draw(st.lists(st.integers(0, sys.ndof - 1), max_size=8))
    for dof in dofs:
        idx = int(np.searchsorted(sys.offsets, dof, "right")) - 1
        sys.fix(idx, [dof - sys.offsets[idx]])
    assume(np.isnan(sys._fixed).any())


def _drawn_system(data):
    mat = Material(E=1000.0, nu=0.3, thickness=2.0)
    kind = data.draw(st.sampled_from(
        ["solid2d", "solid3d", "beam", "solid_plate", "nonconforming"]))
    if kind in ("solid2d", "solid3d"):
        dim = 2 if kind == "solid2d" else 3
        degree = data.draw(st.integers(1, 3 if dim == 2 else 2))
        nelems = data.draw(st.tuples(*[st.integers(1, 9 if dim == 2 else 4)
                                       for _ in range(dim)]))
        sizes = data.draw(st.tuples(*[st.floats(0.5, 20.0)
                                      for _ in range(dim)]))
        angle = data.draw(st.floats(-np.pi, np.pi))
        R = np.eye(dim)
        R[:2, :2] = [[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]]
        solid = SolidModel(build_mesh(
            kind, "spline", degree, nelems, [(0.0, h) for h in sizes],
            origin=np.zeros(dim), rotation=R), mat)
        sys = System([solid])
        first = np.flatnonzero(np.arange(solid.mesh.nnodes)
                               % solid.mesh.dirs[0].n == 0)
        sys.fix(0, (first[:, None] * dim + np.arange(dim)).ravel())
        return sys, None
    if kind == "beam":
        theory = data.draw(st.sampled_from(["timoshenko", "euler_bernoulli"]))
        degree = data.draw(st.integers(2 if theory == "euler_bernoulli"
                                       else 1, 3))
        beam = BeamModel(build_mesh(
            "beam", "spline", degree, data.draw(st.integers(1, 40)),
            ((0.0, data.draw(st.floats(1.0, 50.0))),),
            origin=data.draw(st.tuples(st.floats(-9, 9), st.floats(-9, 9))),
            phi=data.draw(st.floats(0.05, 2 * np.pi - 0.05))), mat,
            theory=theory)
        sys = System([beam])
        sys.fix(0, np.arange(3 if theory == "timoshenko" else 2))
        return sys, None
    if kind == "solid_plate":
        nx = data.draw(st.integers(1, 6))
        solid = SolidModel(build_mesh(
            "solid3d", "spline", 2, (nx, data.draw(st.integers(1, 3)), 2),
            ((0.0, 10.0), (0.0, 5.0), (0.0, 2.0))), mat)
        plate = PlateModel(build_mesh(
            "plate", "spline", 2, (data.draw(st.integers(1, 8)), 2),
            ((10.0, 30.0), (0.0, 5.0)), z_mid=1.0), mat,
            theory=data.draw(st.sampled_from(["mindlin", "kirchhoff"])))
        sys = coupled([solid, plate],
                      build_interface(solid, plate, axis=0, side=1))
        n0 = solid.mesh.dirs[0].n
        first = np.flatnonzero(np.arange(solid.mesh.nnodes) % n0 == 0)
        sys.fix(0, (first[:, None] * 3 + np.arange(3)).ravel())
        return sys, 1.0e5
    mat = Material(E=1000.0, nu=0.3, thickness=6.0)
    solid = SolidModel(build_mesh("solid2d", "lagrange", 1,
                                  (data.draw(st.integers(4, 20)), 4),
                                  ((0.0, 30.0), (-3.0, 3.0))), mat)
    beam = NonconformingModel(
        BeamModel(build_mesh("beam", "lagrange", 1, 8, ((0.0, 24.0),),
                             origin=(24.0, 0.0)), mat),
        OverlapRegion(((-np.inf, data.draw(st.floats(3.5, 8.5))),)))
    sys = coupled([solid, beam], build_interface(solid, beam, axis=0, side=1))
    sys.fix(0, clamped_edge_dofs(solid))
    assert len(beam.inactive_dofs)
    return sys, 1.0e6


class TestBandOrder:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chosen_band_never_exceeds_rcm(self, data):
        # The order is chosen on the node graph: its band covers the DOF
        # band of the assembled K, and RCM's is that of scipy's RCM on
        # the node graph, expanded to each node's free DOFs.
        sys, alpha = drawn_system(data)
        sol = sys.solve(alpha=alpha or "auto")
        K, free = sol.K, sol.free
        name, pos, bands = _band_order(sol.pieces, free, sys._dof_points())
        idx = np.flatnonzero(free)
        perm = np.empty(idx.size, dtype=int)
        perm[pos[idx]] = idx
        assert np.all(pos[~free] == -1)
        assert band_oracle(K, perm) <= bands[name] <= bands["rcm"]
        assert name == min(("rcm", "geometric"), key=bands.get)
        G, node = node_graph(sol.pieces)
        band, rcm = node_band(G, node, free,
                              reverse_cuthill_mckee(G, symmetric_mode=True))
        assert band == bands["rcm"] >= band_oracle(K, rcm)
        if name == "rcm":
            np.testing.assert_array_equal(perm, rcm)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_long_bar_takes_the_geometric_order(self, axis):
        # Slabs across a 12-element bar give one band whichever axis is
        # the long one, smaller than RCM's.
        nelems, extents = [2, 2, 2], [(0.0, 2.0)] * 3
        nelems[axis], extents[axis] = 12, (0.0, 24.0)
        solid = SolidModel(build_mesh("solid3d", "spline", 2, nelems,
                                      extents), Material(E=1.0, nu=0.3))
        sys = System([solid])
        name, _, bands = _band_order(sys.bulk_matrix(),
                                     np.ones(sys.ndof, dtype=bool),
                                     sys._dof_points())
        assert name == "geometric"
        assert bands["geometric"] == 128 < bands["rcm"]

    def test_dof_points_are_global(self):
        # A beam's control points lie on its rotated mid-line, a plate's
        # at z_mid; one row per DOF, padded to (x, y, z).
        mat = Material(E=1.0, nu=0.3, thickness=1.0)
        beam = BeamModel(build_mesh("beam", "lagrange", 1, 4, ((1.0, 5.0),),
                                    origin=(2.0, 3.0), phi=2.0), mat)
        plate = PlateModel(build_mesh("plate", "spline", 2, (2, 1),
                                      ((0.0, 4.0), (0.0, 2.0)), z_mid=1.5),
                           mat, theory="kirchhoff")
        c, s = np.cos(0.4), np.sin(0.4)
        solid = SolidModel(build_mesh("solid2d", "lagrange", 1, (2, 1),
                                      ((0.0, 2.0), (0.0, 1.0)),
                                      origin=(1.0, -1.0),
                                      rotation=[[c, -s], [s, c]]), mat)
        sys = System([beam, plate, solid])
        pts = sys._dof_points()
        assert pts.shape == (sys.ndof, 3)
        t = np.arange(1.0, 6.0)
        ref = np.column_stack([2.0 + t * np.cos(2.0), 3.0 + t * np.sin(2.0),
                               np.zeros(5)])
        np.testing.assert_allclose(sys.model_part(pts, 0),
                                   np.repeat(ref, 3, axis=0), atol=1e-14)
        np.testing.assert_array_equal(
            sys.model_part(pts, 1),
            np.column_stack([plate.mesh.nodes, np.full(12, 1.5)]))
        ref = np.column_stack([solid.mesh.nodes, np.zeros(6)])
        np.testing.assert_array_equal(sys.model_part(pts, 2),
                                      np.repeat(ref, 2, axis=0))
        assert abs(solid.mesh.nodes[1] - [1.0 + c, -1.0 + s]).max() < 1e-15

    def test_solve_stats(self):
        # 902 + 90 DOFs, and the beam alone: one banded path at any size.
        mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
        solid = SolidModel(build_mesh("solid2d", "lagrange", 1, (40, 10),
                                      ((0.0, 24.0), (-3.0, 3.0))), mat)
        beam = BeamModel(build_mesh("beam", "lagrange", 1, 29, ((0.0, 24.0),),
                                    origin=(24.0, 0.0)), mat)
        sys = coupled([solid, beam],
                      build_interface(solid, beam, axis=0, side=1))
        sys.fix(0, clamped_edge_dofs(solid))
        sys.load(1, beam.point_load(24.0, (0.0, -1000.0, 0.0)))
        small = System([beam])
        small.fix(0, [0, 1, 2])
        for sol in (sys.solve(alpha=4.7e7), small.solve()):
            s = sol.stats
            Kff = sol.K[sol.free][:, sol.free]
            assert s["ndof"] == sol.free.sum() == Kff.shape[0]
            assert s["nnz"] == Kff.nnz
            assert s["nodes"] == sol.pieces.starts.size - 1
            assert s["band"] == min(s["rcm_band"], s["geometric_band"])
            assert s["ordering"] == ("rcm" if s["band"] == s["rcm_band"]
                                     else "geometric")
            assert s["band_mb"] == (s["band"] + 1) * s["ndof"] * 8 / 1e6
            if sol.stats["nodes"] == 481:
                # RCM on the Q4 cantilever's 481 nodes (band 41 when it
                # ordered K's DOFs). K is U + U^T - diag(U), symmetric bit
                # for bit: nnz, counted on the band, is both triangles'.
                assert (s["ordering"], s["band"]) == ("rcm", 30)
                assert abs(Kff - Kff.T).nnz == 0
        # The 87-DOF beam alone takes the banded path as well.
        assert s["ndof"] == 87 and s["band"] < 87


def factored_band(K, free, points, block):
    """``((name, pos, bands), ab, stats)`` of `_band_order` and
    `_factor_spd` (K a sparse matrix or `Pieces`) with row blocks of
    ``block`` entries, ``ab`` as handed to ``cholesky_banded``."""
    handed = []
    real = sla.cholesky_banded

    def spy(ab, **kwargs):
        handed.append(ab.copy(order="F"))
        return real(ab, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(system, "_BLOCK", block)
        m.setattr(sla, "cholesky_banded", spy)
        name, pos, order_bands = _band_order(K, free, points)
        stats = _factor_spd(K, free, points)[1]
    return (name, pos, order_bands), handed[-1], stats


def assert_band_of_assembled(K, free, order, ab, stats):
    """The band handed to ``cholesky_banded`` is the whole-array fill of
    the assembled ``K`` in the library's places, bit for bit, as wide as
    the chosen candidate's band; the stats describe it. Returns the stored
    nonzeros of K's free block."""
    name, pos, bands = order
    ref_ab, nnz = band_fill(K, free, pos, bands[name])
    assert ab.shape == ref_ab.shape and ab.flags.f_contiguous
    assert ab.tobytes() == ref_ab.tobytes()
    assert stats == dict(ndof=int(free.sum()), nnz=nnz, nodes=stats["nodes"],
                         band=bands[name], band_mb=ab.nbytes / 1e6,
                         ordering=name, rcm_band=bands["rcm"],
                         geometric_band=bands["geometric"])
    return nnz


def assert_blocked_equals_whole(K, free, points, block):
    """On a plain sparse K (each DOF a node) the row-blocked passes give
    the whole-array oracle's order, bands, stats and band storage bit for
    bit."""
    order, ab, stats = factored_band(K, free, points, block)
    name, pos, _, bands = band_order(K, free, points)
    assert order[0] == name and order[2] == bands
    np.testing.assert_array_equal(order[1], pos)
    assert stats["nodes"] == K.shape[0]
    assert_band_of_assembled(K, free, order, ab, stats)


def spd_with_empty_rows(size, density, free_frac, empty_frac, seed):
    """``(K, free)``: ``B B^T + I`` with some constrained DOFs' rows and
    columns emptied, so its free block stays positive definite."""
    rng = np.random.default_rng(seed)
    B = sp.random(size, size, density=density, random_state=rng)
    free = rng.random(size) < free_frac
    free[rng.integers(size)] = True
    keep = free | (rng.random(size) >= empty_frac)
    D = sp.diags(keep.astype(float))
    K = (D @ (B @ B.T + sp.eye(size)) @ D).tocsr()
    K.eliminate_zeros()
    K.sort_indices()
    return K, free


def full_matrix(sysm, alphas):
    """``sysm``'s matrix at the couplings' ``alphas`` as assembled with
    both triangles stored: each model's pieces whole (the box products by
    `oracles.separable_full`, the cut rows' element blocks whole) summed
    on the diagonal, plus the couplings' whole segment blocks."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(system, "stiffness_separable", separable_full)
        m.setattr(system, "_upper", lambda dofs, mats: (dofs, mats))
        bulk = sysm._bulk()
        C = system._add_runs(sp.csr_matrix((sysm.ndof,) * 2),
                             system._nitsche(sysm._coupling_blocks(False),
                                             alphas))
    return _block_diag([system._csr_sum(ps, n) for ps, n in zip(
        bulk.models, np.diff(bulk.offsets))]) + C


class TestUpperStorage:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matrix_is_the_sum_of_the_whole_pieces(self, data):
        # U + U^T - diag(U) of the stored upper triangles is the matrix
        # the pieces' both triangles sum to, up to the round-off by which
        # that one is not symmetric; K is symmetric bit for bit.
        sys, alpha = drawn_system(data)
        sol = sys.solve(alpha=alpha or "auto")
        ref = full_matrix(sys, sol.alphas)
        assert abs(sol.K - ref).max() <= 1e-15 * abs(ref).max()
        assert abs(sol.K - sol.K.T).nnz == 0


class TestBlockedBandPasses:
    """`_band_order` and the band fill read the node graph and each piece
    one row block at a time, a block started at the row of every
    ``_BLOCK``-th stored entry; any block size gives what one pass over
    all of the assembled K gives."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_drawn_systems(self, block, data):
        # The pieces' band is the assembled K's, filled in the library's
        # order, bit for bit, at least as wide as K's own band there.
        sys, alpha = drawn_system(data)
        sol = sys.solve(alpha=alpha or "auto")
        order, ab, stats = factored_band(sol.pieces, sol.free,
                                         sys._dof_points(), block)
        nnz = assert_band_of_assembled(sol.K, sol.free, order, ab, stats)
        assert sol.stats == dict(stats, nnz=nnz)
        assert nnz == sol.K[sol.free][:, sol.free].nnz
        name, pos, bands = order
        idx = np.flatnonzero(sol.free)
        assert band_oracle(sol.K, idx[np.argsort(pos[idx])]) <= bands[name]

    # Rows longer than a block, empty (constrained) rows and constrained
    # rows at block edges: with a block of 1 every nonempty row starts a
    # block.
    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 90), st.floats(0.0, 0.3), st.floats(0.3, 1.0),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @example(90, 0.3, 0.5, 0.5, 1)
    @example(40, 0.0, 0.5, 1.0, 2)
    def test_random_spd(self, block, size, density, free_frac, empty_frac,
                        seed):
        K, free = spd_with_empty_rows(size, density, free_frac, empty_frac,
                                      seed)
        points = np.random.default_rng(seed).random((size, 3))
        assert_blocked_equals_whole(K, free, points, block)

    def test_row_blocks_partition_the_rows(self, monkeypatch):
        # Rows of 0, 3, 9, 0, 2, 2, 5 entries; entries 0, 4, 8, ..., 20
        # lie in rows 1, 2, 2, 4, 6, 6, so blocks start at rows 1, 2, 4, 6.
        lengths = [0, 3, 9, 0, 2, 2, 5]
        n = len(lengths)
        K = sp.csr_matrix((np.ones(sum(lengths)),
                           np.concatenate([np.arange(k) % n
                                           for k in lengths]),
                           np.cumsum([0] + lengths)), shape=(n, 9))
        monkeypatch.setattr(system, "_BLOCK", 4)
        blocks = list(system._row_blocks(K))
        assert [(r.start, r.stop, e.start, e.stop)
                for r, _, e in blocks] == [(0, 1, 0, 0), (1, 2, 0, 3),
                                           (2, 4, 3, 12), (4, 6, 12, 16),
                                           (6, 7, 16, 21)]
        for r, ptr, e in blocks:
            np.testing.assert_array_equal(ptr, K.indptr[r.start:r.stop + 1]
                                          - e.start)


class TestFactorInBoundedMemory:
    def test_peak_beyond_inputs_and_band_is_o_of_block(self, monkeypatch):
        # Whole-K index arrays took about 25 B per stored entry. A plain
        # matrix is read by its upper triangle: a whole K is first copied
        # to it (`sp.triu`, through a COO copy of 16 B per stored entry),
        # beyond which the bound is the same.
        monkeypatch.setattr(system, "_BLOCK", 2**10)
        n, half = 4000, 10
        K = sp.diags([np.full(n, 4.0 * half)]
                     + [-np.ones(n - k) for k in range(1, half + 1)] * 2,
                     [0] + list(range(1, half + 1))
                     + list(range(-1, -half - 1, -1)), format="csr")
        assert K.nnz >= 16 * system._BLOCK
        free = np.arange(n) % 9 != 4
        points = np.random.default_rng(0).random((n, 3))
        for U, copy in ((sp.triu(K, format="csr"), 0), (K, 16 * K.nnz)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                solve, stats = _factor_spd(U, free, points)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            ab_nbytes = stats["band_mb"] * 1e6
            assert peak <= ab_nbytes + 128 * n + 64 * system._BLOCK + copy
            b = np.ones(stats["ndof"])
            np.testing.assert_allclose(K[free][:, free] @ solve(b), b,
                                       rtol=1e-12)

    def test_peak_beyond_pieces_and_band_is_o_of_block(self, monkeypatch):
        # The same band matrix as node blocks of two DOFs, a second block
        # piece on the first half of the nodes, so that pieces meet there,
        # and a CSR coupling piece, each stored as its upper triangle:
        # beyond the pieces and the band, the node graph, the order and
        # the fill stay within the same bound.
        monkeypatch.setattr(system, "_BLOCK", 2**10)
        n, half = 4000, 10
        A = sp.diags([np.full(n, 4.0 * half)]
                     + [-np.ones(n - k) for k in range(1, half + 1)] * 2,
                     [0] + list(range(1, half + 1))
                     + list(range(-1, -half - 1, -1)), format="csr")
        B = sp.bsr_matrix(sp.diags(np.where(np.arange(n) < n // 2, 1.0,
                                            0.0)) @ A, blocksize=(2, 2))
        B = B.T @ B
        c = np.arange(0, n, 400)
        C = sp.csr_matrix((np.ones(c.size), (c, c[::-1])), shape=(n, n))
        C = (C + C.T + 2.0 * sp.eye(n, format="csr")).tocsr()
        K = Pieces([[sp.triu(X).tobsr(blocksize=(2, 2)) for X in (A, B)]],
                   np.array([0, n]), [sp.triu(C, format="csr")],
                   np.arange(0, n + 1, 2))
        assert A.nnz >= 16 * system._BLOCK
        free = np.arange(n) % 9 != 4
        points = np.random.default_rng(0).random((n, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve, stats = _factor_spd(K, free, points)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ab_nbytes = stats["band_mb"] * 1e6
        assert peak <= ab_nbytes + 128 * n + 64 * system._BLOCK
        Kff = K.tocsr()[free][:, free]
        b = np.ones(stats["ndof"])
        np.testing.assert_allclose(Kff @ solve(b), b, rtol=1e-12)

    def test_product_copies_no_piece_whole(self, monkeypatch):
        # K x reads each upper piece as U and U^T; U^T x goes a row block
        # at a time, so beyond x and K x the product holds O(n) vectors
        # and O(_BLOCK) entries, not a transposed copy of a piece.
        monkeypatch.setattr(system, "_BLOCK", 2**10)
        n, half = 4000, 40
        A = sp.diags([np.full(n, 4.0 * half)] + [-np.arange(
            1.0, n - k + 1) / n for k in range(1, half + 1)],
            [0] + list(range(1, half + 1)), format="csr")
        K = Pieces([[A.tobsr(blocksize=(2, 2))]], np.array([0, n]), [],
                   np.arange(0, n + 1, 2))
        x = np.random.default_rng(0).random(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = K.dot(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        bound = 128 * n + 64 * system._BLOCK
        assert K.models[0][0].data.nbytes > bound  # a copy would show
        assert peak <= bound
        full = A + A.T - sp.diags(A.diagonal())
        np.testing.assert_allclose(y, full @ x, rtol=0,
                                   atol=1e-14 * (abs(full) @ x).max())

    def test_bulk_matrix_freed_before_factoring(self, monkeypatch):
        # No global matrix is assembled on the solve path: it factors the
        # node-block matrices `stiffness_separable` made and the one
        # coupling CSR, converts no BSR to CSR, and has freed the segment
        # blocks of the coupling before it factors.
        made, blocks, seen = [], [], []
        separable = system.stiffness_separable

        def separable_spy(*args):
            made.extend(separable(*args))
            return made[-1:]
        matrices = coupling.CouplingOperator.matrices

        def matrices_spy(op, offsets, with_h):
            out = matrices(op, offsets, with_h)
            blocks.append(weakref.ref(out[2]))
            return out
        factor = system._factor_spd

        def factor_spy(K, free, points):
            seen.append(([p for _, p in K.parts()],
                         [b() is None for b in blocks]))
            return factor(K, free, points)

        def fail(*args):
            pytest.fail("a global matrix was assembled")
        monkeypatch.setattr(system, "stiffness_separable", separable_spy)
        monkeypatch.setattr(coupling.CouplingOperator, "matrices",
                            matrices_spy)
        monkeypatch.setattr(system, "_factor_spd", factor_spy)
        monkeypatch.setattr(sp.bsr_matrix, "tocsr", fail)
        monkeypatch.setattr(Pieces, "tocsr", fail)
        solid, beam, op = small_coupled()
        sysm = coupled([solid, beam], op)
        sysm.fix(0, clamped_edge_dofs(solid))
        sysm.load(1, beam.point_load(3.0, (0.0, -1.0, 0.0)))
        sysm.solve(alpha=5.0e3)
        [(parts, freed)] = seen
        assert freed == [True] and len(made) == 2
        assert len(parts) == 3 and all(p is q for p, q in zip(parts, made))
        assert parts[2].format == "csr" and parts[2].shape == (sysm.ndof,) * 2

    def test_pair_missing_from_the_graph_raises(self, monkeypatch):
        # A node graph of the diagonal alone: the band is too narrow for
        # the pieces, and the fill stops before it adds any entry there.
        sysm = bench.cantilever_system("lagrange", 1, (4, 2), 4)["system"]
        sol = sysm.solve()
        monkeypatch.setattr(system, "_node_graph", lambda K: sp.eye(
            K.starts.size - 1, format="csr"))
        added = []
        add = system._add
        monkeypatch.setattr(system, "_add", lambda flat, u, idx, span, *a: (
            added.append(bool(span.max(initial=0) <= u)), add(
                flat, u, idx, span, *a)))
        with pytest.raises(MdfemError, match="missing from the node graph"):
            _factor_spd(sol.pieces, sol.free, sysm._dof_points())
        assert added[-1] is False and all(added[:-1])


def split_entries(A, reverse):
    """A's CSR arrays with each diagonal entry stored as two halves (the
    second at the row's end), or with each row's entries reversed."""
    data, indices = [], []
    for i in range(A.shape[0]):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]].copy()
        if reverse:
            cols, vals = cols[::-1], vals[::-1]
        else:
            vals[cols == i] *= 0.5
            cols, vals = np.append(cols, i), np.append(vals, 0.5 * A[i, i])
        indices.append(cols)
        data.append(vals)
    indptr = np.cumsum([0] + [c.size for c in indices])
    K = sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                       indptr), shape=A.shape)
    assert not K.has_canonical_format
    return K


class TestNonCanonicalInput:
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["duplicates", "unsorted"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factored_as_the_canonical_form(self, reverse, seed):
        rng = np.random.default_rng(seed)
        n = 12
        B = sp.random(n, n, density=0.2, random_state=rng)
        A = (B @ B.T + 12.0 * sp.eye(n)).tocsr()
        A.sort_indices()
        assert A.has_canonical_format
        free = np.ones(n, bool)
        points = rng.random((n, 3))
        K = split_entries(A, reverse)
        ref = factored_band(A, free, points, system._BLOCK)
        got = factored_band(K, free, points, system._BLOCK)
        assert got[2] == ref[2]
        assert got[1].tobytes() == ref[1].tobytes()
        b = rng.standard_normal(n)
        np.testing.assert_allclose(_factor_spd(K, free, points)[0](b),
                                   np.linalg.solve(A.toarray(), b),
                                   rtol=1e-12, atol=0)


class TestSolveFromAssembled:
    @pytest.mark.parametrize("n", [60, 700])
    def test_spd_oracle_with_free_mask(self, n):
        # K symmetric to round-off only, some DOFs constrained: the
        # solution is that of sym(K)[free, free], small or large.
        rng = np.random.default_rng(n)
        B = sp.random(n, n, density=4.0 / n, random_state=rng, format="csr")
        A = (B @ B.T + sp.eye(n) * 5.0).tocsr()
        A.data *= 1.0 + 1e-15 * rng.standard_normal(A.nnz)
        assert 0 < abs(A - A.T).max() <= 1e-14 * abs(A).max()
        free = rng.random(n) < 0.8
        b = rng.standard_normal(free.sum())
        solve, stats = _factor_spd(A, free, rng.random((n, 3)))
        x = solve(b)
        S = 0.5 * (A + A.T).toarray()
        ref = np.linalg.solve(S[np.ix_(free, free)], b)
        np.testing.assert_allclose(x, ref, rtol=1e-10,
                                   atol=1e-10 * abs(ref).max())
        assert stats["ndof"] == free.sum()

    def test_residual_and_reactions_match_the_sliced_formulas(
            self, monkeypatch):
        # An inexact solve (perturbed x) so the residual is not round-off.
        import mdfem.system as system
        real = system._factor_spd

        def inexact(*args):
            solve, stats = real(*args)
            return lambda b: 1.001 * solve(b), stats
        monkeypatch.setattr(system, "_factor_spd", inexact)
        solid, beam, op = small_coupled()
        sys = coupled([solid, beam], op)
        dofs = clamped_edge_dofs(solid)
        sys.fix(0, dofs, np.where(dofs % 2 == 0, 0.01, -0.02))
        sys.load(1, beam.point_load(3.0, (0.0, -1.0, 0.0)))
        sol = sys.solve(alpha=2.0e3)
        K, free, a, f = sol.K, sol.free, sol.a, sol.f
        cons = ~free
        b = f[free] - K[free][:, cons] @ a[cons]
        resid = np.linalg.norm(K[free][:, free] @ a[free] - b)
        resid /= np.linalg.norm(b)
        assert resid > 1e-4
        assert sol.residual == pytest.approx(resid, rel=1e-12)
        r = K @ a - f
        r[free] = 0.0
        np.testing.assert_allclose(sol.reactions, r, rtol=0,
                                   atol=1e-12 * abs(r).max())


class TestPartlyFixedNodes:
    """Nodes with some DOFs fixed keep their free DOFs in consecutive band
    places; the solve is the dense solve of the free block."""

    def assert_dense(self, sysm):
        sol = sysm.solve()
        free, K = sol.free, sol.K.toarray()
        nc = sysm.models[0].ncomp_node
        nfree = free.reshape(-1, nc).sum(1)
        assert ((nfree > 0) & (nfree < nc)).any()
        ref = np.linalg.solve(K[np.ix_(free, free)], sol.f[free])
        np.testing.assert_allclose(sol.a[free], ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

    def test_mindlin_plate_with_only_w_fixed_along_an_edge(self):
        # Clamped at x = 0, and w alone fixed along x = 4.
        plate = PlateModel(build_mesh("plate", "spline", 2, (6, 3),
                                      ((0.0, 4.0), (0.0, 2.0))),
                           Material(E=1000.0, nu=0.3, thickness=0.2),
                           theory="mindlin")
        sysm = System([plate])
        x = plate.mesh.nodes[:, 0]
        sysm.fix(0, (3 * np.flatnonzero(x == 0.0)[:, None]
                     + np.arange(3)).ravel())
        sysm.fix(0, 3 * np.flatnonzero(x == 4.0))
        sysm.load(0, plate.pressure_load(-1.0))
        self.assert_dense(sysm)

    def test_timoshenko_beam_with_one_component_fixed_at_a_node(self):
        # Clamped at its first node, w alone fixed at its last.
        beam = BeamModel(build_mesh("beam", "spline", 2, 8, ((0.0, 6.0),)),
                         Material(E=1000.0, nu=0.3, thickness=0.5))
        sysm = System([beam])
        sysm.fix(0, [0, 1, 2, beam.ndof - 2])
        sysm.load(0, beam.point_load(2.5, (0.0, -1.0, 0.0)))
        self.assert_dense(sysm)


def keep_constraints(sysm, keep):
    """Drop every constraint of ``sysm`` but those on the DOFs for which
    ``keep(dofs)`` is true, with their values."""
    fixed = np.flatnonzero(~np.isnan(sysm._fixed))
    values = sysm._fixed[fixed]
    sysm._fixed[:] = np.nan
    kept = keep(fixed)
    sysm.fix(0, fixed[kept], values[kept])


class TestRigidModeLeftFree:
    """A singular stiffness is a RankError, never a silent number."""

    # The solid is model 0 at offset 0: its x DOFs have even numbers.
    @pytest.mark.parametrize("keep", [lambda d: d < 0, lambda d: d % 2 == 0],
                             ids=["unclamped", "clamped-in-x-only"])
    def test_auto_alpha_of_a_singular_solid_block(self, keep):
        sysm = bench.cantilever_system("lagrange", 1, (4, 2), 4)["system"]
        keep_constraints(sysm, keep)
        with pytest.raises(RankError, match="clamp each solid,"):
            sysm.resolve_alpha("auto")

    def test_floating_system_solve(self):
        # The factorization breaks down on a round-off pivot (with the
        # band of U + U^T - diag(U); the full K's ran through on one).
        sysm = bench.cantilever_system("spline", 3, (16, 4), 4)["system"]
        keep_constraints(sysm, lambda d: d < 0)
        with pytest.raises(RankError, match="singular"):
            sysm.solve(alpha=4.7128e7)


def reversed_system(sysm):
    """`System` of ``sysm``'s models in reverse order, with its couplings,
    constraints and loads."""
    n = len(sysm.models)
    rev = System(sysm.models[::-1])
    for op in sysm.couplings:
        rev.add_coupling(op)
    for i in range(n):
        fixed = sysm.model_part(sysm._fixed, i)
        dofs = np.flatnonzero(~np.isnan(fixed))
        rev.fix(n - 1 - i, dofs, fixed[dofs])
        rev.load(n - 1 - i, sysm.model_part(sysm._f, i))
    return rev


def solid_plate_system():
    """A clamped quadratic solid continued by a Mindlin plate, loaded at
    the plate's free edge (the plate3d workload, smaller)."""
    mat = Material(E=1000.0, nu=0.3, thickness=4.0)
    solid = SolidModel(build_mesh("solid3d", "spline", 2, (4, 2, 2),
                                  ((0.0, 8.0), (0.0, 5.0), (0.0, 4.0))), mat)
    plate = PlateModel(build_mesh("plate", "spline", 2, (4, 2),
                                  ((8.0, 16.0), (0.0, 5.0)), z_mid=2.0),
                       mat, theory="mindlin")
    sysm = coupled([solid, plate], build_interface(solid, plate, axis=0,
                                                   side=1))
    face = np.flatnonzero(np.arange(solid.mesh.nnodes)
                          % solid.mesh.dirs[0].n == 0)
    sysm.fix(0, (3 * face[:, None] + np.arange(3)).ravel())
    sysm.load(1, plate.edge_load(0, 1, -1.0))
    return sysm


def embedded_system():
    """A clamped Kirchhoff plate under pressure, overlapped by a solid
    patch tied to it on four faces (the embedded workload, smaller)."""
    mat = Material(E=1000.0, nu=0.3, thickness=4.0)
    plate = PlateModel(build_mesh("plate", "spline", 2, (6, 6),
                                  ((0.0, 60.0), (0.0, 60.0)), z_mid=2.0),
                       mat, theory="kirchhoff")
    box = ((22.0, 38.0), (25.0, 41.0))
    wrap = NonconformingModel(plate, OverlapRegion(box))
    solid = SolidModel(build_mesh("solid3d", "spline", 2, (2, 2, 1),
                                  box + ((0.0, 4.0),)), mat)
    sysm = coupled([solid, wrap], *(
        build_interface(solid, wrap, axis=axis, side=side)
        for axis in (0, 1) for side in (-1, 1)))
    n = plate.mesh.dirs[0].n
    i, j = np.divmod(np.arange(plate.mesh.nnodes), n)
    sysm.fix(1, np.flatnonzero((np.minimum(i, j) == 0)
                               | (np.maximum(i, j) == n - 1)))
    sysm.load(1, wrap.pressure_load(-1.0))
    return sysm


class TestModelOrder:
    """Model order changes the DOF numbering, so which entry of each
    coupling pair is stored (the upper triangle flips), but not the
    solution beyond round-off."""

    @pytest.mark.parametrize("make, alpha", [
        (solid_plate_system, 5.0e3), (embedded_system, 1.0e6),
        (lambda: bench.cantilever_system("lagrange", 1, (8, 2), 6)["system"],
         "auto")], ids=["solid-plate", "embedded", "q4-timoshenko"])
    def test_reversed_models_give_the_permuted_solution(self, make, alpha):
        sysm = make()
        rev = reversed_system(sysm)
        a, b = sysm.solve(alpha=alpha), rev.solve(alpha=alpha)
        n = len(sysm.models)
        got = np.concatenate([rev.model_part(b.a, n - 1 - i)
                              for i in range(n)])
        assert np.abs(a.a).max() > 0.0
        np.testing.assert_allclose(got, a.a, rtol=0,
                                   atol=1e-9 * np.abs(a.a).max())
        np.testing.assert_allclose(b.alphas, a.alphas, rtol=1e-9)
