"""Interface pairing, Nitsche blocks, and the stabilization estimator."""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdfem import coupling
from mdfem.bspline import least_squares_project
from mdfem.coupling import (
    _normal_matrices,
    build_interface,
    estimate_alpha,
)
from mdfem.elasticity import Material, SolidModel, integrate_atb
from mdfem.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    PairingError,
    RankError,
)
from mdfem.mesh import build_mesh, parent_data
from mdfem.nonconforming import NonconformingModel, OverlapRegion
from mdfem.structural import BeamModel, PlateModel
from mdfem.system import System
from oracles import (coupling_matrices, local_matrices, local_numbering,
                     power_iteration_alpha, solid_solve)


# Voigt rows a plate model carries, by name: 'kirchhoff' keeps (xx, yy,
# xy), 'mindlin' keeps (xx, yy, xy, yz, xz).
PLATE_ROWS = {"kirchhoff": (0, 1, 3), "mindlin": (0, 1, 3, 4, 5)}


def normal_matrix(n, reduced=None) -> np.ndarray:
    """Matrix form of one outward normal: (matrix) @ (Voigt stress) =
    sigma.n, the per-point form of `_normal_matrices`.

    ``reduced`` removes the stress columns a plate model cannot carry:
    a `PLATE_ROWS` name or the rows themselves.
    """
    return _normal_matrices(np.asarray(n, dtype=float)[None, :],
                            PLATE_ROWS.get(reduced, reduced))[0]


class TestNormalMatrix:
    def test_2d_axis_normal(self):
        np.testing.assert_allclose(
            normal_matrix((1.0, 0.0)), [[1, 0, 0], [0, 0, 1]], atol=0
        )

    def test_3d_z_normal_picks_shear_rows(self):
        m = normal_matrix((0.0, 0.0, 1.0))
        sig = np.array([11, 22, 33, 12, 23, 13], dtype=float)
        np.testing.assert_allclose(m @ sig, [13, 23, 33], atol=0)

    def test_reduced_kirchhoff_third_row_vanishes(self):
        m = normal_matrix((1.0, 0.0, 0.0), reduced="kirchhoff")
        assert m.shape == (3, 3)
        np.testing.assert_allclose(m[0], [1, 0, 0], atol=0)
        np.testing.assert_allclose(m[1], [0, 0, 1], atol=0)
        np.testing.assert_allclose(m[2], 0.0, atol=0)

    def test_reduced_mindlin_shape(self):
        n = np.array([0.6, 0.8, 0.0])
        m = normal_matrix(n, reduced="mindlin")
        assert m.shape == (3, 5)
        # sigma.n for a pure sigma_xy state
        np.testing.assert_allclose(m @ [0, 0, 1, 0, 0], [0.8, 0.6, 0.0])

    def test_non_unit_normal_rejected(self):
        with pytest.raises(DomainError):
            normal_matrix((1.0, 1.0))


def q4_bench_models():
    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
    solid = SolidModel(
        build_mesh("solid2d", "lagrange", (1, 1), (40, 10),
                   ((0.0, 24.0), (-3.0, 3.0))),
        mat,
    )
    beam = BeamModel(
        build_mesh("beam", "lagrange", 1, 29, ((0.0, 24.0),),
                   origin=(24.0, 0.0)),
        mat,
    )
    return solid, beam


@pytest.fixture(scope="module")
def q4_interface():
    solid, beam = q4_bench_models()
    return solid, beam, build_interface(solid, beam, axis=0, side=1)


class TestBuildInterface:
    def test_conforming_measure_and_partners(self, q4_interface):
        solid, beam, op = q4_interface
        assert op.measure == pytest.approx(6.0, abs=1e-10)
        assert all(seg.b_elem == 0 for seg in op.segments)
        assert len(op.segments) == 10  # one per solid edge element
        for seg in op.segments:
            np.testing.assert_allclose(seg.normals[:, 0], 1.0, atol=1e-14)
            np.testing.assert_allclose(seg.normals[:, 1], 0.0, atol=1e-14)
            phys = parent_data(solid.mesh, seg.s_elem, seg.s_parent)[3]
            np.testing.assert_allclose(phys[:, 0], 24.0, atol=1e-12)
            # section offsets are the y coordinates
            np.testing.assert_allclose(seg.offsets, phys[:, 1], atol=1e-14)

    def test_facet_split_across_plate_elements(self):
        mat = Material(E=10.0, nu=0.3, thickness=1.0)
        solid = SolidModel(
            build_mesh("solid3d", "lagrange", (1, 1, 1), (1, 1, 1),
                       ((0.0, 2.0), (0.0, 2.0), (0.0, 1.0))),
            mat,
        )
        plate = PlateModel(
            build_mesh("plate", "spline", (2, 2), (2, 2),
                       ((0.0, 2.0), (0.0, 2.0)), z_mid=0.5),
            mat,
        )
        op = build_interface(solid, plate, axis=0, side=1)
        assert op.measure == pytest.approx(2.0, rel=1e-12)
        partners = sorted(seg.b_elem for seg in op.segments)
        assert partners == [1, 3]  # right column of the 2x2 plate grid
        assert {len(seg.weights) for seg in op.segments} == {8}
        for seg in op.segments:
            phys = parent_data(solid.mesh, seg.s_elem, seg.s_parent)[3]
            np.testing.assert_allclose(seg.offsets, phys[:, 2] - 0.5,
                                       atol=1e-14)

    def test_orphan_point_raises(self):
        solid, beam = q4_bench_models()
        with pytest.raises(PairingError):
            build_interface(solid, beam, axis=0, side=-1)

    def test_solid_partner_rejected(self):
        solid, _ = q4_bench_models()
        with pytest.raises(ConfigError, match="solid2d model has no section"):
            build_interface(solid, solid, axis=0, side=1)

    @pytest.mark.parametrize("partner", ["curved plate", "weighted plate",
                                         "curved beam"])
    def test_non_affine_partner_rejected(self, partner):
        # Each of these partners was paired 0.05-0.17 off without an error:
        # the affine element lookup does not invert its map.
        mat = Material(E=10.0, nu=0.3, thickness=1.0)
        if partner == "curved beam":
            solid, _ = q4_bench_models()
            # The solid's end face lies at the beam's axis coordinate 12.
            mesh = build_mesh("beam", "spline", 2, 4, ((0.0, 24.0),),
                              origin=(12.0, 0.0))
            mesh.nodes = mesh.nodes + 0.5 * np.sin(mesh.nodes / 4.0)
            struct = BeamModel(mesh, mat)
        else:
            solid = SolidModel(
                build_mesh("solid3d", "spline", 2, (2, 4, 1),
                           ((0.0, 2.0), (0.0, 2.0), (0.0, 1.0))), mat)
            weights = [np.array([1.0, 0.5, 2.0, 1.0, 1.0, 1.0]),
                       np.array([1.0, 0.6, 1.5, 0.7, 1.0, 1.0])]
            mesh = build_mesh(
                "plate", "spline", 2, (4, 4), ((0.0, 4.0), (0.0, 2.0)),
                z_mid=0.5, weights=weights if "weighted" in partner else None)
            if "curved" in partner:
                mesh.nodes = mesh.nodes + 0.15 * np.sin(2.0
                                                        * mesh.nodes[:, ::-1])
            struct = PlateModel(mesh, mat)
        with pytest.raises(PairingError, match="not affine"):
            build_interface(solid, struct, axis=0, side=1)


def bending_state():
    """Spline solid + Timoshenko spline beam in a shear-free bending state
    that is exactly representable on both sides (zero interface jump)."""
    mat = Material(E=100.0, nu=0.0, thickness=1.0)
    solid = SolidModel(
        build_mesh("solid2d", "spline", (3, 3), (4, 2),
                   ((0.0, 8.0), (-0.5, 0.5))),
        mat,
    )
    beam = BeamModel(
        build_mesh("beam", "spline", 3, 4, ((0.0, 8.0),), origin=(8.0, 0.0)),
        mat,
    )
    kappa = 0.02
    z = np.zeros(solid.ndof + beam.ndof)

    sm = solid.mesh
    gx = sm.dirs[0].greville()
    gy = sm.dirs[1].greville()
    # u_x = -kappa x y (tensor product of linears: Greville values exact)
    ux = -kappa * np.outer(gy, gx).ravel()
    # u_y = kappa x^2 / 2, constant in y (quadratic: L2 projection exact)
    cx = least_squares_project(sm.dirs[0], lambda x: 0.5 * kappa * x ** 2)
    uy = np.tile(cx, gy.size)
    z[0:2 * solid.mesh.nnodes:2] = ux
    z[1:2 * solid.mesh.nnodes:2] = uy

    bm = beam.mesh
    off = solid.ndof
    gxb = bm.dirs[0].greville()
    wb = least_squares_project(bm.dirs[0],
                               lambda x: 0.5 * kappa * (x + 8.0) ** 2)
    z[off + 1::3] = wb
    z[off + 2::3] = kappa * (gxb + 8.0)  # theta linear, Greville exact
    return solid, beam, z


@pytest.fixture(scope="module")
def bending_setup():
    solid, beam, z = bending_state()
    op = build_interface(solid, beam, axis=0, side=1)
    Kn, Kst, H = local_matrices(op)
    return solid, beam, z, op, Kn, Kst, H


class TestNitscheBlocks:
    def test_consistent_state_has_no_jump_energy(self, bending_setup):
        solid, beam, z, op, Kn, Kst, H = bending_setup
        rng = np.random.default_rng(2)
        r = rng.standard_normal(z.size) * np.abs(z).max()
        baseline = r @ (Kst @ r)
        assert z @ (Kst @ z) <= 1e-12 * baseline

    def test_penalty_psd(self, bending_setup):
        *_, Kst, _ = bending_setup
        rng = np.random.default_rng(4)
        scale = np.abs(Kst.data).max()
        for _ in range(100):
            v = rng.standard_normal(Kst.shape[0])
            assert v @ (Kst @ v) >= -1e-12 * scale * (v @ v)

    def test_h_symmetric_psd(self, bending_setup):
        *_, H = bending_setup
        d = H - H.T
        assert abs(d).max() <= 1e-10 * abs(H).max()
        rng = np.random.default_rng(6)
        scale = np.abs(H.data).max()
        for _ in range(20):
            v = rng.standard_normal(H.shape[0])
            assert v @ (H @ v) >= -1e-12 * scale * (v @ v)

    def test_coupling_forces_balance(self, bending_setup):
        """Newton's third law: interface resultants cancel for any state."""
        solid, beam, z, op, Kn, Kst, H = bending_setup
        alpha = 1.0e4
        rng = np.random.default_rng(12)
        state = rng.standard_normal(z.size)
        g = (Kn + Kn.T + alpha * Kst) @ state
        gs = g[:solid.ndof]
        gb = g[solid.ndof:]
        for s_comp, b_comp in ((0, 0), (1, 1)):  # x with u, y with w
            fs = gs[s_comp::2].sum()
            fb = gb[b_comp::3].sum()
            scale = max(np.abs(gs[s_comp::2]).sum(),
                        np.abs(gb[b_comp::3]).sum(), 1e-30)
            assert abs(fs + fb) <= 1e-8 * scale

    def test_zero_jump_under_global_rotation(self, bending_setup):
        """An infinitesimal rigid rotation of both bodies has zero jump."""
        solid, beam, z, op, Kn, Kst, H = bending_setup
        w = 0.015
        v = np.zeros_like(z)
        xy = solid.mesh.nodes
        v[0:solid.ndof:2] = -w * xy[:, 1]
        v[1:solid.ndof:2] = w * xy[:, 0]
        off = solid.ndof
        xb = beam.mesh.nodes[:, 0]
        # beam rotated about the global origin: u = -w*0, w-defl = w*(8+x)
        v[off + 0::3] = 0.0
        v[off + 1::3] = w * (xb + 8.0)
        v[off + 2::3] = w
        rng = np.random.default_rng(8)
        r = rng.standard_normal(z.size) * w * 8.0
        assert v @ (Kst @ v) <= 1e-12 * (r @ (Kst @ r))


def twelve_block_matrices(op):
    """Reference assembly: the twelve per-segment blocks, one at a time.

    K^n = -1/2 int N^T t on the solid rows and +1/2 on the structure rows
    (t the summed traction n . [S_s, S_b]); K^st the jump penalty; H the
    summed traction bound.
    """
    solid, struct = op.solid, op.struct
    ns = solid.ndof
    n = ns + struct.ndof
    reduced = struct.solid_stress_rows
    out = [np.zeros((n, n)) for _ in range(3)]
    for seg in op.segments:
        w = seg.weights
        sd = solid.element_dofs(seg.s_elem)
        bd = ns + struct.element_dofs(seg.b_elem)
        Ns, Ss = solid.trace(seg.s_elem, seg.s_parent, rows=reduced)
        Nb, Sb = struct.trace(seg.b_elem, seg.b_parent, seg.offsets)
        nmat = np.stack([normal_matrix(v, reduced) for v in seg.normals])
        Ts = np.einsum("qdr,qrj->qdj", nmat, Ss)
        Tb = np.einsum("qdr,qrj->qdj", nmat, Sb)

        def surf(A, B):
            return np.einsum("q,qdi,qdj->ij", w, A, B)

        Kn, Kst, H = out
        Kn[np.ix_(sd, sd)] += -0.5 * surf(Ns, Ts)
        Kn[np.ix_(sd, bd)] += -0.5 * surf(Ns, Tb)
        Kn[np.ix_(bd, sd)] += 0.5 * surf(Nb, Ts)
        Kn[np.ix_(bd, bd)] += 0.5 * surf(Nb, Tb)
        Kst[np.ix_(sd, sd)] += surf(Ns, Ns)
        Kst[np.ix_(sd, bd)] -= surf(Ns, Nb)
        Kst[np.ix_(bd, sd)] -= surf(Nb, Ns)
        Kst[np.ix_(bd, bd)] += surf(Nb, Nb)
        H[np.ix_(sd, sd)] += surf(Ts, Ts)
        H[np.ix_(sd, bd)] += surf(Ts, Tb)
        H[np.ix_(bd, sd)] += surf(Tb, Ts)
        H[np.ix_(bd, bd)] += surf(Tb, Tb)
    return out


def _rotated_timoshenko():
    mat = Material(E=3.0e7, nu=0.3, thickness=1.0)
    solid = SolidModel(build_mesh("solid2d", "spline", 2, (2, 3),
                                  ((-0.5, 0.5), (0.0, 3.0))), mat)
    beam = BeamModel(build_mesh("beam", "spline", 2, 5, ((0.0, 10.0),),
                                origin=(0.0, -10.0), phi=0.5 * np.pi), mat)
    return build_interface(solid, beam, axis=1, side=-1)


def _euler_bernoulli():
    mat = Material(E=100.0, nu=0.2, thickness=1.0)
    solid = SolidModel(build_mesh("solid2d", "spline", 3, (4, 2),
                                  ((0.0, 8.0), (-0.5, 0.5))), mat)
    beam = BeamModel(build_mesh("beam", "spline", 3, 4, ((0.0, 8.0),),
                                origin=(8.0, 0.0)), mat, "euler_bernoulli")
    return build_interface(solid, beam, axis=0, side=1)


def _plate(theory):
    mat = Material(E=1000.0, nu=0.3, thickness=20.0)
    solid = SolidModel(build_mesh("solid3d", "spline", 3, (2, 2, 2),
                                  ((0.0, 40.0), (0.0, 25.0), (0.0, 20.0))),
                       mat)
    plate = PlateModel(build_mesh("plate", "spline", 3, (3, 2),
                                  ((40.0, 80.0), (0.0, 25.0)), z_mid=10.0),
                       mat, theory)
    return build_interface(solid, plate, axis=0, side=1)


def _split_facets():
    """Each solid facet spans three plate elements, cut unevenly: the
    segments of one facet differ in point count."""
    mat = Material(E=1000.0, nu=0.3, thickness=1.0)
    solid = SolidModel(build_mesh("solid3d", "spline", 2, (1, 2, 1),
                                  ((0.0, 2.0), (0.0, 2.0), (0.0, 1.0))), mat)
    plate = PlateModel(build_mesh("plate", "spline", 2, (2, 5),
                                  ((2.0, 4.0), (0.0, 2.0)), z_mid=0.5), mat)
    return build_interface(solid, plate, axis=0, side=1)


def _nonconforming_partner():
    """A solid patch on a Kirchhoff plate with the covered part removed."""
    mat = Material(E=1000.0, nu=0.3, thickness=2.0)
    plate = PlateModel(build_mesh("plate", "spline", 3, (4, 4),
                                  ((0.0, 8.0), (0.0, 8.0)), z_mid=1.0),
                       mat, "kirchhoff")
    box = ((3.0, 5.0), (2.5, 5.5))
    wrap = NonconformingModel(plate, OverlapRegion(box))
    solid = SolidModel(build_mesh("solid3d", "spline", 2, (1, 2, 1),
                                  box + ((0.0, 2.0),)), mat)
    return build_interface(solid, wrap, axis=1, side=-1)


_INTERFACES = {
    "timoshenko-rotated": _rotated_timoshenko,
    "euler-bernoulli": _euler_bernoulli,
    "mindlin": lambda: _plate("mindlin"),
    "kirchhoff": lambda: _plate("kirchhoff"),
    "split-facets": _split_facets,
    "nonconforming": _nonconforming_partner,
}


@pytest.mark.parametrize("make", list(_INTERFACES.values()),
                         ids=list(_INTERFACES))
def test_jump_traction_form_matches_twelve_blocks(make):
    op = make()
    for got, want in zip(local_matrices(op), twelve_block_matrices(op)):
        scale = np.abs(want).max()
        assert scale > 0.0
        np.testing.assert_allclose(got.toarray(), want, rtol=1e-12,
                                   atol=1e-12 * scale)


def test_split_facets_pair_with_several_partners():
    op = _split_facets()
    by_facet = {}
    for seg in op.segments:
        by_facet.setdefault(seg.s_elem, []).append(seg)
    assert len(by_facet) == 2
    for segs in by_facet.values():
        assert [seg.b_elem for seg in segs] == sorted(
            {seg.b_elem for seg in segs})
        assert len(segs) == 3
    assert len({len(seg.weights) for seg in op.segments}) > 1


@pytest.mark.parametrize("make", [_rotated_timoshenko, _split_facets,
                                  _nonconforming_partner],
                         ids=["timoshenko-rotated", "split-facets",
                              "nonconforming"])
def test_one_trace_per_side_per_assembly(make, monkeypatch):
    op = make()
    assert len(op.segments) > 1
    calls = {"solid": 0, "struct": 0}
    for side, model in (("solid", op.solid), ("struct", op.struct)):
        def counted(*args, _trace=model.trace, _side=side, **kwargs):
            calls[_side] += 1
            return _trace(*args, **kwargs)
        monkeypatch.setattr(model, "trace", counted)
    local_matrices(op)
    assert calls == {"solid": 1, "struct": 1}


@pytest.mark.parametrize("make", [_split_facets, _nonconforming_partner],
                         ids=["split-facets", "nonconforming"])
def test_system_assembles_the_lift_of_local_matrices(make):
    """Structural model first: the solid block sits after it, so the
    global map of the stacked local DOFs [solid | struct] is not
    monotone. The global coupling matrices are the lifted local ones."""
    op = make()
    sysm = System([op.struct, op.solid])
    sysm.add_coupling(op)
    ns, nb = op.solid.ndof, op.struct.ndof
    gmap = np.concatenate([nb + np.arange(ns), np.arange(nb)])
    for got, local in zip(sysm._coupling_matrices(True)[0],
                          local_matrices(op)):
        c = local.tocoo()
        want = sp.coo_matrix((c.data, (gmap[c.row], gmap[c.col])),
                             shape=got.shape).toarray()
        assert got.has_canonical_format
        np.testing.assert_array_equal(got.toarray(), want)


@st.composite
def drawn_interfaces(draw):
    """A solid face tied to a beam (2D) or a plate (3D) that continues
    it on the ``side`` of direction 0; the partner's element count is
    drawn apart from the solid's, so facets may split across partners."""
    side = draw(st.sampled_from((-1, 1)))
    mat = Material(E=1000.0, nu=0.3, thickness=2.0)
    if draw(st.sampled_from((2, 3))) == 2:
        basis, p = draw(st.sampled_from((("lagrange", 1), ("spline", 2),
                                         ("spline", 3))))
        extents = ((0.0, 6.0), (-1.0, 1.0))
        if side < 0:
            extents = ((4.0, 10.0), (-1.0, 1.0))
        solid = SolidModel(build_mesh(
            "solid2d", basis, p, (draw(st.integers(1, 3)),
                                  draw(st.integers(1, 3))), extents), mat)
        theory = draw(st.sampled_from(("euler_bernoulli", "timoshenko")))
        q = draw(st.integers(2 if theory == "euler_bernoulli" else 1, 3))
        struct = BeamModel(build_mesh(
            "beam", "spline", q, draw(st.integers(1, 3)), ((0.0, 4.0),),
            origin=(6.0 if side > 0 else 0.0, 0.0)), mat, theory)
    else:
        p = draw(st.integers(2, 3))
        x0 = 0.0 if side > 0 else 3.0
        solid = SolidModel(build_mesh(
            "solid3d", "spline", p,
            tuple(draw(st.integers(1, 2)) for _ in range(3)),
            ((x0, x0 + 4.0), (0.0, 3.0), (0.0, 2.0))), mat)
        theory = draw(st.sampled_from(("kirchhoff", "mindlin")))
        q = draw(st.integers(2 if theory == "kirchhoff" else 1, 3))
        xs = (4.0, 7.0) if side > 0 else (0.0, 3.0)
        struct = PlateModel(build_mesh(
            "plate", "spline", q, (draw(st.integers(1, 2)),
                                   draw(st.integers(1, 4))),
            (xs, (0.0, 3.0)), z_mid=1.0), mat, theory)
    return build_interface(solid, struct, axis=0, side=side)


def _numbering(op, numbering):
    """`CouplingOperator.matrices`' offsets and size: of the local stacked
    DOFs, or of a system holding the solid first or the structure first."""
    if numbering == "local":
        return local_numbering(op)
    models = [op.solid, op.struct]
    sysm = System(models[::-1] if numbering == "struct-first" else models)
    return ((sysm.offsets[sysm.model_index(op.solid)],
             sysm.offsets[sysm.model_index(op.struct)]), sysm.ndof)


_NUMBERINGS = ("local", "solid-first", "struct-first")


@settings(max_examples=40, deadline=None)
@given(op=drawn_interfaces(), numbering=st.sampled_from(_NUMBERINGS),
       with_h=st.booleans())
def test_live_columns_match_every_column(op, numbering, with_h):
    """Only products with an all-zero column are skipped, but BLAS may
    tile a narrower GEMM differently: seen here as 1.5e-16 of the
    largest entry at most, on 3D faces with GEMM depths of 75 and up."""
    args = _numbering(op, numbering)
    got = op.matrices(*args, with_h)
    want = coupling_matrices(op, *args, with_h)
    assert (got[2] is None) is (want[2] is None) is (not with_h)
    for g, w in zip(got[:2 + with_h], want):
        w = w.toarray()
        scale = np.abs(w).max()
        assert scale > 0.0
        np.testing.assert_allclose(g.toarray(), w, rtol=0,
                                   atol=1e-15 * scale)


# Columns of each segment block of a tri-cubic solid face on a cubic
# plate, all and kept: the embedded workload's faces (Kirchhoff, 192 + 16)
# and plate3d's (Mindlin, 192 + 48). The solid's face node layer has a
# trace and its first two layers a traction, so 96 solid columns are
# live; every plate column is.
_BENCH_FACES = {"kirchhoff": (208, 112), "mindlin": (240, 144)}


@pytest.mark.parametrize("numbering", _NUMBERINGS)
@pytest.mark.parametrize("theory", list(_BENCH_FACES))
def test_benchmark_faces_keep_live_columns_bit_for_bit(theory, numbering,
                                                       monkeypatch):
    """On faces shaped like the benchmark's, both GEMM widths are
    multiples of 16 and the blocks are bit-identical to the
    every-column assembly."""
    na, kept = _BENCH_FACES[theory]
    op = _plate(theory)
    assert (op.solid.element_dofs(0).size
            + op.struct.element_dofs(0).size) == na
    widths = set()

    def recorded(A, B, w, out=None):
        widths.update((A.shape[-1], B.shape[-1]))
        return integrate_atb(A, B, w, out=out)
    monkeypatch.setattr(coupling, "integrate_atb", recorded)
    args = _numbering(op, numbering)
    for with_h in (True, False):
        got = op.matrices(*args, with_h)
        want = coupling_matrices(op, *args, with_h)
        assert (got[2] is None) is (want[2] is None) is (not with_h)
        for g, w in zip(got[:2 + with_h], want):
            assert g.nnz > 0
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(g, attr), getattr(w, attr))
    assert widths == {kept}


class TestEstimateAlpha:
    def test_small_reference_problem(self):
        rng = np.random.default_rng(0)
        Ks = np.diag([2.0, 5.0])
        Kb = np.diag([3.0, 4.0])
        M = rng.standard_normal((4, 4))
        H = M @ M.T
        lam = scipy.linalg.eigh(
            H, np.diag([2.0, 5.0, 3.0, 4.0]), eigvals_only=True
        ).max()
        got = estimate_alpha(solid_solve(Ks), Kb, sp.csr_matrix(H))
        assert got == pytest.approx(lam / 2.0, rel=1e-6)

    def test_zero_interface_is_degenerate(self):
        got = estimate_alpha(solid_solve(sp.eye(3)), np.eye(2),
                             sp.csr_matrix((5, 5)))
        assert got == 0.0

    def test_rigid_mode_with_interface_stress_rejected(self):
        Kb = np.diag([1.0, 0.0])  # second structural DOF is a rigid mode
        H = sp.eye(3, format="csr")
        with pytest.raises(RankError):
            estimate_alpha(solid_solve(sp.eye(1)), Kb, H)

    def test_stagnation_raises(self, monkeypatch):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        H = sp.csr_matrix(M @ M.T)
        monkeypatch.setattr(coupling, "_ALPHA_MAXITER", 1)
        with pytest.raises(ConvergenceError):
            estimate_alpha(solid_solve(sp.eye(2)), np.eye(2), H)

    def test_deflates_free_beam_modes(self, q4_interface):
        """The bench layout: clamped solid, beam held only by the interface."""
        solid, beam, op = q4_interface
        _, _, H = local_matrices(op)

        Ks = np.zeros((solid.ndof, solid.ndof))
        for e in range(solid.mesh.nelem):
            d = solid.element_dofs(e)
            Ks[np.ix_(d, d)] += solid.element_stiffness(e)
        Kb = np.zeros((beam.ndof, beam.ndof))
        for e in range(beam.mesh.nelem):
            d = beam.element_dofs(e)
            Kb[np.ix_(d, d)] += beam.element_stiffness(e)

        clamped = np.nonzero(np.abs(solid.mesh.nodes[:, 0]) < 1e-12)[0]
        fixed = np.concatenate([2 * clamped, 2 * clamped + 1])
        free_s = np.setdiff1d(np.arange(solid.ndof), fixed)
        free = np.concatenate([free_s, solid.ndof + np.arange(beam.ndof)])

        alpha = estimate_alpha(
            solid_solve(Ks[np.ix_(free_s, free_s)]),
            Kb,
            sp.csr_matrix(H.toarray()[np.ix_(free, free)]),
        )
        assert 2.4e7 <= alpha <= 9.4e7


def alpha_inputs(ns, nb, nrigid, seed):
    """``(K_solid, K_struct, H)`` of a small random system: an SPD solid
    block, a PSD structural block with ``nrigid`` rigid modes, and a PSD
    H that is zero off a random set of interface rows and does not see
    the rigid modes."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((ns, ns))
    Ks = A @ A.T + 0.1 * np.eye(ns)
    Q = np.linalg.qr(rng.standard_normal((nb, nb)))[0]
    w = np.concatenate([np.zeros(nrigid), rng.uniform(0.1, 10.0, nb - nrigid)])
    Kb, Qn = (Q * w) @ Q.T, Q[:, :nrigid]
    live = rng.random(ns + nb) < 0.7
    live[rng.integers(ns)] = True
    B = rng.standard_normal((rng.integers(1, ns + nb + 1), ns + nb)) * live
    # Structural columns orthogonal to the rigid modes on the live rows.
    S = ns + np.flatnonzero(live[ns:])
    M = Qn[live[ns:]]
    B[:, S] -= B[:, S] @ M @ np.linalg.pinv(M)
    H = 10.0 ** rng.uniform(-3, 3) * B.T @ B
    return sp.csr_matrix(Ks), Kb, sp.csr_matrix(H)


def _step_budget(Ks, Kb, H, steps):
    """The closed form stops at the oracle's step: a budget of ``steps``
    products with H suffices and ``steps - 1`` does not."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coupling, "_ALPHA_MAXITER", steps)
        estimate_alpha(solid_solve(Ks), Kb, H)
        m.setattr(coupling, "_ALPHA_MAXITER", steps - 1)
        with pytest.raises(ConvergenceError):
            estimate_alpha(solid_solve(Ks), Kb, H)


class TestClosedFormAgainstPowerIteration:
    @settings(max_examples=150, deadline=None)
    @given(ns=st.integers(1, 11), nb=st.integers(0, 7),
           nrigid=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_same_alpha_and_stopping_step(self, ns, nb, nrigid, seed):
        assume(nrigid < max(nb, 1))
        Ks, Kb, H = alpha_inputs(ns, nb, nrigid, seed)
        lams = []
        want, steps = power_iteration_alpha(Ks, Kb, H,
                                            coupling._ALPHA_MAXITER, lams)
        # The two computations round differently, so their relative
        # changes between steps can differ by about 1e-15. A draw whose
        # change at the stopping step or the step before lies that close
        # to _ALPHA_TOL is a tie in the threshold, not a defect.
        tests = [abs(b - a) / abs(b)
                 for a, b in list(zip(lams[:-1], lams[1:]))[-2:]]
        assume(all(abs(t / coupling._ALPHA_TOL - 1.0) > 1e-6
                   for t in tests))
        assert estimate_alpha(solid_solve(Ks), Kb, H) == pytest.approx(
            want, rel=1e-12)
        _step_budget(Ks, Kb, H, steps)

    def test_slow_convergence_over_many_step_blocks(self):
        # lambda_2 / lambda_1 = 0.999 on five interface DOFs, of which two
        # structural with K~ = diag(2, 1), and one rigid structural mode
        # and one solid DOF off the interface (zero rows of H).
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        s = np.sqrt([1.0, 1.0, 1.0, 2.0, 1.0])
        H_II = 1e6 * s[:, None] * ((Q * [1.0, 0.999, 0.5, 0.2, 0.1]) @ Q.T) * s
        iface = [0, 1, 2, 4, 5]
        H = np.zeros((7, 7))
        H[np.ix_(iface, iface)] = H_II
        Ks, Kb = sp.eye(4, format="csr"), np.diag([2.0, 1.0, 0.0])
        want, steps = power_iteration_alpha(Ks, Kb, H, 5000)
        assert steps > 1000
        assert want == pytest.approx(0.5e6, rel=1e-5)
        assert estimate_alpha(solid_solve(Ks), Kb, H) == pytest.approx(
            want, rel=1e-12)
        _step_budget(Ks, Kb, H, steps)
