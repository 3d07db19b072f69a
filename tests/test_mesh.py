"""Mesh construction, mappings and facet quadrature."""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mdfem.bench import sample_points
from mdfem.elasticity import Material, SolidModel
from mdfem.errors import ConfigError, DomainError, PairingError
from mdfem.mesh import (
    MODEL_DIMS,
    SplineDir,
    _det_inv,
    _element_data,
    build_mesh,
    bulk_points,
    element_map,
    facet_rules,
    parent_data,
    quadrature_data,
)
from mdfem.structural import frame_transforms
from mdfem.system import System
from oracles import (boundary_facets, element_data_reference,
                     element_interval, tensor_rule)


def to_global(mesh, x_storage):
    """Storage coordinates -> global physical coordinates."""
    x = np.atleast_2d(np.asarray(x_storage, dtype=float))
    if mesh.model == "beam":
        Rv = frame_transforms(mesh.phi)[0]
        pts = np.column_stack([x[:, 0], np.zeros(x.shape[0])])
        return mesh.origin[None, :] + pts @ Rv
    if mesh.model == "plate":
        return np.column_stack([x, np.full(x.shape[0], mesh.z_mid)])
    if mesh.rotation is not None:
        return mesh.origin[None, :] + x @ mesh.rotation.T
    return x


def map_at(mesh, e, parent):
    """Storage points and parent Jacobians d(x)/d(xi) of element ``e`` (or
    of ``e[i]`` at point ``i``) at parent points, by `element_map`."""
    parent = np.atleast_2d(np.asarray(parent, dtype=float))
    elems = np.broadcast_to(e, parent.shape[:1])
    N, dN, _ = mesh.shape_ders(elems, mesh.parent_to_local(elems, parent))
    x, J = element_map(mesh.nodes[mesh.element_nodes(elems)], N[:, None],
                       dN[:, None])
    a, b = mesh._bounds(elems)
    return x[:, 0], J[:, 0] * (0.5 * (b - a))[:, None]


def global_to_local(mesh, x_global):
    """Global coordinates -> local box coordinates (solids)."""
    x = np.atleast_2d(np.asarray(x_global, dtype=float))
    if mesh.rotation is not None:
        return (x - mesh.origin[None, :]) @ mesh.rotation
    return x


def test_build_q4_counts():
    m = build_mesh("solid2d", "lagrange", 1, (40, 10), [(0, 48), (-3, 3)])
    assert m.nelem == 400
    assert m.nnodes == 41 * 11 == 451
    assert m.ien().shape == (400, 4)


def test_build_spline_beam_counts():
    m = build_mesh("beam", "spline", 3, 4, [(0, 24)])
    assert m.nelem == 4
    assert m.nnodes == 7  # spans + degree
    assert (m.dirs[0].lo, m.dirs[0].hi) == (0.0, 24.0)


def test_build_3d_counts():
    m = build_mesh("solid3d", "spline", 3, (64, 4, 5),
                   [(0, 320), (0, 20), (0, 25)])
    assert m.nelem == 1280
    assert m.nnodes == 67 * 7 * 8
    assert m.nen == 64


def test_degree_zero_rejected():
    with pytest.raises(ConfigError):
        build_mesh("solid2d", "spline", 0, (2, 2), [(0, 1), (0, 1)])


_UNIT = [(0, 1), (0, 1)]
_MALFORMED = {
    "nelems-2.7": ("nelems", ("solid2d", "spline", 2, (2.7, 2), _UNIT), {}),
    "degrees-2.5": ("degrees", ("solid2d", "spline", 2.5, (2, 2), _UNIT), {}),
    "nelems-bool": ("nelems", ("solid2d", "lagrange", 1, (True, 2), _UNIT),
                    {}),
    "degrees-numpy-bool": ("degrees", ("beam", "lagrange", np.bool_(True),
                                       2, [(0, 1)]), {}),
    "nelems-3-of-2": ("nelems", ("solid2d", "spline", 2, (2, 2, 2), _UNIT),
                      {}),
    "nelems-str": ("nelems", ("beam", "spline", 2, "2", [(0, 1)]), {}),
    "weights-1-of-2": ("weights", ("solid2d", "spline", 2, (2, 2), _UNIT),
                       {"weights": [np.ones(4)]}),
    "beam-origin-3": ("origin", ("beam", "lagrange", 1, 2, [(0, 1)]),
                      {"origin": (0.0, 1.0, 2.0)}),
    "rotation-3x3-on-2d": ("rotation", ("solid2d", "lagrange", 1, (2, 2),
                                        _UNIT), {"rotation": np.eye(3)}),
    "extents-inf": ("extents", ("solid2d", "lagrange", 1, (2, 2),
                                [(0, np.inf), (0, 1)]), {}),
    "extents-nan": ("extents", ("beam", "spline", 2, 3, [(np.nan, 1)]), {}),
    "extents-2-of-3": ("extents", ("solid3d", "lagrange", 1, (2, 2, 2),
                                   _UNIT), {}),
}
# A non-finite beam angle or plate mid-surface height, or values that are
# not numbers.
_MALFORMED.update({
    f"{name}-{bad}": (name, args, {name: bad})
    for name, args in [("phi", ("beam", "lagrange", 1, 4, [(0, 1)])),
                       ("z_mid", ("plate", "spline", 2, (2, 2), _UNIT))]
    for bad in (np.nan, np.inf, -np.inf)})
_MALFORMED.update({
    "phi-str": ("phi", ("beam", "lagrange", 1, 4, ((0, 1),)), {"phi": "abc"}),
    "origin-str": ("origin", ("beam", "lagrange", 1, 4, ((0, 1),)),
                   {"origin": ("a", "b")})})


@pytest.mark.parametrize("name,args,kwargs", list(_MALFORMED.values()),
                         ids=list(_MALFORMED))
def test_build_mesh_rejects_malformed_inputs(name, args, kwargs):
    """A non-integral size is not truncated, and no raw numpy error or
    warning escapes: a ConfigError names the argument."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"^{name}"):
            build_mesh(*args, **kwargs)


def test_build_mesh_takes_numpy_integers():
    m = build_mesh("solid2d", "spline", np.int32(2), (np.int64(3), 2), _UNIT)
    assert m.nelem_per_dir == (3, 2) and m.degrees == (2, 2)
    assert all(type(n) is int for n in m.nelem_per_dir + m.degrees)


def test_ien_stride_pattern():
    # 16x4 bi-cubic patch: element (0,0) touches the first 4x4 control
    # points with row stride n_x = 19.
    m = build_mesh("solid2d", "spline", 3, (16, 4), [(0, 24), (-3, 3)])
    row = m.element_nodes(0)
    expected = [i + 19 * j for j in range(4) for i in range(4)]
    assert list(row) == expected
    np.testing.assert_array_equal(
        m.ien(), [m.element_nodes(e) for e in range(m.nelem)])
    # bandwidth within one element <= p per direction, tensor-composed
    for e in range(m.nelem):
        nodes = m.element_nodes(e)
        i, j = nodes % 19, nodes // 19
        assert i.max() - i.min() == 3 and j.max() - j.min() == 3


def test_map_affine_unit_square():
    m = build_mesh("solid2d", "spline", 1, (2, 2), [(0, 1), (0, 1)])
    x, _ = map_at(m, 0, np.array([[0.0, 0.0]]))
    assert_allclose(x, [[0.25, 0.25]], atol=1e-14)


def test_map_beam_param_stage():
    # length-48 line over 4 spans, parameterized over [0,4]
    m = build_mesh("beam", "spline", 3, 4, [(0, 48)])
    x, _ = map_at(m, 2, np.array([[0.0]]))
    assert_allclose(x, [[30.0]], atol=1e-12)


def test_jacobian_q4_affine():
    m = build_mesh("solid2d", "lagrange", 1, (40, 10), [(0, 48), (-3, 3)])
    _, J = map_at(m, 7, np.array([[0.1, -0.4], [0.9, 0.9]]))
    assert_allclose(np.linalg.det(J), 0.18, rtol=1e-14)


def test_greville_geometry_affine():
    m = build_mesh("solid2d", "spline", 3, (16, 4), [(0, 24), (-3, 3)])
    pts = np.random.default_rng(0).uniform(-1, 1, (20, 2))
    for e in [0, 5, 37, 63]:
        det = np.linalg.det(map_at(m, e, pts)[1])
        assert np.ptp(det) < 1e-12 * abs(det[0])


def test_jacobian_fd_after_perturbation():
    m = build_mesh("solid2d", "spline", 2, (3, 3), [(0, 3), (0, 3)])
    m.nodes[12] += np.array([0.11, -0.07])  # interior control point
    e = 4
    xi = np.array([[0.2, -0.3]])
    _, J = map_at(m, e, xi)
    assert np.linalg.det(J[0]) > 0
    h = 1e-6
    for k in range(2):
        dp = xi.copy()
        dm = xi.copy()
        dp[0, k] += h
        dm[0, k] -= h
        fd = (map_at(m, e, dp)[0] - map_at(m, e, dm)[0]) / (2 * h)
        assert_allclose(J[0][:, k], fd[0], rtol=1e-6, atol=1e-8)


def test_inverse_map_round_trip():
    m = build_mesh("solid2d", "spline", 2, (3, 3), [(0, 3), (0, 3)])
    m.nodes[12] += np.array([0.11, -0.07])
    target = np.array([0.3, -0.7])
    e, xi = m.locate(map_at(m, 4, target)[0][0])
    assert e == 4
    assert_allclose(xi, target, atol=1e-10)
    # affine mesh: Newton equals the closed-form inverse
    ma = build_mesh("solid2d", "lagrange", 1, (4, 4), [(0, 2), (0, 2)])
    e, xi = ma.locate(np.array([0.3, 0.15]))
    assert e == 0
    assert_allclose(xi, [2 * 0.3 / 0.5 - 1, 2 * 0.15 / 0.5 - 1], atol=1e-12)


def test_inverse_map_outside_signal():
    # Element 1's control net spans past its +x face, so a point just
    # across that face is one of its candidates; Newton lands outside its
    # parent box and the next element takes the point.
    m = build_mesh("solid2d", "spline", 2, (4, 4), [(0, 2), (0, 2)])
    probe = map_at(m, 1, [[1.0, 0.2]])[0][0] + [1e-3, 0.0]
    P = m.nodes[m.element_nodes(1)]
    assert np.all((P.min(axis=0) <= probe) & (probe <= P.max(axis=0)))
    e, xi = m.locate(probe)
    assert e == 2
    assert -1.0 < xi[0] < -1.0 + 1e-2


def test_locate_brute_force():
    m = build_mesh("solid2d", "spline", 3, (16, 4), [(0, 24), (-3, 3)])
    e, xi = m.locate(np.array([13.3, 2.2]))
    x = map_at(m, e, xi)[0][0]
    assert_allclose(x, [13.3, 2.2], atol=1e-9)
    with pytest.raises(PairingError):
        m.locate(np.array([25.0, 0.0]))


def test_interior_points_map_back_to_same_element():
    m = build_mesh("solid2d", "spline", 2, (4, 2), [(0, 8), (0, 4)])
    rng = np.random.default_rng(3)
    xi = rng.uniform(-0.95, 0.95, (m.nelem, 2))
    x = map_at(m, np.arange(m.nelem), xi)[0]
    efound, xif = m.locate(x)
    np.testing.assert_array_equal(efound, np.arange(m.nelem))
    assert_allclose(map_at(m, efound, xif)[0], x, atol=1e-9)


def orthogonal(rng, shape, det):
    """Random orthogonal matrices of ``shape`` (a stack of d x d) with
    determinant ``det``: +1 for rotations, -1 for reflections."""
    Q = np.linalg.qr(rng.standard_normal(shape))[0]
    Q[..., 0] *= np.sign(det * np.linalg.det(Q))[..., None]
    return Q


@st.composite
def placed_nets(draw):
    """Small 2D and 3D solids, straight or curved, as built, rotated or
    reflected."""
    dim = draw(st.integers(2, 3))
    degree = draw(st.integers(1, 3))
    nelems = draw(st.tuples(*[st.integers(1, 3)] * dim))
    extents = [(lo, lo + ln) for lo, ln in draw(st.tuples(
        *[st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 10.0))] * dim))]
    placement = {}
    kind = draw(st.sampled_from(["built", "rotated", "reflected"]))
    if kind != "built":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        Q = orthogonal(rng, (dim, dim), 1.0 if kind == "rotated" else -1.0)
        placement = {"origin": rng.uniform(-2.0, 2.0, dim), "rotation": Q}
    m = build_mesh(f"solid{dim}d", "lagrange" if degree == 1 else "spline",
                   degree, nelems, extents, **placement)
    if draw(st.booleans()):
        size = min(hi - lo for lo, hi in extents)
        m.nodes = m.nodes + 0.02 * size * np.sin(m.nodes[:, ::-1] / size)
    return m


@settings(max_examples=60, deadline=None)
@given(m=placed_nets(), data=st.data())
def test_batched_locate_finds_the_lowest_holding_element(m, data):
    """Points at element corners, on faces and inside map back within
    1e-9 from the lowest-index element whose local box holds them; an
    array call equals one call per row bit for bit; a point outside the
    net raises PairingError, alone or in an array."""
    npts = data.draw(st.integers(1, 6))
    elems = np.array(data.draw(st.lists(st.integers(0, m.nelem - 1),
                                        min_size=npts, max_size=npts)))
    coord = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    xi = np.array(data.draw(st.lists(st.tuples(*[coord] * m.dim),
                                     min_size=npts, max_size=npts)))
    x = map_at(m, elems, xi)[0]
    e, xif = m.locate(x)
    assert_allclose(map_at(m, e, xif)[0], x, rtol=0.0, atol=1e-9)
    # The local map is a bijection, so the holders of a point are the
    # elements whose local boxes hold its local point t to 1e-8 in parent
    # coordinates; the lowest index takes, in every direction, the lower
    # neighbour where that one holds t (a point on a face is held by both).
    t = m.parent_to_local(elems, xi)
    lowest = []
    for k, (d, i) in enumerate(zip(m.dirs, m.element_grid_index(elems))):
        a, b = d.intervals()[i - 1].T
        lowest.append(i - ((i > 0) & ((2.0 * t[:, k] - a - b) / (b - a)
                                      <= 1.0 + 1e-8)))
    lowest = m.element_id(lowest)
    np.testing.assert_array_equal(e, lowest)
    for i in range(npts):
        ei, xii = m.locate(x[i])
        assert ei == e[i]
        np.testing.assert_array_equal(xii, xif[i])
    outside = m.nodes.max(axis=0) + 1.0
    with pytest.raises(PairingError):
        m.locate(outside)
    with pytest.raises(PairingError):
        m.locate(np.vstack([x, outside]))


def test_bulk_points_measure():
    m = build_mesh("solid2d", "spline", 3, (16, 4), [(0, 24), (-3, 3)])
    total = 0.0
    for e in range(m.nelem):
        _, w, N, dNdx, _, phys = bulk_points(m, e)
        total += w.sum()
        assert_allclose(N.sum(axis=1), 1.0, atol=1e-12)
        assert_allclose(dNdx.sum(axis=1), 0.0, atol=1e-10)
    assert_allclose(total, 24 * 6, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(("beam", "plate", "solid3d")),
       degree=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_linear_fields_have_zero_hessian_on_curved_maps(model, degree, seed):
    dim = {"beam": 1, "plate": 2, "solid3d": 3}[model]
    m = build_mesh(model, "spline", degree, 3, [(0.0, 1.0)] * dim)
    # Smooth perturbation x + a sin(W x + phi) of the control net, with
    # |a| |W| small enough to keep every element jacobian positive.
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.1, 0.1, dim)
    W = rng.uniform(-1.5, 1.5, (dim, dim))
    phi = rng.uniform(0.0, 2.0 * np.pi, dim)
    m.nodes = m.nodes + a * np.sin(m.nodes @ W.T + phi)
    for e in range(m.nelem):
        _, _, _, _, d2Ndx2, _ = bulk_points(m, e, nders=2)
        P = m.nodes[m.element_nodes(e)]
        # The map reproduces each coordinate field and the constant one.
        assert np.abs(np.einsum("qnij,nm->qmij", d2Ndx2, P)).max() <= 1e-10
        assert np.abs(d2Ndx2.sum(axis=1)).max() <= 1e-10


def test_facet_quadrature_measure_and_normals():
    m = build_mesh("solid2d", "lagrange", 1, (40, 10), [(0, 24), (-3, 3)])
    elems, _, phys, w, normals, _ = facet_rules(m, 0, +1, 3)
    assert len(elems) == 10
    assert_allclose(phys[:, 0], 24.0, atol=1e-12)
    assert_allclose(normals, [[1.0, 0.0]] * len(w), atol=1e-14)
    assert_allclose(w.sum(), 6.0, rtol=1e-12)


def test_facet_strip_clipping():
    m = build_mesh("solid2d", "lagrange", 1, (4, 8), [(0, 4), (0, 8)])
    total = facet_rules(m, 0, +1, 3, strip=[(2.5, 5.5)])[3].sum()
    assert_allclose(total, 3.0, rtol=1e-12)


def test_facet_measure_3d():
    m = build_mesh("solid3d", "spline", 2, (4, 2, 2),
                   [(0, 160), (0, 25), (0, 20)])
    _, _, phys, w, normals, _ = facet_rules(m, 0, +1, 3)
    assert_allclose(normals[:, 0], 1.0, atol=1e-13)
    assert_allclose(w.sum(), 500.0, rtol=1e-12)


def test_rotated_solid_placement():
    phi = np.pi / 6
    Q = frame_transforms(phi)[0].T  # local -> global
    m = build_mesh("solid2d", "lagrange", 1, (4, 2), [(0, 8), (-1, 1)],
                   origin=[1.0, 2.0], rotation=Q)
    # the local point (8, 0) should land at origin + Q @ (8, 0)
    e, xi = m.locate(np.array([1.0, 2.0]) + Q @ np.array([8.0, 0.0]))
    local = global_to_local(m, map_at(m, e, xi)[0])[0]
    assert_allclose(local, [8.0, 0.0], atol=1e-9)
    # outward normal of the local +x face is the rotated x axis
    normals = facet_rules(m, 0, +1, 2)[4][:2]
    assert_allclose(normals, np.tile(Q @ [1.0, 0.0], (2, 1)), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_reflected_curved_placement_keeps_normals_outward(dim):
    """A reflected placement makes det J negative; every facet normal must
    still be the outward gradient direction side * J^-T e_axis."""
    Q = np.eye(dim)[::-1]  # swaps the first and last axes: det Q = -1
    m = build_mesh(f"solid{dim}d", "spline", 2, (2,) * dim,
                   [(0.0, 1.0)] * dim, origin=np.ones(dim), rotation=Q)
    m.nodes = m.nodes + 0.05 * np.sin(3.0 * m.nodes[:, ::-1])
    for axis in range(dim):
        for side in (-1, 1):
            elems, parent, _, _, normals, _ = facet_rules(m, axis, side, 3)
            nq = len(normals) // len(elems)
            for i, e in enumerate(elems):
                _, J = map_at(m, e, parent[i * nq:(i + 1) * nq])
                assert (np.linalg.det(J) < 0).all()
                grad = side * np.linalg.inv(J)[:, axis, :]
                grad /= np.linalg.norm(grad, axis=1)[:, None]
                assert_allclose(normals[i * nq:(i + 1) * nq], grad,
                                atol=1e-12)


@st.composite
def face_meshes(draw):
    """Small 2D and 3D solids (straight, curved or reflected) and plates."""
    model = draw(st.sampled_from(("solid2d", "solid3d", "plate")))
    dim = 3 if model == "solid3d" else 2
    degree = draw(st.integers(1, 3))
    nelems = draw(st.tuples(*[st.integers(1, 4)] * dim))
    extents = [(lo, lo + ln) for lo, ln in draw(st.tuples(
        *[st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 20.0))] * dim))]
    placement = {}
    if model != "plate" and draw(st.booleans()):
        # Swaps the first and last axes: det J < 0.
        placement = {"origin": np.ones(dim), "rotation": np.eye(dim)[::-1]}
    m = build_mesh(model, "lagrange" if degree == 1 else "spline", degree,
                   nelems, extents, **placement)
    if draw(st.booleans()):
        size = min(hi - lo for lo, hi in extents)
        m.nodes = m.nodes + 0.02 * size * np.sin(m.nodes[:, ::-1] / size)
    return m


@settings(max_examples=80, deadline=None)
@given(m=face_meshes(), data=st.data())
def test_facet_rules_equal_per_facet_enumeration(m, data):
    """The face's facets are the reference enumeration's, and each facet's
    parent points are the tensor rule on its clipped intervals, placed on
    the face, bit for bit."""
    axis = data.draw(st.integers(0, m.dim - 1))
    side = data.draw(st.sampled_from([-1, 1]))
    free = [k for k in range(m.dim) if k != axis]
    strip = []
    for k in free:
        lo, hi = m.box[k]
        kind = data.draw(st.sampled_from(["none", "partial", "drop"]))
        if kind == "partial":
            a = data.draw(st.floats(0.0, 0.4))
            b = data.draw(st.floats(0.6, 1.0))
            strip.append((lo + a * (hi - lo), lo + b * (hi - lo)))
        elif kind == "drop":
            # Misses the lower elements whenever there are two or more.
            strip.append((lo + data.draw(st.floats(0.55, 0.95)) * (hi - lo),
                          hi))
        else:
            strip.append(None)
    strip = data.draw(st.sampled_from([None, strip]))
    npts = data.draw(st.tuples(*[st.integers(1, 4)] * len(free)))
    facets = boundary_facets(m, axis, side, strip)
    elems, parent, *_ = facet_rules(m, axis, side, npts, strip)
    np.testing.assert_array_equal(elems, [e for e, _ in facets])
    nq = int(np.prod(npts))
    for i, (_, clips) in enumerate(facets):
        want = np.full((nq, m.dim), float(side))
        want[:, free] = tensor_rule(clips, npts)[0]
        np.testing.assert_array_equal(parent[i * nq:(i + 1) * nq], want)


def test_facet_rules_reject_bad_faces():
    m = build_mesh("solid2d", "lagrange", 1, (4, 4), [(0, 4), (0, 4)])
    for axis, side, strip, msg in [
            (2, 1, None, "axis 2 outside"), (0, 0, None, "side must be"),
            (0, 1, [None, None], "one entry per free axis"),
            (0, 1, [(5.0, 6.0)], "no facets found")]:
        with pytest.raises(ConfigError, match=msg):
            facet_rules(m, axis, side, 2, strip)


def test_facet_rules_on_a_beam_mesh_is_a_config_error():
    m = build_mesh("beam", "spline", 3, 4, [(0, 24)])
    for axis, side in [(0, 1), (0, -1), (1, 1)]:
        with pytest.raises(ConfigError, match="a beam mesh has no faces"):
            facet_rules(m, axis, side, 2)


def test_beam_placement():
    m = build_mesh("beam", "spline", 3, 4, [(0, 24)],
                   origin=[24.0, 0.0], phi=0.0)
    g = to_global(m, np.array([[6.0]]))
    assert_allclose(g, [[30.0, 0.0]], atol=1e-12)
    mv = build_mesh("beam", "lagrange", 1, 3, [(0, 10)],
                    origin=[0.0, 0.0], phi=np.pi / 2)
    g = to_global(mv, np.array([[10.0]]))
    assert_allclose(g, [[0.0, 10.0]], atol=1e-12)


def hat_functions(breaks, e, x):
    """Values and first derivatives ``(len(x), 2, 2)`` of the two linear
    hat functions of element ``e`` on ``breaks`` at local coordinates
    ``x``: the 2-noded Lagrange element in closed form."""
    a, b = breaks[e], breaks[e + 1]
    h = b - a
    out = np.empty((x.size, 2, 2))
    out[:, 0, 0] = (b - x) / h
    out[:, 0, 1] = (x - a) / h
    out[:, 1, 0] = -1.0 / h
    out[:, 1, 1] = 1.0 / h
    return out


@settings(max_examples=60, deadline=None)
@given(ne=st.integers(1, 16), lo=st.floats(-100.0, 100.0),
       length=st.floats(0.1, 1000.0), data=st.data())
def test_lagrange_direction_is_the_hat_basis(ne, lo, length, data):
    hi = lo + length
    d = build_mesh("beam", "lagrange", 1, ne, [(lo, hi)]).dirs[0]
    breaks = np.linspace(lo, hi, ne + 1)
    scale = max(abs(lo), abs(hi))
    assert_allclose(d.greville(), breaks, rtol=0, atol=1e-14 * scale)
    e = data.draw(st.integers(0, ne - 1))
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                    max_size=8)))
    h = breaks[e + 1] - breaks[e]
    x = breaks[e] + u * h
    got = d.eval(e, x, 1)
    want = hat_functions(breaks, e, x)
    # Values carry the rounding of x relative to the element size.
    assert_allclose(got[:, 0], want[:, 0], rtol=0, atol=1e-14 * scale / h)
    assert_allclose(got[:, 1], want[:, 1], rtol=1e-14)


@pytest.mark.parametrize("extent", [
    (0.0, 400.0), (0.0, 29.97), (-3.0, 3.0), (1.1, 7.7), (0.0, 48.0),
    (24.0, 48.0), (0.0, 320.0), (-0.5, 0.5), (0.0, 0.7), (12.5, 1000.0),
    (-100.0, 3.3)])
def test_element_containing_puts_a_break_in_the_element_above(extent):
    """A node on an interior break belongs to the element above it, the
    last node to the last element, and the element intervals are the
    breaks bit for bit."""
    for ne in range(1, 41):
        mesh = build_mesh("beam", "lagrange", 1, ne, [extent])
        breaks = np.linspace(*extent, ne + 1)
        np.testing.assert_array_equal(
            mesh.element_containing(mesh.nodes[:-1]), np.arange(ne))
        assert mesh.element_containing(mesh.nodes[-1]) == ne - 1
        np.testing.assert_array_equal(
            mesh.dirs[0].intervals(),
            np.column_stack([breaks[:-1], breaks[1:]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points, k", [
    ([np.nan, 0.5], 0), ([0.5, np.nan], 1), ([[1.0, 1.0], [2.0, np.nan]], 1)])
def test_element_containing_rejects_a_nan_coordinate(points, k):
    """NaN fails the range test like a point outside the box. Every
    comparison with NaN is false, so a test for "below lo or above hi"
    would pass it on to an element (7 for [nan, 0.5] here), and sampling
    would fail later on a misleading jacobian error."""
    mesh = build_mesh("solid2d", "lagrange", 1, (4, 2),
                      ((0.0, 4.0), (0.0, 1.0)))
    msg = rf"^local coordinate nan outside direction {k} range"
    with pytest.raises(DomainError, match=msg):
        mesh.element_containing(points)
    model = SolidModel(mesh, Material(E=1.0, nu=0.3))
    with pytest.raises(DomainError, match=msg):
        sample_points(model, np.zeros(model.ndof), points)


@settings(max_examples=60, deadline=None)
@given(basis=st.sampled_from(("lagrange", "spline", "nurbs")),
       degree=st.integers(1, 4), ne=st.integers(1, 8), nders=st.integers(0, 2),
       npts=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_direction_element_array_equals_per_element_calls(
        basis, degree, ne, nders, npts, seed):
    rng = np.random.default_rng(seed)
    degree = 1 if basis == "lagrange" else degree
    weights = ([rng.uniform(0.5, 1.5, ne + degree)] if basis == "nurbs"
               else None)
    d = build_mesh("beam", "lagrange" if basis == "lagrange" else "spline",
                   degree, ne, [(-1.0, 2.0)], weights=weights).dirs[0]
    e = rng.integers(0, ne, npts)
    a, b = d.intervals()[e].T
    # Includes values just outside the span (Newton iterates).
    xs = a + (b - a) * rng.uniform(-0.05, 1.05, npts)
    batch = d.eval(e, xs, nders)
    assert batch.shape == (npts, nders + 1, degree + 1)
    assert np.array_equal(batch, np.stack(
        [d.eval(int(i), [x], nders)[0] for i, x in zip(e, xs)]))
    assert np.array_equal(d.indices(e),
                          np.stack([d.indices(int(i)) for i in e]))


@pytest.mark.parametrize("model, basis, degree", [
    ("solid2d", "lagrange", 1), ("solid3d", "lagrange", 1),
    ("solid3d", "spline", 2), ("plate", "spline", 3)])
def test_one_basis_call_per_direction(model, basis, degree, monkeypatch):
    dim = 3 if model == "solid3d" else 2
    m = build_mesh(model, basis, degree, (5, 4, 3)[:dim],
                   [(0.0, 5.0), (-1.0, 1.0), (0.0, 2.0)][:dim])
    calls = []
    evaluate = SplineDir.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(SplineDir, "eval", counted)
    rng = np.random.default_rng(4)
    elems = rng.integers(0, m.nelem, 40)
    local = m.parent_to_local(elems, rng.uniform(-1.0, 1.0, (40, dim)))
    m.shape_ders(elems, local, nders=2)
    assert len(calls) == m.dim
    calls.clear()
    bulk_points(m, np.arange(m.nelem), nders=2)
    assert len(calls) == m.dim


def test_weights_rejected_on_lagrange_meshes():
    with pytest.raises(ConfigError, match="weights"):
        build_mesh("solid2d", "lagrange", 1, (2, 2), [(0, 1), (0, 1)],
                   weights=[np.ones(3), np.ones(3)])


@pytest.mark.parametrize("nders", [0, 3])
def test_element_data_rejects_other_derivative_orders(nders):
    mesh = build_mesh("solid2d", "spline", 2, (2, 2), [(0, 1), (0, 1)])
    for call in (lambda: bulk_points(mesh, [0, 1], nders=nders),
                 lambda: quadrature_data(mesh, [0, 1], nders=nders),
                 lambda: parent_data(mesh, 0, [[0.0, 0.0]], nders=nders)):
        with pytest.raises(ConfigError, match=f"1 .* or 2 .*got {nders}"):
            call()


@settings(max_examples=100, deadline=None)
@given(nelems=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       kind=st.sampled_from(["any", "outside a product", "all", "none"]),
       seed=st.integers(0, 2**32 - 1))
def test_element_boxes_partition_the_elements(nelems, kind, seed):
    """`Mesh.element_boxes` splits an element set into disjoint boxes,
    products of per-direction masks, that cover it exactly: one for the
    whole mesh, none for no element, and at most ``dim`` for the
    elements outside a product of per-direction sets (the STANDARD part
    `nonconforming.classify` leaves)."""
    dim = len(nelems)
    mesh = build_mesh({1: "beam", 2: "plate", 3: "solid3d"}[dim], "lagrange",
                      1, nelems, [(0.0, 1.0)] * dim)
    rng = np.random.default_rng(seed)
    sel = {"any": rng.random(mesh.nelem) < 0.5,
           "all": np.ones(mesh.nelem, bool),
           "none": np.zeros(mesh.nelem, bool)}.get(kind)
    if sel is None:
        inside = np.ones(1, bool)
        for n in nelems:  # new direction slowest
            inside = np.logical_and.outer(rng.random(n) < 0.6, inside).ravel()
        sel = ~inside
    boxes = mesh.element_boxes(np.flatnonzero(sel))
    cover = np.zeros(mesh.nelem, int)
    for box in boxes:
        assert len(box) == dim and all(m.any() for m in box)
        inbox = np.ones(mesh.nelem_per_dir, bool)
        for k, m in enumerate(box):
            inbox &= m.reshape([-1 if j == k else 1 for j in range(dim)])
        cover += inbox.ravel(order="F")
    np.testing.assert_array_equal(cover, sel)
    limit = {"all": 1, "none": 0, "outside a product": dim}.get(kind)
    assert limit is None or len(boxes) <= limit


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), n=st.integers(0, 6),
       det=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2**32 - 1))
def test_det_inv_matches_lapack(dim, n, det, seed):
    """Rotations and reflections, sheared by I + S (|S| < 1) and scaled
    by 1e-3 to 1e3, in a ``(2, n)`` stack or (n = 0) alone."""
    rng = np.random.default_rng(seed)
    shape = (2, max(n, 1), dim, dim)
    shear = np.eye(dim) + rng.uniform(-0.3, 0.3, shape)
    J = (10.0 ** rng.uniform(-3.0, 3.0, shape[:2]))[..., None, None] * (
        orthogonal(rng, shape, det) @ shear)
    if n == 0:
        J = J[0, 0]
    got_det, got_inv = _det_inv(J)
    ref_det, ref_inv = np.linalg.det(J), np.linalg.inv(J)
    assert got_det.shape == ref_det.shape and got_inv.shape == J.shape
    assert (np.abs(got_det - ref_det) <= 1e-12 * np.abs(ref_det)).all()
    assert (np.abs(got_inv - ref_inv).max(axis=(-2, -1))
            <= 1e-12 * np.abs(ref_inv).max(axis=(-2, -1))).all()


@st.composite
def mapped_meshes(draw):
    """Beams, plates and 2D and 3D solids of degree 1-3: straight or
    curved, NURBS-weighted or not, solids rotated or not."""
    model = draw(st.sampled_from(sorted(MODEL_DIMS)))
    dim = MODEL_DIMS[model]
    degree = draw(st.integers(1, 3))
    nelems = draw(st.tuples(*[st.integers(1, 3)] * dim))
    extents = [(lo, lo + ln) for lo, ln in draw(st.tuples(
        *[st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 10.0))] * dim))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kwargs = {}
    if degree > 1 and draw(st.booleans()):
        kwargs["weights"] = [rng.uniform(0.5, 1.5, ne + degree)
                             for ne in nelems]
    if model.startswith("solid") and draw(st.booleans()):
        kwargs.update(origin=rng.uniform(-2.0, 2.0, dim),
                      rotation=orthogonal(rng, (dim, dim), 1.0))
    m = build_mesh(model, "lagrange" if degree == 1 else "spline", degree,
                   nelems, extents, **kwargs)
    if draw(st.booleans()):
        size = min(hi - lo for lo, hi in extents)
        m.nodes = m.nodes + 0.02 * size * np.sin(m.nodes[:, ::-1] / size)
    return m


@settings(max_examples=60, deadline=None)
@given(m=mapped_meshes(), data=st.data())
def test_element_data_matches_the_lapack_chain_rule(m, data):
    """Every `_element_data` output of `bulk_points` and `parent_data`
    with second derivatives is within 1e-12 of its largest entry of the
    reference by LAPACK inverses and two d x d products per point and
    node."""
    calls = []

    def spy(*args):
        calls.append((args, _element_data(*args)))
        return calls[-1][1]

    npts = data.draw(st.integers(1, 5))
    elems = np.array(data.draw(st.lists(st.integers(0, m.nelem - 1),
                                        min_size=npts, max_size=npts)))
    parent = np.array(data.draw(st.lists(
        st.tuples(*[st.floats(-1.0, 1.0)] * m.dim),
        min_size=npts, max_size=npts)))
    with mock.patch("mdfem.mesh._element_data", spy):
        bulk_points(m, np.arange(m.nelem), nders=2)
        parent_data(m, elems, parent, nders=2)
    assert len(calls) == 2
    for args, out in calls:
        for got, want in zip(out, element_data_reference(*args)):
            assert_allclose(got, want, rtol=0.0,
                            atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("bad", ["nan", "inf", "zero-area"])
def test_non_finite_or_flat_jacobian_is_a_domain_error(bad):
    """A NaN or infinite control point, or a net flattened onto a line,
    raises DomainError from the quadrature data and from the solve, with
    no floating-point warning on the way."""
    m = build_mesh("solid2d", "spline", 2, (3, 3), [(0, 3), (0, 3)])
    clamped = np.flatnonzero(m.nodes[:, 0] == 0.0)
    if bad == "zero-area":
        m.nodes[:, 1] = 0.0
    else:
        m.nodes[5, 0] = float(bad)
    system = System([SolidModel(m, Material(E=1.0, nu=0.3))])
    system.fix(0, np.concatenate([2 * clamped, 2 * clamped + 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-positive jacobian in "
                                              "element 0"):
            bulk_points(m, np.arange(m.nelem), nders=2)
        with pytest.raises(DomainError, match="non-positive jacobian"):
            system.solve()
