"""Element-batched kernels and bulk assembly against per-element oracles.

The oracles below loop one element at a time the way the kernels did
before batching: a tensor Gauss rule per element, shapes from
``Mesh.shape_ders`` at every tensor point, and ``B^T C B`` products of
hand-built B matrices. The library integrates each model's stiffness
form in tensor form instead, so every kernel must match to 1e-13 of the
largest entry.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdfem import elasticity
from mdfem import mesh as mesh_mod
from mdfem import structural
from mdfem.elasticity import Material, SolidModel, constitutive_solid
from mdfem.errors import DomainError
from mdfem.mesh import build_mesh, bulk_points, facet_rules, quadrature_data
from mdfem.nonconforming import CUT, VOID, NonconformingModel, OverlapRegion
from mdfem.structural import BeamModel, PlateModel, frame_transforms
from mdfem.system import System
from oracles import (b_matrix_solid, boundary_facets, element_interval,
                     integrate_btcb, tensor_rule)

INF = float("inf")
MAT = Material(E=2.1e5, nu=0.3, thickness=0.4, width=0.5)


def oracle_points(mesh, e, npts=None, nders=1):
    if npts is None:
        npts = tuple(d.degree + 1 for d in mesh.dirs)
    elif np.isscalar(npts):
        npts = (npts,) * mesh.dim
    gi = mesh.element_grid_index(e)
    param, w = tensor_rule(
        [element_interval(d, i) for d, i in zip(mesh.dirs, gi)], npts)
    return quadrature_data(mesh, e, (param, w), nders)


def oracle_solid(model, e):
    _, w, _, dNdx, _, _ = oracle_points(model.mesh, e)
    C = constitutive_solid(model.material, model.mesh.dim)
    return integrate_btcb(b_matrix_solid(dNdx), C, w)


def oracle_beam(model, e):
    mesh = model.mesh
    if model.theory == "euler_bernoulli":
        _, w, _, _, d2, _ = oracle_points(mesh, e, nders=2)
        return integrate_btcb(d2[:, :, 0, 0][:, None, :],
                              np.array([[model.EI]]), w)
    _, w, N, dNdx, _, _ = oracle_points(mesh, e)
    nq, nen = N.shape
    Bab = np.zeros((nq, 2, 3 * nen))
    Bab[:, 0, 0::3] = dNdx[:, :, 0]
    Bab[:, 1, 2::3] = dNdx[:, :, 0]
    K = integrate_btcb(Bab, np.diag([model.EA, model.EI]), w)
    if mesh.dirs[0].degree == 1:
        _, w, N, dNdx, _, _ = oracle_points(mesh, e, npts=1)
    Bs = np.zeros((len(w), 1, 3 * nen))
    Bs[:, 0, 1::3] = dNdx[:, :, 0]
    Bs[:, 0, 2::3] = -N
    K += integrate_btcb(Bs, np.array([[model.kGA]]), w)
    R = np.kron(np.eye(nen), frame_transforms(model.phi)[2])
    return R.T @ K @ R


def oracle_plate(model, e):
    m = model.material
    D_b = m.thickness ** 3 / 12.0 * constitutive_solid(m, 2)
    if model.theory == "kirchhoff":
        _, w, _, _, d2, _ = oracle_points(model.mesh, e, nders=2)
        B = np.zeros((len(w), 3, d2.shape[1]))
        B[:, 0, :] = d2[:, :, 0, 0]
        B[:, 1, :] = d2[:, :, 1, 1]
        B[:, 2, :] = 2.0 * d2[:, :, 0, 1]
        return integrate_btcb(B, D_b, w)
    _, w, N, dNdx, _, _ = oracle_points(model.mesh, e)
    nq, nen = N.shape
    d1, d2 = dNdx[:, :, 0], dNdx[:, :, 1]
    Bb = np.zeros((nq, 3, 3 * nen))
    Bb[:, 0, 1::3] = d1
    Bb[:, 1, 2::3] = d2
    Bb[:, 2, 1::3] = d2
    Bb[:, 2, 2::3] = d1
    Bs = np.zeros((nq, 2, 3 * nen))
    Bs[:, 0, 0::3] = d1
    Bs[:, 0, 1::3] = -N
    Bs[:, 1, 0::3] = d2
    Bs[:, 1, 2::3] = -N
    D_s = m.k_shear * m.G * m.thickness * np.eye(2)
    return integrate_btcb(Bb, D_b, w) + integrate_btcb(Bs, D_s, w)


def curve(mesh, seed):
    """Smooth perturbation x + a sin(W x + phi) of the control net, small
    enough to keep every element jacobian positive."""
    rng = np.random.default_rng(seed)
    dim = mesh.nodes.shape[1]
    a = rng.uniform(-0.1, 0.1, dim)
    W = rng.uniform(-1.5, 1.5, (dim, dim))
    phi = rng.uniform(0.0, 2.0 * np.pi, dim)
    mesh.nodes = mesh.nodes + a * np.sin(mesh.nodes @ W.T + phi)
    return mesh


@st.composite
def solid_models(draw):
    dim = draw(st.sampled_from([2, 3]))
    basis = draw(st.sampled_from(["lagrange", "spline", "nurbs"]))
    nelems = tuple(draw(st.integers(1, 3)) for _ in range(dim))
    top = 3 if dim == 2 else 2
    degrees = (1,) * dim if basis == "lagrange" else tuple(
        draw(st.integers(1, top)) for _ in range(dim))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = None
    if basis == "nurbs":
        weights = [rng.uniform(0.6, 1.4, n + p)
                   for n, p in zip(nelems, degrees)]
    mesh = build_mesh(f"solid{dim}d", "lagrange" if basis == "lagrange"
                      else "spline", degrees, nelems, [(0.0, 1.0)] * dim,
                      weights=weights)
    if draw(st.booleans()):
        curve(mesh, seed)
    nu = draw(st.floats(0.0, 0.45))
    return SolidModel(mesh, Material(E=draw(st.floats(1.0, 1e6)), nu=nu))


@settings(max_examples=30, deadline=None)
@given(model=solid_models())
def test_solid_kernel_matches_btcb_oracle(model):
    K = model.element_stiffness(np.arange(model.mesh.nelem))
    assert K.shape == (model.mesh.nelem,) + (model.mesh.nen * model.ncomp,) * 2
    for e in range(model.mesh.nelem):
        ref = oracle_solid(model, e)
        assert np.abs(K[e] - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(model.element_stiffness(e), K[e])


@st.composite
def structural_models(draw):
    kind = draw(st.sampled_from(
        ["timoshenko", "euler_bernoulli", "mindlin", "kirchhoff"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind in ("timoshenko", "euler_bernoulli"):
        linear = kind == "timoshenko" and draw(st.booleans())
        degree = 1 if linear else draw(st.integers(2, 3))
        phi = draw(st.sampled_from([0.0, 0.3, -1.1]))
        mesh = build_mesh("beam", "lagrange" if linear else "spline",
                          degree, draw(st.integers(1, 6)), ((0.0, 2.0),),
                          phi=phi)
        if draw(st.booleans()):
            curve(mesh, seed)
        return BeamModel(mesh, MAT, kind)
    degree = draw(st.integers(2 if kind == "kirchhoff" else 1, 3))
    mesh = build_mesh("plate", "spline", degree,
                      tuple(draw(st.integers(1, 4)) for _ in range(2)),
                      ((0.0, 1.0), (0.0, 1.5)))
    if draw(st.booleans()):
        curve(mesh, seed)
    return PlateModel(mesh, MAT, kind)


@settings(max_examples=40, deadline=None)
@given(model=structural_models())
def test_structural_kernels_equal_per_element_oracle(model):
    oracle = oracle_beam if isinstance(model, BeamModel) else oracle_plate
    K = model.element_stiffness(np.arange(model.mesh.nelem))
    for e in range(model.mesh.nelem):
        ref = oracle(model, e)
        assert np.abs(K[e] - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(model.element_stiffness(e), K[e])


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(["solid2d", "solid3d", "beam", "plate"]),
       degree=st.integers(1, 3), nders=st.integers(1, 2),
       one_point=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_bulk_points_batch_equals_per_element_rule(model, degree, nders,
                                                   one_point, seed):
    dim = {"beam": 1, "plate": 2, "solid2d": 2, "solid3d": 3}[model]
    m = curve(build_mesh(model, "spline", degree, 2, [(0.0, 1.0)] * dim),
              seed)
    npts = 1 if one_point else None
    elems = np.arange(m.nelem)[::-1]
    batch = bulk_points(m, elems, npts=npts, nders=nders)
    for row, e in enumerate(elems):
        for a, b, c in zip(batch, oracle_points(m, e, npts, nders),
                           bulk_points(m, int(e), npts, nders)):
            if b is None:
                assert a is None and c is None
                continue
            np.testing.assert_array_equal(a[row], b)
            np.testing.assert_array_equal(c, b)


def dense_bulk(system):
    """Per-element scatter into a dense K of the element matrix of every
    element in a part of its model, on its own row of the part's rule."""
    K = np.zeros((system.ndof, system.ndof))
    for m, off in zip(system.models, system.offsets):
        for elems, rule in m.parts:
            for i, e in enumerate(elems.tolist()):
                quad = None if rule is None else (rule[0][i], rule[1][i])
                d = off + m.element_dofs(e)
                K[np.ix_(d, d)] += m.element_stiffness(e, quad)
    return K


def nonconforming_system():
    solid = SolidModel(build_mesh("solid2d", "spline", 2, (4, 2),
                                  ((0.0, 4.0), (-1.0, 1.0))), MAT)
    beam = BeamModel(build_mesh("beam", "spline", 3, 8, ((0.0, 24.0),),
                                origin=(24.0, 0.0)), MAT)
    sliver = NonconformingModel(beam, OverlapRegion(((-INF, 5.97),)))
    plate = PlateModel(build_mesh("plate", "spline", (3, 2), (6, 5),
                                  ((0.0, 6.0), (0.0, 5.0))), MAT, "kirchhoff")
    cut = NonconformingModel(plate, OverlapRegion(((1.5, 3.7), (-INF, 2.4))))
    # A demoted (starved) cut element and VOID elements: in no part.
    dead = sliver.part_index(np.arange(sliver.mesh.nelem)) < 0
    assert (dead & (sliver.labels == CUT)).any()
    assert (sliver.labels == VOID).any() and dead[sliver.labels == VOID].all()
    assert (cut.labels == CUT).any() and (cut.labels == VOID).any()
    return System([solid, sliver, cut])


def test_bulk_matrix_matches_dense_scatter():
    system = nonconforming_system()
    K = system.bulk_matrix()
    assert K.indices.dtype == np.int32 and K.has_canonical_format
    ref = dense_bulk(system)
    np.testing.assert_allclose(K.toarray(), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


def test_bulk_matrix_flushes_within_budget(monkeypatch):
    system = nonconforming_system()
    # A perturbed net keeps the solid on the batched quadrature path.
    system.models[0].mesh.nodes[7] += (0.05, -0.03)
    ref = system.bulk_matrix().toarray()
    flushes = []
    flush = mesh_mod.add_blocks

    def counted(K, dofs, mats):
        flushes.append(sum(Ke.size for Ke in mats))
        return flush(K, dofs, mats)

    # Room for one solid or two structural element matrices: batches
    # shrink to one or two elements and flush every few batches.
    budget = 400
    monkeypatch.setattr(mesh_mod, "_TRIPLET_BUDGET", budget)
    monkeypatch.setattr(mesh_mod, "add_blocks", counted)
    K = system.bulk_matrix()
    assert len(flushes) > 5
    # A flush holds at most one batch beyond the budget.
    assert max(flushes) < 2 * budget
    assert K.has_canonical_format
    np.testing.assert_allclose(K.toarray(), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


def spy_quadrature(monkeypatch):
    """Record every `stiffness_quadrature` call (the quadrature path),
    from solids and structures alike."""
    calls = []
    kernel = elasticity.stiffness_quadrature

    def spy(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    for module in (elasticity, structural):
        monkeypatch.setattr(module, "stiffness_quadrature", spy)
    return calls


def random_rotation(rng, dim):
    """A proper rotation drawn from ``rng``."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


@st.composite
def separable_solids(draw):
    """Solid meshes as `build_mesh` makes them: 2D and 3D, Lagrange or
    spline of degree 1-4 per direction, optional NURBS weights and
    optional placement by origin and rotation."""
    dim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lagrange = draw(st.booleans())
    degrees = [1 if lagrange else draw(st.integers(1, 4)) for _ in range(dim)]
    nelems = [draw(st.integers(1, 3 if dim == 3 else 4)) for _ in range(dim)]
    lo = rng.uniform(-2.0, 2.0, dim)
    extents = np.stack([lo, lo + rng.uniform(0.3, 3.0, dim)], axis=-1)
    kw = {}
    if not lagrange and draw(st.booleans()):
        kw["weights"] = [rng.uniform(0.5, 2.0, n + p)
                         for n, p in zip(nelems, degrees)]
    if draw(st.booleans()):
        kw["origin"] = rng.uniform(-5.0, 5.0, dim)
        kw["rotation"] = random_rotation(rng, dim)
    return build_mesh(f"solid{dim}d", "lagrange" if lagrange else "spline",
                      degrees, nelems, extents, **kw)


@st.composite
def separable_structures(draw):
    """Beams and plates on the net `build_mesh` makes: Euler-Bernoulli,
    Timoshenko (degree 1 with its one-point shear rule, and higher),
    Kirchhoff and Mindlin; Lagrange or spline of degree up to 4 per
    direction, optional NURBS weights; beams placed at a frame angle."""
    kind = draw(st.sampled_from(
        ["timoshenko", "euler_bernoulli", "mindlin", "kirchhoff"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beam = kind in ("timoshenko", "euler_bernoulli")
    dim = 1 if beam else 2
    c1 = kind in ("euler_bernoulli", "kirchhoff")
    lagrange = not c1 and draw(st.booleans())
    degrees = [1 if lagrange else draw(st.integers(2 if c1 else 1, 4))
               for _ in range(dim)]
    nelems = [draw(st.integers(1, 6 if beam else 4)) for _ in range(dim)]
    lo = rng.uniform(-2.0, 2.0, dim)
    extents = np.stack([lo, lo + rng.uniform(0.3, 3.0, dim)], axis=-1)
    kw = {}
    if not lagrange and draw(st.booleans()):
        kw["weights"] = [rng.uniform(0.5, 2.0, n + p)
                         for n, p in zip(nelems, degrees)]
    if beam:
        kw["phi"] = draw(st.sampled_from([0.0, 0.3, -1.1]))
        kw["origin"] = rng.uniform(-5.0, 5.0, 2)
    mesh = build_mesh("beam" if beam else "plate",
                      "lagrange" if lagrange else "spline", degrees, nelems,
                      extents, **kw)
    return (BeamModel if beam else PlateModel)(mesh, MAT, kind)


@settings(max_examples=80, deadline=None)
@given(st.one_of(separable_solids().map(lambda m: SolidModel(m, MAT)),
                 separable_structures()))
def test_separable_bulk_matches_quadrature(model):
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_quadrature(mp)
        K = System([model]).bulk_matrix()
    assert calls == []
    assert K.indices.dtype == np.int32 and K.has_canonical_format
    assert not (K.data == 0).any()
    e = np.arange(model.mesh.nelem)
    ref = mesh_mod.sum_blocks(K.shape, [model.element_dofs(e)],
                              model.element_stiffness(e))[0]
    ref = ref.toarray()
    np.testing.assert_allclose(K.toarray(), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


def test_perturbed_net_takes_the_quadrature_path(monkeypatch):
    mesh = build_mesh("solid3d", "spline", (2, 1, 3), (3, 2, 2),
                      ((0.0, 3.0), (0.0, 1.0), (0.0, 2.0)))
    mesh.nodes[13] += (0.02, -0.01, 0.03)
    calls = spy_quadrature(monkeypatch)
    system = System([SolidModel(mesh, MAT)])
    K = system.bulk_matrix()
    assert len(calls) == 1 and len(calls[0]) == mesh.nelem
    ref = dense_bulk(system)
    np.testing.assert_allclose(K.toarray(), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("kind", ["timoshenko", "euler_bernoulli",
                                  "mindlin", "kirchhoff"])
def test_perturbed_structure_takes_the_quadrature_path(monkeypatch, kind):
    if kind in ("timoshenko", "euler_bernoulli"):
        mesh = build_mesh("beam", "spline", 3, 5, ((0.0, 4.0),), phi=0.3)
        mesh.nodes[4] += 0.02
        model = BeamModel(mesh, MAT, kind)
    else:
        mesh = build_mesh("plate", "spline", 2, (3, 2),
                          ((0.0, 3.0), (0.0, 2.0)))
        mesh.nodes[6] += (0.02, -0.01)
        model = PlateModel(mesh, MAT, kind)
    calls = spy_quadrature(monkeypatch)
    system = System([model])
    K = system.bulk_matrix()
    assert len(calls) == 1 and len(calls[0]) == mesh.nelem
    ref = dense_bulk(system)
    np.testing.assert_allclose(K.toarray(), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


def test_reflecting_rotation_raises_as_the_quadrature_path():
    mesh = build_mesh("solid2d", "spline", 2, (3, 2),
                      ((0.0, 3.0), (0.0, 1.0)), rotation=np.diag([1.0, -1.0]))
    with pytest.raises(DomainError) as quadrature:
        elasticity.stiffness_quadrature(mesh, np.arange(mesh.nelem),
                                        SolidModel(mesh, MAT).stiffness_form())
    with pytest.raises(DomainError, match="non-positive jacobian") as bulk:
        System([SolidModel(mesh, MAT)]).bulk_matrix()
    assert str(bulk.value) == str(quadrature.value)


def test_bulk_matrix_of_separable_solid_and_beam_is_int32_canonical():
    solid = SolidModel(build_mesh("solid2d", "spline", 3, (5, 2),
                                  ((0.0, 4.0), (-1.0, 1.0))), MAT)
    beam = BeamModel(build_mesh("beam", "spline", 3, 8, ((0.0, 24.0),),
                                origin=(4.0, 0.0)), MAT)
    system = System([solid, beam])
    K = system.bulk_matrix()
    assert K.indices.dtype == np.int32 and K.indptr.dtype == np.int32
    assert K.has_canonical_format and not (K.data == 0).any()
    ref = dense_bulk(system)
    np.testing.assert_allclose(K.toarray(), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


def oracle_facet_load(model, axis, side, npts, load, strip=None):
    """Per-facet loop over the reference facets: one shape evaluation and
    one scatter per facet, on that facet's points of one face rule;
    ``load(w, N, phys)`` gives the ``(nen, ncomp)`` facet load from the
    rule weights, shape values and points."""
    mesh = model.mesh
    out = np.zeros(model.ndof)
    _, parent, phys, w, _, _ = facet_rules(mesh, axis, side, npts, strip)
    facets = boundary_facets(mesh, axis, side, strip=strip)
    nq = len(w) // len(facets)
    for i, (e, _) in enumerate(facets):
        q = slice(i * nq, (i + 1) * nq)
        N, _, _ = mesh.shape_ders(e, mesh.parent_to_local(e, parent[q]),
                                  nders=0)
        out[model.element_dofs(e)] += load(w[q], N, phys[q]).ravel()
    return out


@settings(max_examples=30, deadline=None)
@given(model=solid_models(), data=st.data())
def test_traction_force_equals_per_facet_loop(model, data):
    mesh = model.mesh
    axis = data.draw(st.integers(0, mesh.dim - 1))
    side = data.draw(st.sampled_from([-1, 1]))
    strip = [None] * (mesh.dim - 1)
    if data.draw(st.booleans()):
        strip[0] = (0.2, 0.7)

    def traction(x):
        return np.sin(x + np.arange(mesh.dim))

    np.testing.assert_array_equal(
        model.traction_force(axis, side, traction, strip=strip),
        oracle_facet_load(model, axis, side, max(mesh.degrees) + 1,
                          lambda w, N, x: np.einsum("q,qn,qc->nc", w, N,
                                                    traction(x)), strip))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["mindlin", "kirchhoff"]),
       degree=st.integers(1, 3), nelems=st.tuples(st.integers(1, 4),
                                                  st.integers(1, 4)),
       axis=st.integers(0, 1), side=st.sampled_from([-1, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_edge_load_equals_per_facet_loop(kind, degree, nelems, axis, side,
                                         seed):
    degree = max(degree, 2) if kind == "kirchhoff" else degree
    mesh = curve(build_mesh("plate", "lagrange" if degree == 1 else "spline",
                            degree, nelems, ((0.0, 1.0), (0.0, 1.5))), seed)
    model = PlateModel(mesh, MAT, kind)
    q = -2.5

    def load(w, N, x):
        # The traction sum, with the line load on w and zero elsewhere.
        t = np.tile(q * np.eye(model.ncomp_node)[0], (len(w), 1))
        return np.einsum("q,qn,qc->nc", w, N, t)

    np.testing.assert_array_equal(
        model.edge_load(axis, side, q),
        oracle_facet_load(model, axis, side, degree + 1, load))


def test_facet_loads_evaluate_shapes_once(monkeypatch):
    """The facet rule's shape values feed the load: one evaluation each."""
    solid = SolidModel(build_mesh("solid3d", "spline", 2, (2, 1, 1),
                                  [(0.0, 1.0)] * 3), MAT)
    plate = PlateModel(build_mesh("plate", "spline", 2, (2, 2),
                                  ((0.0, 1.0), (0.0, 1.5))), MAT, "mindlin")
    calls = []
    shape_ders = mesh_mod.Mesh.shape_ders

    def counted(self, *args, **kwargs):
        calls.append(1)
        return shape_ders(self, *args, **kwargs)

    monkeypatch.setattr(mesh_mod.Mesh, "shape_ders", counted)
    solid.traction_force(0, 1, (1.0, 0.0, 0.0))
    assert len(calls) == 1
    plate.edge_load(1, -1, 2.0)
    assert len(calls) == 2
