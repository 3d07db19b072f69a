"""Batched point recovery and the interface-only alpha iteration, against
per-point and full-space oracles kept in this file.

`oracle_sample` locates one point at a time (`oracles.locate_point`: a
scan of the element intervals, a value on an interior knot belonging to
the element it opens) and recovers it through the scalar-element API. `full_space_alpha` is the power iteration on
K~^-1 H over all free DOFs, one sparse solve per step.
"""
import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from mdfem import bench, coupling, system
from mdfem import mesh as mesh_mod
from mdfem.cli import main
from mdfem.coupling import build_interface
from mdfem.elasticity import Material, SolidModel
from mdfem.errors import ConvergenceError, DomainError
from mdfem.mesh import build_mesh
from mdfem.nonconforming import NonconformingModel, OverlapRegion
from mdfem.structural import BeamModel, PlateModel
from oracles import element_interval, locate_point

MAT = Material(E=2.1e5, nu=0.3, thickness=0.4, width=0.5)
INF = float("inf")


def oracle_sample(model, a, pts):
    mesh = model.mesh
    us, ss = [], []
    for x in pts:
        e, parent = locate_point(mesh, x)
        parent = parent[None, :]
        if mesh.model in ("beam", "plate"):
            u, s = model.recover(e, parent, np.zeros(1), a)
        else:
            u, s = model.recover(e, parent, a)
        us.append(u[0])
        ss.append(s[0])
    return np.array(us), np.array(ss)


def _solid(dim, basis, rng):
    nelems = tuple(rng.integers(1, 4, dim))
    degrees = (1,) * dim if basis == "lagrange" else tuple(
        rng.integers(1, 4 if dim == 2 else 3, dim))
    extents = [(-1.0, 2.0), (0.5, 1.5), (0.0, 0.7)][:dim]
    mesh = build_mesh(f"solid{dim}d", basis, degrees, nelems, extents)
    return SolidModel(mesh, MAT)


def _beam(theory, basis, phi, rng):
    degree = 1 if basis == "lagrange" else int(rng.integers(2, 4))
    mesh = build_mesh("beam", basis, degree, int(rng.integers(1, 5)),
                      ((0.0, 3.0),), origin=(1.0, -0.5), phi=phi)
    return BeamModel(mesh, MAT, theory=theory)


def _plate(theory, rng):
    degree = int(rng.integers(2, 4))
    nelems = tuple(rng.integers(1, 4, 2))
    mesh = build_mesh("plate", "spline", degree, nelems,
                      ((0.0, 2.0), (1.0, 2.5)), z_mid=0.3)
    return PlateModel(mesh, MAT, theory=theory)


MODELS = {
    "solid2d-lagrange": lambda rng: _solid(2, "lagrange", rng),
    "solid2d-spline": lambda rng: _solid(2, "spline", rng),
    "solid3d-lagrange": lambda rng: _solid(3, "lagrange", rng),
    "solid3d-spline": lambda rng: _solid(3, "spline", rng),
    "timoshenko": lambda rng: _beam("timoshenko", "lagrange", 0.0, rng),
    "timoshenko-rotated": lambda rng: _beam("timoshenko", "spline", 0.7, rng),
    "euler-bernoulli": lambda rng: _beam("euler_bernoulli", "spline", 0.0,
                                         rng),
    "mindlin": lambda rng: _plate("mindlin", rng),
    "kirchhoff": lambda rng: _plate("kirchhoff", rng),
    "nonconforming-plate": lambda rng: NonconformingModel(
        _plate("mindlin", rng), OverlapRegion(((-INF, 0.9), (-INF, INF)))),
    "nonconforming-beam": lambda rng: NonconformingModel(
        _beam("timoshenko", "spline", 0.0, rng), OverlapRegion(((-INF, 1.3),))),
}


def sample_set(mesh, rng, npts):
    """Points mixing interior values, element boundaries, box ends and
    values within the clamping tolerance of the box, plus every corner."""
    cols = []
    for k, d in enumerate(mesh.dirs):
        lo, hi = mesh.box[k]
        breaks = np.array([element_interval(d, i)[0] for i in range(d.nelem)]
                          + [hi])
        pool = np.concatenate([rng.uniform(lo, hi, npts), breaks,
                               [lo - 1e-14 * (hi - lo), hi + 1e-14 * (hi - lo)]])
        cols.append(rng.choice(pool, npts))
    corners = np.stack(np.meshgrid(*mesh.box, indexing="ij"),
                       axis=-1).reshape(-1, mesh.dim)
    return np.concatenate([np.stack(cols, axis=-1), corners])


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), npts=st.integers(1, 25))
def test_sample_points_matches_per_point_oracle(kind, seed, npts):
    rng = np.random.default_rng(seed)
    model = MODELS[kind](rng)
    a = rng.standard_normal(model.ndof)
    pts = sample_set(model.mesh, rng, npts)
    u, s = bench.sample_points(model, a, pts)
    want_u, want_s = oracle_sample(model, a, pts)
    np.testing.assert_array_equal(u, want_u)
    np.testing.assert_array_equal(s, want_s)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_points_outside_raise(kind):
    rng = np.random.default_rng(3)
    model = MODELS[kind](rng)
    a = np.zeros(model.ndof)
    mesh = model.mesh
    for k in range(mesh.dim):
        lo, hi = mesh.box[k]
        for bad in (lo - 1e-6 * (hi - lo), hi + 1e-6 * (hi - lo)):
            pts = sample_set(mesh, rng, 4)
            pts[2, k] = bad
            # Names the direction, the local coordinate and the box range.
            msg = re.escape(f"local coordinate {pts[2, k]} outside "
                            f"direction {k} range [{lo}, {hi}]")
            with pytest.raises(DomainError, match=msg):
                bench.sample_points(model, a, pts)
            with pytest.raises(DomainError, match=msg):
                mesh.element_containing(pts[2])


@pytest.mark.parametrize("method", ["recover", "trace"])
@pytest.mark.parametrize("kind", ["solid2d-spline", "solid3d-lagrange",
                                  "timoshenko", "euler-bernoulli", "mindlin",
                                  "kirchhoff"])
def test_mismatched_point_counts_raise(kind, method):
    """An element array of another length than the points, a parent point
    of another dimension than the mesh's and, for beams and plates,
    section offsets neither one nor one per point are each a DomainError
    naming the expected and the received shapes."""
    model = MODELS[kind](np.random.default_rng(3))
    dim, a = model.mesh.dim, np.zeros(model.ndof)
    section = model.mesh.model in ("beam", "plate")

    def call(e, parent, offset=0.1):
        return getattr(model, method)(
            e, parent, *[offset] * section, *[a] * (method == "recover"))

    pts = np.zeros((2, dim))
    call(np.array([0, 0]), pts)
    cases = [(np.array([0, 0, 0]), pts, 0.1,
              f"expected points of shape (2, {dim}) and one element or 2, "
              f"got points of shape (2, {dim}) and elements (3,)"),
             (0, np.zeros((1, dim + 1)), 0.1,
              f"expected points of shape (1, {dim}) and one element or 1, "
              f"got points of shape (1, {dim + 1}) and elements ()")]
    if section:
        cases.append((0, pts, [0.1, 0.0, -0.1], "expected 1 or 2 section "
                      "offsets for 2 points, got shape (3,)"))
    for e, parent, offset, msg in cases:
        with pytest.raises(DomainError, match=re.escape(msg)):
            call(e, parent, offset)


@pytest.mark.parametrize("kind", ["solid2d-spline", "timoshenko-rotated",
                                  "kirchhoff", "nonconforming-plate"])
def test_one_recover_call_per_sample_set(kind, monkeypatch):
    rng = np.random.default_rng(5)
    model = MODELS[kind](rng)
    inner = getattr(model, "_model", model)
    recover = type(inner).recover
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return recover(self, *args, **kwargs)

    monkeypatch.setattr(type(inner), "recover", counted)
    a = rng.standard_normal(model.ndof)
    u, _ = bench.sample_points(model, a, sample_set(model.mesh, rng, 30))
    assert len(calls) == 1
    assert u.shape[0] == 30 + 2 ** model.mesh.dim


# Alpha: interface-only iteration against the full-space one ---------------


def full_space_alpha(K_solid, K_struct, H, seed=0, tol=1e-8, maxiter=5000):
    """Power iteration on K~^-1 H over every free DOF: ``(alpha, steps)``."""
    H = sp.csr_matrix(H)
    ns, nb = K_solid.shape[0], K_struct.shape[0]
    lu = splu(sp.csc_matrix(K_solid))
    w, Q = np.linalg.eigh(K_struct)
    null = w <= 1e-10 * w.max()
    Qn, Qp, wp = Q[:, null], Q[:, ~null], w[~null]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(ns + nb)
    v[ns:] -= Qn @ (Qn.T @ v[ns:])
    v /= np.linalg.norm(v)
    lam_old = None
    for step in range(1, maxiter + 1):
        y = H @ v
        kv = np.concatenate([K_solid @ v[:ns], K_struct @ v[ns:]])
        lam = float(v @ y) / float(v @ kv)
        if lam_old is not None and abs(lam - lam_old) <= tol * abs(lam):
            return lam / 2.0, step
        lam_old = lam
        x = np.concatenate([lu.solve(y[:ns]), Qp @ ((Qp.T @ y[ns:]) / wp)])
        v = x / np.linalg.norm(x)
    raise ConvergenceError("oracle did not converge")


def estimate_inputs(monkeypatch, sysm):
    """``(K_solid, solve_solid, K_struct, H)``: the solid block
    `System.resolve_alpha` factors and what it hands to the estimator."""
    seen = []
    factor = system._factor_spd

    def factor_solid(K, free, points):
        seen.append(K.tocsr()[free][:, free])
        return factor(K, free, points)

    def capture(*a):
        seen.extend(a)
        return 1.0

    with monkeypatch.context() as m:
        m.setattr(system, "_factor_spd", factor_solid)
        m.setattr(system, "estimate_alpha", capture)
        sysm.resolve_alpha("auto")
    return seen


def _cantilever(*args):
    return bench.cantilever_system(*args)["system"]


def _euler_bernoulli_cantilever():
    """Clamped bi-cubic solid with a free Euler-Bernoulli beam: two rigid
    beam modes hang off the interface."""
    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
    solid = SolidModel(build_mesh("solid2d", "spline", 3, (8, 2),
                                  ((0.0, 24.0), (-3.0, 3.0))), mat)
    beam = BeamModel(build_mesh("beam", "spline", 3, 4, ((0.0, 24.0),),
                                origin=(24.0, 0.0)), mat, "euler_bernoulli")
    sysm = system.System([solid, beam])
    sysm.add_coupling(build_interface(solid, beam, axis=0, side=1))
    clamped = np.nonzero(np.abs(solid.mesh.nodes[:, 0]) < 1e-12)[0]
    sysm.fix(0, np.concatenate([2 * clamped, 2 * clamped + 1]))
    return sysm


@pytest.mark.parametrize("make,rigid", [
    (lambda: _cantilever("lagrange", 1, (40, 10), 29), 3),
    (lambda: _cantilever("spline", 3, (16, 4), 4), 3),
    (_euler_bernoulli_cantilever, 2),
], ids=["q4", "bicubic", "euler-bernoulli"])
def test_interface_alpha_matches_full_space(make, rigid, monkeypatch):
    Ks, solve, Kb, H = estimate_inputs(monkeypatch, make())
    # The free beam's rigid modes are deflated by both iterations.
    w = np.linalg.eigvalsh(Kb)
    assert np.sum(w <= 1e-10 * w.max()) == rigid
    want, steps = full_space_alpha(Ks, Kb, H)
    assert coupling.estimate_alpha(solve, Kb, H) == pytest.approx(want,
                                                                 rel=1e-12)
    # Same stopping test, same number of steps.
    monkeypatch.setattr(coupling, "_ALPHA_MAXITER", steps)
    coupling.estimate_alpha(solve, Kb, H)
    monkeypatch.setattr(coupling, "_ALPHA_MAXITER", steps - 1)
    with pytest.raises(ConvergenceError):
        coupling.estimate_alpha(solve, Kb, H)


def test_interface_inverse_in_column_chunks(monkeypatch):
    Ks, solve, Kb, H = estimate_inputs(monkeypatch,
                                       _cantilever("lagrange", 1, (8, 4), 5))
    want = coupling.estimate_alpha(solve, Kb, H)
    widths = []

    def counted(b):
        widths.append(b.shape[1])
        return solve(b)

    monkeypatch.setattr(mesh_mod, "_TRIPLET_BUDGET", 3 * Ks.shape[0])
    assert coupling.estimate_alpha(counted, Kb, H) == pytest.approx(
        want, rel=1e-13)
    assert len(widths) > 1 and max(widths) == 3


def test_alpha_command_does_not_solve(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "q4.json"
    cfg.write_text(json.dumps({"type": "cantilever",
                               "solid": {"nelems": [8, 2]},
                               "beam": {"nelems": 6}}), encoding="utf-8")
    state = bench.cantilever_system("lagrange", 1, (8, 2), 6)
    alpha = state["system"].solve().alphas[0]

    def no_solve(self, *args, **kwargs):
        raise AssertionError("alpha must not solve")

    monkeypatch.setattr(system.System, "solve", no_solve)
    assert main(["alpha", str(cfg)]) == 0
    assert capsys.readouterr().out == (f"alpha = {alpha:.6e}\n"
                                       f"lambda1 = {2.0 * alpha:.6e}\n")


def test_bench_all_hands_results_to_later_cases(tmp_path, monkeypatch):
    """A case taking an earlier case's metric gets it in `bench all` and
    writes the same config.json and metrics.csv as when run alone."""
    runs = []

    def source():
        runs.append("source")
        return {"tip": 2.5}

    def sink(ref=None):
        runs.append("sink" if ref is None else "sink+ref")
        if ref is None:
            ref = source()["tip"]
        return {"ref": ref, "ratio": ref / 5.0}

    monkeypatch.setattr(bench, "CASES", {
        "src": bench.BenchCase(source, {"tip": (0.0, 3.0)}),
        "snk": bench.BenchCase(sink, {"ratio": (0.0, 1.0)},
                               {"ref": ("src", "tip")})})
    assert main(["bench", "all", "--out-dir", str(tmp_path / "all"),
                 "--quiet"]) == 0
    assert runs == ["source", "sink+ref"]
    assert main(["bench", "snk", "--out-dir", str(tmp_path / "one"),
                 "--quiet"]) == 0
    assert runs[2:] == ["sink", "source"]
    for name in ("config.json", "metrics.csv"):
        assert (tmp_path / "all" / "snk" / name).read_bytes() == (
            tmp_path / "one" / "snk" / name).read_bytes()
