"""Canonical coupled configurations and their reference solutions.

Every case assembles a full mixed-dimensional system, solves it, and
returns a flat metrics dictionary (deflections, error norms, the
stabilization value used). ``run_case`` adds wall time; ``check_case``
compares the metrics against the bounds each case is expected to meet.
The 2D cantilever cases are measured against the closed-form
plane-stress solution in :func:`timoshenko_exact`; the 3D and frame
cases compare the mixed model against a full continuum solve built here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .bspline import least_squares_project
from .coupling import build_interface
from .elasticity import Material, SolidModel
from .errors import ConfigError, DefinitenessError
from .mesh import build_mesh
from .nonconforming import NonconformingModel, OverlapRegion
from .structural import BeamModel, PlateModel
from .system import System

# End-loaded cantilever: geometry, material and load of the 2D cases.
CANTILEVER = {"E": 3.0e7, "nu": 0.3, "D": 6.0, "L": 48.0, "P": 1000.0}

# Cantilever plate: a 3D solid strip continued by a plate model, tied
# with a fixed stabilization.
PLATE3D = {"E": 1000.0, "nu": 0.3, "length": 320.0, "width": 25.0,
           "thickness": 20.0, "edge_load": 10.0, "alpha": 5.0e3}

# Clamped square plate with an embedded solid patch under gravity: the
# fixed stabilization and the x shift of the relocated rerun.
SQUARE_PLATE = {"E": 1000.0, "nu": 0.3, "span": 400.0, "thickness": 20.0,
                "patch": 100.0, "pressure": 10.0, "alpha": 1.0e6,
                "shift": 20.0}


def timoshenko_exact(x, y, consts=None):
    """Closed-form plane-stress cantilever under a parabolic end shear.

    The strip occupies [0, L] x [-D/2, D/2], carries a downward end load
    of resultant P, and is held at x = 0 by prescribing this very field.
    Returns ``(u_x, u_y, s_xx, s_yy, s_xy)`` evaluated at broadcastable
    coordinates.
    """
    c = CANTILEVER if consts is None else consts
    E, nu, D, L, P = (c[k] for k in ("E", "nu", "D", "L", "P"))
    inertia = D**3 / 12.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ux = P * y / (6.0 * E * inertia) * (
        (6.0 * L - 3.0 * x) * x + (2.0 + nu) * (y**2 - D**2 / 4.0)
    )
    uy = -P / (6.0 * E * inertia) * (
        3.0 * nu * y**2 * (L - x)
        + (4.0 + 5.0 * nu) * D**2 * x / 4.0
        + (3.0 * L - x) * x**2
    )
    sxx = P * (L - x) * y / inertia
    syy = np.zeros(np.broadcast(x, y).shape)
    sxy = -P / (2.0 * inertia) * (D**2 / 4.0 - y**2)
    return ux, uy, sxx, syy, sxy


# Sampling helpers -----------------------------------------------------


def sample_points(model, a_model, points):
    """Displacement and stress of a model at local-coordinate points.

    All points are located in one call (`Mesh.locate`) and recovered in
    one call, each in its own element. Beams and plates are read on
    their mid-line or mid-surface. Returns ``(u, s)`` with one row per
    point.
    """
    mesh = model.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    elems, parent = mesh.locate(pts)
    if mesh.model in ("beam", "plate"):
        return model.recover(elems, parent, np.zeros(len(pts)), a_model)
    return model.recover(elems, parent, a_model)


def _rel_l2(err, ref, xs):
    num = np.trapezoid(np.asarray(err) ** 2, xs)
    den = np.trapezoid(np.asarray(ref) ** 2, xs)
    return float(np.sqrt(num / den))


# End-loaded cantilever (2D) -------------------------------------------


def _edge_exact_clamp(solid, consts):
    """DOFs and values pinning the closed form on the x = 0 edge.

    Lagrange meshes take nodal values; spline meshes take the
    least-squares projection of the edge trace onto the edge basis,
    which the open knot vector makes interpolatory in x.
    """
    mesh = solid.mesh
    x_edge = mesh.box[0, 0]
    if mesh.basis == "lagrange":
        ids = np.nonzero(np.abs(mesh.nodes[:, 0] - x_edge) < 1e-9)[0]
        ux, uy, *_ = timoshenko_exact(x_edge, mesh.nodes[ids, 1], consts)
        return np.concatenate([2 * ids, 2 * ids + 1]), np.concatenate([ux, uy])
    dy = mesh.dirs[1]

    def trace(y):
        ux, uy, *_ = timoshenko_exact(x_edge, y, consts)
        return np.stack([ux, uy], axis=-1)

    coeffs = least_squares_project(dy, trace)
    ids = mesh.dirs[0].n * np.arange(dy.n)
    dofs = np.concatenate([2 * ids, 2 * ids + 1])
    return dofs, np.concatenate([coeffs[:, 0], coeffs[:, 1]])


def centerline_profile(solid, struct, a_s, a_b, consts, nsample):
    """Sampled u_y along y = 0: arrays ``(x, computed, exact)``.

    Points left of the solid's right face are read from the solid,
    the rest from the structural model.
    """
    split = solid.mesh.box[0, 1]
    xs = np.linspace(0.0, consts["L"], nsample)
    left = xs <= split
    uy = np.empty(nsample)
    uy[left] = sample_points(
        solid, a_s, np.column_stack([xs[left], np.zeros(left.sum())]))[0][:, 1]
    uy[~left] = sample_points(
        struct, a_b, (xs[~left] - struct.mesh.origin[0])[:, None])[0][:, 1]
    ref = timoshenko_exact(xs, 0.0, consts)[1]
    return xs, uy, ref


def _region_disp_error(solid, a_s, consts):
    """Relative L2 error of the displacement vector over the solid box,
    sampled on a 21 x 7 grid."""
    nx, ny = 21, 7
    (x0, x1), (y0, y1) = solid.mesh.box
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    u = sample_points(solid, a_s, np.column_stack([X.ravel(), Y.ravel()]))[0]
    uex = np.stack(timoshenko_exact(X, Y, consts)[:2], axis=-1)
    err = np.sum((u.reshape(nx, ny, 2) - uex) ** 2, axis=-1)
    ref = np.sum(uex**2, axis=-1)
    num = np.trapezoid(np.trapezoid(err, ys, axis=1), xs)
    den = np.trapezoid(np.trapezoid(ref, ys, axis=1), xs)
    return float(np.sqrt(num / den))


def _line_stress_error(solid, a_s, consts, x, row):
    """Relative L2 error of Voigt stress ``row`` along the vertical line
    at ``x``, sampled at 33 points: the bending stress (0) or the shear
    (2)."""
    ys = np.linspace(-0.5 * consts["D"], 0.5 * consts["D"], 33)
    vals = sample_points(solid, a_s,
                         np.column_stack([np.full_like(ys, x), ys]))[1][:, row]
    ref = timoshenko_exact(x, ys, consts)[2 + row]
    return _rel_l2(vals - ref, ref, ys)


def _cantilever_metrics(sysm, sol, solid, struct, consts, nsample):
    a_s = sysm.model_part(sol.a, 0)
    a_b = sysm.model_part(sol.a, 1)
    tip = sample_points(struct, a_b, [struct.mesh.box[0, 1]])[0][0, 1]
    tip_exact = float(timoshenko_exact(consts["L"], 0.0, consts)[1])
    xs, uy, ref = centerline_profile(solid, struct, a_s, a_b, consts,
                                     nsample)
    return {
        "alpha": float(sol.alphas[0]) if sol.alphas else 0.0,
        "tip_uy": float(tip),
        "tip_uy_exact": tip_exact,
        "tip_rel_err": abs(tip - tip_exact) / abs(tip_exact),
        "centerline_uy_rel_l2": _rel_l2(uy - ref, ref, xs),
        "region_disp_rel_l2": _region_disp_error(solid, a_s, consts),
        "sxx_line_rel_l2": _line_stress_error(solid, a_s, consts, 12.0, 0),
        "interface_sxy_rel_l2": _line_stress_error(
            solid, a_s, consts, solid.mesh.box[0, 1], 2),
        "residual": float(sol.residual),
        "_centerline": np.column_stack([xs, uy, ref]),
        "_solve": sol.stats,
    }


def cantilever_system(basis, degree, solid_nelems, beam_nelems, *, nu=None,
                      solid_span=(0.0, 24.0), beam_span=(24.0, 48.0),
                      covered_to=None, ncut=10, threshold=0.01, consts=None):
    """Set up one cantilever split at l_c, coupled, clamped and loaded but
    not solved. Returns ``{"system", "solid", "struct", "consts"}``.

    ``covered_to`` switches the beam to a non-conforming overlap: the
    part of the beam axis left of that global coordinate is treated as
    covered by the solid. ``consts`` replaces the canonical material
    and load data; ``nu`` overrides just the Poisson ratio.
    """
    consts = dict(CANTILEVER if consts is None else consts)
    if nu is not None:
        consts["nu"] = nu
    mat = Material(E=consts["E"], nu=consts["nu"], thickness=consts["D"])
    half = 0.5 * consts["D"]
    solid = SolidModel(build_mesh("solid2d", basis, degree, solid_nelems,
                                  (solid_span, (-half, half))), mat)
    beam = BeamModel(build_mesh("beam", basis, degree, beam_nelems,
                                ((0.0, beam_span[1] - beam_span[0]),),
                                origin=(beam_span[0], 0.0)),
                     mat, theory="timoshenko")
    struct = beam
    if covered_to is not None:
        region = OverlapRegion(((-np.inf, covered_to - beam_span[0]),))
        struct = NonconformingModel(beam, region, ncut=ncut,
                                    threshold=threshold)
    sysm = System([solid, struct])
    sysm.add_coupling(build_interface(solid, struct, axis=0, side=1))
    dofs, vals = _edge_exact_clamp(solid, consts)
    sysm.fix(0, dofs, vals)
    sysm.load(1, beam.point_load(beam.mesh.box[0, 1],
                                 (0.0, -consts["P"], 0.0)))
    return {"system": sysm, "solid": solid, "struct": struct,
            "consts": consts}


def run_cantilever(basis, degree, solid_nelems, beam_nelems, *,
                   alpha="auto", nsample=97, return_state=False, **setup):
    """Set up (`cantilever_system`, which takes ``setup``), solve and
    measure one cantilever split at l_c. With ``return_state`` the
    assembled objects and the solution come back alongside the metrics
    for artifact writers.
    """
    state = cantilever_system(basis, degree, solid_nelems, beam_nelems,
                              **setup)
    sysm = state["system"]
    sol = state["solution"] = sysm.solve(alpha=alpha)
    metrics = _cantilever_metrics(sysm, sol, state["solid"], state["struct"],
                                  state["consts"], nsample)
    return (metrics, state) if return_state else metrics


def _case_timo_q4_conforming():
    return run_cantilever("lagrange", 1, (40, 10), 29, alpha=4.7128e7)


def _case_timo_q4_alpha_auto():
    metrics = run_cantilever("lagrange", 1, (40, 10), 29, alpha="auto")
    try:
        run_cantilever("lagrange", 1, (40, 10), 29,
                        alpha=metrics["alpha"] / 100.0)
        metrics["understabilized_fails"] = 0.0
    except DefinitenessError:
        metrics["understabilized_fails"] = 1.0
    return metrics


def _case_timo_spline_conforming():
    return run_cantilever("spline", 3, (16, 4), 4, alpha=5.5e9)


def _case_timo_spline_shear_study():
    """Interface shear mismatch with and without the Poisson effect.

    The reduced model cannot carry the parabolic shear profile, so the
    solid side inherits a boundary-layer error; switching off nu removes
    most of the model mismatch and the profile error must drop.
    """
    with_nu = _case_timo_spline_conforming()
    without = run_cantilever("spline", 3, (16, 4), 4, nu=0.0, alpha="auto")
    return {
        "interface_sxy_rel_l2_nu03": with_nu["interface_sxy_rel_l2"],
        "interface_sxy_rel_l2_nu00": without["interface_sxy_rel_l2"],
        "mismatch_ratio": (without["interface_sxy_rel_l2"]
                           / with_nu["interface_sxy_rel_l2"]),
        "alpha_nu03": with_nu["alpha"],
        "alpha_nu00": without["alpha"],
    }


def _case_timo_spline_refinement():
    """Displacement error under two rounds of knot-span halving.

    The stabilization is held at the canonical fixed value for every
    level: the spectral estimate grows like 1/h, and letting it tighten
    the interface from level to level would change the comparison basis.
    The ladder starts coarse because the closed-form field is piecewise
    cubic, so the bi-cubic basis leaves nothing to converge once the
    discretization error drops under the dimensional-reduction floor.
    """
    errs = []
    for solid_nelems, beam_nelems in (((2, 1), 1), ((4, 2), 2), ((8, 4), 4)):
        m = run_cantilever("spline", 3, solid_nelems, beam_nelems,
                            alpha=5.5e9)
        errs.append(m["region_disp_rel_l2"])
    return {
        "err_level0": errs[0],
        "err_level1": errs[1],
        "err_level2": errs[2],
        "ratio_10": errs[1] / errs[0],
        "ratio_21": errs[2] / errs[1],
    }


def _case_timo_nonconforming():
    """Solid overlapping the beam mesh, cut close to an element boundary.

    The cut at l_c leaves an uncovered sliver of one beam element that no
    cut rule point sees: that element reads VOID and the control points
    left without support are pinned, which also makes the spectral
    stabilization estimate unavailable, so alpha is fixed. The
    conforming twin re-meshes the beam to start exactly at l_c on the
    same solid mesh.
    """
    l_c = 29.97
    metrics = run_cantilever("spline", 3, (32, 4), 8, alpha=1.0e10,
                              solid_span=(0.0, l_c), covered_to=l_c)
    twin = run_cantilever("spline", 3, (32, 4), 8, alpha="auto",
                           solid_span=(0.0, l_c), beam_span=(l_c, 48.0))
    metrics["conforming_tip_uy"] = twin["tip_uy"]
    metrics["tip_vs_conforming_rel"] = (
        abs(metrics["tip_uy"] - twin["tip_uy"]) / abs(twin["tip_uy"])
    )
    return metrics


# Plane frame ----------------------------------------------------------


def _case_frame(P=1.0):
    """L-frame: beam column and beam span tied to a solid joint panel.

    The vertical member runs up global y, turns through a continuum
    joint patch, and continues horizontally; the span tip carries a
    vertical point load. The reference solution solves the same L-shaped
    body as a single continuum with the region outside the members
    deactivated. E is sized so the fixed stabilization sits within the
    spectral estimate's validity band. ``P`` scales the load.
    """
    depth, column, joint_top, span_end = 3.0, 37.5, 49.5, 48.0
    mat = Material(E=3.0e6, nu=0.3, thickness=depth)
    half = 0.5 * depth
    y_span = joint_top - half

    smesh = build_mesh("solid2d", "lagrange", 1, (8, 32),
                       ((-half, half), (column, joint_top)))
    solid = SolidModel(smesh, mat)
    cmesh = build_mesh("beam", "lagrange", 1, 25, ((0.0, column),),
                       origin=(0.0, 0.0), phi=0.5 * np.pi)
    col = BeamModel(cmesh, mat)
    vmesh = build_mesh("beam", "lagrange", 1, 31, ((half, span_end),),
                       origin=(0.0, y_span))
    span = BeamModel(vmesh, mat)

    sysm = System([solid, col, span])
    sysm.add_coupling(build_interface(solid, col, axis=1, side=-1))
    sysm.add_coupling(build_interface(solid, span, axis=0, side=1,
                                      strip=((joint_top - depth, joint_top),)))
    sysm.fix(1, [0, 1, 2])
    sysm.load(2, span.point_load(span_end, (0.0, -P, 0.0)))
    sol = sysm.solve(alpha=1.0e7)
    tip = sample_points(span, sysm.model_part(sol.a, 2), [span_end])[0][0]
    drift = sample_points(col, sysm.model_part(sol.a, 1), [column])[0][0]

    # Continuum reference: the L-shaped member outline carved out of one
    # box mesh via the overlap machinery (the notch is a void region).
    h = 0.375
    nx = round((span_end + half) / h)
    ny = round(joint_top / h)
    box = build_mesh("solid2d", "lagrange", 1, (nx, ny),
                     ((-half, span_end), (0.0, joint_top)))
    ref = NonconformingModel(
        SolidModel(box, mat),
        OverlapRegion(((half, np.inf), (-np.inf, joint_top - depth))),
    )
    rsys = System([ref])
    base = np.nonzero(np.abs(box.nodes[:, 1]) < 1e-9)[0]
    rsys.fix(0, np.concatenate([2 * base, 2 * base + 1]))
    rsys.load(0, ref.traction_force(0, 1, (0.0, -P / depth),
                                    strip=((joint_top - depth, joint_top),)))
    rsol = rsys.solve()
    ref_tip = sample_points(ref, rsol.a, (span_end, y_span))[0][0]

    return {
        "alpha": float(sol.alphas[0]),
        "tip_uy": float(tip[1]),
        "tip_ux": float(tip[0]),
        "column_top_uy": float(drift[1]),
        "reference_tip_uy": float(ref_tip[1]),
        "tip_vs_reference_rel": abs(tip[1] - ref_tip[1]) / abs(ref_tip[1]),
        "residual": float(max(sol.residual, rsol.residual)),
        "_solve": sol.stats,
    }


# Cantilever plate (3D) ------------------------------------------------


def _face_dofs(mesh, ncomp):
    """All DOFs on the x = lo face (first-direction node index zero)."""
    n0 = mesh.dirs[0].n
    ids = np.nonzero(np.arange(mesh.nnodes) % n0 == 0)[0]
    return (ids[:, None] * ncomp + np.arange(ncomp)).ravel()


def _plate3d_solid(x_hi, nelems):
    c = PLATE3D
    mat = Material(E=c["E"], nu=c["nu"], thickness=c["thickness"])
    mesh = build_mesh("solid3d", "spline", 3, nelems,
                      ((0.0, x_hi), (0.0, c["width"]),
                       (0.0, c["thickness"])))
    return SolidModel(mesh, mat), mat


def _case_plate3d_reference():
    """Full tri-cubic continuum solve of the cantilever plate."""
    c = PLATE3D
    solid, _ = _plate3d_solid(c["length"], (64, 4, 5))
    sysm = System([solid])
    sysm.fix(0, _face_dofs(solid.mesh, 3))
    sysm.load(0, solid.traction_force(
        0, 1, (0.0, 0.0, -c["edge_load"] / c["thickness"])))
    sol = sysm.solve()
    tip = sample_points(solid, sol.a, (c["length"], 0.5 * c["width"],
                                       0.5 * c["thickness"]))[0][0]
    return {"tip_uz": float(tip[2]), "residual": float(sol.residual),
            "_solve": sol.stats}


def _run_plate3d_mda(theory, l_c):
    """The solid clamped at x = 0 and tied at its end x = l_c to a plate
    under the edge load: a 16 x 2 plate from x = 160 (l_c None), or a
    32 x 2 plate over the whole length whose part x < l_c the solid
    covers (`NonconformingModel`)."""
    c, half = PLATE3D, 0.5 * PLATE3D["length"]
    solid, mat = _plate3d_solid(half if l_c is None else l_c, (32, 4, 5))
    pmesh = build_mesh("plate", "spline", 3, (16 if l_c is None else 32, 2),
                       ((half if l_c is None else 0.0, c["length"]),
                        (0.0, c["width"])), z_mid=0.5 * c["thickness"])
    plate = PlateModel(pmesh, mat, theory=theory)
    if l_c is not None:
        plate = NonconformingModel(
            plate, OverlapRegion(((-np.inf, l_c), (-np.inf, np.inf))))
    sysm = System([solid, plate])
    sysm.add_coupling(build_interface(solid, plate, axis=0, side=1))
    sysm.fix(0, _face_dofs(solid.mesh, 3))
    sysm.load(1, plate.edge_load(0, 1, -c["edge_load"]))
    sol = sysm.solve(alpha=c["alpha"])
    tip = sample_points(plate, sysm.model_part(sol.a, 1),
                        (c["length"], 0.5 * c["width"]))[0][0]
    return {"alpha": float(sol.alphas[0]), "tip_uz": float(tip[2]),
            "residual": float(sol.residual), "_solve": sol.stats}


def _case_plate3d_conforming(theory, ref_tip=None):
    metrics = _run_plate3d_mda(theory, None)
    if ref_tip is None:
        ref_tip = _case_plate3d_reference()["tip_uz"]
    metrics["reference_tip_uz"] = float(ref_tip)
    metrics["tip_vs_reference_rel"] = (
        abs(metrics["tip_uz"] - ref_tip) / abs(ref_tip)
    )
    return metrics


def _case_plate3d_nonconforming(conforming_tip=None):
    """Solid extended past the plate's element boundary at x = 170."""
    metrics = _run_plate3d_mda("mindlin", 175.0)
    if conforming_tip is None:
        conforming_tip = _run_plate3d_mda("mindlin", None)["tip_uz"]
    metrics["conforming_tip_uz"] = float(conforming_tip)
    metrics["tip_vs_conforming_rel"] = (abs(metrics["tip_uz"] - conforming_tip)
                                        / abs(conforming_tip))
    return metrics


# Clamped square plate with an embedded solid patch --------------------


def _clamped_rows(mesh):
    """Control points in the two outermost rows of every edge."""
    n0, n1 = mesh.dirs[0].n, mesh.dirs[1].n
    gi0, gi1 = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
    edge = ((gi0 <= 1) | (gi0 >= n0 - 2) | (gi1 <= 1) | (gi1 >= n1 - 2))
    return (gi0 + n0 * gi1)[edge].ravel()


def _case_square_plate():
    """Kirchhoff plate under gravity with a solid patch glued into it.

    The patch region of the plate is deactivated and replaced by a 3D
    solid carrying the equivalent body force, tied on the patch rim.
    The solve is repeated with the patch shifted in x on the very same
    plate mesh (classification changes only).
    """
    c = SQUARE_PLATE
    mat = Material(E=c["E"], nu=c["nu"], thickness=c["thickness"])
    pmesh = build_mesh("plate", "spline", 3, (18, 18),
                       ((0.0, c["span"]), (0.0, c["span"])),
                       z_mid=0.5 * c["thickness"])
    plate = PlateModel(pmesh, mat, theory="kirchhoff")
    clamp = _clamped_rows(pmesh)
    center = (0.5 * c["span"], 0.5 * c["span"])

    pure = System([plate])
    pure.fix(0, clamp)
    pure.load(0, plate.pressure_load(-c["pressure"]))
    w_plate = sample_points(plate, pure.solve().a, center)[0][0, 2]

    lo = 0.5 * (c["span"] - c["patch"])

    def embedded(x0):
        region = OverlapRegion(((x0, x0 + c["patch"]),
                                (lo, lo + c["patch"])))
        wrap = NonconformingModel(plate, region)
        smesh = build_mesh("solid3d", "spline", 3, (4, 4, 2),
                           ((x0, x0 + c["patch"]), (lo, lo + c["patch"]),
                            (0.0, c["thickness"])))
        solid = SolidModel(smesh, mat)
        sysm = System([solid, wrap])
        for axis, side in ((0, -1), (0, 1), (1, -1), (1, 1)):
            sysm.add_coupling(build_interface(solid, wrap, axis=axis,
                                              side=side))
        sysm.fix(1, clamp)
        sysm.load(1, wrap.pressure_load(-c["pressure"]))
        sysm.load(0, solid.body_force(
            (0.0, 0.0, -c["pressure"] / c["thickness"])))
        sol = sysm.solve(alpha=c["alpha"])
        u = sample_points(solid, sysm.model_part(sol.a, 0),
                          (center[0], center[1], 0.5 * c["thickness"]))[0][0]
        return float(u[2]), sol

    w_0, sol_0 = embedded(lo)
    w_shift, sol_shift = embedded(lo + c["shift"])
    return {
        "alpha": c["alpha"],
        "center_w_plate": float(w_plate),
        "center_uz_embedded": w_0,
        "center_rel_diff": abs(w_0 - w_plate) / abs(w_plate),
        "shifted_center_uz": w_shift,
        "shifted_rel_diff": abs(w_shift - w_plate) / abs(w_plate),
        "residual": float(max(sol_0.residual, sol_shift.residual)),
        "_solve": sol_0.stats,
    }


# Registry -------------------------------------------------------------


@dataclass(frozen=True)
class BenchCase:
    """A runnable configuration with the bounds its metrics must meet."""

    runner: Callable[..., dict]
    expected: dict
    # Runner parameter -> (earlier case, metric) it can take from that
    # case's result instead of recomputing it.
    inputs: dict = field(default_factory=dict)


CASES: dict[str, BenchCase] = {
    "timo-q4-conforming": BenchCase(
        _case_timo_q4_conforming,
        {"tip_rel_err": (0.0, 0.015), "centerline_uy_rel_l2": (0.0, 0.02)}),
    "timo-q4-alpha-auto": BenchCase(
        _case_timo_q4_alpha_auto,
        {"alpha": (2.4e7, 9.4e7), "tip_rel_err": (0.0, 0.015),
         "understabilized_fails": (1.0, 1.0)}),
    "timo-spline-conforming": BenchCase(
        _case_timo_spline_conforming,
        {"tip_rel_err": (0.0, 0.015), "centerline_uy_rel_l2": (0.0, 0.02),
         "sxx_line_rel_l2": (0.0, 0.03)}),
    "timo-spline-shear-study": BenchCase(
        _case_timo_spline_shear_study, {"mismatch_ratio": (0.0, 0.999)}),
    "timo-spline-refinement": BenchCase(
        _case_timo_spline_refinement,
        {"ratio_10": (0.0, 0.999), "ratio_21": (0.0, 0.999)}),
    "timo-nonconforming-29.97": BenchCase(
        _case_timo_nonconforming, {"tip_vs_conforming_rel": (0.0, 0.01)}),
    "frame": BenchCase(_case_frame, {"tip_vs_reference_rel": (0.0, 0.03)}),
    "plate3d-reference": BenchCase(_case_plate3d_reference, {}),
    "plate3d-conforming-mindlin": BenchCase(
        partial(_case_plate3d_conforming, theory="mindlin"),
        {"tip_vs_reference_rel": (0.0, 0.05)},
        {"ref_tip": ("plate3d-reference", "tip_uz")}),
    "plate3d-conforming-kirchhoff": BenchCase(
        partial(_case_plate3d_conforming, theory="kirchhoff"),
        {"tip_vs_reference_rel": (0.0, 0.05)},
        {"ref_tip": ("plate3d-reference", "tip_uz")}),
    "plate3d-nonconforming": BenchCase(
        _case_plate3d_nonconforming, {"tip_vs_conforming_rel": (0.0, 0.03)},
        {"conforming_tip": ("plate3d-conforming-mindlin", "tip_uz")}),
    "square-plate-embedded": BenchCase(
        _case_square_plate,
        {"center_rel_diff": (0.0, 0.03), "shifted_rel_diff": (0.0, 0.05)}),
}


def case_names():
    return list(CASES)


def get_case(name):
    """The registered `BenchCase` ``name``; raises ConfigError."""
    if name not in CASES:
        raise ConfigError(
            f"unknown bench case {name!r}; known: {', '.join(CASES)}"
        )
    return CASES[name]


def run_case(name, **overrides):
    """Run one registered case; returns its metrics plus wall time."""
    runner = get_case(name).runner
    t0 = time.perf_counter()
    metrics = runner(**overrides)
    metrics["runtime_s"] = time.perf_counter() - t0
    return metrics


def shared_inputs(name, done):
    """Runner arguments case ``name`` takes from ``done`` (case -> metrics
    of cases already run), per its `BenchCase.inputs`."""
    inputs = CASES[name].inputs if name in CASES else {}
    return {param: done[src][key] for param, (src, key) in inputs.items()
            if src in done}


def check_case(name, metrics):
    """Rows of (metric, value, lo, hi, ok) against the case's bounds."""
    return check_bands(metrics, CASES[name].expected)


def check_bands(metrics, bands):
    """Rows of (metric, value, lo, hi, ok) against inclusive [lo, hi] bands.

    A metric missing from ``metrics`` fails its band.
    """
    rows = []
    for key, (lo, hi) in bands.items():
        value = metrics.get(key)
        ok = value is not None and lo <= value <= hi
        rows.append((key, value, lo, hi, bool(ok)))
    return rows
