"""Seeded inputs and one pass of each benchmark workload.

A workload is a closed loop: one client in one process runs pass after
pass. The seed picks only the inputs (load magnitudes and, for
``embedded``, the patch positions); the library receives the generated
inputs through its public API or, for ``plane2d``, through generated
JSON configs handed to ``mdfem.cli.main``.

Every pass returns one record per solve. A solve fails when it raises,
misses its case band, drifts from the committed reference values by more
than round-off, or (``plane2d``) writes CSV bytes that differ from the
first pass of the same seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import pathlib

import numpy as np

WORKLOADS = ("plate3d", "embedded", "plane2d")

# Seed -> load factor range; the factor multiplies each base load.
FACTOR_RANGE = (0.5, 2.0)

# Allowed relative drift of a quantity of interest from the committed
# reference (per unit load factor). Loads only scale the right-hand side
# and the embedded patch positions are mirror images of each other, so
# seeds differ by round-off only.
DRIFT_RTOL = 1e-8

# Cantilever plate (3D): solid strip continued by a Mindlin plate. The
# solid is coarser than the 32x4x5 bench case so that a pass takes a few
# seconds and a run holds enough passes for a steady median.
PLATE3D = {"E": 1000.0, "nu": 0.3, "length": 320.0, "width": 25.0,
           "thickness": 20.0, "edge_load": 10.0, "alpha": 5.0e3,
           "band": 0.05, "solid_elems": (24, 2, 3), "plate_elems": (16, 2)}

# Clamped square Kirchhoff plate with an embedded tri-cubic solid patch,
# again coarser than the bench case (18x18 plate, 4x4x2 patch) to keep a
# pass to a few seconds.
SQUARE = {"E": 1000.0, "nu": 0.3, "span": 400.0, "thickness": 20.0,
          "patch": 100.0, "pressure": 10.0, "alpha": 1.0e6,
          "shifts": (10.0, 20.0), "band": 0.05, "plate_elems": (12, 12),
          "patch_elems": (2, 2, 1)}
# Patch shift directions. All four are images of one another under the
# symmetry of the square plate, so the centre deflection differs only by
# round-off between seeds while the classification sees new positions.
DIRECTIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))

# End-loaded plane-stress cantilever of the 2D CLI configs.
CANTILEVER = {"E": 3.0e7, "nu": 0.3, "D": 6.0, "L": 48.0, "P": 1000.0}


def _factor(rng):
    return float(rng.uniform(*FACTOR_RANGE))


def make_inputs(workload, seed, out_dir):
    """Generate the seeded inputs of one workload.

    ``out_dir`` receives the generated configs of ``plane2d`` and the
    artifacts its CLI runs write.
    """
    rng = np.random.default_rng(seed)
    if workload == "plate3d":
        return {"factor": _factor(rng)}
    if workload == "embedded":
        picks = rng.integers(len(DIRECTIONS), size=len(SQUARE["shifts"]))
        return {"factor": _factor(rng),
                "directions": [DIRECTIONS[int(k)] for k in picks]}
    if workload == "plane2d":
        return _plane2d_inputs(rng, pathlib.Path(out_dir))
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload, inputs, refs, state):
    """Run one pass; returns a list of solve records.

    ``state`` persists across the passes of one process (first-pass CSV
    bytes for the byte-identity check).
    """
    runner = {"plate3d": _plate3d_pass, "embedded": _embedded_pass,
              "plane2d": _plane2d_pass}[workload]
    return runner(inputs, refs, state)


def _record(name, qoi, rel_err=None, band=None, reason=None):
    """One solve outcome. ``rel_err`` is the error against the
    independent reference; ``band`` its case limit."""
    rec = {"name": name, "qoi": qoi, "rel_err": rel_err, "reason": reason}
    if reason is None and band is not None and not rel_err <= band:
        rec["reason"] = f"reference error {rel_err:.4g} outside [0, {band}]"
    return rec


def check_drift(records, refs, factor_of):
    """Mark records whose quantities drift from the committed values.

    ``refs`` maps solve name -> {qoi: value per unit load factor};
    ``factor_of`` gives the load factor a record's quantities carry.
    Quantities named ``alpha*`` do not scale with the load.
    """
    for rec in records:
        if rec["reason"] is not None or rec["name"] not in refs:
            continue
        for key, ref in refs[rec["name"]].items():
            scale = 1.0 if key.startswith("alpha") else factor_of(rec)
            want = ref * scale
            got = rec["qoi"].get(key)
            if got is None or not abs(got - want) <= DRIFT_RTOL * abs(want):
                rec["reason"] = (f"{key} = {got!r} drifts from the committed "
                                 f"{want!r}")
                break
    return records


# plate3d ---------------------------------------------------------------


def _face_dofs(mesh, ncomp):
    """DOFs of the x = lo face (first-direction node index zero)."""
    ids = np.nonzero(np.arange(mesh.nnodes) % mesh.dirs[0].n == 0)[0]
    return (ids[:, None] * ncomp + np.arange(ncomp)).ravel()


def _point_value(model, a_model, x_local, offset=None):
    """Displacement of a model at one point given in local coordinates."""
    mesh = model.mesh
    x = np.atleast_1d(np.asarray(x_local, dtype=float))
    e = mesh.element_containing(x)
    parent = mesh.local_to_parent(e, x[None, :])
    if offset is None:
        u, _ = model.recover(e, parent, a_model)
    else:
        u, _ = model.recover(e, parent, np.atleast_1d(offset), a_model)
    return u[0]


def plate3d_solve(factor):
    """Conforming tri-cubic solid tied to a cubic Mindlin plate."""
    from mdfem.coupling import build_interface
    from mdfem.elasticity import Material, SolidModel
    from mdfem.mesh import build_mesh
    from mdfem.structural import PlateModel
    from mdfem.system import System

    c = PLATE3D
    mat = Material(E=c["E"], nu=c["nu"], thickness=c["thickness"])
    half = 0.5 * c["length"]
    solid = SolidModel(build_mesh(
        "solid3d", "spline", 3, c["solid_elems"],
        ((0.0, half), (0.0, c["width"]), (0.0, c["thickness"]))), mat)
    plate = PlateModel(build_mesh(
        "plate", "spline", 3, c["plate_elems"],
        ((half, c["length"]), (0.0, c["width"])),
        z_mid=0.5 * c["thickness"]), mat, theory="mindlin")
    sysm = System([solid, plate])
    sysm.add_coupling(build_interface(solid, plate, axis=0, side=1))
    sysm.fix(0, _face_dofs(solid.mesh, 3))
    sysm.load(1, plate.edge_load(0, 1, -c["edge_load"] * factor))
    sol = sysm.solve(alpha=c["alpha"])
    tip = _point_value(plate, sysm.model_part(sol.a, 1),
                       (c["length"], 0.5 * c["width"]), 0.0)
    return float(tip[2])


def plate3d_continuum_reference(factor=1.0):
    """Full 64x4x5 tri-cubic continuum solve of the same plate."""
    from mdfem.elasticity import Material, SolidModel
    from mdfem.mesh import build_mesh
    from mdfem.system import System

    c = PLATE3D
    mat = Material(E=c["E"], nu=c["nu"], thickness=c["thickness"])
    solid = SolidModel(build_mesh(
        "solid3d", "spline", 3, (64, 4, 5),
        ((0.0, c["length"]), (0.0, c["width"]), (0.0, c["thickness"]))),
        mat)
    sysm = System([solid])
    sysm.fix(0, _face_dofs(solid.mesh, 3))
    sysm.load(0, solid.traction_force(
        0, 1, (0.0, 0.0, -c["edge_load"] * factor / c["thickness"])))
    sol = sysm.solve()
    tip = _point_value(solid, sol.a, (c["length"], 0.5 * c["width"],
                                      0.5 * c["thickness"]))
    return float(tip[2])


def _plate3d_pass(inputs, refs, state):
    f = inputs["factor"]
    try:
        tip = plate3d_solve(f)
    except Exception as exc:  # a failed solve is counted, not fatal
        return [_record("plate3d", {}, reason=repr(exc))]
    ref = refs["continuum"]["tip_uz"] * f
    rec = _record("plate3d", {"tip_uz": tip}, abs(tip - ref) / abs(ref),
                  PLATE3D["band"])
    return check_drift([rec], refs["solves"], lambda r: f)


# embedded --------------------------------------------------------------


def _clamped_rows(mesh):
    """Control points in the two outermost rows of every edge."""
    n0, n1 = mesh.dirs[0].n, mesh.dirs[1].n
    gi0, gi1 = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
    edge = (gi0 <= 1) | (gi0 >= n0 - 2) | (gi1 <= 1) | (gi1 >= n1 - 2)
    return (gi0 + n0 * gi1)[edge].ravel()


def embedded_solves(factor, directions):
    """Pure plate, then the patch at each seeded position on one mesh.

    Returns the centre deflections ``[w_plate, w_patch_1, w_patch_2]``.
    """
    from mdfem.coupling import build_interface
    from mdfem.elasticity import Material, SolidModel
    from mdfem.mesh import build_mesh
    from mdfem.nonconforming import NonconformingModel, OverlapRegion
    from mdfem.structural import PlateModel
    from mdfem.system import System

    c = SQUARE
    span, t, size = c["span"], c["thickness"], c["patch"]
    p = c["pressure"] * factor
    mat = Material(E=c["E"], nu=c["nu"], thickness=t)
    plate = PlateModel(build_mesh("plate", "spline", 3, c["plate_elems"],
                                  ((0.0, span), (0.0, span)), z_mid=0.5 * t),
                       mat, theory="kirchhoff")
    clamp = _clamped_rows(plate.mesh)
    center = (0.5 * span, 0.5 * span)

    pure = System([plate])
    pure.fix(0, clamp)
    pure.load(0, plate.pressure_load(-p))
    out = [float(_point_value(plate, pure.solve().a, center, 0.0)[2])]

    lo = 0.5 * (span - size)
    for shift, (dx, dy) in zip(c["shifts"], directions):
        x0, y0 = lo + shift * dx, lo + shift * dy
        box = ((x0, x0 + size), (y0, y0 + size))
        wrap = NonconformingModel(plate, OverlapRegion(box))
        solid = SolidModel(build_mesh("solid3d", "spline", 3, c["patch_elems"],
                                      box + ((0.0, t),)), mat)
        sysm = System([solid, wrap])
        for axis, side in ((0, -1), (0, 1), (1, -1), (1, 1)):
            sysm.add_coupling(build_interface(solid, wrap, axis=axis,
                                              side=side))
        sysm.fix(1, clamp)
        sysm.load(1, wrap.pressure_load(-p))
        sysm.load(0, solid.body_force((0.0, 0.0, -p / t)))
        sol = sysm.solve(alpha=c["alpha"])
        u = _point_value(solid, sysm.model_part(sol.a, 0),
                         (center[0], center[1], 0.5 * t))
        out.append(float(u[2]))
    return out


def _embedded_pass(inputs, refs, state):
    f = inputs["factor"]
    names = ["pure"] + [f"patch_shift{s:g}" for s in SQUARE["shifts"]]
    try:
        w = embedded_solves(f, inputs["directions"])
    except Exception as exc:
        return [_record(n, {}, reason=repr(exc)) for n in names]
    recs = [_record("pure", {"center_w": w[0]})]
    for name, wk in zip(names[1:], w[1:]):
        recs.append(_record(name, {"center_w": wk},
                            abs(wk - w[0]) / abs(w[0]), SQUARE["band"]))
    return check_drift(recs, refs["solves"], lambda r: f)


# plane2d ---------------------------------------------------------------

_CANTILEVER_CASES = {
    "q4-fixed": {
        "solid": {"basis": "lagrange", "degree": 1, "nelems": [40, 10],
                  "span": [0.0, 24.0]},
        "beam": {"basis": "lagrange", "degree": 1, "nelems": 29,
                 "span": [24.0, 48.0], "theory": "timoshenko"},
        "coupling": {"l_c": 24.0, "alpha": 4.7128e7},
        "checks": {"tip_rel_err": [0.0, 0.015],
                   "centerline_uy_rel_l2": [0.0, 0.02]},
    },
    "q4-auto": {
        "solid": {"basis": "lagrange", "degree": 1, "nelems": [40, 10],
                  "span": [0.0, 24.0]},
        "beam": {"basis": "lagrange", "degree": 1, "nelems": 29,
                 "span": [24.0, 48.0], "theory": "timoshenko"},
        "coupling": {"l_c": 24.0, "alpha": "auto"},
        "checks": {"alpha": [2.4e7, 9.4e7], "tip_rel_err": [0.0, 0.015]},
    },
    "spline-auto": {
        "solid": {"basis": "spline", "degree": 3, "nelems": [16, 4],
                  "span": [0.0, 24.0]},
        "beam": {"basis": "spline", "degree": 3, "nelems": 4,
                 "span": [24.0, 48.0], "theory": "timoshenko"},
        "coupling": {"l_c": 24.0, "alpha": "auto"},
        "checks": {"tip_rel_err": [0.0, 0.015],
                   "centerline_uy_rel_l2": [0.0, 0.02],
                   "sxx_line_rel_l2": [0.0, 0.03]},
    },
    "sliver": {
        "solid": {"basis": "spline", "degree": 3, "nelems": [32, 4],
                  "span": [0.0, 29.97]},
        "beam": {"basis": "spline", "degree": 3, "nelems": 8,
                 "span": [24.0, 48.0], "theory": "timoshenko"},
        "coupling": {"l_c": 29.97, "alpha": 1.0e10, "n_cut": 10,
                     "tau": 0.01},
        "checks": {"tip_rel_err": [0.0, 0.015]},
    },
}

# (solve name, CLI arguments before the config path, config name)
PLANE2D_CALLS = (
    ("q4-fixed", ("run",), "q4-fixed"),
    ("q4-auto", ("run",), "q4-auto"),
    ("spline-auto", ("run",), "spline-auto"),
    ("sliver", ("run",), "sliver"),
    ("q4-alpha", ("alpha",), "q4-fixed"),
    ("frame", ("run",), "frame"),
)

# Case band of the frame against its continuum reference.
FRAME_BAND = 0.03


def tip_exact(consts):
    """Closed-form plane-stress tip deflection u_y(L, 0) of the
    end-loaded cantilever (Timoshenko & Goodier)."""
    E, nu, D, L, P = (consts[k] for k in ("E", "nu", "D", "L", "P"))
    inertia = D**3 / 12.0
    return -P / (6.0 * E * inertia) * ((4.0 + 5.0 * nu) * D**2 * L / 4.0
                                       + 2.0 * L**3)


def _plane2d_inputs(rng, out_dir):
    cfg_dir = out_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    factors, paths = {}, {}
    for name, case in _CANTILEVER_CASES.items():
        factors[name] = _factor(rng)
        cfg = {"type": "cantilever", **case,
               "load": {"P": CANTILEVER["P"] * factors[name]}}
        paths[name] = cfg_dir / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    factors["frame"] = _factor(rng)
    paths["frame"] = cfg_dir / "frame.json"
    paths["frame"].write_text(json.dumps(
        {"type": "bench", "case": "frame",
         "overrides": {"P": factors["frame"]}}), encoding="utf-8")
    factors["q4-alpha"] = factors["q4-fixed"]
    return {"factors": factors, "configs": {k: str(v) for k, v in
                                            paths.items()},
            "out_dir": str(out_dir / "runs")}


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _report_value(path, key):
    for line in path.read_text(encoding="utf-8").splitlines():
        name, _, value = line.strip().partition(" = ")
        if name == key:
            return float(value)
    return None


def _plane2d_qoi(name, out, stdout, factor):
    """Quantities of interest of one CLI call, read from its outputs."""
    if name == "q4-alpha":
        line = stdout.splitlines()[0]
        return {"alpha": float(line.partition("=")[2])}, None
    if name == "frame":
        rows = dict(_read_csv(out / "frame" / "metrics.csv"))
        tip, ref = float(rows["tip_uy"]), float(rows["reference_tip_uy"])
        return {"tip_uy": tip}, abs(tip - ref) / abs(ref)
    tip = float(_read_csv(out / "centerline.csv")[-1][1])
    exact = tip_exact({**CANTILEVER, "P": CANTILEVER["P"] * factor})
    qoi = {"tip_uy": tip}
    if _CANTILEVER_CASES[name]["coupling"]["alpha"] == "auto":
        qoi["alpha"] = _report_value(out / "report.txt", "alpha")
    return qoi, abs(tip - exact) / abs(exact)


def _csv_bytes(out):
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*.csv"))}


def _plane2d_pass(inputs, refs, state):
    from mdfem.cli import main

    recs = []
    root = pathlib.Path(inputs["out_dir"])
    io_bytes = 0
    for name, cmd, cfg in PLANE2D_CALLS:
        out = root / name
        factor = inputs["factors"][name]
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = main([*cmd, inputs["configs"][cfg], "--out-dir",
                             str(out), "--quiet"])
            if code != 0:
                recs.append(_record(name, {}, reason=f"exit code {code}"))
                continue
            qoi, rel_err = _plane2d_qoi(name, out, stdout.getvalue(), factor)
        except Exception as exc:
            recs.append(_record(name, {}, reason=repr(exc)))
            continue
        band = FRAME_BAND if name == "frame" else None
        rec = _record(name, qoi, rel_err, band)
        if out.is_dir():
            # report.txt carries the run time, so its length varies.
            io_bytes += sum(p.stat().st_size for p in out.rglob("*")
                            if p.is_file() and p.name != "report.txt")
            csvs = _csv_bytes(out)
            first = state.setdefault(("csv", name), csvs)
            if rec["reason"] is None and csvs != first:
                rec["reason"] = "CSV bytes differ from the first pass"
        recs.append(rec)
    state["io_bytes"] = io_bytes
    return check_drift(recs, refs["solves"],
                       lambda r: inputs["factors"][r["name"]])
