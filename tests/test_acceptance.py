"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured numbers
on the real stdout, so a captured pytest run still doubles as the
acceptance report. The thresholds are the library's documented accuracy
targets (see README.md); the asserts use the same numbers as the printed
lines.
"""

import time

import numpy as np
import pytest

from mdfem.bench import run_case
from mdfem.bspline import SplineDir, least_squares_project, make_open_knots
from mdfem.coupling import build_interface
from mdfem.elasticity import SolidModel
from mdfem.mesh import build_mesh
from mdfem.structural import BeamModel, Material, PlateModel, frame_transforms
from mdfem.system import System
from oracles import eval_basis, local_matrices

E_PATCH = 1000.0
JUMP_TOL = 1e-9
STRESS_TOL = 1e-8 * E_PATCH


@pytest.fixture
def report(capfd):
    """Print one acceptance line on the real stdout, capture or not."""

    def _report(num, name, ok, detail):
        tag = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\n[{tag}] {num} {name}: {detail}", flush=True)

    return _report


@pytest.fixture(scope="module")
def q4():
    return run_case("timo-q4-conforming")


@pytest.fixture(scope="module")
def plate3d_ref():
    return run_case("plate3d-reference")


def test_01_conforming_q4_cantilever(q4, report):
    ok = (q4["tip_rel_err"] <= 0.015
          and q4["centerline_uy_rel_l2"] <= 0.02
          and q4["runtime_s"] < 5.0)
    report(1, "conforming Q4 cantilever", ok,
            f"tip {q4['tip_uy']:.5f} vs {q4['tip_uy_exact']:.5f} "
            f"({100 * q4['tip_rel_err']:.2f}% <= 1.5%), centerline L2 "
            f"{100 * q4['centerline_uy_rel_l2']:.2f}% <= 2%, "
            f"{q4['runtime_s']:.2f} s < 5 s")
    assert ok


def test_02_stabilization_estimate(report):
    m = run_case("timo-q4-alpha-auto")
    ok = (2.4e7 <= m["alpha"] <= 9.4e7
          and m["understabilized_fails"] == 1.0
          and m["residual"] <= 1e-8
          and m["tip_rel_err"] <= 0.015
          and m["runtime_s"] < 30.0)
    report(2, "stabilization estimate", ok,
            f"alpha {m['alpha']:.4e} in [2.4e7, 9.4e7], solve at alpha ok "
            f"(residual {m['residual']:.1e}), alpha/100 rejected "
            f"({int(m['understabilized_fails'])}), {m['runtime_s']:.2f} s "
            f"< 30 s")
    assert ok


def test_03_spline_cantilever_and_interface_shear(report):
    m = run_case("timo-spline-conforming")
    shear = run_case("timo-spline-shear-study")
    ok = (m["tip_rel_err"] <= 0.015
          and m["centerline_uy_rel_l2"] <= 0.02
          and m["sxx_line_rel_l2"] <= 0.03
          and shear["interface_sxy_rel_l2_nu00"]
          < shear["interface_sxy_rel_l2_nu03"])
    report(3, "spline cantilever + interface shear", ok,
            f"tip {100 * m['tip_rel_err']:.2f}% <= 1.5%, centerline L2 "
            f"{100 * m['centerline_uy_rel_l2']:.2f}% <= 2%, sxx line L2 "
            f"{100 * m['sxx_line_rel_l2']:.2f}% <= 3%, sxy mismatch nu=0 "
            f"{100 * shear['interface_sxy_rel_l2_nu00']:.2f}% < nu=0.3 "
            f"{100 * shear['interface_sxy_rel_l2_nu03']:.2f}%")
    assert ok


def test_04_nonconforming_sliver(report):
    m = run_case("timo-nonconforming-29.97")
    ok = m["tip_vs_conforming_rel"] <= 0.01 and m["residual"] <= 1e-8
    report(4, "nonconforming sliver overlap", ok,
            f"tip vs conforming {100 * m['tip_vs_conforming_rel']:.3f}% "
            f"<= 1%, solve clean (residual {m['residual']:.1e})")
    assert ok


# Patch suite ----------------------------------------------------------
#
# Sixteen small coupled solves: every structural theory, rotated member
# frames for the beams, one strain-free state and one constant-stress
# state each. The exact field is imposed on the outer boundaries only;
# the interface must transfer it without a jump and without polluting
# the stress.


def _voigt3_global(Rg, s_loc):
    S = np.array([[s_loc[0], s_loc[2]], [s_loc[2], s_loc[1]]])
    G = Rg @ S @ Rg.T
    return np.array([G[0, 0], G[1, 1], G[0, 1]])


def _jump_ratio(op, sol):
    _, kst, _ = local_matrices(op)
    a = sol.a
    return float(a @ (kst @ a)) / float(a @ a)


def _beam_patch(theory, phi, state):
    """Solid strip (member coords x in (0, 6)) + beam on x in (6, 12)."""
    mat = Material(E=E_PATCH, nu=0.0, thickness=2.0)
    Rg = frame_transforms(phi)[0].T
    smesh = build_mesh("solid2d", "spline", 3, (3, 2),
                       ((0.0, 6.0), (-1.0, 1.0)), rotation=Rg)
    solid = SolidModel(smesh, mat)
    bmesh = build_mesh("beam", "spline", 3, 3, ((0.0, 6.0),),
                       origin=Rg @ np.array([6.0, 0.0]), phi=phi)
    beam = BeamModel(bmesh, mat, theory=theory)

    om, a1, a2 = 0.01, 0.3, -0.2
    eps, kap = 1e-3, 1e-3
    if theory == "euler_bernoulli":
        a1 = 0.0  # the deflection-only model carries no axial motion

    def u_loc(x, y):
        """Member-frame displacement; x measured from the clamped end."""
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        if state == "rigid":
            return np.stack([a1 - om * y, a2 + om * x], axis=-1)
        if theory == "euler_bernoulli":  # constant bending moment
            return np.stack([kap * x * y, -0.5 * kap * x * x], axis=-1)
        return np.stack([eps * x, np.zeros_like(x)], axis=-1)

    def sig_loc(y):
        if state == "rigid":
            return np.zeros(3)
        if theory == "euler_bernoulli":
            return np.array([E_PATCH * kap * y, 0.0, 0.0])
        return np.array([E_PATCH * eps, 0.0, 0.0])

    sysm = System([solid, beam])
    op = build_interface(solid, beam, axis=0, side=1)
    sysm.add_coupling(op)

    dy = smesh.dirs[1]
    n0 = smesh.dirs[0].n
    face = n0 * np.arange(dy.n)

    def clamp_trace(y):
        return u_loc(0.0, y) @ Rg.T

    coef = least_squares_project(dy, clamp_trace)
    sysm.fix(0, np.concatenate([2 * face, 2 * face + 1]),
             np.concatenate([coef[:, 0], coef[:, 1]]))

    nb = bmesh.dirs[0].n
    if theory == "timoshenko":
        ue = u_loc(12.0, 0.0) @ Rg.T
        theta = om if state == "rigid" else 0.0
        sysm.fix(1, 3 * (nb - 1) + np.arange(3), [ue[0], ue[1], theta])
    else:
        dx = bmesh.dirs[0]

        def w_trace(xb):
            return u_loc(xb + 6.0, 0.0)[..., 1]

        wcoef = least_squares_project(dx, w_trace)
        sysm.fix(1, [nb - 2, nb - 1], wcoef[-2:])

    sol = sysm.solve(alpha="auto")
    jump = _jump_ratio(op, sol)

    worst = 0.0
    a_s = sysm.model_part(sol.a, 0)
    for x in (0.7, 3.0, 5.3):
        for y in (-0.8, 0.1, 0.9):
            e = smesh.element_containing((x, y))
            par = smesh.local_to_parent(e, [(x, y)])
            _, sg = solid.recover(e, par, a_s)
            target = _voigt3_global(Rg, sig_loc(y))
            worst = max(worst, float(np.abs(sg[0] - target).max()))
    a_b = sysm.model_part(sol.a, 1)
    for s in (0.5, 2.9, 5.6):
        e = bmesh.element_containing((s,))
        par = bmesh.local_to_parent(e, [(s,)])
        for off in (-0.9, 0.2, 0.8):
            _, sg = beam.recover(e, par, np.array([off]), a_b)
            target = _voigt3_global(Rg, sig_loc(off))
            worst = max(worst, float(np.abs(sg[0] - target).max()))
    return jump, worst


def _plate_patch(theory, state):
    """Solid block on x in (0, 4) + plate mid-surface on x in (4, 8)."""
    mat = Material(E=E_PATCH, nu=0.0, thickness=2.0)
    smesh = build_mesh("solid3d", "spline", 3, (2, 2, 2),
                       ((0.0, 4.0), (0.0, 4.0), (0.0, 2.0)))
    solid = SolidModel(smesh, mat)
    pmesh = build_mesh("plate", "spline", 3, (2, 2),
                       ((4.0, 8.0), (0.0, 4.0)), z_mid=1.0)
    plate = PlateModel(pmesh, mat, theory=theory)

    c0, ox, oy, kap = 0.2, 0.01, -0.02, 1e-3

    def w_fn(x, y):
        if state == "rigid":
            return c0 + ox * y - oy * x
        return -0.5 * kap * x * x

    def u_solid(x, y, zp):
        if state == "rigid":
            return np.array([oy * zp, -ox * zp, w_fn(x, y)])
        return np.array([kap * x * zp, 0.0, w_fn(x, y)])

    def sig_solid(zp):
        s = np.zeros(6)
        if state != "rigid":
            s[0] = E_PATCH * kap * zp
        return s

    sysm = System([solid, plate])
    op = build_interface(solid, plate, axis=0, side=1)
    sysm.add_coupling(op)

    n0, n1, n2 = (d.n for d in smesh.dirs)
    face = n0 * np.arange(n1 * n2)
    vals = np.zeros((n1 * n2, 3))
    if state == "rigid":
        gy = smesh.dirs[1].greville()
        gz = smesh.dirs[2].greville()
        for m in range(n1 * n2):
            vals[m] = u_solid(0.0, gy[m % n1], gz[m // n1] - 1.0)
    sysm.fix(0, np.concatenate([3 * face, 3 * face + 1, 3 * face + 2]),
             np.concatenate([vals[:, 0], vals[:, 1], vals[:, 2]]))

    nx, ny = pmesh.dirs[0].n, pmesh.dirs[1].n
    if theory == "mindlin":
        col = (nx - 1) + nx * np.arange(ny)
        gy = pmesh.dirs[1].greville()
        wv = np.array([w_fn(8.0, y) for y in gy])
        t1 = np.full(ny, -oy if state == "rigid" else -8.0 * kap)
        t2 = np.full(ny, ox if state == "rigid" else 0.0)
        sysm.fix(1, np.concatenate([3 * col, 3 * col + 1, 3 * col + 2]),
                 np.concatenate([wv, t1, t2]))
    else:
        # C1 edge data: last two control columns of the separable field
        # w = f(x) + g(y).
        def fx_fn(x):
            if state == "rigid":
                return c0 - oy * x
            return -0.5 * kap * x * x

        def gy_fn(y):
            return ox * y if state == "rigid" else np.zeros_like(y)

        fxc = least_squares_project(pmesh.dirs[0], fx_fn)
        gyc = least_squares_project(pmesh.dirs[1], gy_fn)
        for i in (nx - 2, nx - 1):
            sysm.fix(1, i + nx * np.arange(ny), fxc[i] + gyc)

    sol = sysm.solve(alpha="auto")
    jump = _jump_ratio(op, sol)

    worst = 0.0
    a_s = sysm.model_part(sol.a, 0)
    for x in (0.5, 2.0, 3.6):
        for y in (0.4, 2.0, 3.7):
            for z in (0.2, 1.0, 1.9):
                e = smesh.element_containing((x, y, z))
                par = smesh.local_to_parent(e, [(x, y, z)])
                _, sg = solid.recover(e, par, a_s)
                dev = np.abs(sg[0] - sig_solid(z - 1.0)).max()
                worst = max(worst, float(dev))
    a_p = sysm.model_part(sol.a, 1)
    rows = list(plate.solid_stress_rows)
    for x, y in ((4.4, 0.5), (6.0, 2.0), (7.5, 3.6)):
        e = pmesh.element_containing((x, y))
        par = pmesh.local_to_parent(e, [(x, y)])
        for off in (-0.8, 0.1, 0.75):
            _, sg = plate.recover(e, par, np.array([off]), a_p)
            target = sig_solid(off)[rows]
            worst = max(worst, float(np.abs(sg[0] - target).max()))
    return jump, worst


def test_05_patch_suite(report):
    worst_jump = 0.0
    worst_sig = 0.0
    for theory in ("timoshenko", "euler_bernoulli"):
        for phi in (0.0, np.pi / 6, np.pi / 2):
            for state in ("rigid", "stress"):
                jump, sig = _beam_patch(theory, phi, state)
                worst_jump = max(worst_jump, jump)
                worst_sig = max(worst_sig, sig)
    for theory in ("mindlin", "kirchhoff"):
        for state in ("rigid", "stress"):
            jump, sig = _plate_patch(theory, state)
            worst_jump = max(worst_jump, jump)
            worst_sig = max(worst_sig, sig)
    ok = worst_jump <= JUMP_TOL and worst_sig <= STRESS_TOL
    report(5, "patch suite (16 variants)", ok,
            f"max jump energy ratio {worst_jump:.1e} <= {JUMP_TOL:.0e}, "
            f"max stress deviation {worst_sig:.1e} <= {STRESS_TOL:.0e}")
    assert ok


def test_06_plate3d_dimensional_coupling(plate3d_ref, report):
    mind = run_case("plate3d-conforming-mindlin",
                    ref_tip=plate3d_ref["tip_uz"])
    kirch = run_case("plate3d-conforming-kirchhoff",
                     ref_tip=plate3d_ref["tip_uz"])
    total = (plate3d_ref["runtime_s"] + mind["runtime_s"]
             + kirch["runtime_s"])
    ok = (mind["tip_vs_reference_rel"] <= 0.05
          and kirch["tip_vs_reference_rel"] <= 0.05
          and total < 120.0)
    report(6, "3D plate dimensional coupling", ok,
            f"tip vs solid reference: mindlin "
            f"{100 * mind['tip_vs_reference_rel']:.2f}%, kirchhoff "
            f"{100 * kirch['tip_vs_reference_rel']:.2f}% (<= 5%), "
            f"{total:.1f} s < 120 s")
    assert ok


def test_07_embedded_patch_relocation(report):
    m = run_case("square-plate-embedded")
    ok = m["center_rel_diff"] <= 0.03 and m["shifted_rel_diff"] <= 0.05
    report(7, "embedded patch relocation", ok,
            f"center vs pure plate {100 * m['center_rel_diff']:.2f}% <= 3%, "
            f"shifted rerun {100 * m['shifted_rel_diff']:.2f}% <= 5% "
            f"on the same plate mesh")
    assert ok


def test_08_basis_micro_suite(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    kv = SplineDir(make_open_knots(3, np.linspace(0.0, 4.0, 5)), 3)

    pou = 0.0
    for x in rng.uniform(0.05, 3.95, 40):
        ders, _ = eval_basis(kv, float(x), nders=2)
        pou = max(pou, abs(ders[0].sum() - 1.0),
                  abs(ders[1].sum()), 1e-3 * abs(ders[2].sum()))

    h = 1e-6
    fd_dev = 0.0
    for x in rng.uniform(0.2, 3.8, 12):
        d, idx = eval_basis(kv, float(x), nders=1)
        lo, ilo = eval_basis(kv, float(x) - h)
        hi, ihi = eval_basis(kv, float(x) + h)
        if not (np.array_equal(ilo, idx) and np.array_equal(ihi, idx)):
            continue  # stepped over a knot, columns no longer align
        fd = (hi[0] - lo[0]) / (2.0 * h)
        fd_dev = max(fd_dev, float(np.abs(fd - d[1]).max()))

    kv1 = SplineDir(make_open_knots(2, np.array([0.0, 1.0])), 2)
    mid, _ = eval_basis(kv1, 0.5)
    bern_dev = float(np.abs(mid[0] - np.array([0.25, 0.5, 0.25])).max())

    mesh = build_mesh("solid2d", "spline", 2, (3, 2),
                      ((0.0, 3.0), (0.0, 2.0)),
                      origin=np.array([1.5, -0.5]),
                      rotation=frame_transforms(0.4)[0].T)
    c, A, _, _ = mesh.placement
    rt_dev = 0.0
    for _ in range(25):
        e = int(rng.integers(mesh.nelem))
        xi = rng.uniform(-0.95, 0.95, 2)
        phys = c + mesh.parent_to_local(e, xi)[0] @ A.T
        # locate takes local coordinates: R^T (x - origin), R orthogonal.
        e2, xi2 = mesh.locate((phys - mesh.origin) @ mesh.rotation)
        assert e2 == e
        rt_dev = max(rt_dev, float(np.abs(xi2 - xi).max()))
        back = c + mesh.parent_to_local(e2, xi2)[0] @ A.T
        rt_dev = max(rt_dev, float(np.abs(back - phys).max()))

    dt = time.perf_counter() - t0
    ok = (pou <= 1e-12 and fd_dev <= 2e-5 and bern_dev <= 1e-14
          and rt_dev <= 1e-9 and dt < 1.0)
    report(8, "basis micro-suite", ok,
            f"partition of unity {pou:.1e}, FD check {fd_dev:.1e}, "
            f"Bernstein midpoint {bern_dev:.1e}, inverse-map round trip "
            f"{rt_dev:.1e}, {1e3 * dt:.0f} ms < 1 s")
    assert ok
