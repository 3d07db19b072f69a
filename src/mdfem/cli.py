"""Batch front-end: validated JSON configs in, solved artifacts out.

Configs are JSON objects discriminated by a required ``"type"`` key;
unknown keys anywhere are rejected with their full path. Two shapes:

``"cantilever"`` runs one end-loaded strip coupled to a beam::

    {
      "type": "cantilever",
      "solid":    {"basis": "lagrange", "degree": 1,
                   "nelems": [40, 10], "span": [0.0, 24.0]},
      "beam":     {"basis": "lagrange", "degree": 1, "nelems": 29,
                   "span": [24.0, 48.0], "theory": "timoshenko"},
      "material": {"E": 3.0e7, "nu": 0.3, "depth": 6.0},
      "load":     {"P": 1000.0},
      "coupling": {"l_c": 24.0, "alpha": "auto",
                   "n_cut": 10, "tau": 0.01},
      "outputs":  {"centerline_csv": "centerline.csv",
                   "vtk": "solid.vtk", "report": "report.txt",
                   "samples": 97},
      "checks":   {}
    }

Every block is optional and defaults to the values above. ``alpha`` is
a positive number or ``"auto"``. A ``beam.span`` starting left of
``coupling.l_c`` makes the overlap non-conforming; the covered part of
the beam axis is deactivated. ``checks`` maps result metrics to
inclusive ``[lo, hi]`` bands, such as ``{"tip_rel_err": [0.0, 0.015]}``;
a violated band is a tolerance failure (exit code 2), not an error.

``"bench"`` re-runs a registered benchmark case::

    {"type": "bench", "case": "timo-q4-conforming", "overrides": {}}

Exit codes: 0 success and all bands met, 2 band violated, 1 error.
"""

import argparse
import csv
import inspect
import json
import math
import operator
import pathlib
import sys
import time

import numpy as np

from mdfem import bench
from mdfem.errors import ConfigError, MdfemError
from mdfem.mesh import build_mesh

_C = bench.CANTILEVER
# Every cantilever config key: path -> (kind, default, rule). Kinds are
# checked by `check_value`; a callable default is computed from the rows
# before it, a None default leaves the key out (check bands).
_SCHEMA = {
    "solid.basis": ("choice", "lagrange", ("lagrange", "spline")),
    "solid.degree": ("integer", 1, ((">=", 1),)),
    "solid.nelems": ("cells", [40, 10], None),
    "solid.span": ("span", [0.0, 24.0], None),
    "beam.basis": ("choice", "lagrange", ("lagrange", "spline")),
    "beam.degree": ("integer", 1, ((">=", 1),)),
    "beam.nelems": ("integer", 29, ((">=", 1),)),
    "beam.span": ("span", [24.0, _C["L"]], None),
    "beam.theory": ("choice", "timoshenko", ("timoshenko",)),
    "material.E": ("number", _C["E"], ((">", 0.0),)),
    "material.nu": ("number", _C["nu"], ((">=", 0.0), ("<=", 0.49))),
    "material.depth": ("number", _C["D"], ((">", 0.0),)),
    "load.P": ("number", _C["P"], None),
    "coupling.l_c": ("number", lambda out: out["solid"]["span"][1], None),
    "coupling.alpha": ("number_or_auto", "auto", ((">", 0.0),)),
    "coupling.n_cut": ("integer", 10, ((">=", 1),)),
    "coupling.tau": ("number", 0.01, ((">", 0.0), ("<=", 1.0))),
    "outputs.centerline_csv": ("file", "centerline.csv", None),
    "outputs.vtk": ("file", "solid.vtk", None),
    "outputs.report": ("file", "report.txt", None),
    "outputs.samples": ("integer", 97, ((">=", 2),)),
    **{f"checks.{metric}": ("band", None, None) for metric in (
        "alpha", "tip_uy", "tip_uy_exact", "tip_rel_err",
        "centerline_uy_rel_l2", "region_disp_rel_l2", "sxx_line_rel_l2",
        "interface_sxy_rel_l2", "residual", "runtime_s")},
}
_BLOCKS = tuple(dict.fromkeys(path.split(".")[0] for path in _SCHEMA))
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


# Config loading and validation ----------------------------------------


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _real(v):
    """A JSON number as a float; None for anything else."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        return float(v)
    except OverflowError:  # an integer literal past the float range
        return math.inf if v > 0 else -math.inf


def check_value(path, value, kind, rule):
    """``value`` checked as one `_SCHEMA` kind and returned normalized
    (numbers as floats, lists copied). ``rule`` holds the choices of a
    "choice" and the ``(op, bound)`` pairs of a number or an integer.
    Raises ConfigError naming ``path``."""
    if kind == "choice":
        if value not in rule:
            _fail(path, f"expected one of {', '.join(rule)}")
        return value
    if kind == "file":
        if value is not None and (not isinstance(value, str) or not value):
            _fail(path, "expected a file name or null")
        return value
    if kind == "cells":
        if (not isinstance(value, list) or len(value) != 2
                or any(isinstance(n, bool) or not isinstance(n, int)
                       or n < 1 for n in value)):
            _fail(path, "expected [nx, ny] positive integers")
        return list(value)
    if kind in ("span", "band"):
        pair = ([_real(c) for c in value]
                if isinstance(value, list) and len(value) == 2 else [None])
        if kind == "band":
            if None in pair or not pair[0] <= pair[1]:
                _fail(path, "expected [lo, hi] with lo <= hi")
        elif None in pair:
            _fail(path, "expected [lo, hi]")
        elif not pair[0] < pair[1]:
            _fail(path, "must be increasing")
        if not all(map(math.isfinite, pair)):
            _fail(path, "must be finite")
        return pair
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, "expected an integer")
    elif kind == "number" or value != "auto":
        value = _real(value)
        if value is None:
            _fail(path, "expected a number")
        if not math.isfinite(value):
            _fail(path, "must be finite")
    else:
        return value
    for op, bound in rule or ():
        if not _BOUNDS[op](value, bound):
            _fail(path, f"must be {op} {bound}")
    return value


def _validate_cantilever(cfg):
    for block in _BLOCKS:
        if not isinstance(cfg.get(block, {}), dict):
            _fail(block, "expected an object")
        for key in cfg.get(block, {}):
            if f"{block}.{key}" not in _SCHEMA:
                _fail(f"{block}.{key}", "unknown key")
    out = {"type": "cantilever", **{block: {} for block in _BLOCKS}}
    for path, (kind, default, rule) in _SCHEMA.items():
        block, key = path.split(".")
        raw = cfg.get(block, {})
        if key in raw or default is not None:
            value = raw.get(key, default(out) if callable(default) else default)
            out[block][key] = check_value(path, value, kind, rule)

    solid, beam, coupling = out["solid"], out["beam"], out["coupling"]
    if solid["basis"] == "lagrange" and solid["degree"] != 1:
        _fail("solid.degree", "lagrange meshes support degree 1 only")
    if solid["span"][0] != 0.0 or solid["span"][1] < 12.0:
        _fail("solid.span", "must start at x = 0 and reach x = 12, where "
              "the centerline and bending-stress samples are taken")
    for key in ("basis", "degree"):
        if beam[key] != solid[key]:
            _fail(f"beam.{key}", f"must equal solid.{key} ({solid[key]}); "
                  f"the beam is built with the solid's {key}")
    if coupling["l_c"] != solid["span"][1]:
        _fail("coupling.l_c", "must sit on the solid's right face "
              f"(solid.span[1] = {solid['span'][1]:g})")
    if not beam["span"][0] <= coupling["l_c"] < beam["span"][1]:
        _fail("beam.span", "must reach the interface at l_c")
    return out


def check_overrides(case, overrides):
    """``overrides`` of bench case ``case``'s runner keywords: ``alpha`` of
    the kind of ``coupling.alpha``, every other one (all default to a
    float or None) a finite number. Raises ConfigError naming
    ``overrides.<key>`` and listing the case's parameters."""
    runner = bench.get_case(case).runner
    # Keywords a `partial` registration fixes are not parameters.
    params = [name for name in inspect.signature(runner).parameters
              if name not in getattr(runner, "keywords", {})]
    listed = f"(case {case!r} takes: {', '.join(params) or 'nothing'})"
    out = {}
    for key, value in overrides.items():
        path = f"overrides.{key}"
        kind, _, rule = (_SCHEMA["coupling.alpha"] if key == "alpha"
                         else ("number", None, None))
        try:
            if key not in params:
                _fail(path, "unknown parameter")
            out[key] = check_value(path, value, kind, rule)
        except ConfigError as exc:
            raise ConfigError(f"{exc} {listed}") from None
    return out


def validate_config(cfg):
    """Normalize a raw config dict, filling defaults; raises ConfigError."""
    if not isinstance(cfg, dict):
        _fail("", "expected a JSON object")
    kind = cfg.get("type")
    if kind not in ("cantilever", "bench"):
        _fail("type", "expected 'cantilever' or 'bench'")
    known = _BLOCKS if kind == "cantilever" else ("case", "overrides")
    for k in cfg:
        if k != "type" and k not in known:
            _fail(k, "unknown key")
    if kind == "cantilever":
        return _validate_cantilever(cfg)
    case, overrides = cfg.get("case"), cfg.get("overrides", {})
    if not isinstance(case, str) or not case:
        _fail("case", "expected a bench case name")
    if not isinstance(overrides, dict):
        _fail("overrides", "expected an object")
    return {"type": "bench", "case": case,
            "overrides": check_overrides(case, overrides)}


def load_config(path):
    """Read, parse and validate a UTF-8 JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return validate_config(raw)


def dump_config(cfg):
    """Serialize an effective config deterministically."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


# Artifact writers ------------------------------------------------------


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path, header, rows):
    """Comma-separated values, header row, 17 significant digits, LF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def von_mises(stress):
    """Von Mises stress from rows of Voigt components (2D plane stress
    ``[s11, s22, s12]`` or 3D ``[s11, s22, s33, s12, s23, s13]``)."""
    s = np.atleast_2d(np.asarray(stress, dtype=float))
    if s.shape[1] == 3:
        s11, s22, s12 = s.T
        sq = s11**2 - s11 * s22 + s22**2 + 3.0 * s12**2
    elif s.shape[1] == 6:
        s11, s22, s33, s12, s23, s13 = s.T
        sq = 0.5 * ((s11 - s22) ** 2 + (s22 - s33) ** 2
                    + (s33 - s11) ** 2) + 3.0 * (s12**2 + s23**2 + s13**2)
    else:
        raise ConfigError(f"expected 3 or 6 stress components, "
                          f"got {s.shape[1]}")
    return np.sqrt(np.maximum(sq, 0.0))


def solid_field_grid(solid, a_model):
    """Sample displacement and von Mises stress on the element corners,
    the nodes of a degree-1 mesh over the solid's box and element grid.

    Returns ``(points, cells, cell_type, u, vm)`` ready for the VTK
    writer: quads (9) or hexahedra (12), the node table in VTK corner
    order.
    """
    m = solid.mesh
    grid = build_mesh(m.model, "lagrange", 1, m.nelem_per_dir, m.box)
    u, stress = bench.sample_points(solid, a_model, grid.nodes)
    cells = grid.ien()[:, [0, 1, 3, 2, 4, 5, 7, 6][:grid.nen]]
    return grid.nodes, cells, {2: 9, 3: 12}[m.dim], u, von_mises(stress)


def write_vtk(path, title, points, cells, cell_type, displacement,
              von_mises_values):
    """Legacy ASCII VTK 3.0 unstructured grid with point data."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    disp = np.atleast_2d(np.asarray(displacement, dtype=float))
    if points.shape[1] < 3:
        pad = np.zeros((points.shape[0], 3 - points.shape[1]))
        points = np.hstack([points, pad])
        disp = np.hstack([disp, np.zeros_like(pad)])
    cells = np.asarray(cells, dtype=int)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {points.shape[0]} double",
    ]
    lines += [" ".join(_fmt(c) for c in p) for p in points]
    nc, npc = cells.shape
    lines.append(f"CELLS {nc} {nc * (npc + 1)}")
    lines += [f"{npc} " + " ".join(str(c) for c in row) for row in cells]
    lines.append(f"CELL_TYPES {nc}")
    lines += [str(cell_type)] * nc
    lines.append(f"POINT_DATA {points.shape[0]}")
    lines.append("VECTORS displacement double")
    lines += [" ".join(_fmt(c) for c in row) for row in disp]
    lines.append("SCALARS von_mises double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [_fmt(v) for v in von_mises_values]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Reports ---------------------------------------------------------------


def _report_lines(name, metrics, rows):
    lines = [f"case {name}"]
    for key in sorted(metrics):
        if not key.startswith("_"):
            lines.append(f"  {key} = {metrics[key]:.10g}")
    lines += [f"  solve.{k} = {v}" for k, v in sorted(
        metrics.get("_solve", {}).items())]
    for key, value, lo, hi, ok in rows:
        shown = "missing" if value is None else f"{value:.10g}"
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"  check {key} = {shown} in [{lo:g}, {hi:g}] "
                     f"-> {verdict}")
    lines.append("PASS" if all(r[4] for r in rows) else "FAIL")
    return lines


def _emit(out_dir, name, text):
    path = out_dir / name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _write_case_artifacts(out_dir, name, cfg, metrics, rows):
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit(out_dir, "config.json", dump_config(cfg))
    # Wall time goes in the report only, keeping the CSV record
    # byte-identical across runs of the same config.
    scalars = sorted(k for k in metrics
                     if not k.startswith("_") and k != "runtime_s")
    write_csv(out_dir / "metrics.csv", ("metric", "value"),
              [(k, metrics[k]) for k in scalars])
    if "_centerline" in metrics:
        write_csv(out_dir / "centerline.csv", ("x", "uy", "uy_exact"),
                  metrics["_centerline"])
    report = "\n".join(_report_lines(name, metrics, rows)) + "\n"
    _emit(out_dir, "report.txt", report)
    return report


# Subcommands -----------------------------------------------------------


def _cantilever_call(cfg, runner, **extra):
    """Translate an effective cantilever config into a call of ``runner``
    (`bench.run_cantilever` or `bench.cantilever_system`)."""
    c = cfg
    consts = {"E": c["material"]["E"], "nu": c["material"]["nu"],
              "D": c["material"]["depth"], "L": c["beam"]["span"][1],
              "P": c["load"]["P"]}
    covered_to = (c["coupling"]["l_c"]
                  if c["beam"]["span"][0] < c["coupling"]["l_c"] else None)
    return runner(
        c["solid"]["basis"], c["solid"]["degree"],
        tuple(c["solid"]["nelems"]), c["beam"]["nelems"],
        solid_span=tuple(c["solid"]["span"]),
        beam_span=tuple(c["beam"]["span"]), covered_to=covered_to,
        ncut=c["coupling"]["n_cut"], threshold=c["coupling"]["tau"],
        consts=consts, **extra)


def _run_cantilever_config(cfg, out_dir, quiet):
    t0 = time.perf_counter()
    metrics, state = _cantilever_call(cfg, bench.run_cantilever,
                                      alpha=cfg["coupling"]["alpha"],
                                      nsample=cfg["outputs"]["samples"],
                                      return_state=True)
    metrics["runtime_s"] = time.perf_counter() - t0
    rows = bench.check_bands(metrics, cfg["checks"])

    out_dir.mkdir(parents=True, exist_ok=True)
    _emit(out_dir, "config.json", dump_config(cfg))
    outs = cfg["outputs"]
    if outs["centerline_csv"]:
        write_csv(out_dir / outs["centerline_csv"], ("x", "uy", "uy_exact"),
                  metrics["_centerline"])
    if outs["vtk"]:
        a_s = state["system"].model_part(state["solution"].a, 0)
        grid = solid_field_grid(state["solid"], a_s)
        write_vtk(out_dir / outs["vtk"], "coupled cantilever, solid part",
                  *grid)
    report = "\n".join(_report_lines("cantilever", metrics, rows)) + "\n"
    if outs["report"]:
        _emit(out_dir, outs["report"], report)
    if not quiet:
        print(report, end="")
    return 0 if all(r[4] for r in rows) else 2


def _run_bench_case(name, overrides, out_dir, quiet, done=None):
    """Run, check and write one case; ``done`` (case -> metrics) collects
    the results of earlier cases of the same run and feeds them to this
    one (`bench.shared_inputs`). The artifacts record ``overrides`` only."""
    done = {} if done is None else done
    metrics = bench.run_case(name, **overrides,
                             **bench.shared_inputs(name, done))
    done[name] = metrics
    rows = bench.check_case(name, metrics)
    cfg = {"type": "bench", "case": name, "overrides": dict(overrides)}
    report = _write_case_artifacts(out_dir, name, cfg, metrics, rows)
    if not quiet:
        print(report, end="")
    return 0 if all(r[4] for r in rows) else 2


def _cmd_run(args):
    cfg = load_config(args.config)
    out_dir = pathlib.Path(args.out_dir)
    if cfg["type"] == "bench":
        return _run_bench_case(cfg["case"], cfg["overrides"],
                               out_dir / cfg["case"], args.quiet)
    return _run_cantilever_config(cfg, out_dir, args.quiet)


def _cmd_bench(args):
    names = bench.case_names() if args.case == "all" else [args.case]
    out_dir = pathlib.Path(args.out_dir)
    worst, done = 0, {}
    for name in names:
        code = _run_bench_case(name, {}, out_dir / name, args.quiet, done)
        worst = max(worst, code)
    return worst


def _cmd_alpha(args):
    cfg = load_config(args.config)
    if cfg["type"] != "cantilever":
        raise ConfigError(
            "type: alpha estimation expects a 'cantilever' config")
    # Set-up and the spectral estimate only: no solve, no sampling.
    state = _cantilever_call(cfg, bench.cantilever_system)
    alpha = (state["system"].resolve_alpha("auto") or [0.0])[0]
    print(f"alpha = {alpha:.6e}")
    print(f"lambda1 = {2.0 * alpha:.6e}")
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are plain errors (exit 1); exit 2 is reserved for
    # tolerance failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="mdfem",
                     description="Mixed-dimensional coupled analyses.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an analysis from a JSON config")
    run.add_argument("config")
    bench_p = sub.add_parser("bench", help="run a registered bench case")
    bench_p.add_argument("case",
                         help="case name or 'all' "
                              f"({', '.join(bench.case_names())})")
    alpha = sub.add_parser(
        "alpha", help="estimate the stabilization parameter for a config")
    alpha.add_argument("config")

    for p, func in ((run, _cmd_run), (bench_p, _cmd_bench),
                    (alpha, _cmd_alpha)):
        p.add_argument("--out-dir", default=".",
                       help="directory for artifacts (default: .)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the report on stdout")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (MdfemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
