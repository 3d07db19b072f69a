"""Config validation, artifact writers, and the command-line front-end."""
import contextlib
import io
import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdfem import cli
from mdfem.cli import (
    _SCHEMA,
    dump_config,
    load_config,
    main,
    solid_field_grid,
    validate_config,
    von_mises,
    write_csv,
    write_vtk,
)
from mdfem.errors import ConfigError
from oracles import csv_text, vtk_text


ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestConfigValidation:
    def test_defaults_fill_the_canonical_run(self):
        cfg = validate_config({"type": "cantilever"})
        assert cfg["solid"]["nelems"] == [40, 10]
        assert cfg["beam"]["nelems"] == 29
        assert cfg["coupling"]["alpha"] == "auto"
        assert cfg["coupling"]["l_c"] == 24.0
        assert cfg["coupling"]["n_cut"] == 10
        assert cfg["coupling"]["tau"] == 0.01
        assert cfg["outputs"]["samples"] == 97

    def test_unknown_keys_are_rejected_with_their_path(self):
        with pytest.raises(ConfigError, match=r"coupling\.alpa: unknown"):
            validate_config({"type": "cantilever",
                             "coupling": {"alpa": 1.0}})
        with pytest.raises(ConfigError, match=r"solid\.shape: unknown"):
            validate_config({"type": "cantilever",
                             "solid": {"shape": [2, 2]}})
        with pytest.raises(ConfigError, match="extras: unknown"):
            validate_config({"type": "cantilever", "extras": {}})

    def test_missing_or_bad_type_is_rejected(self):
        with pytest.raises(ConfigError, match="type"):
            validate_config({})
        with pytest.raises(ConfigError, match="type"):
            validate_config({"type": "plate"})

    def test_negative_alpha_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"coupling\.alpha"):
            validate_config({"type": "cantilever",
                             "coupling": {"alpha": -1}})

    def test_interface_must_sit_on_the_solid_face(self):
        with pytest.raises(ConfigError, match=r"coupling\.l_c"):
            validate_config({"type": "cantilever",
                             "coupling": {"l_c": 20.0}})

    def test_beam_span_must_reach_the_interface(self):
        with pytest.raises(ConfigError, match=r"beam\.span"):
            validate_config({"type": "cantilever",
                             "beam": {"span": [30.0, 48.0]}})

    def test_checks_only_accept_known_metrics(self):
        with pytest.raises(ConfigError, match=r"checks\.tip_err"):
            validate_config({"type": "cantilever",
                             "checks": {"tip_err": [0, 1]}})
        with pytest.raises(ConfigError, match=r"checks\.tip_rel_err"):
            validate_config({"type": "cantilever",
                             "checks": {"tip_rel_err": [1, 0]}})

    def test_bench_shape_round_trips_every_registered_case(self):
        from mdfem.bench import case_names

        for name in case_names():
            cfg = validate_config({"type": "bench", "case": name})
            again = validate_config(json.loads(dump_config(cfg)))
            assert again == cfg

    def test_bench_overrides_take_the_kind_of_their_default(self):
        cfg = validate_config({"type": "bench", "case": "frame",
                               "overrides": {"P": 2}})
        assert cfg["overrides"] == {"P": 2.0}
        assert type(cfg["overrides"]["P"]) is float

    def test_only_the_frame_load_is_an_override(self):
        """Fixed setup values are constants of their case, and inputs a
        case takes from earlier cases are not overrides."""
        from mdfem.bench import case_names

        takes = {}
        for name in case_names():
            with pytest.raises(ConfigError) as exc:
                validate_config({"type": "bench", "case": name,
                                 "overrides": {"?": 1.0}})
            takes[name] = str(exc.value).partition("takes: ")[2]
        assert takes.pop("frame") == "P)"
        assert set(takes.values()) == {"nothing)"}

    def test_empty_output_name_is_rejected(self):
        # Skipping a file takes null; "" is no file name.
        with pytest.raises(ConfigError,
                           match=r"outputs\.vtk: expected a file name or null"):
            validate_config({"type": "cantilever", "outputs": {"vtk": ""}})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["../escaped.vtk", "sub/solid.vtk",
                                      "/abs.vtk", "a\\b.vtk", ".", "..",
                                      "nul\0.vtk"])
    def test_output_names_are_bare_file_names(self, tmp_path, capsys, name):
        path = _write(tmp_path, "cfg.json",
                      {"type": "cantilever", "outputs": {"vtk": name}})
        out = tmp_path / "out"
        assert main(["run", path, "--out-dir", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: outputs.vtk: expected a bare file name")
        assert not out.exists() and not (tmp_path / "escaped.vtk").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("outputs, message", [
        ({"vtk": "config.json"},
         "outputs.vtk: 'config.json' is already the name of the effective "
         "config"),
        ({"centerline_csv": "report.txt"},
         "outputs.report: 'report.txt' is already the name of "
         "outputs.centerline_csv"),
        ({"vtk": "out.txt", "report": "out.txt"},
         "outputs.report: 'out.txt' is already the name of outputs.vtk"),
        ({"centerline_csv": "solid.vtk", "report": None},
         "outputs.vtk: 'solid.vtk' is already the name of "
         "outputs.centerline_csv"),
    ])
    def test_output_names_differ(self, tmp_path, capsys, outputs, message):
        path = _write(tmp_path, "cfg.json",
                      {"type": "cantilever", "outputs": outputs})
        out = tmp_path / "out"
        assert main(["run", path, "--out-dir", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_effective_config_revalidates_to_itself(self):
        cfg = validate_config({"type": "cantilever",
                               "coupling": {"alpha": 4.7128e7}})
        again = validate_config(json.loads(dump_config(cfg)))
        assert again == cfg

    def test_documented_cantilever_config_is_the_default(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(b) for b in
                  re.findall(r"```json\n(.*?)```", readme, re.S)]
        docstring = cli.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
        default = validate_config({"type": "cantilever"})
        for shown in [json.loads(docstring)] + [
                b for b in blocks if b["type"] == "cantilever"]:
            assert validate_config(shown) == default

    def test_load_config_reports_bad_files(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json"):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(bad))


class TestWriters:
    def test_csv_uses_17_significant_digits_and_lf(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b"), [(0.1, 1), (2.0 / 3.0, "x")])
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        assert text.splitlines()[0] == "a,b"
        assert "0.10000000000000001" in text
        assert "0.66666666666666663" in text

    def test_von_mises_plane_stress(self):
        assert von_mises([100.0, 0.0, 0.0])[0] == pytest.approx(100.0)
        assert von_mises([0.0, 0.0, 10.0])[0] == pytest.approx(
            10.0 * np.sqrt(3.0))

    def test_von_mises_3d_hydrostatic_vanishes(self):
        assert von_mises([50.0, 50.0, 50.0, 0.0, 0.0, 0.0])[0] == 0.0
        assert von_mises([100.0, 0.0, 0.0, 0.0, 0.0, 0.0])[0] == (
            pytest.approx(100.0))

    def test_von_mises_rejects_odd_component_counts(self):
        with pytest.raises(ConfigError, match="components"):
            von_mises([1.0, 2.0])

    def test_vtk_quad_grid_layout(self, tmp_path):
        path = tmp_path / "grid.vtk"
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cells = np.array([[0, 1, 3, 2]])
        u = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.2], [0.1, 0.2]])
        write_vtk(path, "unit quad", pts, cells, 9, u, np.arange(4.0))
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == "POINTS 4 double"
        assert lines[5] == "0 0 0"
        assert "CELLS 1 5" in lines
        assert "4 0 1 3 2" in lines
        assert "CELL_TYPES 1" in lines
        assert "POINT_DATA 4" in lines
        assert "VECTORS displacement double" in lines
        assert "SCALARS von_mises double 1" in lines
        assert "LOOKUP_TABLE default" in lines

    def test_field_grid_reproduces_a_linear_field(self):
        from mdfem.elasticity import Material, SolidModel
        from mdfem.mesh import build_mesh
        from mdfem.system import System

        mat = Material(E=100.0, nu=0.0, thickness=1.0)
        solid = SolidModel(
            build_mesh("solid2d", "lagrange", 1, (2, 2),
                       ((0.0, 2.0), (0.0, 2.0))), mat)
        # Uniaxial stretch u_x = 0.01 x: nodal values follow directly.
        a = np.zeros(solid.ndof)
        a[0::2] = 0.01 * solid.mesh.nodes[:, 0]
        pts, cells, cell_type, u, vm = solid_field_grid(solid, a)
        assert cell_type == 9
        assert pts.shape == (9, 2)
        assert cells.shape == (4, 4)
        np.testing.assert_allclose(u[:, 0], 0.01 * pts[:, 0], atol=1e-14)
        np.testing.assert_allclose(vm, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("nelems", [(3, 2), (3, 2, 2)])
    def test_field_grid_cells_in_vtk_corner_order(self, nelems):
        # Unit cells, first direction fastest; a quad runs counter-
        # clockwise, a hexahedron its bottom then its top face.
        from mdfem.elasticity import Material, SolidModel
        from mdfem.mesh import build_mesh

        dim = len(nelems)
        solid = SolidModel(build_mesh(f"solid{dim}d", "spline", 2, nelems,
                                      [(0.0, float(n)) for n in nelems]),
                           Material(E=1.0, nu=0.3))
        pts, cells, cell_type, u, vm = solid_field_grid(
            solid, np.zeros(solid.ndof))
        assert cell_type == {2: 9, 3: 12}[dim]
        lower = np.stack(np.meshgrid(*[np.arange(float(n)) for n in nelems],
                                     indexing="ij"), -1)
        np.testing.assert_array_equal(
            pts[cells[:, 0]], lower.transpose(*range(dim)[::-1], dim)
            .reshape(-1, dim))
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        corners = (np.array(square) if dim == 2 else np.array(
            [c + [0] for c in square] + [c + [1] for c in square]))
        np.testing.assert_array_equal(pts[cells] - pts[cells[:, :1]],
                                      np.broadcast_to(corners, cells.shape
                                                      + (dim,)))
        assert u.shape == pts.shape and not vm.any()


# Floats the writers must spell as `f"{x:.17g}"` does: random bit
# patterns (NaN payloads of either sign among them), the infinities,
# signed zeros, subnormals and the ends of the range.
_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64)))
_FLOATS = _BITS | st.floats() | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
     2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308])


def _block(draw, rows, cols, values=_FLOATS, dtype=float):
    return np.array(draw(st.lists(values, min_size=rows * cols,
                                  max_size=rows * cols)),
                    dtype=dtype).reshape(rows, cols)


@st.composite
def _vtk_grids(draw):
    """`write_vtk` arguments of a 2D or 3D grid with 0 to 5 points and 0
    to 3 cells."""
    dim, n, nc = (draw(st.sampled_from((2, 3))), draw(st.integers(0, 5)),
                  draw(st.integers(0, 3)))
    return (draw(st.text(st.characters(exclude_categories=("Cs",)),
                         max_size=8)),
            _block(draw, n, dim),
            _block(draw, nc, 2**dim, st.integers(0, 2**62), int),
            {2: 9, 3: 12}[dim], _block(draw, n, dim),
            _block(draw, n, 1).ravel())


@st.composite
def _csv_tables(draw):
    """`write_csv` arguments: a float or an integer array of 0 to 5 rows,
    or rows mixing names, integers and floats."""
    ncol = draw(st.integers(1, 4))
    header = tuple(f"c{i}" for i in range(ncol))
    nrow = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("float", "int", "mixed")))
    if kind == "float":
        return header, _block(draw, nrow, ncol)
    if kind == "int":
        return header, _block(draw, nrow, ncol,
                              st.integers(-2**63, 2**63 - 1), np.int64)
    cells = st.text(max_size=4) | st.integers(-10**20, 10**20) | _FLOATS
    return header, [tuple(draw(st.lists(cells, min_size=ncol,
                                        max_size=ncol)))
                    for _ in range(nrow)]


@settings(max_examples=150, deadline=None)
@given(grid=_vtk_grids(), table=_csv_tables())
def test_writers_match_the_per_value_oracle(grid, table):
    """The block writers write the bytes of one `_fmt` call per value."""
    with tempfile.TemporaryDirectory() as tmp:
        vtk, csv_path = pathlib.Path(tmp, "f.vtk"), pathlib.Path(tmp, "f.csv")
        write_vtk(vtk, *grid)
        write_csv(csv_path, *table)
        assert vtk.read_bytes() == vtk_text(*grid).encode("utf-8")
        assert csv_path.read_bytes() == csv_text(*table).encode("utf-8")


@pytest.fixture(scope="module")
def q4_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("q4run")
    code = main(["run", str(CONFIGS / "timo-q4.json"), "--out-dir", str(out),
                 "--quiet"])
    return code, out


class TestMain:
    def test_run_canonical_config_succeeds(self, q4_run):
        code, out = q4_run
        assert code == 0
        for name in ("config.json", "centerline.csv", "solid.vtk",
                     "report.txt"):
            assert (out / name).exists()
        report = (out / "report.txt").read_text()
        assert report.rstrip().endswith("PASS")

    def test_centerline_csv_matches_the_sample_count(self, q4_run):
        _, out = q4_run
        lines = (out / "centerline.csv").read_text().splitlines()
        assert lines[0] == "x,uy,uy_exact"
        assert len(lines) == 1 + 97

    def test_solve_sizes_go_to_the_report_only(self, q4_run, tmp_path):
        _, out = q4_run
        sizes = dict(re.findall(r"^  solve\.(\w+) = (\S+)$",
                                (out / "report.txt").read_text(), re.M))
        assert sorted(sizes) == ["band", "band_mb", "geometric_band", "ndof",
                                 "nnz", "ordering", "rcm_band"]
        band, rcm = int(sizes["band"]), int(sizes["rcm_band"])
        assert band == min(rcm, int(sizes["geometric_band"]))
        assert sizes["ordering"] == ("rcm" if band == rcm else "geometric")
        assert main(["bench", "timo-q4-conforming", "--out-dir",
                     str(tmp_path), "--quiet"]) == 0
        case = tmp_path / "timo-q4-conforming"
        assert "  solve.ordering = " in (case / "report.txt").read_text()
        assert "solve" not in (case / "metrics.csv").read_text()

    def test_run_is_deterministic_byte_for_byte(self, q4_run, tmp_path):
        _, first = q4_run
        code = main(["run", str(CONFIGS / "timo-q4.json"), "--out-dir",
                     str(tmp_path), "--quiet"])
        assert code == 0
        for name in ("centerline.csv", "solid.vtk", "config.json"):
            assert (tmp_path / name).read_bytes() == (
                first / name).read_bytes()

    def test_bench_writes_centerline_and_report(self, tmp_path):
        code = main(["bench", "timo-q4-conforming", "--out-dir",
                     str(tmp_path), "--quiet"])
        assert code == 0
        case_dir = tmp_path / "timo-q4-conforming"
        report = (case_dir / "report.txt").read_text()
        assert "check tip_rel_err" in report
        assert report.rstrip().endswith("PASS")
        assert (case_dir / "centerline.csv").exists()

        # The dumped effective config re-runs to the same numbers.
        rerun = tmp_path / "again"
        code = main(["run", str(case_dir / "config.json"), "--out-dir",
                     str(rerun), "--quiet"])
        assert code == 0
        for name in ("metrics.csv", "centerline.csv"):
            assert (rerun / "timo-q4-conforming" / name).read_bytes() == (
                case_dir / name).read_bytes()

    def test_alpha_prints_the_estimate_and_lambda1(self, capsys):
        assert main(["alpha", str(CONFIGS / "timo-q4.json")]) == 0
        out = capsys.readouterr().out
        alpha = float(out.split("alpha =")[1].split()[0])
        lam = float(out.split("lambda1 =")[1].split()[0])
        assert 2.4e7 < alpha < 9.4e7
        assert lam == pytest.approx(2.0 * alpha)

    def test_negative_alpha_exits_1(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.json",
                      {"type": "cantilever", "coupling": {"alpha": -1}})
        assert main(["run", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_violated_check_exits_2(self, tmp_path):
        path = _write(tmp_path, "tight.json",
                      {"type": "cantilever",
                       "outputs": {"vtk": None},
                       "checks": {"tip_rel_err": [0.0, 1e-9]}})
        code = main(["run", path, "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2

    def test_unknown_bench_case_exits_1(self, tmp_path, capsys):
        assert main(["bench", "no-such-case", "--out-dir",
                     str(tmp_path)]) == 1
        assert "unknown bench case" in capsys.readouterr().err

    @pytest.mark.parametrize("case, overrides, message", [
        ("frame", {"bogus": 1}, "overrides.bogus: unknown parameter"),
        ("frame", {"nu": "abc"}, "overrides.nu: unknown parameter"),
        ("timo-spline-conforming", {"nu": 0.0},
         "overrides.nu: unknown parameter"),
        ("frame", {"alpha": 1.0e7}, "overrides.alpha: unknown parameter"),
        ("plate3d-conforming-mindlin", {"theory": "kirchhoff"},
         "overrides.theory: unknown parameter"),
        ("frame", {"P": math.nan}, "overrides.P: must be finite"),
        ("frame", {"E": 3.0e6}, "overrides.E: unknown parameter"),
        ("plate3d-conforming-mindlin", {"ref_tip": -0.5},
         "overrides.ref_tip: unknown parameter"),
        ("plate3d-nonconforming", {"conforming_tip": -0.5},
         "overrides.conforming_tip: unknown parameter"),
        ("timo-q4-conforming", {"alpha": 0}, "overrides.alpha: unknown "
                                             "parameter"),
        ("frame", {"P": "fast"}, "overrides.P: expected a number"),
    ])
    def test_bad_bench_override_exits_1(self, tmp_path, capsys, case,
                                        overrides, message):
        path = _write(tmp_path, "bad.json", {"type": "bench", "case": case,
                                             "overrides": overrides})
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: overrides.") and message in err
        assert f"(case '{case}' takes: " in err and "Traceback" not in err

    def test_usage_errors_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


def _one_broken(**changes):
    """An example: a valid bi-cubic config with the given draws changed."""
    base = dict(basis="spline", degree=3, lo=0.0, hi=24.0,
                beam_basis="spline", beam_degree=3, theory="timoshenko",
                nelems=(2, 1, 2))
    return example(**{**base, **changes})


@settings(max_examples=40, deadline=None)
@_one_broken()
@_one_broken(basis="lagrange", beam_basis="lagrange")
@_one_broken(basis="lagrange", beam_basis="lagrange", degree=1,
             beam_degree=1)
@_one_broken(lo=0.5)
@_one_broken(hi=11.5)
@_one_broken(beam_basis="lagrange")
@_one_broken(beam_degree=2)
@_one_broken(theory="euler_bernoulli")
@given(basis=st.sampled_from(("lagrange", "spline")),
       degree=st.integers(1, 3),
       lo=st.sampled_from((0.0, 0.0, 0.5, -1.0)),
       hi=st.floats(0.5, 30.0),
       beam_basis=st.sampled_from(("lagrange", "spline")),
       beam_degree=st.integers(1, 3),
       theory=st.sampled_from(("timoshenko", "euler_bernoulli")),
       nelems=st.tuples(st.integers(1, 3), st.integers(1, 2),
                        st.integers(1, 3)))
def test_cantilever_config_runs_or_names_the_offending_key(
        basis, degree, lo, hi, beam_basis, beam_degree, theory, nelems):
    """A small cantilever config either runs or exits 1 with an error
    naming one of the keys it breaks. The examples break at most one key
    each."""
    cfg = {"type": "cantilever",
           "solid": {"basis": basis, "degree": degree,
                     "nelems": list(nelems[:2]), "span": [lo, hi]},
           "beam": {"basis": beam_basis, "degree": beam_degree,
                    "nelems": nelems[2], "span": [hi, hi + 24.0],
                    "theory": theory},
           "outputs": {"centerline_csv": None, "vtk": None, "report": None,
                       "samples": 9}}
    broken = {key for key, bad in (
        ("solid.degree", basis == "lagrange" and degree != 1),
        ("solid.span", lo != 0.0 or hi < 12.0),
        ("beam.basis", beam_basis != basis),
        ("beam.degree", beam_degree != degree),
        ("beam.theory", theory != "timoshenko"),
    ) if bad}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(pathlib.Path(tmp), "config.json", cfg)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", path, "--out-dir", tmp, "--quiet"])
    if broken:
        assert code == 1
        assert any(key in err.getvalue() for key in broken), err.getvalue()
    else:
        assert code == 0, err.getvalue()


# Draws for `_SCHEMA` rows: valid values and single-key breaks per kind.
_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


def _bounds(rule):
    return dict(rule or ())


def _valid_value(kind, rule):
    if kind == "choice":
        return st.sampled_from(rule)
    if kind == "file":
        return st.none() | st.text(min_size=1, max_size=8).filter(
            lambda s: s not in (".", "..") and not set(s) & set("/\\\0"))
    if kind == "cells":
        return st.lists(st.integers(1, 50), min_size=2, max_size=2)
    if kind in ("span", "band"):
        return st.lists(_FINITE, min_size=2, max_size=2, unique=True).map(
            sorted)
    if kind == "integer":
        return st.integers(_bounds(rule)[">="], 10**6)
    b = _bounds(rule)
    numbers = st.floats(b.get(">", b.get(">=")), b.get("<="),
                        exclude_min=">" in b, allow_nan=False,
                        allow_infinity=False)
    ints = st.integers(-2, 2).filter(
        lambda v: all(cli._BOUNDS[op](v, x) for op, x in b.items()))
    return (numbers | ints | st.just("auto") if kind == "number_or_auto"
            else numbers | ints)


def _broken_value(kind, rule):
    objects = st.just({"a": 1})
    if kind == "choice":
        return objects | st.sampled_from(["nope", 1, None, True])
    if kind == "file":
        return objects | st.sampled_from([3, "", True, ["a"], ".", "..",
                                          "../a", "a/b", "a\\b", "a\0"])
    if kind == "cells":
        return objects | st.sampled_from(
            [[1], [0, 1], [1, True], [1.0, 2], "2x2", [1, 2, 3]])
    if kind in ("span", "band"):
        bad = [[1.0], [2.0, 1.0], [True, 1], ["a", 1], [math.nan, 1.0],
               "0,1", [1.0, math.nan], [0.0, math.inf], [-math.inf, 1.0]]
        if kind == "span":
            bad += [[3.0, 3.0]]
        return objects | st.sampled_from(bad)
    if kind == "integer":
        lo = _bounds(rule)[">="]
        return objects | st.sampled_from([True, 1.5, "3", None]) | (
            st.integers(-10**6, lo - 1))
    out = [st.sampled_from([True, False, "3", None, [1.0], math.nan,
                            math.inf, -math.inf, 10**400, -10**400])]
    for op, x in _bounds(rule).items():
        out.append({">": st.floats(max_value=x),
                    ">=": st.floats(max_value=x, exclude_max=True),
                    "<=": st.floats(min_value=x, exclude_min=True)}[op]
                   .filter(math.isfinite))
    return st.one_of(objects, *out)


@st.composite
def _valid_configs(draw):
    """A raw cantilever config setting a random subset of `_SCHEMA` keys,
    with the keys the cross-key rules relate drawn consistently."""
    cfg = {"type": "cantilever"}
    for path, (kind, _, rule) in _SCHEMA.items():
        if draw(st.booleans()):
            block, key = path.split(".")
            cfg.setdefault(block, {})[key] = draw(_valid_value(kind, rule))
    solid = cfg.setdefault("solid", {})
    beam, coupling = cfg.setdefault("beam", {}), cfg.get("coupling", {})
    if solid.get("basis", "lagrange") == "lagrange":
        solid["degree"] = 1
    beam["basis"] = solid.get("basis", "lagrange")
    beam["degree"] = solid.get("degree", 1)
    hi = solid.get("span", [0.0, 24.0])[1]
    if "span" in solid:
        hi = draw(st.floats(12.0, 1e3))
        solid["span"] = [draw(st.sampled_from([0, 0.0])), hi]
    if "l_c" in coupling:
        coupling["l_c"] = hi
    beam["span"] = [hi - draw(st.floats(0.0, 10.0)),
                    hi + draw(st.floats(1e-3, 50.0))]
    # Output names must differ: "<key>.<name>" is unique per key and
    # never a default name or config.json.
    outputs = cfg.get("outputs", {})
    for key in ("centerline_csv", "vtk", "report"):
        if outputs.get(key) is not None:
            outputs[key] = f"{key}.{outputs[key]}"
    return cfg


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None)
@given(raw=_valid_configs())
def test_schema_valid_draws_revalidate_to_themselves(raw):
    cfg = validate_config(raw)
    filled = {f"{block}.{key}" for block in cli._BLOCKS for key in cfg[block]}
    assert {path for path, row in _SCHEMA.items() if row[1] is not None} <= (
        filled)
    # Strict JSON: no Infinity or NaN literals.
    assert validate_config(json.loads(dump_config(cfg),
                                      parse_constant=_reject_constant)) == cfg


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_schema_single_key_breaks_name_the_key(data):
    """One bad value, or one unknown key, in an otherwise default config
    is reported under that key's path."""
    path = data.draw(st.sampled_from(sorted(_SCHEMA)))
    kind, _, rule = _SCHEMA[path]
    block, key = path.split(".")
    if data.draw(st.booleans()):
        value = data.draw(_broken_value(kind, rule))
    else:
        key = data.draw(st.text(min_size=1, max_size=6).filter(
            lambda k: f"{block}.{k}" not in _SCHEMA))
        path, value = f"{block}.{key}", 1.0
    with pytest.raises(ConfigError) as err:
        validate_config({"type": "cantilever", block: {key: value}})
    assert str(err.value).startswith(f"{path}: "), str(err.value)
