"""One pass of each benchmark workload: plate3d, embedded and plane2d.

The passes run through ``perfbench/workloads.run_pass`` against the
committed ``perfbench/references.json``: every solve must stay inside its
reference band and within the benchmark's relative drift gate. A changed
``recover`` signature or a drift beyond round-off fails here before it
fails a benchmark run. plane2d runs ``mdfem.cli.main`` (batched Q4 and
spline assembly, CSV and VTK writers) with its configs and outputs in
``tmp_path``. The test only reads ``perfbench/``.
"""
import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["plate3d", "embedded", "plane2d"])
def test_pass_meets_references(workloads, name, tmp_path):
    refs = json.loads((PERFBENCH / "references.json").read_text("utf-8"))
    inputs = workloads.make_inputs(name, 1, tmp_path)
    records = workloads.run_pass(name, inputs, refs["workloads"][name], {})
    assert records
    assert [(r["name"], r["reason"]) for r in records] == [
        (r["name"], None) for r in records]
