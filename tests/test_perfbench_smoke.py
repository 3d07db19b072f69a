"""One pass of each benchmark workload: plate3d, embedded and plane2d.

The passes run through ``perfbench/workloads.run_pass`` against the
committed ``perfbench/references.json``: every solve must stay inside its
reference band and within the benchmark's relative drift gate. A changed
``recover`` signature or a drift beyond round-off fails here before it
fails a benchmark run. plane2d runs ``mdfem.cli.main`` (batched Q4 and
spline assembly, CSV and VTK writers) with its configs and outputs in
``tmp_path``. One more embedded pass runs under the benchmark's span
tracer. The tests only read ``perfbench/``.
"""
import json
import pathlib
import sys
import time

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


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


@pytest.mark.parametrize("name", ["plate3d", "embedded", "plane2d"])
def test_pass_meets_references(workloads, name, tmp_path):
    refs = json.loads((PERFBENCH / "references.json").read_text("utf-8"))
    inputs = workloads.make_inputs(name, 1, tmp_path)
    records = workloads.run_pass(name, inputs, refs["workloads"][name], {})
    assert records
    assert [(r["name"], r["reason"]) for r in records] == [
        (r["name"], None) for r in records]


def test_traced_embedded_pass(workloads, tracing, tmp_path):
    """The tracer's spans close consistently around one embedded pass, and
    its interface counters read `CouplingOperator.segments` and their
    weights: 36 segments with 784 points over 8 interface assemblies."""
    refs = json.loads((PERFBENCH / "references.json").read_text("utf-8"))
    inputs = workloads.make_inputs("embedded", 1, tmp_path)
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    try:
        c0 = time.process_time()
        records = workloads.run_pass("embedded", inputs,
                                     refs["workloads"]["embedded"], {})
        cpu = time.process_time() - c0
    finally:
        tracer.uninstall()
    metrics, counts = tracer.end_pass(cpu, {})
    assert records and all(r["reason"] is None for r in records)
    assert counts["coupling.segments"] == 36
    assert counts["coupling.qpoints"] == 784
    assert metrics["coupling.assemble_calls"] == 8
    # Each assembly prolongs all its points in one call; the rest are the
    # recovery calls.
    assert metrics["structural.recover_calls"] == 1
    assert metrics["structural.prolong_calls"] == 8 + 1
