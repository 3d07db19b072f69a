"""One workload in one fresh process: set up, run passes, report JSON.

Started by ``run.py`` with the BLAS/OpenMP thread count pinned in its
environment. The process times its own set-up (importing mdfem and
generating the seeded inputs) and then runs passes for ``--seconds`` of
wall time, the first of them cold. Untraced, set-up and every pass are
timed with ``speed.SpeedSampler``, which samples the host's speed inside
the section and gives its time at nominal speed beside the raw wall and
CPU times. Traced passes are timed in CPU seconds, like their spans. The
last line of standard output is a JSON object with the set-up time,
per-pass times, solve outcomes, peak RSS and, for a traced run, the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

START = time.perf_counter()

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"


def import_library():
    """Import mdfem from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mdfem
    import mdfem.cli  # noqa: F401  (imports every library module)

    if not pathlib.Path(mdfem.__file__).resolve().is_relative_to(src):
        raise ImportError(f"mdfem resolved outside {src}: {mdfem.__file__}")


def environment():
    """Versions and thread settings recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def load_references(workload):
    data = json.loads((HERE / "references.json").read_text("utf-8"))
    return data["workloads"][workload]


def _summarize(recs):
    errs = [r["rel_err"] for r in recs if r["rel_err"] is not None]
    return {"solves": len(recs),
            "failed": sum(r["reason"] is not None for r in recs),
            "ref_rel_err": max(errs) if errs else None,
            "failures": [f"{r['name']}: {r['reason']}" for r in recs
                         if r["reason"] is not None]}


class _Untimed:
    """Stands in for SpeedSampler in traced runs."""

    probes, wall_s, nominal_s = [], None, None

    def __init__(self, start=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def run(workload, seed, seconds, trace, work_dir):
    from speed import SpeedSampler

    timer = _Untimed if trace else SpeedSampler
    # Set-up counts from the start of this module; its speed is sampled
    # from here on and applied to the whole interval.
    with timer(start=START) as setup:
        import_library()
        from workloads import make_inputs, run_pass

        inputs = make_inputs(workload, seed, work_dir)
    setup_cpu = time.process_time()

    from tracing import Tracer, TraceError, reduce_passes

    refs = load_references(workload)
    tracer = Tracer() if trace else None
    state, passes, layer_passes, trace_error = {}, [], [], None
    # Traced runs alternate untraced and traced passes after the cold
    # first one, so the overhead compares passes of the same process.
    min_passes = 3 if trace else 2
    begin = time.perf_counter()
    i = 0
    while i < min_passes or time.perf_counter() - begin < seconds:
        traced = trace and i % 2 == 1
        if traced:
            tracer.begin_pass(i)
        c0 = time.process_time()
        with timer() as section:
            recs = run_pass(workload, inputs, refs, state)
        cpu = time.process_time() - c0
        if traced:
            try:
                metrics, counts = tracer.end_pass(
                    cpu, {"cli.io_bytes": state.get("io_bytes", 0)})
                layer_passes.append({**metrics, **counts})
            except TraceError as exc:
                trace_error = str(exc)
        passes.append({"cpu": cpu, "wall": section.wall_s,
                       "nominal": section.nominal_s,
                       "probe": (statistics.median(section.probes)
                                 if section.probes else None), "traced": traced,
                       **_summarize(recs)})
        i += 1

    out = {"workload": workload, "seed": seed, "setup_cpu": setup_cpu,
           "setup_wall": setup.wall_s, "setup_nominal": setup.nominal_s,
           "passes": passes,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": environment(), "trace_error": trace_error}
    if trace:
        layers, unsteady = reduce_passes(layer_passes) if layer_passes \
            else ({}, [])
        out["layers"] = layers
        out["unsteady_counts"] = unsteady
        path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(path, {"workload": workload, "seed": seed,
                            "env": out["env"],
                            "pass_cpu_s": [p["cpu"] for p in passes]})
        out["trace_file"] = str(path.relative_to(ROOT))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
