"""mdfem benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plate3d --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload in fresh processes, one after another,
each a closed loop of passes for ``--seconds / MAX_PROCESSES`` of wall
time but at least one cold and one warm pass; it starts processes until
``--seconds`` have passed, at least ``MIN_PROCESSES`` and at most
``MAX_PROCESSES`` of them.
``first_pass_s``, ``setup_s`` and ``peak_rss_mb`` are medians over the
processes, ``pass_s`` the median over all their warm passes, so it
samples the whole run. ``--trace 1`` runs one process for
``--seconds``, alternating untraced and traced passes, and reports the
per-layer metrics.

BLAS and OpenMP run on ``THREADS`` thread and mdfem itself is
single-threaded. On a shared host the CPU's speed swings by up to 1.7x
within seconds, so the end-to-end times are times at a fixed nominal
speed: ``speed.py`` samples the host's speed about every 10 ms inside
set-up and every pass and scales each section by what it saw. Raw wall
and CPU times are printed beside them. The last line of standard output
is the result JSON; the lines before it state the environment, the
samples and ``fail_frac``.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Fresh processes per untraced run: each contributes one set-up, one
# cold-pass and one peak-RSS sample, so those medians do not rest on a
# single process.
MIN_PROCESSES = 3
MAX_PROCESSES = 6
WORKER_TIMEOUT = 120


def run_worker(args, seconds, trace):
    env = dict(os.environ)
    env.update({k: str(THREADS) for k in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        env=env, check=True, timeout=WORKER_TIMEOUT,
        stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _known_layer_metrics():
    from tracing import LAYERS

    names = set(LAYERS["metrics"])
    for span in LAYERS["spans"]:
        names |= {f"{span}_s", f"{span}_calls", f"{span}_incl_s"}
    return names


def end_to_end(runs):
    errs = [p["ref_rel_err"] for r in runs for p in r["passes"]
            if p["ref_rel_err"] is not None]
    return {
        "pass_s": statistics.median(p["nominal"] for r in runs
                                    for p in r["passes"][1:]),
        "first_pass_s": statistics.median(r["passes"][0]["nominal"]
                                          for r in runs),
        "setup_s": statistics.median(r["setup_nominal"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        # With no successful solve the error is taken as total (the run
        # is already marked incorrect).
        "ref_rel_err": max(errs) if errs else 1.0,
    }


def per_layer(loop):
    passes = loop["passes"]
    traced = [p["cpu"] for p in passes if p["traced"]]
    warm = [p["cpu"] for p in passes[1:] if not p["traced"]]
    layers = dict(loop["layers"])
    layers["trace_overhead_s"] = (statistics.median(traced)
                                  - statistics.median(warm))
    layers["pass_cpu_s"] = statistics.median(warm)
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one mdfem benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "mdfem" / "__init__.py").is_file():
        print(f"error: no mdfem sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if args.trace:
        wanted = spec["per_layer"]
        unknown = {m["name"] for m in wanted} - _known_layer_metrics()
        if unknown:
            print(f"error: unknown per-layer metrics {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        runs = [run_worker(args, args.seconds, 1)]
        values = per_layer(runs[-1])
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        runs, begin = [], time.perf_counter()
        while len(runs) < MIN_PROCESSES or (
                len(runs) < MAX_PROCESSES
                and time.perf_counter() - begin < args.seconds):
            runs.append(run_worker(args, args.seconds / MAX_PROCESSES, 0))
        values = end_to_end(runs)

    passes = [p for r in runs for p in r["passes"]]
    attempted = sum(p["solves"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f for p in passes for f in p["failures"]]
    loop = runs[-1]
    if loop["trace_error"]:
        problems.append(f"trace self-check: {loop['trace_error']}")
    if loop.get("unsteady_counts"):
        problems.append("counts differ between traced passes: "
                        + ", ".join(loop["unsteady_counts"]))

    print("# env " + " ".join(f"{k}={v}" for k, v in loop["env"].items()))
    print(f"# workload {args.workload} seed {args.seed}: {len(runs)} "
          f"processes")
    if args.trace:
        print("# passes, CPU s (t = traced): "
              + " ".join(f"{p['cpu']:.3f}{'t' if p['traced'] else ''}"
                         for p in passes))
        print(f"# spans: {loop['trace_file']}")
    else:
        print("# set-up, nominal s / wall s / CPU s: "
              + " ".join(f"{r['setup_nominal']:.3f}/{r['setup_wall']:.3f}/"
                         f"{r['setup_cpu']:.3f}" for r in runs))
        print("# passes, nominal s / wall s / CPU s / median probe ms: "
              + " ".join(f"{p['nominal']:.3f}/{p['wall']:.3f}/"
                         f"{p['cpu']:.3f}/{1e3 * p['probe']:.3f}"
                         for p in passes))
        warm = sum(len(r["passes"]) - 1 for r in runs)
        print(f"# pass_s: median of {warm} warm passes; first_pass_s, "
              f"setup_s, peak_rss_mb: medians of {len(runs)} processes; "
              "times at nominal speed")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for line in problems:
        print(f"# FAIL {line}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
