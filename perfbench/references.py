"""Regenerate ``references.json``: the committed quantities of interest.

Usage (from the root of a checkout)::

    python3 perfbench/references.py

Runs one pass of every workload at ``REFERENCE_SEED`` on the current
code, plus the 64x4x5 continuum reference of ``plate3d``, and stores
every quantity of interest per unit load factor (``alpha`` values are
load-independent and stored as is). Benchmark passes of any seed are
checked against these values, scaled by their own load factors, within
``workloads.DRIFT_RTOL``. Run it again only when a change is meant to
move the physics numbers.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from worker import HERE, OUT, import_library  # noqa: E402

REFERENCE_SEED = 0


def main():
    import_library()
    import workloads

    out = {"seed": REFERENCE_SEED, "drift_rtol": workloads.DRIFT_RTOL,
           "workloads": {}}
    for name in workloads.WORKLOADS:
        work_dir = OUT / f"references-{name}"
        try:
            inputs = workloads.make_inputs(name, REFERENCE_SEED, work_dir)
            refs = {"solves": {}}
            if name == "plate3d":
                refs["continuum"] = {
                    "tip_uz": workloads.plate3d_continuum_reference()}
            recs = workloads.run_pass(name, inputs, refs, {})
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        for rec in recs:
            if rec["reason"] is not None:
                sys.exit(f"{name}/{rec['name']} failed: {rec['reason']}")
            factor = (inputs["factors"][rec["name"]] if "factors" in inputs
                      else inputs["factor"])
            refs["solves"][rec["name"]] = {
                k: v if k.startswith("alpha") else v / factor
                for k, v in rec["qoi"].items()}
            print(f"{name}/{rec['name']}: {rec['qoi']} "
                  f"(reference error {rec['rel_err']})")
        out["workloads"][name] = refs
    path = HERE / "references.json"
    path.write_text(json.dumps(out, indent=1) + "\n", "utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
