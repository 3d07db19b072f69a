"""Every callable the benchmark's span map names exists where it says.

``perfbench/tracing.py`` wraps each ``module:qualname`` listed under
``spans`` in ``perfbench/layers.json``, looking the attribute up in its
owner's ``__dict__``. A rename or move of a traced function fails here
instead of in a traced benchmark run.
"""
import importlib
import json
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"


def _lookup(target):
    mod, _, qual = target.partition(":")
    owner = importlib.import_module(f"mdfem.{mod}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner.__dict__.get(attr)


def test_every_traced_span_target_resolves():
    spans = json.loads(LAYERS.read_text("utf-8"))["spans"]
    targets = [t for group in spans.values() for t in group]
    assert targets
    missing = [t for t in targets if not callable(_lookup(t))]
    assert missing == []
