"""The benchmark's tracer wraps package functions by name; every name it
lists must still exist, or a traced benchmark run fails when it installs."""

import importlib.util
from pathlib import Path

import mdgame

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for _, name, owner_path, attr in tracer.TRACED:
        owner = mdgame
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), name
