"""The benchmark tracer wraps library functions by name; each name must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for layer, qualname, _ in tracing.SPANNED + tracing.COUNTED:
        owner = importlib.import_module(f"padiclie.{layer}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer patches the attribute where it is defined, not an inherited one
        if owner is None or attr not in vars(owner):
            missing.append(f"padiclie.{layer}.{qualname}")
    assert not missing
