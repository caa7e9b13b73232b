"""The benchmark's view of the library: traced names resolve and every workload runs.

The tracer wraps library functions by name, and the workloads call the library
directly; a removed name or a changed signature breaks the benchmark without
breaking any other test.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_bench("tracing")
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


WORKLOADS = load_bench("workloads").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_round_runs_and_checks(workload):
    # one round at a fixed seed, every operation run and the plan's own checks passing
    plan = WORKLOADS[workload](random.Random(7), 1)
    results = [fn(*args) for fn, args, _ in plan.ops]
    assert plan.check(results) == []
