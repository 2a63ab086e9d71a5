"""The benchmark's trace points exist in the package.

``perfbench/tracing.py`` wraps functions at the names their callers look
up. A refactor that renames one only prints "cannot trace" at benchmark
time and zeroes the per-layer metric, so this checks every entry here.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracing = _load_tracing()
    missing = [f"{path}.{attr}" for path, attr, _, _ in tracing.PATCHES
               if tracing._resolve(path).__dict__.get(attr) is None]
    assert tracing.PATCHES
    assert not missing, f"cannot trace {missing}"
