"""The benchmark's tracer still finds every package function it wraps.

``bench/trace_child.py`` replaces named functions in the crowdcoord modules
by looking them up with ``getattr``; a renamed or removed target would make
``bench/run.py --trace 1`` fail.  The tracer is loaded from its file, so the
bench directory needs no installing.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    trace_child = load_trace_child()
    targets = [*trace_child.WRAPPED, *trace_child.COUNTED]
    assert targets
    for module_name, name in targets:
        module = importlib.import_module(f"crowdcoord.{module_name}")
        assert callable(getattr(module, name, None)), f"crowdcoord.{module_name}.{name}"
    analytics = importlib.import_module("crowdcoord.analytics")
    assert callable(analytics.ProjectLog.from_events.__func__)
