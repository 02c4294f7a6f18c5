"""Every function the benchmark instruments is still reachable by its name.

``perfbench/tracing.py`` wraps each ``<module>.<function>`` in
``TRACED_NAMES``, and the sweep workload also captures
``sim.form_deployment``; a name that no longer resolves stops the benchmark
with "no binding of ... to instrument". This catches it in the test suite.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED_NAMES


@pytest.mark.parametrize("name", [*traced_names(), "sim.form_deployment"])
def test_instrumented_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"wcds.{module}"), function))
