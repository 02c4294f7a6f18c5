"""Every function the benchmark instruments is still reachable by its name.

``perfbench/tracing.py`` wraps each ``<module>.<function>`` in
``TRACED_NAMES``, and the sweep workload also captures
``sim.form_deployment``; a name that no longer resolves stops the benchmark
with "no binding of ... to instrument". This catches it in the test suite.
The workloads in ``perfbench/workloads.py`` call further names of the
package, which are checked the same way.
"""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED_NAMES


@pytest.mark.parametrize("name", [*traced_names(), "sim.form_deployment"])
def test_instrumented_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"wcds.{module}"), function))


def workload_names() -> list[str]:
    """Every ``wcds.<module>.<name>`` attribute chain and every
    ``from wcds.<module> import <name>`` in the workloads file, plus the
    attribute chains read off those imported names (``Rank.OS``)."""
    with open(WORKLOADS) as f:
        tree = ast.parse(f.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wcds."):
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = set(imported.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name):
            root = "wcds" if node.id == "wcds" else imported.get(node.id)
            if root:
                names.add(".".join([root, *reversed(chain)]))
    return sorted(names)


@pytest.mark.parametrize("name", workload_names())
def test_workload_name_resolves(name):
    _, module, *attrs = name.split(".")
    obj = importlib.import_module(f"wcds.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
