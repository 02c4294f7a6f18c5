"""Every function the benchmark instruments is still reachable by its name,
and its tracer still runs.

``perfbench/tracing.py`` wraps each ``<module>.<function>`` in
``TRACED_NAMES``, and the sweep workload also captures
``sim.form_deployment``; a name that no longer resolves stops the benchmark
with "no binding of ... to instrument". This catches it in the test suite.
The workloads in ``perfbench/workloads.py`` call further names of the
package, which are checked the same way. The tracer's counter hooks also read
state the steps are handed, so one small simulation runs under it.
"""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("name", [*load_tracing().TRACED_NAMES, "sim.form_deployment"])
def test_instrumented_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"wcds.{module}"), function))


def test_traced_simulation_runs():
    tracing = load_tracing()
    for module in {name.split(".")[0] for name in tracing.TRACED_NAMES}:
        importlib.import_module(f"wcds.{module}")
    import wcds.sim

    from wcds.keys import Rank
    from wcds.protocol import Phase

    instrument = tracing.Instrument(tracing=True)
    config = wcds.sim.RunConfig(groups=3, eta=5, radius=30.0, mode="group_clustered", seed=1)
    with instrument.active():
        world = wcds.sim.simulate(config)[0]
        # Churn on the formed field: each change is spliced into the radio
        # index and the busy and role indices the steps read. The member
        # leaves, then comes back at its dominator's spot.
        member = min(v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED)
        home = world.states[member].dominator
        wcds.sim.leave(world, member)
        wcds.sim.run(world)
        left = world.states[member].phase
        wcds.sim.late_join(world, member, position=world.positions[home])
        wcds.sim.inject_adversary(world, 1, "forge_join")
        wcds.sim.run(world)
        report = wcds.sim.verify_outcome(world)
    assert left is Phase.LEFT and world.states[member].phase is not Phase.LEFT
    assert report.node_count == len(world.states)
    counters = instrument.counter_values()
    assert counters["protocol.node_steps"] > 0 and counters["protocol.flood_receptions"] > 0
    spans = instrument.aggregate()
    assert spans["sim.step"][0] == counters["sim.rounds"]
    assert spans["sim.leave"][0] == spans["sim.late_join"][0] == 1


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
