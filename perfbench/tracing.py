"""Spans and counters taken from outside the ``wcds`` package.

The package's modules import each other's functions with ``from .x import y``,
so one function is looked up under several module globals: ``decrypt`` is
called as ``wcds.protocol.decrypt`` and ``wcds.keys.decrypt``, ``os_step`` as
``wcds.sim.os_step``. Patching the defining module alone would miss most calls.
``Instrument`` finds every binding of a target function in the loaded
``wcds.*`` modules and replaces each one while it is active.

A traced function records one span (name, parent, start, end) in flat arrays.
Counter hooks run before or after the span, and their time is taken off the
clock the spans read, so counting does not show up as self time anywhere.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: The layers and the public functions timed in each, as ``<module>.<function>``.
TRACED = {
    "graph": ("unit_disk_graph", "gen_udg", "is_connected", "is_wcds"),
    "keys": ("provision", "encrypt", "decrypt", "rekey_group"),
    "protocol": ("os_step", "gd_step", "bs_step"),
    "sim": ("deploy", "step", "assemble_outcome", "verify_outcome", "late_join", "leave"),
    "baselines": ("cds_alg1", "cds_alg2"),
    "analysis": ("compare_ds_sizes",),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

#: Counters read in the traced run, with their unit and which direction is better.
COUNTERS = (
    ("sim.rounds", "count", "lower"),
    ("sim.rounds_with_traffic", "count", "lower"),
    ("sim.transmissions", "count", "lower"),
    ("sim.receptions", "count", "lower"),
    ("protocol.flood_receptions", "count", "lower"),
    ("protocol.flood_first_copies", "count", "lower"),
    ("protocol.flood_useful_ratio", "ratio", "higher"),
    ("protocol.node_steps", "count", "lower"),
    ("protocol.idle_node_steps", "count", "lower"),
    ("keys.decrypt.failures", "count", "lower"),
    ("graph.draws", "count", "lower"),
    ("graph.connected_draws", "count", "higher"),
    ("sim.archive_envelopes", "count", "lower"),
)


class Instrument:
    """Patches ``wcds`` functions while active; records spans when tracing.

    ``capture`` maps ``<module>.<function>`` to a hook ``hook(args, result)``
    that runs after each call, in traced and untraced runs alike. The hooks
    let the benchmark check outputs that a call consumes internally, such as
    the baseline sets behind a comparison row.
    """

    def __init__(self, tracing: bool, capture: dict | None = None):
        self.tracing = tracing
        self.capture = dict(capture or {})
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._paused = 0.0
        self._op_worlds: dict[int, tuple[object, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ clock

    def now(self) -> float:
        """Span clock: host time minus the time spent in counter hooks."""
        return time.perf_counter() - self._paused

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start[idx] = self.now()
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = self.now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        if not self.tracing:
            yield
            return
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def span_count(self) -> int:
        return len(self.span_name)

    def aggregate(self, first: int = 0) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per span name, over spans ``first`` onward.

        Self time is a span's duration minus its direct children's; spans of
        one thread nest, so the children never overlap.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)[first:]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[first:]
        dur = (
            np.frombuffer(self.span_end, dtype=np.float64)[first:]
            - np.frombuffer(self.span_start, dtype=np.float64)[first:]
        )
        own = dur.copy()
        has_parent = parent >= first
        np.subtract.at(own, parent[has_parent] - first, dur[has_parent])
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    # ------------------------------------------------------------ counters

    def begin_op(self) -> None:
        self._op_worlds = {}

    def end_op(self) -> None:
        for world, start in self._op_worlds.values():
            self.counters["sim.archive_envelopes"] += len(getattr(world, "archive", ())) - start
        self._op_worlds = {}

    def _before_step(self, args) -> None:
        world = args[0]
        c = self.counters
        c["sim.rounds"] += 1
        # Traffic means protocol traffic: like run()'s stop rule, adversary
        # chatter alone (transmitters below the base station's -1) does not count.
        if any(env.transmitter >= -1 for env in world.inflight):
            c["sim.rounds_with_traffic"] += 1
        if id(world) not in self._op_worlds:
            self._op_worlds[id(world)] = (world, len(getattr(world, "archive", ())))

    def _after_step(self, args, result) -> None:
        self.counters["sim.transmissions"] += len(args[0].inflight)

    def _before_node_step(self, args) -> None:
        state, inbox = args[0], args[1]
        c = self.counters
        c["sim.receptions"] += len(inbox)
        seen = state.seen_floods
        fresh = set()
        floods = 0
        for env in inbox:
            if env.kind in self._flood_kinds:
                floods += 1
                key = (env.sender, env.seq, int(env.kind))
                if key not in seen:
                    fresh.add(key)
        c["protocol.flood_receptions"] += floods
        c["protocol.flood_first_copies"] += len(fresh)

    def _after_sensor_step(self, args, result) -> None:
        c = self.counters
        c["protocol.node_steps"] += 1
        if not args[1] and not result[1]:
            c["protocol.idle_node_steps"] += 1

    def _after_draw(self, args, result) -> None:
        self.counters["graph.draws"] += 1

    def _after_connectivity(self, args, result) -> None:
        if result:
            self.counters["graph.connected_draws"] += 1

    def counter_values(self) -> dict[str, float]:
        c = self.counters
        out = {name: float(c[name]) for name, _, _ in COUNTERS if name != "protocol.flood_useful_ratio"}
        floods = c["protocol.flood_receptions"]
        out["protocol.flood_useful_ratio"] = c["protocol.flood_first_copies"] / floods if floods else 0.0
        return out

    # ------------------------------------------------------------ patching

    def _hooks(self, qualname: str, site: str):
        """(before, after, counts_failures) for one binding of a target."""
        before = after = None
        if self.tracing:
            if qualname == "sim.step":
                before, after = self._before_step, self._after_step
            elif qualname in ("protocol.os_step", "protocol.gd_step"):
                before, after = self._before_node_step, self._after_sensor_step
            elif qualname == "protocol.bs_step":
                before = self._before_node_step
            elif qualname == "graph.gen_udg":
                after = self._after_draw
            elif qualname == "graph.is_connected" and site == "wcds.analysis":
                # analysis calls is_connected only to accept or redraw a graph
                after = self._after_connectivity
        capture = self.capture.get(qualname)
        if capture is not None:
            after = capture if after is None else _chain(after, capture)
        return before, after, self.tracing and qualname == "keys.decrypt"

    def _wrap(self, fn, qualname: str, site: str):
        before, after, counts_failures = self._hooks(qualname, site)
        traced = self.tracing and qualname in TRACED_NAMES
        name_id = self._name_id(qualname) if traced else -1
        clock = time.perf_counter
        inst = self

        def wrapper(*args, **kwargs):
            if before is not None:
                t = clock()
                before(args)
                inst._paused += clock() - t
            idx = inst._open(name_id) if traced else -1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if traced:
                    inst._close(idx)
                if counts_failures:
                    inst.counters["keys.decrypt.failures"] += 1
                raise
            if traced:
                inst._close(idx)
            if after is not None:
                t = clock()
                after(args, result)
                inst._paused += clock() - t
            return result

        return wrapper

    def _targets(self) -> list[str]:
        names = list(self.capture)
        if self.tracing:
            names += [n for n in TRACED_NAMES if n not in self.capture]
        return names

    def install(self) -> None:
        import wcds.wire

        self._flood_kinds = wcds.wire.FLOOD_KINDS
        modules = [m for name, m in sorted(sys.modules.items()) if name == "wcds" or name.startswith("wcds.")]
        for qualname in self._targets():
            mod_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"wcds.{mod_name}"], fn_name)
            found = False
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(original, qualname, mod.__name__))
                        found = True
            if not found:
                raise RuntimeError(f"no binding of {qualname} to instrument")

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []

    @contextmanager
    def active(self):
        """Patch for the duration of one operation, counting what it archives."""
        self.install()
        self.begin_op()
        try:
            yield
        finally:
            self.end_op()
            self.uninstall()


def _chain(first, second):
    def both(args, result):
        first(args, result)
        second(args, result)

    return both
