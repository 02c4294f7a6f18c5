"""Shared test helpers: bytecode caches kept out of the source tree, the
environment for tests that start `python -m wcds` as a child process, a
world built from explicit positions, a recorder of every transmission, the
ids of a radio mask, a yes/no form of decryption, set walks over a graph's
adjacency sets that serve as references for the edge-array predicates, a
plain-loop reference for ``assemble_outcome``, and a counter of enum member
reads."""

import contextlib
import os
import random
import sys
import tempfile
from collections import Counter

# Bytecode goes under the temp dir, not next to the sources, so a test run
# leaves no __pycache__ in src/ (a cache there changes how fast a fresh
# interpreter imports the package). Set before the package is imported.
PYCACHE_PREFIX = os.path.join(tempfile.gettempdir(), "wcds-pycache")
sys.pycache_prefix = PYCACHE_PREFIX

import wcds
import wcds.sim
from wcds.keys import AuthenticationFailure, MalformedCiphertext, Rank, decrypt
from wcds.protocol import BS_ID, BSState, ClusterOutcome, NodeState, Phase
from wcds.sim import World
from wcds.wire import MessageKind

# The directory that holds the imported wcds package: src/ in a checkout,
# site-packages when installed. Absolute, so a child finds it from any cwd.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(wcds.__file__)))


def child_env(extra=None):
    """Environment for a child that must import the same wcds as this process.

    PACKAGE_ROOT goes first on PYTHONPATH and existing entries follow it; a
    relative entry such as `src` would resolve against the child's cwd.
    WCDS_SEED is dropped so that tests set it only on purpose, and the
    child keeps its bytecode where this process does.
    """
    env = dict(os.environ)
    env.pop("WCDS_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = PYCACHE_PREFIX
    if extra:
        env.update(extra)
    return env


def make_world(material, positions, radius, seed=0):
    """World with explicit positions; ``positions`` must place the base station."""
    assert BS_ID in positions, "positions must include the base station id"
    states = {
        n: NodeState(id=n, rank=material.ranks[n], ring=material.rings[n])
        for n in positions
        if n != BS_ID
    }
    return World(
        material=material,
        radius=radius,
        width=max(x for x, _ in positions.values()) + radius,
        height=max(y for _, y in positions.values()) + radius,
        positions=dict(positions),
        planned=dict(positions),
        states=states,
        bs=BSState(),
        rng=random.Random(seed),
    )


def record_transmissions(monkeypatch):
    """Record every transmission of each ``wcds.sim.step`` call, as ``run``
    makes them, into the returned list as ``(round, envelope)`` in the order
    sent. ``step`` empties the air before anyone sends, so after a call the
    air holds exactly that round's transmissions. A test that steps by hand
    calls ``wcds.sim.step`` to be recorded."""
    sent = []
    real = wcds.sim.step

    def recorded(world):
        real(world)
        sent.extend((world.round - 1, env) for env in world.inflight)

    monkeypatch.setattr(wcds.sim, "step", recorded)
    return sent


def radios(mask):
    """The protocol radios of a radio mask, where radio ``v`` is bit
    ``v + 1``, in ascending id order, read bit by bit."""
    assert isinstance(mask, int) and mask >= 0, mask
    return [i - 1 for i in range(mask.bit_length()) if mask >> i & 1]


def can_decrypt(key, ct):
    """True when ``key`` opens ``ct``, whatever kind it was sealed as."""
    try:
        decrypt(key, ct)
    except (AuthenticationFailure, MalformedCiphertext):
        return False
    return True


def component(g, start, within):
    """The nodes of ``within`` that ``start``, itself in ``within``, reaches
    through edges between nodes of ``within``: a walk over ``g.adj``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u in within and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def cover(g, members):
    """The closed neighbourhood of ``members``: the members and all their
    neighbours."""
    out = set(members)
    for v in members:
        out.update(g.adj[v])
    return out


def connected_within(g, keep):
    """True iff ``keep`` induces a connected subgraph; the empty set and a
    single node count as connected."""
    return len(keep) <= 1 or len(component(g, min(keep), keep)) == len(keep)


def outcome_by_loop(world):
    """``sim.assemble_outcome`` as a plain loop over the states that reads
    each enum member where it compares with it: the reference for the
    simulator's loop."""
    states = world.states
    dominators, membership, failures = [], [], []
    for n in sorted(states):
        st = states[n]
        if st.rank is not Rank.OS:
            dominators.append(n)
        elif st.phase is Phase.JOINED:
            if st.dominator is not None:
                membership.append((n, st.dominator))
        elif st.phase is not Phase.LEFT:
            failures.append(n)
    mediators = []
    for gd in dominators:
        for os_id in states[gd].mediators:
            if os_id < 0 or os_id not in states:
                continue
            own = states[os_id].dominator
            if own is not None and own != gd:
                mediators.append((os_id, own, gd))
    orphan_log = []
    for os_id in sorted(world.bs.orphans):
        rec = world.bs.orphans[os_id]
        orphan_log.append((os_id, rec.resolution[0] if rec.resolution else "pending"))
    return ClusterOutcome(
        dominator_set=tuple(dominators),
        membership=tuple(membership),
        mediators=tuple(sorted(mediators)),
        orphan_log=tuple(orphan_log),
        coverage_failures=tuple(failures),
        message_count=tuple(sorted(world.counters.items())),
    )


#: The enum classes whose class attribute reads ``enum_reads`` counts.
WATCHED_ENUMS = {Phase: "Phase", Rank: "Rank", MessageKind: "MessageKind"}


@contextlib.contextmanager
def enum_reads(monkeypatch):
    """Count the class attribute reads made on ``Phase``, ``Rank`` and
    ``MessageKind`` inside the block (``Phase.LEFT``, and those that
    ``MessageKind(4)`` and iteration make) into the yielded Counter, by
    (class name, attribute). It wraps the enum metaclass's
    ``__getattribute__``, which every such read goes through, and restores it
    when the block ends."""
    counts = Counter()
    read = type.__getattribute__

    def counted(cls, name):
        label = WATCHED_ENUMS.get(cls)
        if label is not None:
            counts[label, name] += 1
        return read(cls, name)

    (meta,) = {type(cls) for cls in WATCHED_ENUMS}
    with monkeypatch.context() as m:
        m.setattr(meta, "__getattribute__", counted)
        yield counts
