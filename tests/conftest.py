"""Shared test helpers: the environment for tests that start `python -m wcds`
as a child process, a world built from explicit positions, a recorder of
every transmission, the ids of a radio mask, a yes/no form of decryption,
and set walks over a graph's adjacency sets that serve as references for the
edge-array predicates."""

import os
import random

import wcds
import wcds.sim
from wcds.keys import AuthenticationFailure, MalformedCiphertext, decrypt
from wcds.protocol import BS_ID, BSState, NodeState
from wcds.sim import World

# The directory that holds the imported wcds package: src/ in a checkout,
# site-packages when installed. Absolute, so a child finds it from any cwd.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(wcds.__file__)))


def child_env(extra=None):
    """Environment for a child that must import the same wcds as this process.

    PACKAGE_ROOT goes first on PYTHONPATH and existing entries follow it; a
    relative entry such as `src` would resolve against the child's cwd.
    WCDS_SEED is dropped so that tests set it only on purpose.
    """
    env = dict(os.environ)
    env.pop("WCDS_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
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
