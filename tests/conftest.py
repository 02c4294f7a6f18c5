"""Shared test helpers: the environment for tests that start `python -m wcds`
as a child process, a world built from explicit positions, a recorder of
every transmission, and a yes/no form of decryption."""

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


def can_decrypt(key, ct):
    """True when ``key`` opens ``ct``, whatever kind it was sealed as."""
    try:
        decrypt(key, ct)
    except (AuthenticationFailure, MalformedCiphertext):
        return False
    return True
