"""Golden digests: fixed runs whose output bytes must not drift.

Every case runs in process and hashes the bytes a user gets: the ``wcds sim``
outcome document and event trace, a ``wcds compare`` CSV, the ``wcds curves``
CSVs, the ``wcds storage`` printout, a ``wcds gen`` graph file, and two
library-level churn runs. A change that alters any of them on purpose re-pins
the digest here and says why in CHANGES.md. The attack cases also carry the
facts their bytes stand for: each forms the clean structure and admits no
foreign radio. The trace writer is also held line by line to the per-event
encoding, ``json.dumps(event, sort_keys=True)``, so a drift names the first
line that differs.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
from itertools import zip_longest

import pytest

from wcds.cli import _TRACE_BATCH, _write_trace, main
from wcds.keys import Rank, provision
from wcds.protocol import Phase
from wcds.sim import (
    PlacementModel,
    RunConfig,
    assemble_outcome,
    deploy,
    late_join,
    leave,
    run,
    simulate,
    verify_outcome,
)

FIELD = {"groups": 4, "eta": 9, "radius": 30.0, "mode": "group_clustered", "seed": 3}

SIM_CASES = {
    "clean": FIELD,
    "forge_join": {**FIELD, "adversaries": {"count": 2, "behavior": "forge_join"}},
    "forge_approve": {**FIELD, "adversaries": {"count": 2, "behavior": "forge_approve"}},
    "replay": {**FIELD, "adversaries": {"count": 2, "behavior": "replay"}},
    "nested_placement": {
        "groups": 5,
        "eta": 7,
        "seed": 11,
        "placement": {"mode": "uniform", "target_degree": 8, "width": 80.0, "height": 80.0},
    },
    # Flood-heavy: 200 sensors, 19 orphans, and replayed flood copies whose
    # adversary transmitter ids (-2, -3) sort ahead of the legitimate copies.
    "flood_replay": {
        "groups": 20,
        "eta": 9,
        "seed": 2,
        "placement": {"mode": "group_clustered", "target_degree": 12, "width": 141.4, "height": 141.4},
        "adversaries": {"count": 2, "behavior": "replay"},
    },
}

# sha256 of (outcome JSON, event trace) per case.
SIM_DIGESTS = {
    "clean": (
        "1612890a36d1f1abad3c70cc4ca03b9820e05ecf2b3b98f50d6c3b74f1fb0631",
        "18256175299564feedb101ad200b864f6f2bd4a9a2b4f3fe51cafdf291c6340b",
    ),
    "forge_join": (
        "7a1c97884ad42e4b6f35bc505cbb103fa62f85d11ef8ad3d725995f78ab51848",
        "7c29b7336ef310d398db1d7b80e6f55aae5a1fd0ec9f244b0360464ca509ce63",
    ),
    "forge_approve": (
        "d783fcf4faea4000625d4016c862aca43106c67018ec0aa08d664e1ed42f4b6b",
        "85455f387014f309462b6e1592e0029dbadf30b100776411d8fcfc9396583161",
    ),
    "replay": (
        "12621f0fa6ba9f926da0fdc020b4d44b84be2481800ed62ecc9560b6785f0a64",
        "18256175299564feedb101ad200b864f6f2bd4a9a2b4f3fe51cafdf291c6340b",
    ),
    "nested_placement": (
        "e0edeac4278a3feb79b8985dd366fde08005f4093cdc96d706edb1fba8a10472",
        "6e4634a0509ed9010ea4516d8a9a935c1cb551e522c0a8031333136da4dd1b4f",
    ),
    "flood_replay": (
        "0bb8c20178167b9095e131f8f7f5d48678831cd8abad1124b91bff2eb2ff3132",
        "263d97a2d84f0ff576fec063f31e766e1ef6f70ad15ce9c9a7695ef5e1173f0f",
    ),
}

COMPARE_ARGS = ["--nmin", "20", "--nmax", "40", "--step", "20", "--degree", "6", "--seeds", "2"]
COMPARE_DIGEST = "4b786a92dfa22455a50d8de4021da4c187e5ae74ac87e5915c39da623b00720d"

CHURN_DIGEST = "d6fd0a301b90af760f21f3d5e015f22ca048d0f929882f4d0ae3ea2274dc9f5d"

RACE_DIGEST = "9d5665697a1f946728d86fb1b15c26d2279208223ee8aeb7473021bfc854b345"

# sha256 of each file ``wcds curves`` writes with its default arguments.
CURVES_DIGESTS = {
    "distinct_keys.csv": "1c70d4b4ba606ea8d0c6d7e610f7701cebeef6421dfd81110dcccdafc8b55efa",
    "er_degree.csv": "f9732740172446b913c5b825a8518fa88aac4499ded13dd2e0e411a91f8766d7",
    "gd_storage.csv": "6af72f1cdd6ba82da25a0e2f777dc0b912ed3048a57637aa548d10a3060d97b8",
}

STORAGE_ARGS = ["--alpha", "5", "--beta", "50", "--eta", "10"]
STORAGE_DIGEST = "c64a425ec8656ff328562ef39b114f01a224569d37d2fd3bddb86a2369c84a49"

GEN_ARGS = ["--n", "100", "--degree", "6", "--seed", "4"]
GEN_DIGEST = "e7b925903eceb5ff6c27ac4d41f18372ba2457850eb868df9a9973a28a7cc6c5"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def run_sim(tmp_path, name) -> tuple[bytes, bytes]:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(SIM_CASES[name]))
    out, trace = tmp_path / f"{name}.out.json", tmp_path / f"{name}.jsonl"
    assert quiet_main(["sim", "--config", str(cfg), "--out", str(out), "--trace", str(trace)]) == 0
    return out.read_bytes(), trace.read_bytes()


def run_compare(tmp_path) -> bytes:
    out = tmp_path / "compare.csv"
    assert quiet_main(["compare", *COMPARE_ARGS, "--seed", "0", "--out", str(out)]) == 0
    return out.read_bytes()


def churn_world():
    """Form a field with reserves held back, then two leaves and three late joins."""
    material = provision([9] * 4, reserve_fraction=0.2, seed=5)
    world = deploy(material, PlacementModel("group_clustered", 70.0, 70.0, 25.0), seed=6)
    run(world)
    joined = sorted(
        v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED
    )
    for v in joined[:2]:
        leave(world, v)
    for v in sorted(material.reserve)[:3]:
        late_join(world, v)
    run(world)
    return world


def race_run(seed: int):
    """On a formed 4 x 6 field with reserves, a joined member leaves and a
    reserve of the same group late-joins in the same round; run to
    quiescence. Returns the world and the joiner."""
    config = RunConfig(
        groups=4, eta=6, radius=45.0, mode="group_clustered", reserve_fraction=0.3, seed=seed
    )
    world = simulate(config)[0]
    material, states = world.material, world.states
    for gd, members in material.groups:
        spare = [v for v in members if v in material.reserve]
        home = [v for v in members if v in states and states[v].dominator == gd]
        if spare and home:
            break
    leave(world, home[0])
    late_join(world, spare[0])
    run(world)
    return world, spare[0]


def churn_bytes(world) -> bytes:
    """The outcome, its verification against the radio graph, and every event."""
    outcome = assemble_outcome(world)
    doc = json.dumps(outcome.to_dict(), sort_keys=True) + "\n"
    doc += json.dumps(dataclasses.asdict(verify_outcome(world, outcome)), sort_keys=True) + "\n"
    return (doc + "".join(json.dumps(e, sort_keys=True) + "\n" for e in world.events)).encode()


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("WCDS_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(SIM_CASES))
def test_sim_digests(tmp_path, name):
    outcome, trace = run_sim(tmp_path, name)
    counts = json.loads(outcome)["outcome"]["message_count"]
    assert any(k.startswith("ADV_") for k in counts) == ("adversaries" in SIM_CASES[name])
    assert (sha256(outcome), sha256(trace)) == SIM_DIGESTS[name]


@pytest.mark.parametrize("behavior", ["forge_join", "forge_approve", "replay"])
def test_attack_changes_no_structure(behavior):
    _, clean, _ = simulate(RunConfig.from_dict(SIM_CASES["clean"]))
    world, attacked, report = simulate(RunConfig.from_dict(SIM_CASES[behavior]))
    assert any(kind.startswith("ADV_") for kind, _ in attacked.message_count)
    assert attacked.dominator_set == clean.dominator_set
    assert attacked.membership == clean.membership
    provisioned = set(world.material.all_nodes())
    assert set(attacked.dominator_set) | set(dict(attacked.membership)) <= provisioned
    assert report.ok


def test_compare_csv_digest(tmp_path):
    assert sha256(run_compare(tmp_path)) == COMPARE_DIGEST


def test_curves_digests(tmp_path):
    assert quiet_main(["curves", "--out-dir", str(tmp_path)]) == 0
    assert {name: sha256((tmp_path / name).read_bytes()) for name in CURVES_DIGESTS} == CURVES_DIGESTS


def test_storage_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["storage", *STORAGE_ARGS]) == 0
    assert sha256(out.getvalue().encode()) == STORAGE_DIGEST


def test_gen_digest(tmp_path):
    out = tmp_path / "graph.txt"
    assert quiet_main(["gen", *GEN_ARGS, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == GEN_DIGEST


def test_churn_digest():
    assert sha256(churn_bytes(churn_world())) == CHURN_DIGEST


def test_race_digest():
    world, joiner = race_run(0)
    mine = {e["event"] for e in world.events if e["node"] == joiner}
    assert "joined" in mine and "orphaned" not in mine
    assert sha256(churn_bytes(world)) == RACE_DIGEST


def trace_text(events) -> str:
    """What ``wcds sim --trace`` writes for ``events``."""
    out = io.StringIO()
    _write_trace(out, events)
    return out.getvalue()


def per_event_lines(events) -> str:
    """The trace as the reference writes it: one ``json.dumps`` per event."""
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)


def first_difference(have: str, want: str) -> str | None:
    """Where the writer's lines first part from the reference's, or None."""
    for i, (a, b) in enumerate(zip_longest(have.split("\n"), want.split("\n"))):
        if a != b:
            return f"line {i}: writer {a!r}, reference {b!r}"
    return None


#: One event of each detail shape the protocol notes: no detail, negative
#: ids, a reason string (holding the text that separates events in the list
#: encoding, and characters that are escaped), observed lists empty and not.
EVENT_SHAPES = [
    {"round": 0, "node": 3, "event": "join_request", "detail": {}},
    {"round": 1, "node": -1, "event": "audit_discard", "detail": {"sender": -2, "reason": 'a "quote"}, {"detail": x'}},
    {"round": 2, "node": 7, "event": "orphaned", "detail": {"observed": []}},
    {"round": 2, "node": -1, "event": "orphan_recorded", "detail": {"observed": [0, 12, -1], "os": 7}},
    {"round": 3, "node": 4, "event": "rekeyed", "detail": {"joining": 5, "key": 2**70}},
    {"round": 4, "node": -3, "event": "left", "detail": {"reason": "tab\tnewline\n\u00e9\u2028"}},
]


@pytest.mark.parametrize("name", sorted(SIM_CASES))
def test_trace_writer_is_the_per_event_encoding(name):
    events = simulate(RunConfig.from_dict(SIM_CASES[name]))[0].events
    want = per_event_lines(events)
    assert sha256(want.encode()) == SIM_DIGESTS[name][1]
    diff = first_difference(trace_text(events), want)
    assert diff is None, diff


@pytest.mark.parametrize("count", [0, 1, len(EVENT_SHAPES), 2 * _TRACE_BATCH + 1])
def test_trace_writer_on_every_detail_shape(count):
    events = [EVENT_SHAPES[i % len(EVENT_SHAPES)] for i in range(count)]
    diff = first_difference(trace_text(events), per_event_lines(events))
    assert diff is None, diff


def test_trace_writer_refuses_an_event_it_cannot_split():
    # A nested object whose first key is "detail", after another in a list,
    # looks like an event boundary; the line count gives it away.
    nested = {"round": 0, "node": 1, "event": "x", "detail": {"list": [{}, {"detail": 1}]}}
    with pytest.raises(ValueError, match="one line each"):
        trace_text([nested])
