"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

Each workload turns ``--seed`` into an endless, deterministic sequence of
operation descriptors. ``begin`` does the untimed work before an operation
(choosing churn victims, restoring a world), ``run`` is the timed operation,
and ``check`` verifies its outputs and returns the simulated statistics of
that operation. A failed check raises ``CheckFailed``; an outcome that does
not verify is a measurement, not a failure.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import pickle
import random

import wcds.analysis
import wcds.cli
import wcds.graph
import wcds.keys
import wcds.sim
from wcds.keys import Rank
from wcds.protocol import BS_ID, Phase


class CheckFailed(Exception):
    """An operation's output broke an invariant the program promises."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _check_structure(dominators, membership, sensors) -> None:
    """Every member points at a dominator in the set; no adversary is admitted.

    Adversary radios carry ids below -1 and the base station is -1, so every
    admitted id must be a provisioned sensor.
    """
    chosen = set(dominators)
    for os_id, gd in membership:
        _require(gd in chosen, f"member {os_id} points at {gd}, not a dominator")
        _require(os_id in sensors, f"member {os_id} is not a provisioned sensor")
    for gd in chosen:
        _require(gd in sensors, f"dominator {gd} is not a provisioned sensor")


def _legit_transmissions(counts: dict) -> int:
    return sum(v for k, v in counts.items() if not k.startswith("ADV_"))


def _stats(rounds, tx, sensors, dominators, unresolved, ordinary, verified, digest_part):
    return {
        "rounds": rounds,
        "tx": tx,
        "sensors": sensors,
        "dominators": dominators,
        "unresolved": unresolved,
        "ordinary": ordinary,
        "verified": verified,
        "digest_part": digest_part,
    }


class Formation:
    """One ``wcds sim`` deployment of 500 sensors per operation, in process."""

    name = "formation_n500"
    why = (
        "wcds sim at n=500, degree 12: flood relay and dedupe do the work (~95% of 1.89M "
        "receptions are duplicates); 15 identical runs spread 2.5-3.8 s"
    )
    ref_ops = 10
    trace_ops = 2
    config = {
        "groups": 50,
        "eta": 9,
        "placement": {"mode": "group_clustered", "target_degree": 12, "width": 223.6, "height": 223.6},
    }

    def prepare(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.config_path = os.path.join(out_dir, "formation_config.json")
        self.out_path = os.path.join(out_dir, "formation_outcome.json")
        self.trace_path = os.path.join(out_dir, "formation_trace.jsonl")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, sort_keys=True)
        self.sensors = set(range(self.config["groups"] * (self.config["eta"] + 1)))
        self.ordinary = self.config["groups"] * self.config["eta"]

    def inputs(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            yield rng.randrange(2**31)

    def begin(self, deploy_seed):
        return deploy_seed

    def run(self, deploy_seed):
        argv = ["sim", "--config", self.config_path, "--out", self.out_path,
                "--trace", self.trace_path, "--seed", str(deploy_seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return wcds.cli.main(argv)

    def check(self, deploy_seed, rc):
        _require(rc == 0, f"wcds sim exited {rc}")
        with open(self.out_path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        out, verify = doc["outcome"], doc["verify"]
        _require(doc["config"]["seed"] == deploy_seed, "outcome is for another seed")
        _check_structure(out["dominator_set"], out["membership"], self.sensors)
        _require(verify["node_count"] == len(self.sensors), "not every sensor was deployed")
        _require(verify["dominator_count"] == len(out["dominator_set"]), "verify counted other dominators")
        events = 0
        with open(self.trace_path, "r", encoding="utf-8") as fh:
            for line in fh:
                event = json.loads(line)
                _require({"round", "node", "event"} <= set(event), "trace event lacks keys")
                events += 1
        _require(events > 0, "empty event trace")
        verified = verify["dominating"] and verify["weakly_connected"] and verify["fully_resolved"]
        return _stats(
            doc["rounds"],
            _legit_transmissions(out["message_count"]),
            verify["node_count"],
            len(out["dominator_set"]),
            len(out["coverage_failures"]),
            self.ordinary,
            verified,
            raw,
        )


class Sweep:
    """One (n, seed) point of the criterion-5 comparison at degree 6 per operation."""

    name = "sweep_deg6"
    why = (
        "criterion-5 comparison at degree 6, n=20..200: the only workload with connectivity "
        "redraws and the greedy baselines; small formations idle out their 64-round budget"
    )
    ref_ops = 200
    trace_ops = 20
    degree = 6.0
    eta = 9
    sizes = tuple(range(20, 201, 20))

    def prepare(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.captured: dict[str, list] = {"worlds": [], "alg1": [], "alg2": []}

    def capture_hooks(self) -> dict:
        """Keep what ``compare_ds_sizes`` computes but does not return."""
        def keep(key):
            return lambda args, result: self.captured[key].append((args, result))

        return {
            "sim.form_deployment": keep("worlds"),
            "baselines.cds_alg1": keep("alg1"),
            "baselines.cds_alg2": keep("alg2"),
        }

    def inputs(self):
        base = random.Random(f"{self.name}:{self.seed}").randrange(10**6)
        for s in itertools.count(base):
            for n in self.sizes:
                yield n, s

    def begin(self, point):
        for kept in self.captured.values():
            kept.clear()
        return point

    def run(self, point):
        n, s = point
        return wcds.analysis.compare_ds_sizes([n], self.degree, eta=self.eta, seeds=[s])

    def check(self, point, report):
        n, s = point
        _require(not report.missing, f"no connected graph for n={n} seed={s}")
        values = {r.method: r.value for r in report.rows}
        _require(len(report.rows) == 4, f"expected 4 rows, got {len(report.rows)}")
        (_, world), = self.captured["worlds"]
        for method, key in (("cds_alg1", "alg1"), ("cds_alg2", "alg2")):
            (args, chosen), = self.captured[key]
            _require(wcds.graph.is_cds(args[0], chosen), f"{method} set is not a CDS")
            _require(values[method] == len(chosen), f"{method} row disagrees with its set")
        outcome = wcds.sim.assemble_outcome(world)
        _require(values["ours"] == len(outcome.dominator_set), "ours row disagrees with the outcome")
        sensors = set(world.material.all_nodes())
        _check_structure(outcome.dominator_set, outcome.membership, sensors)
        report_ok = wcds.sim.verify_outcome(world, outcome).ok
        ordinary = sum(1 for v in world.states if world.material.ranks[v] is Rank.OS)
        rows = [[r.experiment, r.n, r.degree, r.eta, r.seed, r.method, r.value] for r in report.rows]
        stats = _stats(
            world.round,
            _legit_transmissions(world.counters),
            n,
            len(outcome.dominator_set),
            len(outcome.coverage_failures),
            ordinary,
            report_ok,
            json.dumps(rows).encode(),
        )
        stats["alg2"] = values["cds_alg2"]
        return stats


class Churn:
    """One maintenance epoch on a formed, attacked field per operation.

    k members leave and k reserve or departed sensors join in the same round,
    then the field runs to quiescence and is verified. Each session of
    ``epochs`` epochs starts on a freshly formed field of its own, so a run
    averages over several fields, and memory does not grow with the number
    of epochs a run gets through. Only the first field is formed in set-up;
    the others are formed between sessions, outside the timed operations.
    """

    name = "churn_rekey"
    why = (
        "leave+join epochs on formed fields with forge_join adversaries: the write path "
        "(rekey per change, failed decrypts, neighbour index rebuilt per late_join)"
    )
    ref_ops = 120
    trace_ops = 20
    epochs = 40
    k = 2

    def prepare(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.first = pickle.dumps(self._form(0))
        self.world = None

    def _form(self, session: int):
        """Form the field of one session.

        Fields are redrawn until the deployed sensors and the base station
        form one connected radio graph, and still do with every reserve
        position added. A sensor cut off from the base station stays
        unresolved and makes every later epoch spend the whole 64-round
        budget; sweep_deg6 and formation_n500 already carry split fields,
        and here they would make epoch cost a matter of which field the seed
        drew rather than of the write path.
        """
        rng = random.Random(f"{self.name}:{self.seed}:{session}")
        while True:
            config = wcds.sim.RunConfig(
                groups=50,
                eta=9,
                mode="group_clustered",
                width=223.6,
                height=223.6,
                target_degree=16,
                reserve_fraction=0.2,
                seed=rng.randrange(2**31),
            )
            material = wcds.keys.provision(
                [config.eta] * config.groups, reserve_fraction=config.reserve_fraction, seed=config.seed
            )
            placement = wcds.sim.PlacementModel(
                config.mode, config.width, config.height, config.resolve_radius()
            )
            world = wcds.sim.deploy(material, placement, seed=config.seed)
            if self._connected(world.positions, placement.radius) and self._connected(
                {**world.planned, BS_ID: world.positions[BS_ID]}, placement.radius
            ):
                break
        wcds.sim.inject_adversary(world, 4, "forge_join")
        wcds.sim.run(world)
        return world

    @staticmethod
    def _connected(positions: dict, radius: float) -> bool:
        spots = [positions[v] for v in sorted(positions)]
        return wcds.graph.is_connected(wcds.graph.unit_disk_graph(spots, radius))

    def inputs(self):
        for session in itertools.count():
            for epoch in range(self.epochs):
                yield session, epoch

    def begin(self, desc):
        session, epoch = desc
        if epoch == 0:
            self.world = None  # one field in memory at a time
            self.world = pickle.loads(self.first) if session == 0 else self._form(session)
            self.sensors = set(self.world.material.all_nodes())
            self.rng = random.Random(f"{self.name}:{self.seed}:{session}:epochs")
        world = self.world
        members = sorted(
            v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED
        )
        pool = sorted(
            [v for v in world.material.reserve if v not in world.states]
            + [v for v, st in world.states.items() if st.phase is Phase.LEFT]
        )
        leaving = self.rng.sample(members, self.k)
        joining = self.rng.sample(pool, min(self.k, len(pool)))
        dominators = sum(1 for st in world.states.values() if st.rank in (Rank.GD, Rank.GD_OS))
        return leaving, joining, world.round, dict(world.counters), dominators

    def run(self, ctx):
        leaving, joining = ctx[:2]
        world = self.world
        for v in leaving:
            wcds.sim.leave(world, v)
        for v in joining:
            wcds.sim.late_join(world, v)
        wcds.sim.run(world)
        outcome = wcds.sim.assemble_outcome(world)
        return outcome, wcds.sim.verify_outcome(world, outcome)

    def check(self, ctx, result):
        leaving, joining, round0, counts0, dominators0 = ctx
        outcome, report = result
        world = self.world
        _check_structure(outcome.dominator_set, outcome.membership, self.sensors)
        for v in outcome.dominator_set:
            admitted = world.states[v].subordinates
            _require(all(m in self.sensors for m in admitted), f"dominator {v} admitted an adversary")
        for v in leaving:
            _require(world.states[v].phase is Phase.LEFT, f"{v} did not leave")
        tx = _legit_transmissions(world.counters) - _legit_transmissions(counts0)
        rounds = world.round - round0
        ordinary = sum(
            1 for v, st in world.states.items()
            if st.phase is not Phase.LEFT and world.material.ranks[v] is Rank.OS
        )
        end_state = {"outcome": outcome.to_dict(), "rounds": rounds, "leaving": leaving, "joining": joining}
        stats = _stats(
            rounds,
            tx,
            report.node_count,
            len(outcome.dominator_set),
            len(outcome.coverage_failures),
            ordinary,
            report.ok,
            json.dumps(end_state, sort_keys=True).encode(),
        )
        stats["promotions"] = world.counters.get("PROMOTE_CMD", 0) - counts0.get("PROMOTE_CMD", 0)
        stats["added"] = len(outcome.dominator_set) - dominators0
        return stats


WORKLOADS = {w.name: w for w in (Formation, Sweep, Churn)}
